// Tests for the benchmark's own helpers: the nearest-rank percentile rule
// and its ten-beyond support test, the open-loop due-time, lateness and
// backlog math, the seeded samplers (stats.hpp), and the closed-loop
// driver's accounting when the server closes connections (serving.hpp).
// Exits non-zero when any check fails; run.py --selftest and
// test_perfbench.py run it.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "client.hpp"
#include "serving.hpp"
#include "stats.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

void test_nearest_rank() {
  using perfbench::nearest_rank;
  check(nearest_rank(4, 0.5) == 2, "p50 of 4 is rank 2");
  check(nearest_rank(5, 0.5) == 3, "p50 of 5 is rank 3");
  check(nearest_rank(100, 0.99) == 99, "p99 of 100 is rank 99");
  check(nearest_rank(10, 0.99) == 10, "p99 of 10 is the maximum");
  check(nearest_rank(1000, 0.9) == 900, "p90 of 1000 is rank 900");
  check(nearest_rank(3, 0.0) == 1, "p0 clamps to rank 1");
  check(nearest_rank(3, 1.0) == 3, "p100 is the maximum");
  check(nearest_rank(0, 0.5) == 0, "no samples, no rank");

  std::vector<double> sorted;
  for (int i = 1; i <= 100; ++i) sorted.push_back(i);
  check(perfbench::percentile_sorted(sorted, 0.5) == 50.0, "p50 of 1..100");
  check(perfbench::percentile_sorted(sorted, 0.99) == 99.0, "p99 of 1..100");
  check(perfbench::percentile_sorted({}, 0.5) == 0.0, "empty percentile is 0");
}

void test_support_rule() {
  using perfbench::percentile_supported;
  using perfbench::samples_beyond;
  check(samples_beyond(1000, 0.99) == 10, "p99 of 1000 has 10 beyond");
  check(percentile_supported(1000, 0.99), "p99 of 1000 is supported");
  check(!percentile_supported(999, 0.99), "p99 of 999 is flagged");
  check(samples_beyond(200, 0.9) == 20, "p90 of 200 has 20 beyond");
  check(percentile_supported(100, 0.9), "p90 of 100 is supported");
  check(!percentile_supported(99, 0.9), "p90 of 99 is flagged");
  check(!percentile_supported(0, 0.5), "no samples is flagged");
}

void test_median() {
  check(perfbench::median({3.0, 1.0, 2.0}) == 2.0, "odd median");
  check(perfbench::median({4.0, 1.0, 3.0, 2.0}) == 2.5, "even median");
  check(perfbench::median({}) == 0.0, "empty median");
  check(perfbench::mean({1.0, 2.0, 6.0}) == 3.0, "mean");
  check(perfbench::mean({}) == 0.0, "empty mean");
}

void test_open_loop() {
  using namespace std::chrono;
  using perfbench::Clock;
  const Clock::time_point t0{};
  const perfbench::OpenLoopSchedule schedule{t0, 4.0};  // every 250 ms
  check(schedule.due(0) == t0, "item 0 is due at start");
  check(schedule.due(1) == t0 + milliseconds(250), "item 1 due at 250 ms");
  check(schedule.due(8) == t0 + seconds(2), "item 8 due at 2 s");
  check(schedule.due_by(t0 - milliseconds(1)) == 0, "nothing due before start");
  check(schedule.due_by(t0) == 1, "one item due at start");
  check(schedule.due_by(t0 + milliseconds(999)) == 4, "four due by 999 ms");
  check(schedule.due_by(t0 + seconds(1)) == 5, "five due at 1 s");
  // Item 2 (due 500 ms) sent at 1100 ms: items 3 and 4 were due too.
  check(schedule.backlog(2, t0 + milliseconds(1100)) == 2,
        "two items queued behind a late send");
  check(schedule.backlog(2, t0 + milliseconds(500)) == 0,
        "an on-time send has no backlog");
  check(perfbench::lateness_ms(t0 + milliseconds(500),
                               t0 + milliseconds(1100)) == 600.0,
        "600 ms late");
  check(perfbench::lateness_ms(t0 + milliseconds(500),
                               t0 + milliseconds(400)) == 0.0,
        "early sends are not late");
}

void test_samplers() {
  perfbench::SplitMix a{7};
  perfbench::SplitMix b{7};
  bool same = true;
  for (int i = 0; i < 100; ++i) same = same && a.next() == b.next();
  check(same, "one seed, one stream");
  perfbench::SplitMix c{8};
  check(perfbench::SplitMix{7}.next() != c.next(), "seeds differ");

  const perfbench::Zipf zipf{1000, 1.0};
  perfbench::SplitMix rng{1};
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 100000; ++i) ++counts[zipf.draw(rng)];
  check(counts[0] > counts[1] && counts[1] > counts[9],
        "zipf ranks fall off");
  // Under Zipf(1) over 1000 ranks rank 0 takes 1/H(1000) ~ 13.4%.
  check(counts[0] > 12000 && counts[0] < 15000, "zipf head share");
}

/// A loopback server that answers the first request on each connection
/// with a 200 and then closes it: a keep-alive regression as the client
/// drivers see it.
class OneShotServer {
 public:
  OneShotServer() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t length = sizeof(address);
    listening_ =
        fd_ >= 0 &&
        ::bind(fd_, reinterpret_cast<sockaddr*>(&address), sizeof(address)) ==
            0 &&
        ::listen(fd_, 16) == 0 &&
        ::getsockname(fd_, reinterpret_cast<sockaddr*>(&address), &length) ==
            0;
    port_ = ntohs(address.sin_port);
    if (listening_) thread_ = std::thread([this] { serve(); });
  }
  ~OneShotServer() {
    if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);  // wakes the blocked accept()
    if (thread_.joinable()) thread_.join();
    if (fd_ >= 0) ::close(fd_);
  }
  OneShotServer(const OneShotServer&) = delete;
  OneShotServer& operator=(const OneShotServer&) = delete;

  [[nodiscard]] bool listening() const { return listening_; }
  [[nodiscard]] std::uint16_t port() const { return port_; }

 private:
  void serve() {
    static constexpr char kResponse[] =
        "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok";
    for (;;) {
      const int conn = ::accept(fd_, nullptr, nullptr);
      if (conn < 0) {
        if (errno == EINTR) continue;
        return;
      }
      std::string request;
      char chunk[4096];
      while (request.find("\r\n\r\n") == std::string::npos) {
        const ssize_t n = ::recv(conn, chunk, sizeof(chunk), 0);
        if (n <= 0) break;
        request.append(chunk, static_cast<std::size_t>(n));
      }
      (void)::send(conn, kResponse, sizeof(kResponse) - 1, MSG_NOSIGNAL);
      ::close(conn);
    }
  }

  int fd_ = -1;
  bool listening_ = false;
  std::uint16_t port_ = 0;
  std::thread thread_;
};

void test_closed_by_server() {
  OneShotServer server;
  check(server.listening(), "one-shot server listens");
  if (!server.listening()) return;
  std::vector<perfbench::ReadRequest> pool(1);
  pool[0].target = "/healthz";
  pool[0].bytes = perfbench::make_get(pool[0].target);
  for (const int depth : {1, 8}) {
    const perfbench::PhaseStats stats =
        perfbench::run_closed_loop(server.port(), pool, 2, depth, 1, 0);
    check(stats.balanced(), "every request sent is answered or failed");
    check(stats.failed > 0, "a connection the server closed counts failed");
  }
}

}  // namespace

int main() {
  test_nearest_rank();
  test_support_rule();
  test_median();
  test_open_loop();
  test_samplers();
  test_closed_by_server();
  if (failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
