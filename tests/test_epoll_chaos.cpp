// Chaos suite for the event loops' own failure modes. The loop batches
// pipelined responses into one writev, so a torn writev must resume
// mid-iovec; a client that vanishes mid-request surfaces as EPOLLHUP;
// deadlines are enforced lazily on data arrival plus a timer wheel
// for fully stalled connections; and hot reloads swap engines under
// pipelined bursts where many requests ride one socket buffer. Everything
// rides the seeded FaultInjector (set ASREL_CHAOS_SEED to replay CI's
// schedule).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/scenario.hpp"
#include "core/snapshot_builder.hpp"
#include "io/flat_snapshot.hpp"
#include "io/snapshot.hpp"
#include "serve/engine_hub.hpp"
#include "serve/fault_inject.hpp"
#include "serve/http_server.hpp"
#include "serve/query_engine.hpp"
#include "serve/service.hpp"

namespace asrel {
namespace {

using namespace std::chrono_literals;

std::uint64_t chaos_seed() {
  if (const char* env = std::getenv("ASREL_CHAOS_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 20210517;  // default schedule, same as test_chaos.cpp
}

/// Small world for reload experiments (same shape as test_chaos.cpp's).
const io::Snapshot& epoll_snapshot() {
  static const io::Snapshot snapshot = [] {
    core::ScenarioParams params;
    params.topology.as_count = 600;
    params.topology.seed = 13;
    return core::build_snapshot(*core::Scenario::build(params));
  }();
  return snapshot;
}

/// Blocking test client with split send/read halves and header capture
/// (the same shape as test_chaos.cpp's ChaosClient).
class Client {
 public:
  explicit Client(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(port);
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&address),
                  sizeof(address)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  [[nodiscard]] bool connected() const { return fd_ >= 0; }

  bool send_raw(const std::string& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  int read_response(std::string* body = nullptr,
                    std::string* headers = nullptr) {
    std::string data = std::move(leftover_);
    leftover_.clear();
    std::size_t header_end;
    while ((header_end = data.find("\r\n\r\n")) == std::string::npos) {
      if (!recv_more(&data)) return -1;
    }
    std::size_t content_length = 0;
    const std::size_t cl = data.find("Content-Length: ");
    if (cl != std::string::npos && cl < header_end) {
      content_length = static_cast<std::size_t>(
          std::strtoull(data.c_str() + cl + 16, nullptr, 10));
    }
    const std::size_t total = header_end + 4 + content_length;
    while (data.size() < total) {
      if (!recv_more(&data)) return -1;
    }
    if (headers != nullptr) *headers = data.substr(0, header_end);
    if (body != nullptr) *body = data.substr(header_end + 4, content_length);
    leftover_ = data.substr(total);
    const std::size_t space = data.find(' ');
    return space == std::string::npos ? -1
                                      : std::atoi(data.c_str() + space + 1);
  }

  int get(const std::string& path, std::string* body = nullptr,
          std::string* headers = nullptr) {
    if (!send_raw("GET " + path + " HTTP/1.1\r\nHost: epoll\r\n\r\n")) {
      return -1;
    }
    return read_response(body, headers);
  }

 private:
  bool recv_more(std::string* data) {
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    data->append(chunk, static_cast<std::size_t>(n));
    return true;
  }

  int fd_ = -1;
  std::string leftover_;
};

serve::HttpServerOptions epoll_options() {
  serve::HttpServerOptions options;
  options.port = 0;
  options.worker_threads = 2;
  return options;
}

// ------------------------------------------------------------ torn writev

TEST(EpollChaos, TornWritevIsInvisibleToPipelinedClients) {
  // A body big enough that the batched response train spans many iovec
  // resumptions when writev is torn (EINTR or a 1-byte short write).
  const std::string payload(4096, 'w');
  auto options = epoll_options();
  serve::HttpServer server{
      [&payload](const serve::HttpRequest&) {
        return serve::HttpResponse::json(200,
                                         "{\"payload\":\"" + payload + "\"}");
      },
      options};

  serve::fault::FaultPlan plan;
  plan.seed = chaos_seed();
  plan.writev_eintr_permille = 200;
  plan.writev_short_permille = 300;
  serve::fault::ScopedFaults faults{plan};

  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  Client client{server.port()};
  ASSERT_TRUE(client.connected());

  // Pipelined bursts: 8 requests per send, so each flush batches several
  // responses into one writev — exactly the path the faults tear.
  const std::string request = "GET /w HTTP/1.1\r\nHost: epoll\r\n\r\n";
  std::string burst;
  for (int i = 0; i < 8; ++i) burst += request;
  for (int round = 0; round < 20; ++round) {
    ASSERT_TRUE(client.send_raw(burst)) << "round " << round;
    for (int i = 0; i < 8; ++i) {
      std::string body;
      ASSERT_EQ(client.read_response(&body), 200)
          << "round " << round << " response " << i;
      ASSERT_NE(body.find(payload), std::string::npos)
          << "round " << round << " response " << i;
    }
  }

  const auto stats = serve::fault::FaultInjector::instance().stats();
  EXPECT_GT(stats.writev_faults, 0u)
      << "the run injected nothing — schedule or rates are broken";
  server.stop();
}

// -------------------------------------------------- vanishing clients

TEST(EpollChaos, AbruptClientCloseMidRequestIsSurvivable) {
  auto options = epoll_options();
  serve::HttpServer server{
      [](const serve::HttpRequest&) {
        return serve::HttpResponse::json(200, R"({"ok":true})");
      },
      options};
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  // Clients that connect, send part of a request, and vanish: the event
  // loop sees EPOLLHUP / recv()==0 with a half-parsed request buffered.
  for (int i = 0; i < 16; ++i) {
    Client victim{server.port()};
    ASSERT_TRUE(victim.connected());
    ASSERT_TRUE(victim.send_raw("GET /gone HTTP/1.1\r\nHo"));
    // destructor closes the socket mid-request
  }
  // Clients that send a full pipelined burst and vanish before reading:
  // the server's batched flush hits a dead socket (EPIPE/RST).
  for (int i = 0; i < 8; ++i) {
    Client victim{server.port()};
    ASSERT_TRUE(victim.connected());
    const std::string request = "GET /gone HTTP/1.1\r\nHost: epoll\r\n\r\n";
    ASSERT_TRUE(victim.send_raw(request + request + request));
  }

  // The loops reaped everything and keep serving new connections.
  Client survivor{server.port()};
  ASSERT_TRUE(survivor.connected());
  std::string body;
  EXPECT_EQ(survivor.get("/after", &body), 200);
  EXPECT_NE(body.find("ok"), std::string::npos) << body;
  EXPECT_TRUE(server.running());
  server.stop();
}

// ----------------------------------------------------- deadlines / stalls

TEST(EpollChaos, SlowTricklePastDeadlineGets408) {
  auto options = epoll_options();
  options.request_deadline_ms = 100;
  options.request_timeout_ms = 5000;  // the lazy deadline must fire first
  serve::HttpServer server{
      [](const serve::HttpRequest&) {
        return serve::HttpResponse::json(200, R"({"ok":true})");
      },
      options};
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  // The epoll path checks the total deadline lazily when data arrives:
  // one pad byte trickled in after the deadline wakes the loop, which
  // notices the overrun and cuts the connection with 408.
  Client trickler{server.port()};
  ASSERT_TRUE(trickler.connected());
  ASSERT_TRUE(trickler.send_raw("GET /never HTTP/1.1\r\n"));
  std::this_thread::sleep_for(180ms);
  ASSERT_TRUE(trickler.send_raw("X-Pad: y\r\n"));
  EXPECT_EQ(trickler.read_response(), 408);

  const auto stats = server.stats();
  EXPECT_GE(stats.deadline_exceeded, 1u);
  bool saw_read = false;
  for (const auto& [route, count] : server.deadline_exceeded_by_route()) {
    if (route == "(read)") saw_read = count > 0;
  }
  EXPECT_TRUE(saw_read);
  server.stop();
}

TEST(EpollChaos, FullyStalledConnectionIsCutByTheTimerWheel) {
  auto options = epoll_options();
  options.request_timeout_ms = 100;
  options.request_deadline_ms = 5000;
  serve::HttpServer server{
      [](const serve::HttpRequest&) {
        return serve::HttpResponse::json(200, R"({"ok":true})");
      },
      options};
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  // Unlike the trickler, this connection never sends another byte, so no
  // event ever wakes the lazy deadline check — only the timer wheel can
  // notice the stall and time it out.
  Client stalled{server.port()};
  ASSERT_TRUE(stalled.connected());
  const auto started = std::chrono::steady_clock::now();
  ASSERT_TRUE(stalled.send_raw("GET /stall HTTP/1.1\r\n"));
  EXPECT_EQ(stalled.read_response(), 408);
  // Promptly: the stall timer re-arms lazily on fire, and a re-arm into
  // an already-swept wheel slot once waited a full ~4 s wheel revolution
  // instead of one more timeout period. Generous bound, but far below
  // the revolution.
  const auto elapsed = std::chrono::steady_clock::now() - started;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            1500);
  EXPECT_GE(server.stats().timeouts, 1u);
  server.stop();
}

// -------------------------------------------------------- EMFILE shedding

TEST(EpollChaos, EmfileShedCarriesRetryAfter) {
  auto options = epoll_options();
  options.retry_after_hint_s = 3;
  serve::HttpServer server{
      [](const serve::HttpRequest&) {
        return serve::HttpResponse::json(200, R"({"pong":true})");
      },
      options};
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  // Every accept hits the fd-exhaustion emergency path: the reserve fd is
  // released, the connection accepted and shed. The shed response must be
  // the single builder's 503 — with Retry-After — not a bare close.
  {
    serve::fault::FaultPlan plan;
    plan.seed = chaos_seed();
    plan.accept_emfile_permille = 1000;
    serve::fault::ScopedFaults faults{plan};

    // A shed connection usually reads the 503 but can also see a reset
    // (the server closes right after the write); retry until one response
    // comes through — bounded, and the header assertion is the point.
    bool saw_shed = false;
    for (int i = 0; i < 20 && !saw_shed; ++i) {
      Client refused{server.port()};
      ASSERT_TRUE(refused.connected());
      std::string body;
      std::string headers;
      const int status = refused.read_response(&body, &headers);
      if (status == -1) continue;
      ASSERT_EQ(status, 503);
      EXPECT_NE(headers.find("Retry-After: 3"), std::string::npos)
          << headers;
      EXPECT_NE(body.find("overloaded"), std::string::npos) << body;
      saw_shed = true;
    }
    EXPECT_TRUE(saw_shed);
    EXPECT_GT(server.stats().emfile_recoveries, 0u);
  }

  // Faults disarmed: service resumes on the same listener. A loop may
  // still be inside one in-flight emergency accept (which sheds whatever
  // connects next), so allow a couple of sacrificial connections before
  // demanding a 200.
  bool served = false;
  for (int i = 0; i < 10 && !served; ++i) {
    Client recovered{server.port()};
    ASSERT_TRUE(recovered.connected());
    served = recovered.get("/ping") == 200;
  }
  EXPECT_TRUE(served);
  server.stop();
}

// ------------------------------------------------------ drain-phase sheds

TEST(EpollChaos, DrainAbortsQueuedConnectionsWithShed503) {
  auto options = epoll_options();
  options.worker_threads = 1;  // one loop, so a slow handler blocks accepts
  options.drain_deadline_ms = 100;
  options.retry_after_hint_s = 5;
  std::promise<void> slow_entered;
  serve::HttpServer server{
      [&slow_entered](const serve::HttpRequest& request) {
        if (request.path == "/slow") {
          slow_entered.set_value();
          std::this_thread::sleep_for(300ms);
        }
        return serve::HttpResponse::json(200, R"({"ok":true})");
      },
      options};
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  // busy occupies the single event loop for longer than the drain grace
  // period, and queued connects only once the loop is inside that
  // handler. connect() returning means the kernel holds queued in the
  // listener's backlog, where no loop can accept it before the drain.
  Client busy{server.port()};
  ASSERT_TRUE(busy.connected());
  ASSERT_TRUE(busy.send_raw("GET /slow HTTP/1.1\r\nHost: epoll\r\n\r\n"));
  ASSERT_EQ(slow_entered.get_future().wait_for(10s),
            std::future_status::ready);
  Client queued{server.port()};
  ASSERT_TRUE(queued.connected());

  const serve::DrainReport report = server.drain();
  // Two aborts: queued out of the backlog, busy at the grace deadline.
  EXPECT_EQ(report.aborted, 2u);

  // The never-served connection gets the standard shed response — the
  // same single builder as admission and EMFILE sheds, Retry-After
  // included — not a bare close.
  std::string body;
  std::string headers;
  EXPECT_EQ(queued.read_response(&body, &headers), 503);
  EXPECT_NE(headers.find("Retry-After: 5"), std::string::npos) << headers;
  EXPECT_NE(body.find("overloaded"), std::string::npos) << body;
}

// ------------------------------------------------- shared-listener accept

TEST(EpollChaos, ConcurrentConnectsAcrossLoopsGetDistinctRequestIds) {
  auto options = epoll_options();
  options.worker_threads = 4;
  serve::HttpServer server{
      [](const serve::HttpRequest&) {
        return serve::HttpResponse::json(200, R"({"pong":true})");
      },
      options};
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  // Four loops race to accept from the one listener; every connection is
  // admitted exactly once, and its request-id stream is seeded from a
  // sequence no two connections share.
  constexpr int kConnections = 32;
  std::vector<std::future<std::string>> ids;
  for (int i = 0; i < kConnections; ++i) {
    ids.push_back(std::async(std::launch::async, [&server] {
      Client client{server.port()};
      std::string headers;
      if (client.get("/ping", nullptr, &headers) != 200) return std::string{};
      const std::size_t at = headers.find("X-Request-Id: ");
      return at == std::string::npos ? std::string{}
                                     : headers.substr(at + 14, 16);
    }));
  }
  std::set<std::string> distinct;
  for (auto& id : ids) {
    const std::string value = id.get();
    EXPECT_EQ(value.size(), 16u) << "a connection was not served 200";
    distinct.insert(value);
  }
  EXPECT_EQ(distinct.size(), static_cast<std::size_t>(kConnections));
  EXPECT_EQ(server.stats().accepted, static_cast<std::uint64_t>(kConnections));
  EXPECT_EQ(server.stats().overload_rejected, 0u);
  server.stop();
}

// --------------------------------------------- reload under pipelined load

TEST(EpollChaos, FlatReloadUnderPipelinedLoadLosesZeroRequests) {
  const io::Snapshot& snapshot = epoll_snapshot();
  const std::string path = ::testing::TempDir() + "/asrel_epoll_chaos.v3";
  std::string error;
  ASSERT_TRUE(io::save_flat_snapshot_file(snapshot, path, &error)) << error;

  // The microsecond reload path: mmap + structural checks only, exactly
  // what the daemon's reload loader does.
  const auto initial = io::FlatView::open_file(path, &error);
  ASSERT_NE(initial, nullptr) << error;
  const auto hub = std::make_shared<serve::EngineHub>(
      std::make_shared<const serve::QueryEngine>(initial),
      serve::flat_file_loader(path));
  serve::AsrelService service{hub};

  auto options = epoll_options();
  options.worker_threads = 3;
  serve::HttpServer server{
      [&service](const serve::HttpRequest& request) {
        return service.handle(request);
      },
      options};
  ASSERT_TRUE(server.start(&error)) << error;

  // Two clients send pipelined bursts of 8 real /rel lookups each; every
  // response in every burst must be a 200 with the full answer, across
  // every engine swap.
  std::atomic<bool> stop_clients{false};
  std::atomic<int> failures{0};
  std::atomic<long> completed{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 2; ++t) {
    clients.emplace_back([&, t] {
      Client client{server.port()};
      if (!client.connected()) {
        failures.fetch_add(1);
        return;
      }
      std::size_t i = static_cast<std::size_t>(t) * 13;
      while (!stop_clients.load(std::memory_order_relaxed)) {
        std::string burst;
        for (int k = 0; k < 8; ++k) {
          const auto& edge = snapshot.edges[(i + static_cast<std::size_t>(k) *
                                                     7) %
                                            snapshot.edges.size()];
          burst += "GET /rel?a=" + std::to_string(edge.a.value()) +
                   "&b=" + std::to_string(edge.b.value()) +
                   " HTTP/1.1\r\nHost: epoll\r\n\r\n";
        }
        if (!client.send_raw(burst)) {
          failures.fetch_add(1);
          return;
        }
        for (int k = 0; k < 8; ++k) {
          std::string body;
          if (client.read_response(&body) != 200 ||
              body.find("\"found\":true") == std::string::npos) {
            failures.fetch_add(1);
            return;
          }
          completed.fetch_add(1, std::memory_order_relaxed);
        }
        i += 57;
      }
    });
  }

  // 20 flat reloads through the hub plus 5 through POST /reloadz, all
  // while the bursts fly.
  for (int r = 0; r < 20; ++r) {
    const auto result = hub->reload();
    EXPECT_TRUE(result.ok) << result.error;
    std::this_thread::sleep_for(2ms);
  }
  Client admin{server.port()};
  ASSERT_TRUE(admin.connected());
  for (int r = 0; r < 5; ++r) {
    ASSERT_TRUE(admin.send_raw(
        "POST /reloadz HTTP/1.1\r\nHost: epoll\r\nContent-Length: 0\r\n\r\n"));
    std::string body;
    EXPECT_EQ(admin.read_response(&body), 200) << body;
    EXPECT_NE(body.find("\"ok\":true"), std::string::npos) << body;
  }

  stop_clients.store(true);
  for (auto& client : clients) client.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(completed.load(), 0);
  EXPECT_EQ(hub->epoch(), 26u);  // 1 initial + 25 successful reloads
  server.stop();
  ::unlink(path.c_str());
}

}  // namespace
}  // namespace asrel
