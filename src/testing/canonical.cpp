#include "testing/canonical.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "core/snapshot_builder.hpp"
#include "io/flat_snapshot.hpp"
#include "io/wire.hpp"
#include "serve/query_engine.hpp"
#include "serve/service.hpp"

namespace asrel::testing {

core::ScenarioParams canonical_scenario_params() {
  core::ScenarioParams params;
  params.topology.as_count = 2500;
  params.topology.seed = 42;
  params.vantage.target_count = 120;
  return params;
}

std::string snapshot_digest_json(std::string_view flat_bytes) {
  char buffer[96];
  std::snprintf(buffer, sizeof buffer,
                "{\"flat_v3_bytes\":%zu,\"fnv1a64\":\"%016" PRIx64 "\"}",
                flat_bytes.size(), io::wire::fnv1a64(flat_bytes));
  return buffer;
}

std::vector<GoldenReport> build_golden_reports(
    const core::Scenario& scenario) {
  const io::Snapshot snapshot = core::build_snapshot(scenario);
  const std::string flat = io::to_snapshot_bytes(snapshot);
  const serve::QueryEngine engine{snapshot};

  const auto report = [&](const char* filename, const std::string& key) {
    const auto json = engine.report_json(key);
    return GoldenReport{filename, json ? *json : std::string{}};
  };
  return {
      report("fig1_regional.json", "regional"),
      report("fig2_topological.json", "topological"),
      report("table1_asrank.json", "table:asrank"),
      report("table2_problink.json", "table:problink"),
      report("table3_toposcope.json", "table:toposcope"),
      GoldenReport{"snapshot_digest.json", snapshot_digest_json(flat)},
  };
}

namespace {

/// One step of the wire script: bytes sent as one segment, then the number
/// of complete responses to read before the next step is sent.
struct WireStep {
  std::string segment;
  int responses = 1;
};

std::vector<WireStep> wire_script(const io::SnapshotEdge& edge) {
  const auto get = [](const std::string& path) {
    return "GET " + path + " HTTP/1.1\r\nHost: test\r\n\r\n";
  };
  const std::string rel_path = "/rel?a=" + std::to_string(edge.a.value()) +
                               "&b=" + std::to_string(edge.b.value());
  std::vector<WireStep> script;
  for (const std::string& path : {
           rel_path,
           std::string{"/rel?a=1"},       // missing b -> 400
           std::string{"/rel?a=x&b=2"},   // non-numeric -> 400
           std::string{"/no/such/path"},  // 404
           std::string{"/healthz"},
           std::string{"/snapshot"},
           std::string{"/links?limit=5"},
           std::string{"/report/regional"},
       }) {
    script.push_back({get(path)});
  }
  script.push_back({"TRACE / HTTP/1.1\r\nHost: t\r\n\r\n"});  // 405

  // Pipelining: two requests in one segment; a POST body (405) with a
  // follower, whose body bytes must not be read as the follower's request
  // line; a request split mid-line, completed together with a follower.
  const std::string rel = get(rel_path);
  const std::string health = get("/healthz");
  script.push_back({rel + health, 2});
  script.push_back(
      {"POST /rel HTTP/1.1\r\nHost: t\r\nContent-Length: 5\r\n\r\nhello" +
           health,
       2});
  const std::size_t split = rel.size() / 3;
  script.push_back({rel.substr(0, split), 0});
  script.push_back({rel.substr(split) + health, 2});

  // Malformed: answered 400, then the server closes the connection.
  script.push_back({"NOT-HTTP\r\n\r\n"});
  return script;
}

/// Blocking loopback client that keeps every received byte.
class TranscriptClient {
 public:
  explicit TranscriptClient(std::uint16_t port)
      : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    // A server that stops answering fails the transcript, not the caller.
    timeval timeout{.tv_sec = 10, .tv_usec = 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(port);
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    connected_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&address),
                           sizeof(address)) == 0;
  }
  ~TranscriptClient() { ::close(fd_); }
  TranscriptClient(const TranscriptClient&) = delete;
  TranscriptClient& operator=(const TranscriptClient&) = delete;

  [[nodiscard]] bool connected() const { return connected_; }

  /// Sends `step.segment`, then reads until `step.responses` more
  /// responses are complete. False on a transport failure.
  bool play(const WireStep& step) {
    if (::send(fd_, step.segment.data(), step.segment.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(step.segment.size())) {
      return false;
    }
    for (int i = 0; i < step.responses; ++i) {
      std::size_t header_end = std::string::npos;
      while ((header_end = received_.find("\r\n\r\n", parsed_)) ==
             std::string::npos) {
        if (!recv_more()) return false;
      }
      std::size_t content_length = 0;
      const std::size_t field = received_.find("Content-Length: ", parsed_);
      if (field != std::string::npos && field < header_end) {
        content_length = static_cast<std::size_t>(
            std::strtoull(received_.c_str() + field + 16, nullptr, 10));
      }
      parsed_ = header_end + 4 + content_length;
      while (received_.size() < parsed_) {
        if (!recv_more()) return false;
      }
    }
    return true;
  }

  /// Reads until the server closes the connection; returns every byte.
  std::string finish() && {
    while (recv_more()) {
    }
    return std::move(received_);
  }

 private:
  bool recv_more() {
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    received_.append(chunk, static_cast<std::size_t>(n));
    return true;
  }

  int fd_;
  bool connected_ = false;
  std::string received_;
  std::size_t parsed_ = 0;  ///< end of the last complete response
};

}  // namespace

std::string wire_transcript(const core::Scenario& scenario) {
  const io::Snapshot snapshot = core::build_snapshot(scenario);
  const std::vector<WireStep> script = wire_script(snapshot.edges.front());
  const serve::AsrelService service{
      std::make_shared<const serve::QueryEngine>(snapshot)};

  serve::HttpServerOptions options;
  options.port = 0;
  options.worker_threads = 1;
  serve::HttpServer server{[&service](const serve::HttpRequest& request) {
                             return service.handle(request);
                           },
                           options};
  if (!server.start()) return {};
  TranscriptClient client{server.port()};
  if (!client.connected()) return {};
  for (const WireStep& step : script) {
    if (!client.play(step)) break;
  }
  std::string transcript = std::move(client).finish();
  server.stop();
  return transcript;
}

}  // namespace asrel::testing
