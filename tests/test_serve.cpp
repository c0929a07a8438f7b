// Serving layer: snapshot format (round-trip, determinism, corruption
// rejection), QueryEngine answers vs the in-memory pipeline (ground
// truth, stored verdicts, validation, BiasAudit reports), the report
// cache, the hot-reload cost bound, and an end-to-end HTTP integration
// test on an ephemeral port.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "core/bias_audit.hpp"
#include "core/snapshot_builder.hpp"
#include "infer/asrank.hpp"
#include "flat_inflate.hpp"
#include "io/atomic_file.hpp"
#include "io/flat_snapshot.hpp"
#include "serve/engine_hub.hpp"
#include "serve/http_server.hpp"
#include "serve/lru_cache.hpp"
#include "serve/query_engine.hpp"
#include "serve/service.hpp"
#include "test_support.hpp"
#include "testing/flat_oracle.hpp"

namespace asrel {
namespace {

using ::testing::AssertionResult;

/// Snapshot of the shared scenario, built once (3 inferences + tags).
const io::Snapshot& shared_snapshot() {
  static const io::Snapshot snapshot =
      core::build_snapshot(test::shared_scenario());
  return snapshot;
}

const serve::QueryEngine& shared_engine() {
  static const serve::QueryEngine engine{shared_snapshot()};
  return engine;
}

// ---------------------------------------------------------------- snapshot

/// Section-by-section equality, in the order of the stream watchdog's
/// first_diff_section (the defaulted operator==s compare every field).
void expect_same_sections(const io::Snapshot& got, const io::Snapshot& want) {
  EXPECT_TRUE(got.meta == want.meta) << "meta";
  EXPECT_TRUE(got.class_names == want.class_names) << "class_names";
  EXPECT_TRUE(got.ases == want.ases) << "ases";
  EXPECT_TRUE(got.edges == want.edges) << "edges";
  EXPECT_TRUE(got.clique == want.clique) << "clique";
  EXPECT_TRUE(got.hypergiants == want.hypergiants) << "hypergiants";
  EXPECT_TRUE(got.validation == want.validation) << "validation";
  EXPECT_TRUE(got.algorithms == want.algorithms) << "algorithms";
  EXPECT_TRUE(got.links == want.links) << "links";
}

TEST(Snapshot, RoundTripIsIdentity) {
  // inflate(open(to_snapshot_bytes(s))) == s: the flat image carries
  // every io::Snapshot field, so comparing encoded bytes (the stream pins,
  // the watchdog) is as strong as comparing the structs. The tiny fixture
  // adds what a generated world may lack: every flag bit, a hybrid edge.
  const io::Snapshot tiny = testing::tiny_snapshot();
  for (const io::Snapshot* original : {&shared_snapshot(), &tiny}) {
    const std::string bytes = io::to_snapshot_bytes(*original);
    std::string error;
    const auto view = io::FlatView::from_bytes(bytes, &error);
    ASSERT_NE(view, nullptr) << error;
    const io::Snapshot inflated = test::inflate(*view);
    expect_same_sections(inflated, *original);
    EXPECT_EQ(io::to_snapshot_bytes(inflated), bytes);
  }

  const auto tiny_view =
      io::FlatView::from_bytes(io::to_snapshot_bytes(tiny), nullptr);
  ASSERT_NE(tiny_view, nullptr);
  std::uint8_t as_flags = 0;
  std::uint8_t edge_flags = 0;
  for (std::uint32_t i = 0; i < tiny_view->header().n_ases; ++i) {
    as_flags |= tiny_view->ases()[i].flags;
  }
  for (std::uint32_t i = 0; i < tiny_view->header().n_edges; ++i) {
    edge_flags |= tiny_view->edges()[i].flags;
  }
  EXPECT_EQ(as_flags, 0x1F) << "tiny fixture must set every AS flag";
  EXPECT_EQ(edge_flags, 0x07) << "tiny fixture must set every edge flag";
}

TEST(Snapshot, StreamAndFileApisAgreeWithBytes) {
  // The file writer persists exactly to_snapshot_bytes, and the mmap
  // reader opens that file to the same image.
  const std::string bytes = io::to_snapshot_bytes(shared_snapshot());
  const std::string path =
      ::testing::TempDir() + "/asrel_snapshot_roundtrip.bin";
  std::string error;
  ASSERT_TRUE(io::save_flat_snapshot_file(shared_snapshot(), path, &error))
      << error;
  const auto on_disk = io::read_file_capped(path, &error);
  ASSERT_TRUE(on_disk.has_value()) << error;
  EXPECT_EQ(*on_disk, bytes);

  const auto mapped = io::FlatView::open_file(path, &error);
  ASSERT_NE(mapped, nullptr) << error;
  EXPECT_EQ(mapped->size_bytes(), bytes.size());
  EXPECT_EQ(io::to_snapshot_bytes(test::inflate(*mapped)), bytes);
  ::unlink(path.c_str());
}

TEST(EngineHub, FlatFileReloadAveragesUnderAMillisecond) {
  // A hot reload through the daemon's loader is an mmap plus structural
  // checks, never a checksum pass: the mean of 50 swaps stays in
  // microseconds even in unoptimized and sanitizer builds.
  const std::string path = ::testing::TempDir() + "/asrel_reload_timing.v3";
  std::string error;
  ASSERT_TRUE(io::save_flat_snapshot_file(shared_snapshot(), path, &error))
      << error;
  serve::EngineHub hub{
      std::make_shared<const serve::QueryEngine>(shared_snapshot()),
      serve::flat_file_loader(path)};
  constexpr int kReloads = 50;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kReloads; ++i) {
    const auto result = hub.reload();
    ASSERT_TRUE(result.ok) << result.error;
  }
  const double mean_us = std::chrono::duration<double, std::micro>(
                             std::chrono::steady_clock::now() - start)
                             .count() /
                         kReloads;
  EXPECT_LT(mean_us, 1000.0) << "mean reload " << mean_us << " us";
  EXPECT_EQ(hub.epoch(), 1u + kReloads);
  ::unlink(path.c_str());
}

TEST(Snapshot, SameSeedIsByteIdentical) {
  core::ScenarioParams params;
  params.topology.as_count = 700;
  params.topology.seed = 7;
  const auto first = core::Scenario::build(params);
  const auto second = core::Scenario::build(params);
  EXPECT_EQ(io::to_snapshot_bytes(core::build_snapshot(*first)),
            io::to_snapshot_bytes(core::build_snapshot(*second)));
}

TEST(Snapshot, RejectsCorruption) {
  const std::string bytes = io::to_snapshot_bytes(shared_snapshot());
  const auto open = [](std::string candidate, std::string* error) {
    return io::FlatView::from_bytes(std::move(candidate), error) != nullptr;
  };
  std::string error;

  // Truncation, both mid-header and mid-payload.
  EXPECT_FALSE(open(bytes.substr(0, 10), &error));
  EXPECT_FALSE(error.empty());
  error.clear();
  EXPECT_FALSE(open(bytes.substr(0, bytes.size() / 2), &error));
  EXPECT_FALSE(error.empty());

  // Wrong magic.
  std::string bad = bytes;
  bad[0] = 'X';
  error.clear();
  EXPECT_FALSE(open(bad, &error));
  EXPECT_NE(error.find("magic"), std::string::npos) << error;

  // Unsupported version (u32 at offset 8).
  bad = bytes;
  bad[8] = static_cast<char>(bad[8] + 1);
  error.clear();
  EXPECT_FALSE(open(bad, &error));
  EXPECT_NE(error.find("version"), std::string::npos) << error;

  // Payload bit-flip must trip the checksum.
  bad = bytes;
  bad[sizeof(io::flat::Header) + 5] =
      static_cast<char>(bad[sizeof(io::flat::Header) + 5] ^ 0x40);
  error.clear();
  EXPECT_FALSE(open(bad, &error));
  EXPECT_NE(error.find("checksum"), std::string::npos) << error;

  // Trailing garbage is not silently ignored.
  error.clear();
  EXPECT_FALSE(open(bytes + "garbage", &error));
  EXPECT_FALSE(error.empty());
}

// ------------------------------------------------------------ query engine

TEST(QueryEngine, RelMatchesGroundTruthEdges) {
  const auto& snapshot = shared_snapshot();
  const auto& engine = shared_engine();
  ASSERT_FALSE(snapshot.edges.empty());

  std::size_t checked = 0;
  for (const auto& edge : snapshot.edges) {
    if (++checked > 500) break;
    // Argument order must not matter.
    for (const auto& answer :
         {engine.rel(edge.a, edge.b), engine.rel(edge.b, edge.a)}) {
      ASSERT_TRUE(answer.in_graph)
          << edge.a.value() << "-" << edge.b.value();
      EXPECT_EQ(answer.truth_rel, edge.rel);
      if (edge.rel == topo::RelType::kP2C) {
        EXPECT_EQ(answer.truth_provider, edge.a);
      }
      EXPECT_EQ(answer.scope, edge.scope);
      EXPECT_EQ(answer.misdocumented, edge.misdocumented);
      EXPECT_EQ(answer.hybrid_rel, edge.hybrid_rel);
    }
  }

  const auto unknown = engine.rel(asn::Asn{4200000001}, asn::Asn{4200000002});
  EXPECT_FALSE(unknown.known());
  EXPECT_FALSE(unknown.in_graph);
  EXPECT_TRUE(unknown.verdicts.empty());
}

TEST(QueryEngine, RelMatchesStoredVerdictsAndValidation) {
  const auto& snapshot = shared_snapshot();
  const auto& engine = shared_engine();

  for (const auto& algorithm : snapshot.algorithms) {
    std::size_t checked = 0;
    for (const auto& label : algorithm.labels) {
      if (++checked > 200) break;
      const auto answer = engine.rel(label.link.a, label.link.b);
      bool found = false;
      for (const auto& verdict : answer.verdicts) {
        if (verdict.algorithm != algorithm.name) continue;
        found = true;
        EXPECT_EQ(verdict.rel, label.rel);
        if (label.rel == topo::RelType::kP2C) {
          EXPECT_EQ(verdict.provider, label.provider);
        }
      }
      EXPECT_TRUE(found) << algorithm.name;
    }
  }

  std::size_t checked = 0;
  for (const auto& label : snapshot.validation) {
    if (++checked > 200) break;
    const auto answer = engine.rel(label.link.a, label.link.b);
    ASSERT_TRUE(answer.validated);
    EXPECT_EQ(answer.validated_rel, label.rel);
    if (label.rel == topo::RelType::kP2C) {
      EXPECT_EQ(answer.validated_provider, label.provider);
    }
  }
}

TEST(QueryEngine, AsSummaryMatchesSnapshotRecord) {
  const auto& snapshot = shared_snapshot();
  const auto& engine = shared_engine();
  ASSERT_FALSE(snapshot.ases.empty());

  // Expected neighbor-role and incident-link counts, straight from the
  // snapshot's edge, link and validation lists.
  struct Counts {
    std::uint32_t providers = 0, customers = 0, peers = 0, siblings = 0;
    std::uint32_t observed_links = 0, validated_links = 0;
  };
  std::unordered_map<asn::Asn, Counts> counts;
  for (const auto& edge : snapshot.edges) {
    switch (edge.rel) {
      case topo::RelType::kP2C:
        ++counts[edge.a].customers;
        ++counts[edge.b].providers;
        break;
      case topo::RelType::kP2P:
        ++counts[edge.a].peers;
        ++counts[edge.b].peers;
        break;
      case topo::RelType::kS2S:
        ++counts[edge.a].siblings;
        ++counts[edge.b].siblings;
        break;
    }
  }
  for (const auto& tag : snapshot.links) {
    ++counts[tag.link.a].observed_links;
    ++counts[tag.link.b].observed_links;
  }
  for (const auto& label : snapshot.validation) {
    ++counts[label.link.a].validated_links;
    ++counts[label.link.b].validated_links;
  }

  const auto& ases = snapshot.ases;
  std::size_t with_providers = 0, with_customers = 0, with_peers = 0;
  std::size_t with_validation = 0;
  for (std::size_t i = 0; i < ases.size(); i += ases.size() / 64 + 1) {
    const auto& record = ases[i];
    const Counts& expect = counts[record.asn];
    const auto summary = engine.as_summary(record.asn);
    ASSERT_TRUE(summary.has_value()) << record.asn.value();
    EXPECT_EQ(summary->asn, record.asn);
    EXPECT_EQ(summary->region, record.attrs.region);
    EXPECT_EQ(summary->country, record.attrs.country);
    EXPECT_EQ(summary->tier, record.attrs.tier);
    EXPECT_EQ(summary->stub_kind, record.attrs.stub_kind);
    EXPECT_EQ(summary->hypergiant, record.attrs.hypergiant);
    EXPECT_EQ(summary->transit_degree, record.transit_degree);
    EXPECT_EQ(summary->node_degree, record.node_degree);
    EXPECT_EQ(summary->cone_size, record.cone_size);
    EXPECT_EQ(summary->providers, expect.providers) << record.asn.value();
    EXPECT_EQ(summary->customers, expect.customers) << record.asn.value();
    EXPECT_EQ(summary->peers, expect.peers) << record.asn.value();
    EXPECT_EQ(summary->siblings, expect.siblings) << record.asn.value();
    EXPECT_EQ(summary->observed_links, expect.observed_links)
        << record.asn.value();
    EXPECT_EQ(summary->validated_links, expect.validated_links)
        << record.asn.value();
    with_providers += expect.providers > 0 ? 1 : 0;
    with_customers += expect.customers > 0 ? 1 : 0;
    with_peers += expect.peers > 0 ? 1 : 0;
    with_validation += expect.validated_links > 0 ? 1 : 0;
  }
  // The spread exercises every non-trivial count, not just zeros.
  EXPECT_GT(with_providers, 0u);
  EXPECT_GT(with_customers, 0u);
  EXPECT_GT(with_peers, 0u);
  EXPECT_GT(with_validation, 0u);

  EXPECT_FALSE(engine.as_summary(asn::Asn{4200000001}).has_value());
}

AssertionResult coverage_equal(const eval::CoverageReport& served,
                               const eval::CoverageReport& audit) {
  if (served.total_inferred != audit.total_inferred ||
      served.total_validated != audit.total_validated) {
    return ::testing::AssertionFailure()
           << "totals differ: " << served.total_inferred << "/"
           << served.total_validated << " vs " << audit.total_inferred << "/"
           << audit.total_validated;
  }
  if (served.rows.size() != audit.rows.size()) {
    return ::testing::AssertionFailure()
           << "row counts differ: " << served.rows.size() << " vs "
           << audit.rows.size();
  }
  for (std::size_t i = 0; i < served.rows.size(); ++i) {
    const auto& lhs = served.rows[i];
    const auto& rhs = audit.rows[i];
    if (lhs.name != rhs.name || lhs.inferred_links != rhs.inferred_links ||
        lhs.validated_links != rhs.validated_links) {
      return ::testing::AssertionFailure()
             << "row " << i << " differs: " << lhs.name << " "
             << lhs.inferred_links << "/" << lhs.validated_links << " vs "
             << rhs.name << " " << rhs.inferred_links << "/"
             << rhs.validated_links;
    }
  }
  return ::testing::AssertionSuccess();
}

// The acceptance bar for the whole subsystem: answers served out of a
// snapshot must equal the in-memory BiasAudit for the same seed.
TEST(QueryEngine, CoverageMatchesBiasAudit) {
  const core::BiasAudit audit{test::shared_scenario()};
  EXPECT_TRUE(coverage_equal(shared_engine().regional_coverage(),
                             audit.regional_coverage()));
  EXPECT_TRUE(coverage_equal(shared_engine().topological_coverage(),
                             audit.topological_coverage()));
}

TEST(QueryEngine, ValidationTableMatchesBiasAudit) {
  const core::BiasAudit audit{test::shared_scenario()};
  const auto asrank = infer::run_asrank(test::shared_scenario().observed());
  const auto expected = audit.validation_table(asrank.inference);

  const auto served = shared_engine().validation_table("asrank");
  ASSERT_TRUE(served.has_value());

  const auto expect_metrics_equal = [](const eval::ClassMetrics& lhs,
                                       const eval::ClassMetrics& rhs) {
    EXPECT_EQ(lhs.name, rhs.name);
    EXPECT_EQ(lhs.p2p_links, rhs.p2p_links);
    EXPECT_EQ(lhs.p2c_links, rhs.p2c_links);
    EXPECT_DOUBLE_EQ(lhs.p2p.ppv(), rhs.p2p.ppv());
    EXPECT_DOUBLE_EQ(lhs.p2p.tpr(), rhs.p2p.tpr());
    EXPECT_DOUBLE_EQ(lhs.p2c.ppv(), rhs.p2c.ppv());
    EXPECT_DOUBLE_EQ(lhs.p2c.tpr(), rhs.p2c.tpr());
    EXPECT_DOUBLE_EQ(lhs.mcc, rhs.mcc);
  };
  expect_metrics_equal(served->total, expected.total);
  ASSERT_EQ(served->rows.size(), expected.rows.size());
  for (std::size_t i = 0; i < expected.rows.size(); ++i) {
    expect_metrics_equal(served->rows[i], expected.rows[i]);
  }

  EXPECT_FALSE(shared_engine().validation_table("no-such-algo").has_value());
}

TEST(QueryEngine, ReportCacheHitsOnRepeatAndRejectsUnknownKeys) {
  // Private engine so the shared one's cache stats stay untouched.
  const serve::QueryEngine engine{shared_snapshot()};
  EXPECT_EQ(engine.cache_stats().hits, 0u);

  const auto first = engine.report_json("regional");
  ASSERT_NE(first, nullptr);
  EXPECT_NE(first->find("\"rows\""), std::string::npos);
  const auto second = engine.report_json("regional");
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(*first, *second);

  const auto stats = engine.cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);

  EXPECT_EQ(engine.report_json("bogus"), nullptr);
  EXPECT_EQ(engine.report_json("table:no-such-algo"), nullptr);
  EXPECT_NE(engine.report_json("table:toposcope"), nullptr);
}

TEST(LruCache, RacingMissCountsLoserAsHit) {
  // Two threads miss on the same key and both run compute(); the first
  // insert wins and the loser is handed the winner's cached value — which
  // must be accounted as a hit (it was served from the cache), not a
  // second miss. Regression test: a latch forces both threads into
  // compute() before either can insert.
  serve::ShardedLruCache<int, int> cache{1, 4};
  std::latch both_computing{2};
  std::shared_ptr<const int> results[2];
  std::thread racers[2];
  for (int t = 0; t < 2; ++t) {
    racers[t] = std::thread{[&, t] {
      results[t] = cache.get_or_compute(42, [&] {
        both_computing.arrive_and_wait();
        return std::make_shared<const int>(t);
      });
    }};
  }
  for (auto& racer : racers) racer.join();

  ASSERT_NE(results[0], nullptr);
  ASSERT_NE(results[1], nullptr);
  // Both callers observe the single cached value (the insert winner's).
  EXPECT_EQ(results[0], results[1]);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST(QueryEngine, SampleLinksIsDeterministicAndReal) {
  const auto& engine = shared_engine();
  const auto sample = engine.sample_links(64);
  ASSERT_FALSE(sample.empty());
  EXPECT_LE(sample.size(), 64u);
  EXPECT_EQ(sample, engine.sample_links(64));
  for (const auto& link : sample) {
    EXPECT_TRUE(engine.rel(link.a, link.b).observed);
  }
}

// ------------------------------------------------------------------- HTTP

/// Tiny blocking test client; one connection per object, keep-alive.
class TestClient {
 public:
  explicit TestClient(std::uint16_t port) {
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
  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  [[nodiscard]] bool connected() const { return fd_ >= 0; }

  /// Sends raw bytes and reads one full response. Returns the status, or
  /// -1 on transport failure. Fills `*body` with the response body.
  /// Passing an empty `raw` sends nothing and just reads the next
  /// response out of the carried-over buffer (pipelined followers).
  int request(const std::string& raw, std::string* body = nullptr) {
    if (::send(fd_, raw.data(), raw.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(raw.size())) {
      return -1;
    }
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
    if (body != nullptr) *body = data.substr(header_end + 4, content_length);
    leftover_ = data.substr(total);
    const std::size_t space = data.find(' ');
    return space == std::string::npos ? -1
                                      : std::atoi(data.c_str() + space + 1);
  }

  int get(const std::string& path, std::string* body = nullptr) {
    return request("GET " + path + " HTTP/1.1\r\nHost: test\r\n\r\n", body);
  }

  /// Sends bytes without reading a response (split-segment tests).
  bool send_only(const std::string& raw) {
    return ::send(fd_, raw.data(), raw.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(raw.size());
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

TEST(HttpIntegration, ServesRelReportsHealthAndErrors) {
  auto engine = std::make_shared<const serve::QueryEngine>(shared_snapshot());
  serve::AsrelService service{engine};

  serve::HttpServerOptions options;
  options.port = 0;  // ephemeral
  options.worker_threads = 2;
  options.request_timeout_ms = 2000;
  options.stats_supplement = [&service] { return service.stats_json(); };
  serve::HttpServer server{
      [&service](const serve::HttpRequest& request) {
        return service.handle(request);
      },
      options};
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  ASSERT_NE(server.port(), 0);

  TestClient client{server.port()};
  ASSERT_TRUE(client.connected());
  std::string body;

  EXPECT_EQ(client.get("/healthz", &body), 200);
  EXPECT_NE(body.find("ok"), std::string::npos);

  // Point lookup on a known ground-truth edge, full cross-layer answer.
  const auto& edge = shared_snapshot().edges.front();
  const std::string path = "/rel?a=" + std::to_string(edge.a.value()) +
                           "&b=" + std::to_string(edge.b.value());
  EXPECT_EQ(client.get(path, &body), 200);
  EXPECT_NE(body.find("\"found\":true"), std::string::npos) << body;
  EXPECT_NE(body.find("\"ground_truth\""), std::string::npos);
  EXPECT_NE(body.find("\"verdicts\""), std::string::npos);

  // Aggregate report: body equals the engine's cached JSON.
  EXPECT_EQ(client.get("/report/regional", &body), 200);
  EXPECT_EQ(body, *engine->report_json("regional"));

  // Link sample: limit is parsed strictly, trailing bytes are a 400.
  EXPECT_EQ(client.get("/links?limit=5", &body), 200);
  EXPECT_NE(body.find("\"count\":5"), std::string::npos) << body;
  EXPECT_EQ(client.get("/links?limit=5x", &body), 400);
  EXPECT_NE(body.find("limit"), std::string::npos) << body;

  // Error paths: bad params, unknown route, unsupported method.
  EXPECT_EQ(client.get("/rel?a=1", nullptr), 400);
  EXPECT_EQ(client.get("/no/such/path", nullptr), 404);
  EXPECT_EQ(client.request("POST /rel HTTP/1.1\r\nHost: t\r\n\r\n"), 405);

  // /statsz reflects traffic and splices the app supplement.
  EXPECT_EQ(client.get("/statsz", &body), 200);
  EXPECT_NE(body.find("\"requests\""), std::string::npos);
  EXPECT_NE(body.find("\"app\""), std::string::npos);
  EXPECT_NE(body.find("\"report_cache\""), std::string::npos);

  // A malformed request gets 400 and the connection closed.
  TestClient garbage{server.port()};
  ASSERT_TRUE(garbage.connected());
  EXPECT_EQ(garbage.request("NOT-HTTP\r\n\r\n"), 400);

  server.stop();
  EXPECT_FALSE(server.running());
  const auto stats = server.stats();
  EXPECT_GE(stats.requests, 7u);  // the malformed one only counts below
  EXPECT_GE(stats.responses_2xx, 4u);
  EXPECT_GE(stats.responses_4xx, 2u);
  EXPECT_GE(stats.malformed, 1u);
}

// ------------------------------------------------------------- pipelining

TEST(HttpPipelining, TwoRequestsInOneSegmentAreBothServedInOrder) {
  auto engine = std::make_shared<const serve::QueryEngine>(shared_snapshot());
  serve::AsrelService service{engine};
  serve::HttpServerOptions options;
  options.port = 0;
  options.worker_threads = 2;
  serve::HttpServer server{
      [&service](const serve::HttpRequest& request) {
        return service.handle(request);
      },
      options};
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  TestClient client{server.port()};
  ASSERT_TRUE(client.connected());
  const auto& edge = shared_snapshot().edges.front();
  const std::string rel = "GET /rel?a=" + std::to_string(edge.a.value()) +
                          "&b=" + std::to_string(edge.b.value()) +
                          " HTTP/1.1\r\nHost: t\r\n\r\n";
  const std::string health = "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";

  // Both requests arrive in one segment; the second must be parsed out of
  // the carried-over buffer, not lost or treated as a new connection.
  std::string body;
  EXPECT_EQ(client.request(rel + health, &body), 200);
  EXPECT_NE(body.find("\"found\":true"), std::string::npos) << body;
  EXPECT_EQ(client.request("", &body), 200);  // follower, already buffered
  EXPECT_NE(body.find("ok"), std::string::npos) << body;

  // A POST body followed by a GET in the same segment: the body bytes
  // must be consumed as the body, never misread as the follower's
  // request line.
  const std::string post =
      "POST /rel HTTP/1.1\r\nHost: t\r\nContent-Length: 5\r\n\r\nhello";
  EXPECT_EQ(client.request(post + health, &body), 405);
  EXPECT_EQ(client.request("", &body), 200);
  EXPECT_NE(body.find("ok"), std::string::npos) << body;

  // A request split at an arbitrary byte boundary (part of the request
  // line alone in one segment, the rest plus a follower in the next)
  // reassembles from the residual buffer.
  const std::size_t split = rel.size() / 3;
  ASSERT_TRUE(client.send_only(rel.substr(0, split)));
  EXPECT_EQ(client.request(rel.substr(split) + health, &body), 200);
  EXPECT_NE(body.find("\"found\":true"), std::string::npos) << body;
  EXPECT_EQ(client.request("", &body), 200);
  server.stop();
}

TEST(QueryEngine, RelJsonCacheHitsOnRepeatAndCanonicalizesOrder) {
  // Private engine so the shared one's cache stats stay untouched.
  const serve::QueryEngine engine{shared_snapshot()};
  EXPECT_EQ(engine.rel_cache_stats().hits, 0u);

  const auto& edge = shared_snapshot().edges.front();
  const auto first = engine.rel_json(edge.a, edge.b);
  ASSERT_NE(first, nullptr);
  EXPECT_NE(first->find("\"found\":true"), std::string::npos) << *first;

  // The reversed pair is the same canonical link: it must come from the
  // cache as the same shared body, not a re-render.
  const auto swapped = engine.rel_json(edge.b, edge.a);
  EXPECT_EQ(first, swapped);

  const auto stats = engine.rel_cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);

  // An unknown pair still renders (found:false) and is cached like any
  // other body.
  const auto unknown = engine.rel_json(asn::Asn{4200000001},
                                       asn::Asn{4200000002});
  ASSERT_NE(unknown, nullptr);
  EXPECT_NE(unknown->find("\"found\":false"), std::string::npos) << *unknown;
  EXPECT_EQ(engine.rel_cache_stats().misses, 2u);
}

}  // namespace
}  // namespace asrel
