// Read-only query engine over one flat (v3) snapshot image.
//
// The FlatView is the engine's only copy of the served data. Point
// lookups probe the hash indexes precomputed in the image; the aggregate
// reports (Fig. 1/2 coverage, Tables 1-3) read its link-tag, validation
// and algorithm sections. An engine built from an in-memory Snapshot
// encodes it into v3 bytes it owns; one opened from a file serves the
// mmap'd view directly. Only the two caches change after construction,
// so any number of server threads may query concurrently without locks.
// Reports are serialized to JSON once and kept in a sharded LRU cache.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "eval/coverage.hpp"
#include "eval/report.hpp"
#include "io/flat_snapshot.hpp"
#include "io/snapshot.hpp"
#include "serve/lru_cache.hpp"

namespace asrel::serve {

/// Everything known about one AS pair, across every layer the paper
/// compares: ground truth, the three inferences, and the validation data.
struct RelAnswer {
  val::AsLink link;

  bool in_graph = false;  ///< ground-truth edge exists
  topo::RelType truth_rel = topo::RelType::kP2P;
  asn::Asn truth_provider;  ///< set when truth_rel == kP2C
  topo::ExportScope scope = topo::ExportScope::kFull;
  bool scope_via_community = false;
  bool misdocumented = false;
  std::optional<topo::RelType> hybrid_rel;

  bool observed = false;  ///< visible in collector paths
  std::string_view regional_class;      ///< set when observed
  std::string_view topological_class;   ///< set when observed

  struct Verdict {
    std::string_view algorithm;
    topo::RelType rel = topo::RelType::kP2P;
    asn::Asn provider;
  };
  std::vector<Verdict> verdicts;  ///< one per algorithm that labeled it

  bool validated = false;
  topo::RelType validated_rel = topo::RelType::kP2P;
  asn::Asn validated_provider;

  /// True when any layer knows this pair.
  [[nodiscard]] bool known() const {
    return in_graph || observed || validated || !verdicts.empty();
  }
};

/// Per-AS card: attributes, degrees, and neighbor/cone summaries.
struct AsSummary {
  asn::Asn asn;
  rir::Region region = rir::Region::kUnknown;
  std::string_view country;
  topo::Tier tier = topo::Tier::kStub;
  topo::StubKind stub_kind = topo::StubKind::kNotStub;
  bool hypergiant = false;
  std::uint32_t transit_degree = 0;
  std::uint32_t node_degree = 0;
  std::uint32_t cone_size = 0;
  std::uint32_t providers = 0;
  std::uint32_t customers = 0;
  std::uint32_t peers = 0;
  std::uint32_t siblings = 0;
  std::uint32_t observed_links = 0;   ///< visible links incident to this AS
  std::uint32_t validated_links = 0;  ///< validation entries incident
};

struct QueryEngineOptions {
  std::size_t cache_shards = 8;
  std::size_t cache_capacity_per_shard = 16;
  std::size_t table_min_links = 500;  ///< Tables 1-3 row threshold
  /// Rendered /rel bodies, keyed by canonical pair. Sized for the hot
  /// set of point lookups (default 8 x 4096 entries, a few MiB of JSON).
  std::size_t rel_cache_shards = 8;
  std::size_t rel_cache_capacity_per_shard = 4096;
};

class QueryEngine {
 public:
  /// Encodes `snapshot` into a flat image the engine owns. Throws
  /// std::logic_error if the reader rejects the encoder's bytes.
  explicit QueryEngine(const io::Snapshot& snapshot,
                       QueryEngineOptions options = {});

  /// Serves an image opened elsewhere (typically an mmap'd file) without
  /// copying it, so construction is O(1) and a reload is just mmap +
  /// validate.
  explicit QueryEngine(std::shared_ptr<const io::FlatView> flat,
                       QueryEngineOptions options = {});

  // ---- point lookups (lock-free, O(1) hash probes) ----
  [[nodiscard]] RelAnswer rel(asn::Asn a, asn::Asn b) const;
  [[nodiscard]] std::optional<AsSummary> as_summary(asn::Asn asn) const;

  /// Renders (and caches) the /rel response body for one AS pair. The
  /// engine is immutable for its epoch, so a rendered body is cacheable
  /// exactly like an aggregate report — an epoch swap replaces the engine
  /// and with it the cache. AsLink canonicalizes the pair, so (a,b) and
  /// (b,a) share one entry.
  [[nodiscard]] std::shared_ptr<const std::string> rel_json(
      asn::Asn a, asn::Asn b) const;

  /// A deterministic sample of visible links (for load generation).
  [[nodiscard]] std::vector<val::AsLink> sample_links(
      std::size_t limit) const;

  // ---- aggregate reports (computed once, then LRU-cached as JSON) ----
  /// Valid keys: "regional", "topological", "table:<algorithm>".
  /// Returns nullptr for an unknown key or unknown algorithm.
  [[nodiscard]] std::shared_ptr<const std::string> report_json(
      const std::string& key) const;

  // ---- uncached structured aggregates (for tests / offline use) ----
  [[nodiscard]] eval::CoverageReport regional_coverage() const;
  [[nodiscard]] eval::CoverageReport topological_coverage() const;
  [[nodiscard]] std::optional<eval::ValidationTable> validation_table(
      std::string_view algorithm) const;

  [[nodiscard]] CacheStats cache_stats() const { return cache_.stats(); }
  [[nodiscard]] CacheStats rel_cache_stats() const {
    return rel_cache_.stats();
  }

  // ---- light accessors ----
  [[nodiscard]] const io::SnapshotMeta& meta() const { return meta_; }
  [[nodiscard]] std::size_t num_ases() const;
  [[nodiscard]] std::size_t num_edges() const;
  [[nodiscard]] std::size_t num_links() const;
  [[nodiscard]] std::size_t num_validation() const;
  [[nodiscard]] std::vector<std::string_view> algorithm_names() const;

 private:
  /// The link's regional or topological class name, "?" if not observed.
  [[nodiscard]] std::string class_of(const val::AsLink& link,
                                     bool regional) const;
  [[nodiscard]] std::vector<val::CleanLabel> validation_labels() const;
  [[nodiscard]] eval::CoverageReport coverage(bool regional) const;
  [[nodiscard]] std::shared_ptr<const std::string> build_report(
      const std::string& key) const;

  std::shared_ptr<const io::FlatView> flat_;
  io::SnapshotMeta meta_;
  QueryEngineOptions options_;
  mutable ShardedLruCache<std::string, std::string> cache_;
  /// Rendered /rel bodies keyed by (min<<32)|max of the pair.
  mutable ShardedLruCache<std::uint64_t, std::string> rel_cache_;
};

}  // namespace asrel::serve
