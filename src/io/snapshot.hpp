// One scenario's precomputed artifacts, in memory.
//
// A snapshot is everything the serving layer (src/serve) needs to answer
// per-link and aggregate bias queries without re-running the pipeline:
// the ground-truth graph + per-AS attributes, the observed ("inferred")
// link universe with its §5 class tags, the cleaned validation data, and
// the edge labels produced by each inference algorithm. Loading one takes
// milliseconds where rebuilding the Scenario takes minutes — the same
// batch-vs-serve split CAIDA makes by publishing serial-2 as-rel files
// instead of asking consumers to re-run ASRank.
//
// The builders (core::build_snapshot, stream::StreamSession) produce this
// struct; its one on-disk encoding is the flat v3 image of
// io/flat_snapshot.hpp, which to_snapshot_bytes() writes.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "asn/asn.hpp"
#include "topology/attributes.hpp"
#include "topology/graph.hpp"
#include "topology/rel_type.hpp"
#include "validation/cleaner.hpp"
#include "validation/label.hpp"

namespace asrel::io {

/// Enough provenance to tell two snapshots apart and to refuse mixing
/// artifacts from different worlds.
struct SnapshotMeta {
  std::int64_t as_count = 0;       ///< TopologyParams::as_count
  std::uint64_t seed = 0;          ///< TopologyParams::seed
  std::uint64_t scheme_seed = 0;   ///< ScenarioParams::scheme_seed
  /// Monotonic publication epoch: 0 for a batch build, incremented by one
  /// for each snapshot a stream session publishes.
  std::uint64_t epoch = 0;
  /// Build wall-clock, milliseconds since the Unix epoch. Supplied by the
  /// caller (not sampled here) so identical worlds serialize identically.
  std::uint64_t built_unix_ms = 0;

  friend bool operator==(const SnapshotMeta&, const SnapshotMeta&) = default;
};

/// One AS: ground-truth attributes plus the observed-view degrees and the
/// ground-truth customer-cone size.
struct SnapshotAs {
  asn::Asn asn;
  topo::AsAttributes attrs;
  std::uint32_t transit_degree = 0;  ///< 0 if never observed mid-path
  std::uint32_t node_degree = 0;
  std::uint32_t cone_size = 0;

  friend bool operator==(const SnapshotAs&, const SnapshotAs&) = default;
};

/// One ground-truth edge (provider first for kP2C), with the annotations
/// the §6.1 case study depends on.
struct SnapshotEdge {
  asn::Asn a;  ///< provider for kP2C
  asn::Asn b;
  topo::RelType rel = topo::RelType::kP2P;
  topo::ExportScope scope = topo::ExportScope::kFull;
  bool scope_via_community = false;
  bool misdocumented = false;
  std::optional<topo::RelType> hybrid_rel;

  friend bool operator==(const SnapshotEdge&, const SnapshotEdge&) = default;
};

/// One algorithm's full labeling, in the inference's deterministic order.
/// Reuses val::CleanLabel: {link, rel, provider-if-P2C}.
struct SnapshotAlgorithm {
  std::string name;  ///< "asrank", "problink", "toposcope"
  std::vector<val::CleanLabel> labels;

  friend bool operator==(const SnapshotAlgorithm&,
                         const SnapshotAlgorithm&) = default;
};

/// One visible link with its precomputed §5 class tags (indices into
/// Snapshot::class_names).
struct SnapshotLinkTag {
  val::AsLink link;
  std::uint32_t regional_class = 0;
  std::uint32_t topological_class = 0;

  friend bool operator==(const SnapshotLinkTag&,
                         const SnapshotLinkTag&) = default;
};

struct Snapshot {
  SnapshotMeta meta;
  std::vector<std::string> class_names;     ///< interned class strings
  std::vector<SnapshotAs> ases;             ///< sorted by ASN
  std::vector<SnapshotEdge> edges;          ///< ground truth, graph order
  std::vector<asn::Asn> clique;
  std::vector<asn::Asn> hypergiants;
  std::vector<val::CleanLabel> validation;  ///< cleaned, pipeline order
  std::vector<SnapshotAlgorithm> algorithms;
  std::vector<SnapshotLinkTag> links;       ///< observed links, first-seen order
};

/// Encodes `snapshot` as a flat v3 image (io/flat_snapshot.hpp).
/// Deterministic: the same Snapshot value always produces byte-identical
/// output, so comparing the bytes of two snapshots compares every field.
[[nodiscard]] std::string to_snapshot_bytes(const Snapshot& snapshot);

}  // namespace asrel::io
