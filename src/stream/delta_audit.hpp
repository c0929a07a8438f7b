// DeltaAudit: incrementally maintained link-class state for the streaming
// pipeline.
//
// BiasAudit tabulates both class names for every observed link from
// scratch — the expensive part of snapshot publication. Under churn almost
// nothing about that tabulation changes: regional classes depend only on
// the (fixed) delegation data, and a link's topological class moves only
// when one of its endpoints gains its first or loses its last ground-truth
// customer. DeltaAudit tracks exactly that: a live per-node transit bit
// updated from touched edges, plus a lazily filled class cache whose
// topological entries are invalidated precisely when an incident AS flips
// category. Classes are computed by the same eval:: code paths BiasAudit
// uses, so every cached string is byte-identical to a from-scratch audit.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/snapshot_builder.hpp"
#include "eval/link_class.hpp"
#include "rir/region_mapper.hpp"
#include "topology/generator.hpp"
#include "validation/label.hpp"

namespace asrel::stream {

class DeltaAudit {
 public:
  /// Captures the static inputs (hypergiant/Tier-1 membership, delegation
  /// data) and the initial transit bits from `world`. The world reference
  /// is not retained; pass the live graph to on_edges_touched instead.
  explicit DeltaAudit(const topo::World& world);

  // The TopoClassifier's membership lambdas capture `this`.
  DeltaAudit(const DeltaAudit&) = delete;
  DeltaAudit& operator=(const DeltaAudit&) = delete;

  /// Refreshes the transit bit of every endpoint of `touched` by scanning
  /// its live adjacency, and re-classifies cached links incident to any
  /// AS whose topological category changed. O(degree) per endpoint plus
  /// O(cached incident links) per actual category flip.
  void on_edges_touched(const topo::AsGraph& graph,
                        std::span<const topo::EdgeId> touched);

  /// Same class strings a fresh BiasAudit over the current world would
  /// produce. Lazily cached; safe to call for any link.
  [[nodiscard]] const std::string& regional_class_of(const val::AsLink& link);
  [[nodiscard]] const std::string& topological_class_of(
      const val::AsLink& link);

  /// Adapter for core::build_snapshot — the snapshot's links
  /// section pulls classes from the cache instead of a fresh BiasAudit.
  [[nodiscard]] core::SnapshotClassSource class_source();

  [[nodiscard]] const rir::RegionMapper& region_mapper() const {
    return mapper_;
  }

  /// ASNs whose transit bit is currently set, ascending — the audit's
  /// effective state (a false entry and an absent one classify alike).
  /// Used for checkpoint capture and the restore-time cross-check against
  /// a freshly derived audit.
  [[nodiscard]] std::vector<asn::Asn> sorted_transit_asns() const;

 private:
  [[nodiscard]] std::uint32_t slot_of(const val::AsLink& link);

  std::unordered_set<asn::Asn> hypergiants_;
  std::unordered_set<asn::Asn> tier1_;
  /// Live "has at least one ground-truth customer" bit per ASN. Keyed by
  /// ASN (not NodeId) because the classifier and links are ASN-space.
  std::unordered_map<asn::Asn, bool> transit_;
  rir::RegionMapper mapper_;
  eval::TopoClassifier topo_;

  // Lazy class cache. regional entries never invalidate (delegations are
  // static); topological entries are rewritten in place on category flips.
  std::unordered_map<val::AsLink, std::uint32_t> slot_;
  std::vector<val::AsLink> link_of_slot_;  ///< inverse of slot_
  std::vector<std::string> regional_cache_;
  std::vector<std::string> topological_cache_;
  /// Cached slots touching each AS — the invalidation fan-out on a flip.
  std::unordered_map<asn::Asn, std::vector<std::uint32_t>> incident_;
};

}  // namespace asrel::stream
