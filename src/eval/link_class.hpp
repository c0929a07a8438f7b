// Link-class partitioning for §5/§6: regional classes (R°, AR-R, ...) and
// topological classes (S-TR, T1-TR, H-S, ...).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "asn/asn.hpp"
#include "rir/region_mapper.hpp"
#include "topology/generator.hpp"
#include "validation/label.hpp"

namespace asrel::eval {

/// Regional class of a link ("R°" when both sides share a region,
/// "<smaller>-<larger>" lexicographically otherwise, "?" when either side is
/// unmapped/reserved).
[[nodiscard]] std::string regional_class(const rir::RegionMapper& mapper,
                                         const val::AsLink& link);

/// The paper's topological categories, in its display order.
enum class TopoCategory : std::uint8_t { kHypergiant, kStub, kTier1, kTransit };

[[nodiscard]] std::string_view to_string(TopoCategory category);

/// ASNs with at least one customer: the provider endpoint (`u`) of a live
/// P2C edge, ascending, each once. The transit rule TopoClassifier::
/// from_world applies, and the set a stream checkpoint stores.
[[nodiscard]] std::vector<asn::Asn> transit_asns(const topo::AsGraph& graph);

/// Categorizes an AS the way §5 does: hypergiant list first, Tier-1 list
/// next, then Transit iff the customer cone is non-empty, Stub otherwise.
class TopoClassifier {
 public:
  /// Built from the ground-truth world (the authoritative analogue of the
  /// Wikipedia Tier-1 + Böttger hypergiant + CAIDA cone inputs).
  [[nodiscard]] static TopoClassifier from_world(const topo::World& world);

  /// Built from arbitrary membership functions (e.g. inferred data) —
  /// lets benches ablate the ground-truth choice.
  TopoClassifier(std::function<bool(asn::Asn)> is_hypergiant,
                 std::function<bool(asn::Asn)> is_tier1,
                 std::function<bool(asn::Asn)> has_customers);

  [[nodiscard]] TopoCategory category_of(asn::Asn asn) const;

  /// "S-TR", "TR°", "H-T1", ... (category order H < S < T1 < TR as in the
  /// paper's Fig. 2).
  [[nodiscard]] std::string class_of(const val::AsLink& link) const;

 private:
  std::function<bool(asn::Asn)> is_hypergiant_;
  std::function<bool(asn::Asn)> is_tier1_;
  std::function<bool(asn::Asn)> has_customers_;
};

}  // namespace asrel::eval
