#include "eval/link_class.hpp"

#include <algorithm>
#include <memory>
#include <unordered_set>

#include "topology/cone.hpp"

namespace asrel::eval {

std::string regional_class(const rir::RegionMapper& mapper,
                           const val::AsLink& link) {
  const auto ra = mapper.region_of(link.a);
  const auto rb = mapper.region_of(link.b);
  if (ra == rir::Region::kUnknown || rb == rir::Region::kUnknown) return "?";
  const auto abbr_a = std::string{rir::abbreviation(ra)};
  const auto abbr_b = std::string{rir::abbreviation(rb)};
  if (ra == rb) return abbr_a + "°";  // e.g. "R°"
  return abbr_a < abbr_b ? abbr_a + "-" + abbr_b : abbr_b + "-" + abbr_a;
}

std::string_view to_string(TopoCategory category) {
  switch (category) {
    case TopoCategory::kHypergiant:
      return "H";
    case TopoCategory::kStub:
      return "S";
    case TopoCategory::kTier1:
      return "T1";
    case TopoCategory::kTransit:
      return "TR";
  }
  return "?";
}

std::vector<asn::Asn> transit_asns(const topo::AsGraph& graph) {
  std::vector<std::uint8_t> provider(graph.node_count(), 0);
  for (const auto& edge : graph.edges()) {
    if (!edge.removed && edge.rel == topo::RelType::kP2C) provider[edge.u] = 1;
  }
  std::vector<asn::Asn> asns;
  for (topo::NodeId node = 0; node < provider.size(); ++node) {
    if (provider[node] != 0) asns.push_back(graph.asn_of(node));
  }
  std::sort(asns.begin(), asns.end());
  return asns;
}

TopoClassifier TopoClassifier::from_world(const topo::World& world) {
  auto hypergiants = std::make_shared<std::unordered_set<asn::Asn>>(
      world.hypergiants.begin(), world.hypergiants.end());
  auto tier1 = std::make_shared<std::unordered_set<asn::Asn>>(
      world.clique.begin(), world.clique.end());
  // Transit = at least one customer in the ground-truth graph.
  const auto transit_list = transit_asns(world.graph);
  auto transit = std::make_shared<std::unordered_set<asn::Asn>>(
      transit_list.begin(), transit_list.end());
  return TopoClassifier{
      [hypergiants](asn::Asn asn) { return hypergiants->contains(asn); },
      [tier1](asn::Asn asn) { return tier1->contains(asn); },
      [transit](asn::Asn asn) { return transit->contains(asn); }};
}

TopoClassifier::TopoClassifier(std::function<bool(asn::Asn)> is_hypergiant,
                               std::function<bool(asn::Asn)> is_tier1,
                               std::function<bool(asn::Asn)> has_customers)
    : is_hypergiant_(std::move(is_hypergiant)),
      is_tier1_(std::move(is_tier1)),
      has_customers_(std::move(has_customers)) {}

TopoCategory TopoClassifier::category_of(asn::Asn asn) const {
  if (is_hypergiant_(asn)) return TopoCategory::kHypergiant;
  if (is_tier1_(asn)) return TopoCategory::kTier1;
  if (has_customers_(asn)) return TopoCategory::kTransit;
  return TopoCategory::kStub;
}

std::string TopoClassifier::class_of(const val::AsLink& link) const {
  const auto ca = category_of(link.a);
  const auto cb = category_of(link.b);
  if (ca == cb) return std::string{to_string(ca)} + "°";
  // Display order H < S < T1 < TR (matches the paper's class names).
  const auto order = [](TopoCategory c) {
    switch (c) {
      case TopoCategory::kHypergiant:
        return 0;
      case TopoCategory::kStub:
        return 1;
      case TopoCategory::kTier1:
        return 2;
      case TopoCategory::kTransit:
        return 3;
    }
    return 4;
  };
  const auto first = order(ca) < order(cb) ? ca : cb;
  const auto second = order(ca) < order(cb) ? cb : ca;
  return std::string{to_string(first)} + "-" + std::string{to_string(second)};
}

}  // namespace asrel::eval
