#include "core/link_features.hpp"

#include <algorithm>

namespace asrel::core {

namespace {

using asn::Asn;

/// Sorted-unique insert; returns true when the value was new.
template <typename T>
bool insert_unique(std::vector<T>& values, const T& value) {
  const auto it = std::lower_bound(values.begin(), values.end(), value);
  if (it != values.end() && *it == value) return false;
  values.insert(it, value);
  return true;
}

}  // namespace

LinkFeatureExtractor::LinkFeatureExtractor(const Scenario& scenario,
                                           const infer::Inference& inference) {
  const auto& observed = scenario.observed();
  const auto& world = scenario.world();

  // Per-origin prefix statistics.
  const auto prefix_stats = [&](Asn origin) {
    std::pair<std::uint32_t, std::uint64_t> out{0, 0};
    const auto it = world.prefixes.find(origin);
    if (it == world.prefixes.end()) return out;
    out.first = static_cast<std::uint32_t>(it->second.size());
    for (const auto& prefix : it->second) {
      out.second += prefix.address_count();
    }
    return out;
  };

  // Accumulators per link id (aligned with observed.link_order()), over AS
  // indices; origins map back to ASNs when their prefixes are summed.
  const auto& links = observed.link_order();
  struct Accumulator {
    std::vector<infer::AsIndex> left;
    std::vector<infer::AsIndex> right;
    std::vector<infer::AsIndex> redistributed_origins;
    std::vector<infer::AsIndex> originated_origins;
  };
  std::vector<Accumulator> acc(links.size());

  for (std::size_t p = 0; p < observed.path_count(); ++p) {
    const auto path = observed.path(p);
    const auto slots = observed.path_slots(p);
    const infer::AsIndex origin = path.back();
    for (std::size_t i = 0; i < slots.size(); ++i) {
      auto& a = acc[slots[i] / 2];
      for (std::size_t j = 0; j < i; ++j) insert_unique(a.left, path[j]);
      for (std::size_t j = i + 2; j < path.size(); ++j) {
        insert_unique(a.right, path[j]);
      }
      insert_unique(a.redistributed_origins, origin);
      if (i + 2 == path.size()) insert_unique(a.originated_origins, origin);
    }
  }

  // IXP co-membership.
  std::unordered_map<Asn, std::vector<int>> ixp_memberships;
  for (const auto& ixp : world.ixps) {
    for (const Asn member : ixp.members) {
      ixp_memberships[member].push_back(ixp.id);
    }
  }
  for (auto& [asn, list] : ixp_memberships) std::sort(list.begin(), list.end());

  const auto ppdc = eval::ppdc_sizes(observed, inference);

  const auto relative_diff = [](double a, double b) {
    const double larger = std::max(a, b);
    return larger == 0 ? 0.0 : std::abs(a - b) / larger;
  };
  const auto is_manrs = [&](Asn asn) {
    const auto& attrs = world.attrs.at(asn);
    return attrs.attends_meetings && attrs.maintains_rpsl;
  };

  for (std::size_t i = 0; i < links.size(); ++i) {
    const auto& link = links[i];
    const auto& a = acc[i];
    LinkFeatures f;
    f.vp_visibility = observed.link_vp_count(static_cast<infer::LinkId>(i));
    for (const infer::AsIndex origin : a.redistributed_origins) {
      const auto [count, addresses] = prefix_stats(observed.asn_at(origin));
      f.prefixes_redistributed += count;
      f.addresses_redistributed += addresses;
    }
    for (const infer::AsIndex origin : a.originated_origins) {
      const auto [count, addresses] = prefix_stats(observed.asn_at(origin));
      f.prefixes_originated += count;
      f.addresses_originated += addresses;
    }
    f.ases_left = static_cast<std::uint32_t>(a.left.size());
    f.ases_right = static_cast<std::uint32_t>(a.right.size());

    const auto [ia, ib] = observed.link_ends(static_cast<infer::LinkId>(i));
    f.transit_degree_diff = relative_diff(observed.transit_degree(ia),
                                          observed.transit_degree(ib));
    const auto ppdc_of = [&](Asn asn) -> double {
      const auto it = ppdc.find(asn);
      return it == ppdc.end() ? 0.0 : it->second;
    };
    f.ppdc_diff = relative_diff(ppdc_of(link.a), ppdc_of(link.b));

    const auto ixps_a = ixp_memberships.find(link.a);
    const auto ixps_b = ixp_memberships.find(link.b);
    if (ixps_a != ixp_memberships.end() && ixps_b != ixp_memberships.end()) {
      std::vector<int> common;
      std::set_intersection(ixps_a->second.begin(), ixps_a->second.end(),
                            ixps_b->second.begin(), ixps_b->second.end(),
                            std::back_inserter(common));
      f.common_ixps = static_cast<std::uint32_t>(common.size());
    }
    f.manrs_participants = static_cast<std::uint32_t>(
        (is_manrs(link.a) ? 1 : 0) + (is_manrs(link.b) ? 1 : 0));
    features_.emplace(link, f);
  }
}

const LinkFeatures* LinkFeatureExtractor::find(const val::AsLink& link) const {
  const auto it = features_.find(link);
  return it == features_.end() ? nullptr : &it->second;
}

}  // namespace asrel::core
