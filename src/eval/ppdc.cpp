#include "eval/ppdc.hpp"

#include <algorithm>
#include <vector>

namespace asrel::eval {

std::unordered_map<asn::Asn, std::uint32_t> ppdc_sizes(
    const infer::ObservedPaths& observed,
    const infer::Inference& inference) {
  // Sorted-unique member lists per AS index.
  std::vector<std::vector<infer::AsIndex>> cones(observed.as_count());

  for (std::size_t p = 0; p < observed.path_count(); ++p) {
    const auto path = observed.path(p);
    for (std::size_t i = 1; i + 1 < path.size(); ++i) {
      const asn::Asn from = observed.asn_at(path[i - 1]);
      const auto* rel =
          inference.find(val::AsLink{from, observed.asn_at(path[i])});
      if (rel == nullptr) continue;
      const bool from_provider_or_peer =
          rel->rel == topo::RelType::kP2P ||
          (rel->rel == topo::RelType::kP2C && rel->provider == from);
      if (!from_provider_or_peer) continue;
      auto& cone = cones[path[i]];
      for (std::size_t j = i + 1; j < path.size(); ++j) {
        const auto it = std::lower_bound(cone.begin(), cone.end(), path[j]);
        if (it == cone.end() || *it != path[j]) cone.insert(it, path[j]);
      }
    }
  }

  std::unordered_map<asn::Asn, std::uint32_t> sizes;
  sizes.reserve(observed.as_count());
  for (infer::AsIndex i = 0; i < observed.as_count(); ++i) {
    sizes[observed.asn_at(i)] =
        static_cast<std::uint32_t>(cones[i].size());
  }
  return sizes;
}

}  // namespace asrel::eval
