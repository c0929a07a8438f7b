#include "testing/naive_propagator.hpp"

namespace asrel::testing {

namespace {

using bgp::RoutePref;
using topo::EdgeId;
using topo::kInvalidNode;
using topo::Neighbor;
using topo::NodeId;
using topo::RelType;

constexpr EdgeId kNoEdge = ~EdgeId{0};

// The propagator's splitmix-style mixer, copied so the oracle's tie-break
// and mangling rolls do not depend on its internals.
std::uint64_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t salt) {
  std::uint64_t x = a * 0x9E3779B97F4A7C15ull + b + salt;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

constexpr auto pref_of(RoutePref pref) { return static_cast<std::uint8_t>(pref); }

}  // namespace

bgp::OriginRib naive_propagate(const bgp::Propagator& coins, asn::Asn origin) {
  const auto& graph = coins.world().graph;
  const auto& params = coins.params();
  const std::size_t n = graph.node_count();

  bgp::OriginRib rib;
  rib.origin = *graph.node_of(origin);
  rib.parent.assign(n, kInvalidNode);
  rib.via_edge.assign(n, kNoEdge);
  rib.pref.assign(n, 0);
  rib.dist.assign(n, bgp::kMaxDist);
  rib.pref[rib.origin] = pref_of(RoutePref::kCustomer);
  rib.dist[rib.origin] = 0;

  const auto tie_rank = [&](NodeId node) {
    return mix(origin.value(), graph.asn_of(node).value(),
               params.salt ^ 0x7137ull);
  };
  const auto offer_dist = [&](NodeId exporter) {
    return rib.dist[exporter] + 1 + coins.prepend_count(exporter, origin);
  };
  // What `self` is to the other end of `edge`, after hybrid resolution.
  const auto role = [&](EdgeId id, NodeId self) {
    const topo::Edge& edge = graph.edge(id);
    switch (coins.effective_rel(edge, origin)) {
      case RelType::kP2C:
        return self == edge.u ? Neighbor::Role::kProvider
                              : Neighbor::Role::kCustomer;
      case RelType::kP2P:
        return Neighbor::Role::kPeer;
      case RelType::kS2S:
        return Neighbor::Role::kSibling;
    }
    return Neighbor::Role::kPeer;
  };
  // §6.1: a provider that learned the route straight from a customer with
  // a restricted scope keeps it from its providers, and for customers-only
  // also from its peers.
  const auto blocked = [&](NodeId node, bool to_peer) {
    if (!params.honor_export_scopes || node == rib.origin) return false;
    const EdgeId via = rib.via_edge[node];
    if (role(via, node) != Neighbor::Role::kProvider) return false;
    switch (graph.edge(via).scope) {
      case topo::ExportScope::kFull:
        return false;
      case topo::ExportScope::kNoProviders:
        return !to_peer;
      case topo::ExportScope::kCustomersOnly:
        return true;
    }
    return false;
  };

  // Every AS without a route takes the best offer from the exporters
  // `exports` admits; one level of path length at a time when `by_level`,
  // else in a single pass (the peer phase, whose routes never chain).
  const auto settle = [&](RoutePref pref, bool by_level, auto&& exports) {
    for (std::uint32_t d = 1; d < bgp::kMaxDist; ++d) {
      for (NodeId node = 0; node < n; ++node) {
        if (rib.pref[node] != 0) continue;
        NodeId best = kInvalidNode;
        EdgeId best_via = kNoEdge;
        std::uint32_t best_dist = bgp::kMaxDist;
        for (const Neighbor& nb : graph.neighbors(node)) {
          const NodeId from = nb.node;
          if (rib.pref[from] == 0 || !exports(from, role(nb.edge, from))) {
            continue;
          }
          const std::uint32_t dist = offer_dist(from);
          if (by_level ? dist != d : dist >= bgp::kMaxDist) continue;
          if (best == kInvalidNode || dist < best_dist ||
              (dist == best_dist && tie_rank(from) < tie_rank(best))) {
            best = from;
            best_via = nb.edge;
            best_dist = dist;
          }
        }
        if (best == kInvalidNode) continue;
        rib.parent[node] = best;
        rib.via_edge[node] = best_via;
        rib.pref[node] = pref_of(pref);
        rib.dist[node] = static_cast<std::uint16_t>(best_dist);
      }
      if (!by_level) return;
    }
  };

  const auto customer_route = [&](NodeId node) {
    return rib.pref[node] == pref_of(RoutePref::kCustomer);
  };
  // Phase 1: customer routes climb to providers and cross siblings.
  settle(RoutePref::kCustomer, true, [&](NodeId from, Neighbor::Role r) {
    return (r == Neighbor::Role::kCustomer || r == Neighbor::Role::kSibling) &&
           customer_route(from) && !blocked(from, /*to_peer=*/false);
  });
  // Phase 2: one peer hop from customer-route holders.
  settle(RoutePref::kPeer, false, [&](NodeId from, Neighbor::Role r) {
    return r == Neighbor::Role::kPeer && customer_route(from) &&
           !blocked(from, /*to_peer=*/true);
  });
  // Phase 3: every route descends to customers and crosses siblings.
  settle(RoutePref::kProvider, true, [&](NodeId, Neighbor::Role r) {
    return r == Neighbor::Role::kProvider || r == Neighbor::Role::kSibling;
  });
  return rib;
}

std::vector<NaivePath> naive_harvest(const bgp::Propagator& coins,
                                     const bgp::OriginRib& rib,
                                     std::span<const bgp::VantagePoint> vps) {
  const auto& graph = coins.world().graph;
  const auto& params = coins.params();
  const asn::Asn origin = graph.asn_of(rib.origin);
  const auto leak = coins.leaked_private_asn(origin);

  std::vector<NaivePath> out;
  std::uint32_t vp_index = 0;
  for (const auto& vp : vps) {
    const auto found = graph.node_of(vp.asn);
    if (!found) continue;
    const NodeId node = *found;
    const std::uint32_t index = vp_index++;
    if (rib.pref[node] == 0 || node == rib.origin) continue;
    if (!vp.full_feed && rib.pref[node] != pref_of(RoutePref::kCustomer)) {
      continue;
    }
    NaivePath entry{index, {vp.asn}};
    for (NodeId cur = node; cur != rib.origin; cur = rib.parent[cur]) {
      const NodeId parent = rib.parent[cur];
      const unsigned repeats = 1 + coins.prepend_count(parent, origin);
      entry.path.insert(entry.path.end(), repeats, graph.asn_of(parent));
    }
    if (leak) entry.path.push_back(*leak);
    if (vp.legacy_16bit) {
      const std::uint64_t h =
          mix(origin.value(), node, params.salt ^ 0x16B17ull);
      if (static_cast<double>(h >> 11) * 0x1.0p-53 < params.legacy_mangle) {
        for (auto& hop : entry.path) {
          if (!hop.is_16bit()) hop = asn::kAsTrans;
        }
      }
    }
    out.push_back(std::move(entry));
  }
  return out;
}

}  // namespace asrel::testing
