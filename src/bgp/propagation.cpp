#include "bgp/propagation.hpp"

#include <algorithm>
#include <cassert>
#include <thread>

#include "core/parallel.hpp"
#include "obs/trace.hpp"

namespace asrel::bgp {

namespace {

using topo::EdgeId;
using topo::kInvalidNode;
using topo::Neighbor;
using topo::NodeId;
using topo::RelType;

/// splitmix64-style mixer for deterministic, order-independent choices.
std::uint64_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t salt) {
  std::uint64_t x = a * 0x9E3779B97F4A7C15ull + b + salt;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

}  // namespace

Propagator::Propagator(const topo::World& world, PropagationParams params)
    : world_(&world), params_(params) {
  prepend_propensity_.resize(world.graph.node_count(), 0.0);
  for (NodeId node = 0; node < world.graph.node_count(); ++node) {
    prepend_propensity_[node] =
        world.attrs.at(world.graph.asn_of(node)).prepend_propensity;
  }
}

topo::RelType Propagator::effective_rel(const topo::Edge& edge,
                                        asn::Asn origin) const {
  if (!edge.hybrid_rel) return edge.rel;
  const std::uint64_t h = mix(origin.value(),
                              (std::uint64_t{edge.u} << 32) | edge.v,
                              params_.salt);
  return (h & 1) == 0 ? edge.rel : *edge.hybrid_rel;
}

unsigned Propagator::prepend_count(topo::NodeId node, asn::Asn origin) const {
  if (!params_.enable_prepending) return 0;
  const double propensity = prepend_propensity_[node];
  if (propensity <= 0.0) return 0;
  const std::uint64_t h =
      mix(origin.value(), node, params_.salt ^ 0xABCDEF1234567890ull);
  const double roll =
      static_cast<double>(h >> 11) * 0x1.0p-53;  // uniform [0,1)
  if (roll >= propensity) return 0;
  return 1 + static_cast<unsigned>((h >> 5) % 3);
}

std::optional<asn::Asn> Propagator::leaked_private_asn(asn::Asn origin) const {
  if (params_.private_asn_leak <= 0.0) return std::nullopt;
  const std::uint64_t h =
      mix(origin.value(), 0x1EAFull, params_.salt ^ 0x5EEDull);
  const double roll = static_cast<double>(h >> 11) * 0x1.0p-53;
  if (roll >= params_.private_asn_leak) return std::nullopt;
  return asn::Asn{64512u + static_cast<std::uint32_t>((h >> 7) % 1022)};
}

// Role of `self` on an edge for this origin, after hybrid resolution.
// Returns the Neighbor-style role (kProvider means self is the provider).
Neighbor::Role Propagator::role_on(const topo::Edge& edge, NodeId self,
                                   asn::Asn origin) const {
  switch (effective_rel(edge, origin)) {
    case RelType::kP2C:
      return self == edge.u ? Neighbor::Role::kProvider
                            : Neighbor::Role::kCustomer;
    case RelType::kP2P:
      return Neighbor::Role::kPeer;
    case RelType::kS2S:
      return Neighbor::Role::kSibling;
  }
  return Neighbor::Role::kPeer;
}

// May `node` re-export its selected route beyond customers? The paper's
// partial-transit scopes (§6.1) restrict a provider that learned the route
// directly from the tagged customer.
bool Propagator::export_blocked(const OriginRib& rib, NodeId node,
                                bool to_peer, asn::Asn origin) const {
  if (!params_.honor_export_scopes) return false;
  if (node == rib.origin) return false;
  const EdgeId via = rib.via_edge[node];
  if (via == ~EdgeId{0}) return false;
  const auto& edge = world_->graph.edge(via);
  if (effective_rel(edge, origin) != RelType::kP2C) return false;
  if (role_on(edge, node, origin) != Neighbor::Role::kProvider) return false;
  switch (edge.scope) {
    case topo::ExportScope::kFull:
      return false;
    case topo::ExportScope::kNoProviders:
      return !to_peer;  // blocks only the provider direction
    case topo::ExportScope::kCustomersOnly:
      return true;
  }
  return false;
}

OriginRib Propagator::propagate(asn::Asn origin) const {
  const auto& graph = world_->graph;
  const std::size_t n = graph.node_count();

  // Equal-preference, equal-length candidates tie-break on a per-origin
  // hash of the next hop rather than on the raw ASN: a global "lowest ASN
  // wins" rule would route every vantage point through the same provider of
  // a multihomed AS, hiding its other links from all collectors at once.
  // Real-world MED/hot-potato diversity spreads selections similarly.
  const auto tie_rank = [&](NodeId parent) {
    return mix(origin.value(), graph.asn_of(parent).value(),
               params_.salt ^ 0x7137ull);
  };

  OriginRib rib;
  const auto origin_node = graph.node_of(origin);
  assert(origin_node.has_value());
  rib.origin = *origin_node;
  rib.parent.assign(n, kInvalidNode);
  rib.via_edge.assign(n, ~EdgeId{0});
  rib.pref.assign(n, 0);
  rib.dist.assign(n, kMaxDist);

  std::vector<std::uint8_t> settled(n, 0);
  std::vector<std::vector<NodeId>> buckets(kMaxDist);

  const auto role_on = [&](const topo::Edge& edge, NodeId self) {
    return this->role_on(edge, self, origin);
  };
  const auto export_blocked = [&](NodeId node, bool to_peer) -> bool {
    return this->export_blocked(rib, node, to_peer, origin);
  };

  const auto try_improve = [&](NodeId node, NodeId parent, EdgeId via,
                               RoutePref pref, std::uint16_t dist) {
    if (dist >= kMaxDist || settled[node]) return;
    const auto pref_value = static_cast<std::uint8_t>(pref);
    const bool better =
        pref_value > rib.pref[node] ||
        (pref_value == rib.pref[node] &&
         (dist < rib.dist[node] ||
          (dist == rib.dist[node] && rib.parent[node] != kInvalidNode &&
           tie_rank(parent) < tie_rank(rib.parent[node]))));
    if (!better) return;
    rib.parent[node] = parent;
    rib.via_edge[node] = via;
    rib.pref[node] = pref_value;
    rib.dist[node] = dist;
    buckets[dist].push_back(node);
  };

  // ---- Phase 1: customer routes climb providers and cross siblings -------
  rib.pref[rib.origin] = static_cast<std::uint8_t>(RoutePref::kCustomer);
  rib.dist[rib.origin] = 0;
  buckets[0].push_back(rib.origin);

  for (std::uint16_t d = 0; d < kMaxDist; ++d) {
    for (std::size_t i = 0; i < buckets[d].size(); ++i) {
      const NodeId node = buckets[d][i];
      if (settled[node] || rib.dist[node] != d) continue;
      settled[node] = 1;
      if (export_blocked(node, /*to_peer=*/false)) continue;
      const auto weight =
          static_cast<std::uint16_t>(1 + prepend_count(node, origin));
      for (const auto& nb : graph.neighbors(node)) {
        const auto& edge = graph.edge(nb.edge);
        const auto role = role_on(edge, node);
        // Upward export: to my providers; sibling exchange: both ways.
        if (role != Neighbor::Role::kCustomer &&
            role != Neighbor::Role::kSibling) {
          continue;
        }
        try_improve(nb.node, node, nb.edge, RoutePref::kCustomer,
                    static_cast<std::uint16_t>(d + weight));
      }
    }
    buckets[d].clear();
  }

  // ---- Phase 2: one peer hop ---------------------------------------------
  // Collect candidates first so peer routes never chain.
  struct PeerCandidate {
    NodeId node, parent;
    EdgeId via;
    std::uint16_t dist;
  };
  std::vector<PeerCandidate> candidates;
  for (NodeId node = 0; node < n; ++node) {
    if (!settled[node]) continue;
    if (export_blocked(node, /*to_peer=*/true)) continue;
    const auto weight =
        static_cast<std::uint16_t>(1 + prepend_count(node, origin));
    for (const auto& nb : graph.neighbors(node)) {
      if (settled[nb.node]) continue;
      const auto& edge = graph.edge(nb.edge);
      if (role_on(edge, node) != Neighbor::Role::kPeer) continue;
      candidates.push_back(
          {nb.node, node,
           nb.edge, static_cast<std::uint16_t>(rib.dist[node] + weight)});
    }
  }
  for (const auto& c : candidates) {
    if (c.dist >= kMaxDist) continue;
    const auto pref_value = static_cast<std::uint8_t>(RoutePref::kPeer);
    const bool better =
        rib.pref[c.node] < pref_value ||
        (rib.pref[c.node] == pref_value &&
         (c.dist < rib.dist[c.node] ||
          (c.dist == rib.dist[c.node] &&
           tie_rank(c.parent) < tie_rank(rib.parent[c.node]))));
    if (!better) continue;
    rib.parent[c.node] = c.parent;
    rib.via_edge[c.node] = c.via;
    rib.pref[c.node] = pref_value;
    rib.dist[c.node] = c.dist;
  }
  for (NodeId node = 0; node < n; ++node) {
    if (!settled[node] &&
        rib.pref[node] == static_cast<std::uint8_t>(RoutePref::kPeer)) {
      settled[node] = 1;
    }
  }

  // ---- Phase 3: descend provider->customer edges (and siblings) ----------
  for (NodeId node = 0; node < n; ++node) {
    if (settled[node]) buckets[rib.dist[node]].push_back(node);
  }
  for (std::uint16_t d = 0; d < kMaxDist; ++d) {
    for (std::size_t i = 0; i < buckets[d].size(); ++i) {
      const NodeId node = buckets[d][i];
      if (rib.dist[node] != d) continue;
      if (!settled[node]) {
        settled[node] = 1;  // provider route settles here
      }
      const auto weight =
          static_cast<std::uint16_t>(1 + prepend_count(node, origin));
      for (const auto& nb : graph.neighbors(node)) {
        if (settled[nb.node]) continue;
        const auto& edge = graph.edge(nb.edge);
        const auto role = role_on(edge, node);
        if (role != Neighbor::Role::kProvider &&
            role != Neighbor::Role::kSibling) {
          continue;
        }
        try_improve(nb.node, node, nb.edge, RoutePref::kProvider,
                    static_cast<std::uint16_t>(d + weight));
      }
    }
    buckets[d].clear();
  }
  return rib;
}

bool Propagator::rib_affected(const OriginRib& rib,
                              std::span<const EdgeId> touched) const {
  const auto& graph = world_->graph;
  const asn::Asn origin = graph.asn_of(rib.origin);
  for (const EdgeId id : touched) {
    const auto& edge = graph.edge(id);  // tombstones keep endpoints valid
    // A via edge is incident to the node selecting it, so `edge` can be in
    // use only at its own endpoints. If either routed through it, any
    // mutation (removal, flip, scope change) can cascade — re-run.
    if (rib.via_edge[edge.u] == id || rib.via_edge[edge.v] == id) {
      return true;
    }
    // A removed edge nobody routed through never carried a selected route
    // and can no longer make offers: replay without it is identical.
    if (edge.removed) continue;
    // Otherwise the edge (new, or with new policy) competes in both
    // directions. Every phase exports the exporter's *final* values — the
    // bucket walk settles a node only at its final distance — so comparing
    // the best possible offer against the endpoint's final selection is
    // exact. A strictly losing offer loses in every phase replay. On an
    // exact (pref, dist) tie the selection flips only if the new parent
    // wins propagate()'s per-origin tie-break against the incumbent, so
    // tie-losing offers are provably inert and need not dirty the origin.
    const auto tie_rank = [&](NodeId parent) {
      return mix(origin.value(), graph.asn_of(parent).value(),
                 params_.salt ^ 0x7137ull);
    };
    for (int direction = 0; direction < 2; ++direction) {
      const NodeId from = direction == 0 ? edge.u : edge.v;
      const NodeId to = direction == 0 ? edge.v : edge.u;
      if (rib.pref[from] == 0) continue;  // nothing to export
      const auto weight =
          static_cast<std::uint16_t>(1 + prepend_count(from, origin));
      const std::uint32_t offer_dist = rib.dist[from] + weight;
      const auto offer_beats = [&](RoutePref pref) {
        if (offer_dist >= kMaxDist) return false;
        const auto pref_value = static_cast<std::uint8_t>(pref);
        if (pref_value != rib.pref[to]) return pref_value > rib.pref[to];
        if (offer_dist != rib.dist[to]) return offer_dist < rib.dist[to];
        const NodeId incumbent = rib.parent[to];
        if (incumbent == kInvalidNode) return true;  // conservative
        return tie_rank(from) <= tie_rank(incumbent);
      };
      const bool customer_route =
          rib.pref[from] == static_cast<std::uint8_t>(RoutePref::kCustomer);
      switch (role_on(edge, from, origin)) {
        case Neighbor::Role::kCustomer:  // exports up to its provider
          if (customer_route &&
              !export_blocked(rib, from, /*to_peer=*/false, origin) &&
              offer_beats(RoutePref::kCustomer)) {
            return true;
          }
          break;
        case Neighbor::Role::kSibling:  // phase 1 climb and phase 3 descent
          if (customer_route &&
              !export_blocked(rib, from, /*to_peer=*/false, origin) &&
              offer_beats(RoutePref::kCustomer)) {
            return true;
          }
          if (offer_beats(RoutePref::kProvider)) return true;
          break;
        case Neighbor::Role::kPeer:  // one hop from customer-route holders
          if (customer_route &&
              !export_blocked(rib, from, /*to_peer=*/true, origin) &&
              offer_beats(RoutePref::kPeer)) {
            return true;
          }
          break;
        case Neighbor::Role::kProvider:  // exports down to its customer
          if (offer_beats(RoutePref::kProvider)) return true;
          break;
      }
    }
  }
  return false;
}

std::vector<asn::Asn> Propagator::path_at(const OriginRib& rib,
                                          topo::NodeId node) const {
  std::vector<asn::Asn> path;
  if (!rib.reachable(node)) return path;
  const auto& graph = world_->graph;
  const asn::Asn origin = graph.asn_of(rib.origin);
  path.push_back(graph.asn_of(node));
  NodeId cur = node;
  while (cur != rib.origin) {
    const NodeId parent = rib.parent[cur];
    assert(parent != kInvalidNode);
    const unsigned repeats = 1 + prepend_count(parent, origin);
    for (unsigned i = 0; i < repeats; ++i) {
      path.push_back(graph.asn_of(parent));
    }
    cur = parent;
  }
  return path;
}

void PathTable::add_path(topo::NodeId origin, std::uint32_t vp_index,
                         std::span<const asn::Asn> path) {
  auto& bucket = per_origin_[origin];
  bucket.vp_ids.push_back(vp_index);
  bucket.offsets.push_back(static_cast<std::uint32_t>(bucket.arena.size()));
  bucket.arena.insert(bucket.arena.end(), path.begin(), path.end());
}

void PathTable::clear_origin(topo::NodeId origin) {
  auto& bucket = per_origin_[origin];
  bucket.offsets.clear();
  bucket.vp_ids.clear();
  bucket.arena.clear();
}

void PathTable::recount() {
  path_count_ = 0;
  for (const auto& bucket : per_origin_) path_count_ += bucket.vp_ids.size();
}

std::size_t PathTable::hop_count() const {
  std::size_t hops = 0;
  for (const auto& bucket : per_origin_) hops += bucket.arena.size();
  return hops;
}

void PathTable::for_each_path(
    const std::function<void(const PathRef&)>& visit) const {
  for (std::size_t origin = 0; origin < per_origin_.size(); ++origin) {
    for_each_path_of(static_cast<topo::NodeId>(origin), visit);
  }
}

std::vector<std::size_t> split_origins_by_hops(const PathTable& table,
                                               std::size_t chunks) {
  const std::size_t origins = table.origin_count();
  std::size_t total = 0;
  for (std::size_t origin = 0; origin < origins; ++origin) {
    total += table.origin_hop_count(static_cast<topo::NodeId>(origin));
  }
  std::vector<std::size_t> bounds(chunks + 1, origins);
  bounds[0] = 0;
  std::size_t chunk = 1;
  std::size_t seen = 0;
  for (std::size_t origin = 0; origin < origins && chunk < chunks; ++origin) {
    // Chunk k starts at the first origin whose preceding hops reach
    // k / chunks of the total.
    while (chunk < chunks && seen * chunks >= chunk * total) {
      bounds[chunk++] = origin;
    }
    seen += table.origin_hop_count(static_cast<topo::NodeId>(origin));
  }
  return bounds;
}

std::vector<VpSession> resolve_vp_sessions(const topo::AsGraph& graph,
                                           std::span<const VantagePoint> vps) {
  std::vector<VpSession> sessions;
  sessions.reserve(vps.size());
  for (const auto& vp : vps) {
    const auto node = graph.node_of(vp.asn);
    if (!node) continue;
    sessions.push_back(VpSession{
        .node = *node,
        .vp_index = static_cast<std::uint32_t>(sessions.size()),
        .full_feed = vp.full_feed,
        .legacy = vp.legacy_16bit,
    });
  }
  return sessions;
}

void harvest_origin(const Propagator& propagator, const OriginRib& rib,
                    std::span<const VpSession> sessions, PathTable& table) {
  const asn::Asn origin_asn = propagator.world().graph.asn_of(rib.origin);
  const auto leak = propagator.leaked_private_asn(origin_asn);
  std::vector<asn::Asn> scratch;
  for (const auto& vp : sessions) {
    if (!rib.reachable(vp.node)) continue;
    if (vp.node == rib.origin) continue;  // own announcement
    // Partial feeds export only customer/sibling routes to collectors.
    if (!vp.full_feed &&
        rib.pref[vp.node] !=
            static_cast<std::uint8_t>(RoutePref::kCustomer)) {
      continue;
    }
    scratch = propagator.path_at(rib, vp.node);
    if (leak) scratch.push_back(*leak);
    if (vp.legacy) {
      // Mangling is rare: AS4_PATH usually restores the 32-bit hops.
      const std::uint64_t h = mix(origin_asn.value(), vp.node,
                                  propagator.params().salt ^ 0x16B17ull);
      const double roll = static_cast<double>(h >> 11) * 0x1.0p-53;
      if (roll < propagator.params().legacy_mangle) {
        for (auto& hop : scratch) {
          if (!hop.is_16bit()) hop = asn::kAsTrans;
        }
      }
    }
    table.add_path(rib.origin, vp.vp_index, scratch);
  }
}

unsigned origin_workers(unsigned requested) {
  // The cap keeps the auto default sane on very wide machines; an
  // explicit count is honored as is, above or below it.
  if (requested != 0) return requested;
  return std::min(32u, std::max(1u, std::thread::hardware_concurrency()));
}

PathTable collect_paths(const Propagator& propagator,
                        std::vector<VantagePoint> vps) {
  obs::StageScope stage{"bgp.collect_paths"};
  const auto& world = propagator.world();
  const auto& graph = world.graph;
  const std::size_t n = graph.node_count();

  PathTable table;
  table.resize_origins(n);

  const std::vector<VpSession> sessions = resolve_vp_sessions(graph, vps);
  table.set_vantage_points(std::move(vps));

  // Each origin writes only its own bucket, so origins parallelize freely;
  // the path count is fixed up below because add_path's counter is not
  // synchronized.
  core::ThreadPool::shared().run_indexed(
      n, origin_workers(propagator.params().threads),
      [&](std::size_t origin) {
        const asn::Asn origin_asn = graph.asn_of(static_cast<NodeId>(origin));
        const OriginRib rib = propagator.propagate(origin_asn);
        harvest_origin(propagator, rib, sessions, table);
      });
  table.recount();
  return table;
}

}  // namespace asrel::bgp
