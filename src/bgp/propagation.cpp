#include "bgp/propagation.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
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
  rebuild_adjacency();
}

void Propagator::rebuild_adjacency() {
  const auto& graph = world_->graph;
  const std::size_t n = graph.node_count();
  if (n != prepend_propensity_.size()) {
    throw std::logic_error{"Propagator: the graph's node set changed"};
  }
  const auto segment_of = [&](const Neighbor& nb) {
    if (graph.edge(nb.edge).is_hybrid()) return kHybrid;
    switch (nb.role) {  // the owner's role: kCustomer = "I am the customer"
      case Neighbor::Role::kCustomer:
        return kProviders;
      case Neighbor::Role::kSibling:
        return kSiblings;
      case Neighbor::Role::kProvider:
        return kCustomers;
      case Neighbor::Role::kPeer:
        return kPeers;
    }
    return kPeers;
  };
  // Counting sort by (node, segment), keeping each segment in adjacency
  // (ascending edge id) order: count into begin[slot + 1], prefix-sum,
  // fill through begin[slot] as a cursor, then shift the cursors back.
  auto& begin = segment_begin_;
  begin.assign(n * kSegmentCount + 1, 0);
  for (NodeId node = 0; node < n; ++node) {
    for (const auto& nb : graph.neighbors(node)) {
      ++begin[std::size_t{node} * kSegmentCount + segment_of(nb) + 1];
    }
  }
  for (std::size_t slot = 1; slot < begin.size(); ++slot) {
    begin[slot] += begin[slot - 1];
  }
  hops_.resize(begin.back());
  for (NodeId node = 0; node < n; ++node) {
    for (const auto& nb : graph.neighbors(node)) {
      hops_[begin[std::size_t{node} * kSegmentCount + segment_of(nb)]++] = {
          nb.node, nb.edge};
    }
  }
  for (std::size_t slot = begin.size() - 1; slot > 0; --slot) {
    begin[slot] = begin[slot - 1];
  }
  begin[0] = 0;
  // A sink's sibling, customer and hybrid segments are all empty: the
  // first two are contiguous, and hybrid ends where the next node begins.
  sink_.resize(n);
  for (NodeId node = 0; node < n; ++node) {
    const std::size_t base = std::size_t{node} * kSegmentCount;
    sink_[node] = begin[base + kSiblings] == begin[base + kPeers] &&
                  begin[base + kHybrid] == begin[base + kSegmentCount];
  }
  generation_ = graph.generation();
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

namespace {

// Node states, ordered so try_improve takes offers for every state up to
// kSink. reset() copies Propagator::sink_ (0 or 1) in as the first states.
constexpr std::uint8_t kOpen = 0;
constexpr std::uint8_t kSink = 1;      // records offers, is never queued
constexpr std::uint8_t kSettled = 2;
constexpr std::uint8_t kExported = 3;  // phase 3 has walked its customers
constexpr std::uint8_t kUnread = 4;    // a sink nobody reads: never offered
static_assert(kOpen == 0 && kSink == 1);

struct PeerCandidate {
  NodeId node, parent;
  EdgeId via;
  std::uint16_t dist;
};

/// propagate()'s working state. One per thread, reused across origins and
/// propagators: reset() sizes it for the graph at hand and clears what a
/// previous call (even one that threw) may have left behind.
struct Scratch {
  std::vector<std::uint8_t> state;   // by NodeId: one of the states above
  std::vector<std::uint8_t> weight;  // 1 + prepends; valid once settled
  std::array<std::vector<NodeId>, kMaxDist> buckets;
  std::vector<NodeId> settled;  // in settling order: ascending distance
  std::vector<PeerCandidate> candidates;

  void reset(std::span<const std::uint8_t> sinks, NodeId origin,
             std::span<const std::uint8_t> unread) {
    state.assign(sinks.begin(), sinks.end());
    state[origin] = kOpen;  // the origin exports its own route
    for (std::size_t node = 0; node < unread.size(); ++node) {
      if (unread[node] != 0 && state[node] == kSink) state[node] = kUnread;
    }
    weight.resize(sinks.size());
    for (auto& bucket : buckets) bucket.clear();
    settled.clear();
    candidates.clear();
  }
};

Scratch& thread_scratch() {
  thread_local Scratch scratch;
  return scratch;
}

}  // namespace

OriginRib Propagator::propagate(asn::Asn origin,
                                std::span<const std::uint8_t> unread) const {
  const auto& graph = world_->graph;
  if (graph.generation() != generation_) {
    throw std::logic_error{
        "Propagator: the graph changed since its adjacency was built"};
  }
  const std::size_t n = graph.node_count();
  if (!unread.empty() && unread.size() != n) {
    throw std::invalid_argument{"Propagator: unread mask is not one per node"};
  }

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
  if (!origin_node) {
    throw std::invalid_argument{"Propagator: origin ASN is not in the graph"};
  }
  rib.origin = *origin_node;
  rib.parent.assign(n, kInvalidNode);
  rib.via_edge.assign(n, ~EdgeId{0});
  rib.pref.assign(n, 0);
  rib.dist.assign(n, kMaxDist);

  Scratch& s = thread_scratch();
  s.reset(sink_, rib.origin, unread);

  // A sink exports nothing, so it only keeps its best offer: it takes
  // offers in every phase and never enters a bucket or settles.
  const auto try_improve = [&](NodeId node, NodeId parent, EdgeId via,
                               RoutePref pref, std::uint16_t dist) {
    const std::uint8_t state = s.state[node];
    if (dist >= kMaxDist || state > kSink) return;
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
    if (state == kOpen) s.buckets[dist].push_back(node);
  };
  // A node's prepend weight is rolled once, when it settles.
  const auto settle = [&](NodeId node) {
    s.state[node] = kSettled;
    s.weight[node] = static_cast<std::uint8_t>(1 + prepend_count(node, origin));
    s.settled.push_back(node);
  };
  const auto offer_from = [&](NodeId node) {
    return static_cast<std::uint16_t>(rib.dist[node] + s.weight[node]);
  };
  // Only hybrid links resolve per origin; the role is `self`'s.
  const auto hybrid_role = [&](const Hop& hop, NodeId self) {
    return role_on(graph.edge(hop.edge), self, origin);
  };

  // ---- Phase 1: customer routes climb providers and cross siblings -------
  rib.pref[rib.origin] = static_cast<std::uint8_t>(RoutePref::kCustomer);
  rib.dist[rib.origin] = 0;
  s.buckets[0].push_back(rib.origin);

  for (std::uint16_t d = 0; d < kMaxDist; ++d) {
    auto& bucket = s.buckets[d];
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      const NodeId node = bucket[i];
      if (s.state[node] != kOpen || rib.dist[node] != d) continue;
      settle(node);
      if (export_blocked(rib, node, /*to_peer=*/false, origin)) continue;
      const std::uint16_t offer = offer_from(node);
      // Upward export: to my providers; sibling exchange: both ways.
      for (const Hop& hop : hops(node, kProviders, kSiblings)) {
        try_improve(hop.node, node, hop.edge, RoutePref::kCustomer, offer);
      }
      for (const Hop& hop : hops(node, kHybrid, kHybrid)) {
        const auto role = hybrid_role(hop, node);
        if (role == Neighbor::Role::kCustomer ||
            role == Neighbor::Role::kSibling) {
          try_improve(hop.node, node, hop.edge, RoutePref::kCustomer, offer);
        }
      }
    }
    bucket.clear();
  }
  const std::size_t customer_routes = s.settled.size();

  // ---- Phase 2: one peer hop ---------------------------------------------
  // Collect candidates first so peer routes never chain.
  for (std::size_t k = 0; k < customer_routes; ++k) {
    const NodeId node = s.settled[k];
    if (export_blocked(rib, node, /*to_peer=*/true, origin)) continue;
    const std::uint16_t offer = offer_from(node);
    for (const Hop& hop : hops(node, kPeers, kPeers)) {
      if (s.state[hop.node] > kSink) continue;
      s.candidates.push_back({hop.node, node, hop.edge, offer});
    }
    for (const Hop& hop : hops(node, kHybrid, kHybrid)) {
      if (s.state[hop.node] > kSink) continue;
      if (hybrid_role(hop, node) != Neighbor::Role::kPeer) continue;
      s.candidates.push_back({hop.node, node, hop.edge, offer});
    }
  }
  const auto peer_pref = static_cast<std::uint8_t>(RoutePref::kPeer);
  for (const auto& c : s.candidates) {
    if (c.dist >= kMaxDist) continue;
    const bool better =
        rib.pref[c.node] < peer_pref ||
        (rib.pref[c.node] == peer_pref &&
         (c.dist < rib.dist[c.node] ||
          (c.dist == rib.dist[c.node] &&
           tie_rank(c.parent) < tie_rank(rib.parent[c.node]))));
    if (!better) continue;
    rib.parent[c.node] = c.parent;
    rib.via_edge[c.node] = c.via;
    rib.pref[c.node] = peer_pref;
    rib.dist[c.node] = c.dist;
  }
  for (const auto& c : s.candidates) {  // a sink's peer route is final
    if (s.state[c.node] == kOpen && rib.pref[c.node] == peer_pref) {
      settle(c.node);
    }
  }

  // ---- Phase 3: descend provider->customer edges (and siblings) ----------
  for (const NodeId node : s.settled) {
    s.buckets[rib.dist[node]].push_back(node);
  }
  for (std::uint16_t d = 0; d < kMaxDist; ++d) {
    auto& bucket = s.buckets[d];
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      const NodeId node = bucket[i];
      if (rib.dist[node] != d || s.state[node] == kExported) continue;
      if (s.state[node] == kOpen) settle(node);  // a provider route
      s.state[node] = kExported;
      const std::uint16_t offer = offer_from(node);
      for (const Hop& hop : hops(node, kSiblings, kCustomers)) {
        try_improve(hop.node, node, hop.edge, RoutePref::kProvider, offer);
      }
      for (const Hop& hop : hops(node, kHybrid, kHybrid)) {
        const auto role = hybrid_role(hop, node);
        if (role == Neighbor::Role::kProvider ||
            role == Neighbor::Role::kSibling) {
          try_improve(hop.node, node, hop.edge, RoutePref::kProvider, offer);
        }
      }
    }
    bucket.clear();
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

namespace {

/// Writes the AS path `node` uses toward the rib's origin into `out`,
/// which holds exactly 1 + rib.dist[node] hops. Each parent appears
/// 1 + prepends times, and propagate() recorded that weight as the
/// distance step to its child, so no prepend roll is repeated here.
void write_path(const topo::AsGraph& graph, const OriginRib& rib,
                NodeId node, std::span<asn::Asn> out) {
  std::size_t at = 0;
  out[at++] = graph.asn_of(node);
  for (NodeId cur = node; cur != rib.origin;) {
    const NodeId parent = rib.parent[cur];
    // Distances strictly fall toward the origin, which also bounds `at`.
    if (parent == kInvalidNode || rib.dist[parent] >= rib.dist[cur]) {
      throw std::logic_error{"inconsistent rib: broken parent chain"};
    }
    const asn::Asn hop = graph.asn_of(parent);
    for (int k = rib.dist[cur] - rib.dist[parent]; k > 0; --k) {
      out[at++] = hop;
    }
    cur = parent;
  }
  if (at != out.size()) {
    throw std::logic_error{"inconsistent rib: origin distance is not 0"};
  }
}

}  // namespace

std::vector<asn::Asn> Propagator::path_at(const OriginRib& rib,
                                          topo::NodeId node) const {
  if (!rib.reachable(node)) return {};
  std::vector<asn::Asn> path(std::size_t{1} + rib.dist[node]);
  write_path(world_->graph, rib, node, path);
  return path;
}

void PathTable::add_path(topo::NodeId origin, std::uint32_t vp_index,
                         std::span<const asn::Asn> path) {
  std::ranges::copy(path, append_path(origin, vp_index, path.size()).begin());
}

void PathTable::reserve_origin(topo::NodeId origin, std::size_t paths,
                               std::size_t hops) {
  auto& bucket = per_origin_[origin];
  bucket.vp_ids.reserve(bucket.vp_ids.size() + paths);
  bucket.offsets.reserve(bucket.offsets.size() + paths);
  bucket.arena.reserve(bucket.arena.size() + hops);
}

std::span<asn::Asn> PathTable::append_path(topo::NodeId origin,
                                           std::uint32_t vp_index,
                                           std::size_t length) {
  auto& bucket = per_origin_[origin];
  const std::size_t begin = bucket.arena.size();
  bucket.vp_ids.push_back(vp_index);
  bucket.offsets.push_back(static_cast<std::uint32_t>(begin));
  bucket.arena.resize(begin + length);
  return std::span{bucket.arena}.subspan(begin, length);
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
  const auto& graph = propagator.world().graph;
  const asn::Asn origin_asn = graph.asn_of(rib.origin);
  const auto leak = propagator.leaked_private_asn(origin_asn);
  const std::size_t tail = leak ? 1 : 0;
  const auto collected = [&](const VpSession& vp) {
    if (!rib.reachable(vp.node)) return false;
    if (vp.node == rib.origin) return false;  // own announcement
    // Partial feeds export only customer/sibling routes to collectors.
    return vp.full_feed ||
           rib.pref[vp.node] ==
               static_cast<std::uint8_t>(RoutePref::kCustomer);
  };
  // Every path's length is known from the rib, so the bucket is sized once
  // and each path is written in place.
  std::size_t paths = 0;
  std::size_t hops = 0;
  for (const auto& vp : sessions) {
    if (!collected(vp)) continue;
    ++paths;
    hops += 1 + rib.dist[vp.node] + tail;
  }
  table.reserve_origin(rib.origin, paths, hops);
  for (const auto& vp : sessions) {
    if (!collected(vp)) continue;
    const std::span<asn::Asn> path = table.append_path(
        rib.origin, vp.vp_index, 1 + rib.dist[vp.node] + tail);
    write_path(graph, rib, vp.node, path.first(path.size() - tail));
    if (leak) path.back() = *leak;
    if (vp.legacy) {
      // Mangling is rare: AS4_PATH usually restores the 32-bit hops.
      const std::uint64_t h = mix(origin_asn.value(), vp.node,
                                  propagator.params().salt ^ 0x16B17ull);
      const double roll = static_cast<double>(h >> 11) * 0x1.0p-53;
      if (roll < propagator.params().legacy_mangle) {
        for (auto& hop : path) {
          if (!hop.is_16bit()) hop = asn::kAsTrans;
        }
      }
    }
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
  // The harvest reads only VP entries and their parent chains.
  std::vector<std::uint8_t> unread(n, 1);
  for (const auto& vp : sessions) unread[vp.node] = 0;

  // Each origin writes only its own bucket, so origins parallelize freely;
  // the path count is fixed up below because add_path's counter is not
  // synchronized.
  core::ThreadPool::shared().run_indexed(
      n, origin_workers(propagator.params().threads),
      [&](std::size_t origin) {
        const asn::Asn origin_asn = graph.asn_of(static_cast<NodeId>(origin));
        const OriginRib rib = propagator.propagate(origin_asn, unread);
        harvest_origin(propagator, rib, sessions, table);
      });
  table.recount();
  return table;
}

}  // namespace asrel::bgp
