// Valley-free BGP route propagation over the ground-truth graph.
//
// One announcement per origin AS is propagated in the classic three phases
// (Gao-Rexford export policies):
//   1. up    — customer routes climb provider chains (and cross siblings),
//   2. across — one peer hop for ASes holding a customer route,
//   3. down  — everything descends provider->customer edges.
// Route selection at every AS: prefer customer > peer > provider routes,
// then the shorter AS path (prepending included), then the next hop that
// ranks lowest under a per-origin hash of its ASN (`tie_rank`). The hash is
// a bijection of the ASN for a fixed origin, so no two next hops tie and
// the selection never depends on visiting order.
//
// The engine honors the paper's §6.1 mechanics: a P2C edge with a restricted
// export scope stops the provider from redistributing that customer's routes
// to its peers (kCustomersOnly) and/or providers (both restricted scopes) —
// exactly what a 174:990-style action community does. Hybrid links resolve
// to one of their two relationships per origin (PoP-dependent routing).
// Deterministic AS-path prepending models region-dependent traffic
// engineering (Marcos et al., cited in §2).
//
// Layout: each Propagator builds a role-split adjacency once — a CSR over
// NodeId whose per-node segments are providers | siblings | customers |
// peers | hybrid — so phase 1 walks one contiguous range (providers and
// siblings), phase 2 the peers and phase 3 another (siblings and
// customers). Only hybrid entries resolve their role per origin. The
// adjacency is a snapshot of the graph: after mutating the graph in place,
// call rebuild_adjacency() before the next propagate(), which throws
// std::logic_error on a graph whose generation() moved since the build.
// propagate() keeps its working state (settled flags, distance buckets,
// the settled list, peer candidates) in per-thread scratch reused across
// origins, so a pool worker allocates only the returned rib.
//
// Sinks: most ASes have no sibling, customer or hybrid link. Such a sink
// gets no customer route (nobody exports up to it) and passes its peer or
// provider route to no one, so unless it is the origin no other AS's
// selection reads its entry. The adjacency build marks sinks, and
// propagate() only records a sink's best offer, in place: a sink never
// enters a distance bucket, never settles and never rolls a prepend. Its
// entry is the same as a bucket walk would settle, because every offer
// made after a node settles at distance d is longer than d. A caller that
// reads only some nodes passes `unread`: a sink whose flag is set (other
// than the origin) is not offered a route at all and stays unreachable.
// A set flag on a non-sink is ignored, since other selections read it.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "asn/asn.hpp"
#include "bgp/vantage.hpp"
#include "topology/generator.hpp"
#include "topology/graph.hpp"

namespace asrel::bgp {

/// Exclusive upper bound on AS-path length (incl. prepending); OriginRib
/// distances of unreachable nodes sit at this sentinel. Exported so the
/// naive reference propagator (src/testing) uses the same bound.
inline constexpr std::uint16_t kMaxDist = 64;

/// Preference class of a selected route (higher is preferred).
enum class RoutePref : std::uint8_t {
  kNone = 0,
  kProvider = 1,
  kPeer = 2,
  kCustomer = 3,  ///< includes sibling-learned and self-originated routes
};

struct PropagationParams {
  bool honor_export_scopes = true;  ///< ablation: ignore partial transit
  bool enable_prepending = true;
  /// Probability that an origin's announcement leaks an internal private
  /// ASN as an extra final hop (produces the paper's "reserved ASN"
  /// spurious validation entries, §4.2).
  double private_asn_leak = 0.02;
  /// Probability that a legacy 16-bit collector session fails to reconstruct
  /// the 32-bit path (AS4_PATH loss) and shows AS_TRANS placeholders.
  double legacy_mangle = 0.005;
  std::uint64_t salt = 0x9E3779B97F4A7C15ull;  ///< hash salt for det. choices
  /// Worker count for collect_paths. 0 auto-sizes to hardware concurrency
  /// (capped at 32); any explicit value — including one above 32 — is
  /// honored exactly. The observed paths are byte-identical for every
  /// setting; this knob only trades wall-clock for cores.
  unsigned threads = 0;
};

/// Best routes of every AS toward one origin.
struct OriginRib {
  topo::NodeId origin = topo::kInvalidNode;
  std::vector<topo::NodeId> parent;   ///< next hop toward origin (or invalid)
  std::vector<topo::EdgeId> via_edge; ///< edge to parent
  std::vector<std::uint8_t> pref;     ///< RoutePref as integer
  std::vector<std::uint16_t> dist;    ///< AS-path length incl. prepending

  [[nodiscard]] bool reachable(topo::NodeId node) const {
    return pref[node] != 0;
  }
};

class Propagator {
 public:
  Propagator(const topo::World& world, PropagationParams params);

  /// Full best-route computation for one origin (O(E)). Throws
  /// std::logic_error if the graph changed since the adjacency was built.
  /// `unread`, empty or one byte per node: a sink whose byte is nonzero
  /// is left unreachable in the result (see the header comment). With the
  /// default, every node's entry is complete.
  [[nodiscard]] OriginRib propagate(
      asn::Asn origin, std::span<const std::uint8_t> unread = {}) const;

  /// Re-reads the graph's adjacency after in-place edge mutations, in one
  /// O(V+E) pass. The node set must be unchanged (std::logic_error).
  void rebuild_adjacency();

  /// AS path `node` uses toward the rib's origin: [node, ..., origin],
  /// with prepending expanded (1 + rib.dist[node] hops). Empty if
  /// unreachable.
  [[nodiscard]] std::vector<asn::Asn> path_at(const OriginRib& rib,
                                              topo::NodeId node) const;

  /// Extra prepends AS `node` applies when exporting routes of `origin`.
  [[nodiscard]] unsigned prepend_count(topo::NodeId node,
                                       asn::Asn origin) const;

  /// Effective relationship of `edge` for this origin (hybrid resolution).
  /// Returns the relationship and, for kP2C, whether edge.u is the provider.
  [[nodiscard]] topo::RelType effective_rel(const topo::Edge& edge,
                                            asn::Asn origin) const;

  /// The private ASN leaked by this origin, or nullopt (deterministic).
  [[nodiscard]] std::optional<asn::Asn> leaked_private_asn(
      asn::Asn origin) const;

  [[nodiscard]] const topo::World& world() const { return *world_; }
  [[nodiscard]] const PropagationParams& params() const { return params_; }

  /// Conservative dirty test for incremental re-convergence (src/stream).
  ///
  /// Given a rib computed *before* a set of edge mutations and the graph
  /// *after* them, returns false only if re-running propagate() for this
  /// origin provably reproduces the rib byte-for-byte. The test is O(1)
  /// per touched edge: an edge can be the selected via only at its own two
  /// endpoints, so it checks (a) whether either endpoint routed through
  /// the edge, and (b) whether the edge in its new state could now offer
  /// either endpoint a route that beats — or ties, since tie_rank could
  /// then flip the selection — the endpoint's current best. Ties and
  /// every phase's export rule are treated conservatively, so "affected"
  /// may re-run origins that end up unchanged, but "unaffected" is exact.
  [[nodiscard]] bool rib_affected(const OriginRib& rib,
                                  std::span<const topo::EdgeId> touched) const;

 private:
  /// Adjacency segments, in storage order within each node's range.
  enum Segment : std::size_t {
    kProviders,
    kSiblings,
    kCustomers,
    kPeers,
    kHybrid,
    kSegmentCount,
  };
  struct Hop {
    topo::NodeId node;
    topo::EdgeId edge;
  };
  /// `node`'s entries in segments first..last (inclusive).
  [[nodiscard]] std::span<const Hop> hops(topo::NodeId node, Segment first,
                                          Segment last) const {
    const std::size_t base = std::size_t{node} * kSegmentCount;
    return {hops_.data() + segment_begin_[base + first],
            hops_.data() + segment_begin_[base + last + 1]};
  }

  /// Role of `self` on `edge` for this origin, after hybrid resolution.
  [[nodiscard]] topo::Neighbor::Role role_on(const topo::Edge& edge,
                                             topo::NodeId self,
                                             asn::Asn origin) const;
  /// §6.1 partial-transit export restriction for `node`'s selected route.
  [[nodiscard]] bool export_blocked(const OriginRib& rib, topo::NodeId node,
                                    bool to_peer, asn::Asn origin) const;

  const topo::World* world_;
  PropagationParams params_;
  std::vector<double> prepend_propensity_;  // by NodeId
  std::vector<std::uint32_t> segment_begin_;  // node * kSegmentCount + seg
  std::vector<Hop> hops_;
  std::vector<std::uint8_t> sink_;  // by NodeId: 1 = exports to no one
  std::uint64_t generation_ = 0;  // graph generation the adjacency reflects
};

/// All AS paths observed by a set of collector vantage points.
///
/// Paths are stored origin-major: for each origin node, the (vp, path)
/// pairs of every VP that exported a route for it. Paths run collector-side
/// first: path[0] is the VP's ASN, path.back() the origin (or a leaked
/// private ASN). Legacy 16-bit VP sessions show 32-bit ASNs as AS_TRANS.
class PathTable {
 public:
  struct PathRef {
    std::uint32_t vp_index;
    topo::NodeId origin;  ///< originating node (pre-mangling identity)
    std::span<const asn::Asn> path;
  };

  [[nodiscard]] std::size_t origin_count() const { return per_origin_.size(); }
  [[nodiscard]] std::size_t path_count() const { return path_count_; }
  /// Stored hops over all paths (prepending included).
  [[nodiscard]] std::size_t hop_count() const;
  [[nodiscard]] std::span<const VantagePoint> vantage_points() const {
    return vps_;
  }

  /// Iterates over every stored path in deterministic order.
  void for_each_path(
      const std::function<void(const PathRef&)>& visit) const;

  /// Paths and stored hops of one origin, in O(1). Origin-chunked stages
  /// size their chunks from these without walking the paths.
  [[nodiscard]] std::size_t origin_path_count(topo::NodeId origin) const {
    return per_origin_[origin].vp_ids.size();
  }
  [[nodiscard]] std::size_t origin_hop_count(topo::NodeId origin) const {
    return per_origin_[origin].arena.size();
  }

  /// Visits one origin's paths in stored order without allocating.
  template <typename Visit>
  void for_each_path_of(topo::NodeId origin, Visit&& visit) const {
    const OriginPaths& bucket = per_origin_[origin];
    const std::size_t count = bucket.vp_ids.size();
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint32_t begin = bucket.offsets[i];
      const std::uint32_t end =
          i + 1 < count ? bucket.offsets[i + 1]
                        : static_cast<std::uint32_t>(bucket.arena.size());
      visit(PathRef{bucket.vp_ids[i], origin,
                    std::span{bucket.arena}.subspan(begin, end - begin)});
    }
  }

  /// Builder interface (used by collect_paths).
  void set_vantage_points(std::vector<VantagePoint> vps) {
    vps_ = std::move(vps);
  }
  void resize_origins(std::size_t count) { per_origin_.resize(count); }
  void add_path(topo::NodeId origin, std::uint32_t vp_index,
                std::span<const asn::Asn> path);
  /// Reserves room for `paths` more paths of `hops` total hops in one
  /// origin's bucket, so the append_path calls that follow do not
  /// reallocate.
  void reserve_origin(topo::NodeId origin, std::size_t paths,
                      std::size_t hops);
  /// Appends a path of `length` hops and returns its slots to fill. The
  /// span is valid until the bucket's next append or clear.
  [[nodiscard]] std::span<asn::Asn> append_path(topo::NodeId origin,
                                                std::uint32_t vp_index,
                                                std::size_t length);
  /// Drops one origin's paths so an incremental update can re-harvest just
  /// that bucket (src/stream). Call recount() before trusting path_count().
  void clear_origin(topo::NodeId origin);
  /// Rebuilds path_count_ after parallel filling (add_path's counter is not
  /// synchronized across threads).
  void recount();

 private:
  struct OriginPaths {
    std::vector<std::uint32_t> offsets;  // into arena; parallel to vp_ids
    std::vector<std::uint32_t> vp_ids;
    std::vector<asn::Asn> arena;
  };
  std::vector<VantagePoint> vps_;
  std::vector<OriginPaths> per_origin_;
  std::size_t path_count_ = 0;
};

/// One collector session with its node id resolved. `vp_index` is the
/// index recorded in PathRefs: the position within the *resolved* list
/// (VPs whose ASN is absent from the graph are skipped), which matches
/// what collect_paths has always written.
struct VpSession {
  topo::NodeId node = topo::kInvalidNode;
  std::uint32_t vp_index = 0;
  bool full_feed = true;
  bool legacy = false;
};

[[nodiscard]] std::vector<VpSession> resolve_vp_sessions(
    const topo::AsGraph& graph, std::span<const VantagePoint> vps);

/// Harvests one origin's VP paths into `table` (the per-origin body of
/// collect_paths): feed filtering, private-ASN leak, legacy 16-bit
/// mangling. The stream session reuses it to refill a cleared bucket so
/// incremental tables stay byte-identical to batch-collected ones.
void harvest_origin(const Propagator& propagator, const OriginRib& rib,
                    std::span<const VpSession> sessions, PathTable& table);

/// Splits the origins into `chunks` contiguous ranges of about equal stored
/// hop counts: chunk k is [bounds[k], bounds[k + 1]). O(origins). Ranges
/// may be empty (fewer origins than chunks, or one origin holding most of
/// the hops).
[[nodiscard]] std::vector<std::size_t> split_origins_by_hops(
    const PathTable& table, std::size_t chunks);

/// Worker count for a per-origin sweep under PropagationParams::threads:
/// `requested` when nonzero, else hardware concurrency capped at 32.
[[nodiscard]] unsigned origin_workers(unsigned requested);

/// Propagates every origin and harvests the VP paths (parallelized across
/// origins; result independent of thread count).
[[nodiscard]] PathTable collect_paths(const Propagator& propagator,
                                      std::vector<VantagePoint> vps);

}  // namespace asrel::bgp
