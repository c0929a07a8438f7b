// The ground-truth AS interconnection graph.
//
// Nodes are ASNs; edges carry a relationship type plus the annotations the
// paper cares about: partial-transit export scopes (§6.1) and hybrid,
// PoP-dependent relationships (§3.1/§4.2). P2C edges are directed
// provider -> customer; P2P/S2S edges are undirected but stored once with a
// canonical (lower ASN first) orientation.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "asn/asn.hpp"
#include "topology/rel_type.hpp"

namespace asrel::topo {

using NodeId = std::uint32_t;
inline constexpr NodeId kInvalidNode = ~NodeId{0};

using EdgeId = std::uint32_t;

struct Edge {
  NodeId u = kInvalidNode;  ///< provider for kP2C
  NodeId v = kInvalidNode;  ///< customer for kP2C
  RelType rel = RelType::kP2P;

  /// Export scope of the provider for this customer's routes (kP2C only).
  ExportScope scope = ExportScope::kFull;

  /// True if the restricted scope is requested by the customer via a BGP
  /// action community (visible through a looking glass) rather than being a
  /// silent provider-side configuration.
  bool scope_via_community = false;

  /// Relationship at a second PoP, if it differs (hybrid relationship).
  /// For kP2C-as-secondary the provider is the lower-indexed endpoint `u`.
  std::optional<RelType> hybrid_rel;

  /// The published community documentation for this link is wrong: the
  /// decoder recovers the opposite relationship (§6.1 found exactly one
  /// such case in the Cogent study).
  bool misdocumented = false;

  /// Tombstone set by remove_edge: the edge stays in the edge table so
  /// EdgeIds remain stable (cached per-origin ribs reference them), but it
  /// is absent from both adjacency lists and skipped by every consumer
  /// that walks edges(). The endpoints u/v stay valid so the incremental
  /// propagator can seed its dirty frontier from a removal event.
  bool removed = false;

  [[nodiscard]] bool is_hybrid() const { return hybrid_rel.has_value(); }
};

/// One adjacency entry as seen from a node.
struct Neighbor {
  NodeId node = kInvalidNode;
  EdgeId edge = 0;
  /// Relationship from the perspective of the owning node:
  /// kP2C here means "I am the provider"; kC2P mirrors it.
  enum class Role : std::uint8_t { kProvider, kCustomer, kPeer, kSibling };
  Role role = Role::kPeer;
};

class AsGraph {
 public:
  /// Adds a node; returns its dense id (idempotent for known ASNs).
  NodeId add_node(asn::Asn asn);

  /// Adds an edge. For kP2C, `a` is the provider and `b` the customer.
  /// For kP2P/kS2S the order of a/b does not matter. Duplicate edges between
  /// the same pair are rejected (returns nullopt); self-loops are rejected.
  std::optional<EdgeId> add_edge(asn::Asn a, asn::Asn b, RelType rel);

  /// Full-control overload used by the generator.
  std::optional<EdgeId> add_edge(asn::Asn a, asn::Asn b, const Edge& proto);

  // ---- streaming mutation API (src/stream) ----
  // Mutations keep EdgeIds stable: removal tombstones the slot, and a
  // later re-add of the same AS pair appends a fresh edge.

  /// Tombstones an edge: clears both adjacency entries and marks it
  /// removed. Returns false for an out-of-range or already-removed id.
  bool remove_edge(EdgeId id);

  /// Rewrites an edge's relationship in place. For kP2C, `provider` names
  /// the provider-side node (must be one of the endpoints); the edge is
  /// re-oriented so u is the provider. For kP2P/kS2S the canonical
  /// lower-ASN-first orientation is restored. The export scope resets to
  /// kFull and any hybrid annotation is dropped — a flipped link starts
  /// from a clean policy slate. Adjacency roles are patched on both sides.
  bool set_edge_rel(EdgeId id, RelType rel, NodeId provider);

  /// Rewrites a kP2C edge's export scope (§6.1 partial-transit policy).
  /// Returns false for removed ids or non-P2C edges.
  bool set_edge_scope(EdgeId id, ExportScope scope, bool via_community);

  /// Replaces the whole edge table (checkpoint restore) and rebuilds the
  /// adjacency lists from it. Every mutation above keeps each adjacency
  /// list sorted by ascending edge id — appends use strictly increasing
  /// ids and removals/patches preserve relative order — so replaying the
  /// edge table in id order reconstructs the lists byte-identically and
  /// the checkpoint never needs to persist them. Node ids in `edges` must
  /// already be valid for this graph's node set.
  void restore_edges(std::vector<Edge> edges);

  /// Edges minus tombstones (edge_count() includes removed slots).
  [[nodiscard]] std::size_t live_edge_count() const {
    return live_edge_count_;
  }

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] std::size_t edge_count() const { return edges_.size(); }

  [[nodiscard]] std::optional<NodeId> node_of(asn::Asn asn) const;
  [[nodiscard]] asn::Asn asn_of(NodeId node) const { return nodes_[node]; }
  [[nodiscard]] std::span<const asn::Asn> nodes() const { return nodes_; }
  [[nodiscard]] std::span<const Edge> edges() const { return edges_; }
  [[nodiscard]] const Edge& edge(EdgeId id) const { return edges_[id]; }
  /// In-place edge access (generator only); counts as a mutation.
  Edge& mutable_edge(EdgeId id) {
    ++generation_;
    return edges_[id];
  }

  /// Mutation counter: every call above that changes a node, an edge or
  /// an adjacency list bumps it. Structures derived from the graph (the
  /// propagator's role-split adjacency) record it when built and refuse
  /// to run on a graph that has moved on since.
  [[nodiscard]] std::uint64_t generation() const { return generation_; }

  [[nodiscard]] std::span<const Neighbor> neighbors(NodeId node) const {
    return adjacency_[node];
  }

  [[nodiscard]] std::optional<EdgeId> find_edge(asn::Asn a, asn::Asn b) const;

  /// Ground-truth relationship between two ASNs (primary PoP), from a's
  /// perspective; nullopt if no edge.
  [[nodiscard]] std::optional<Neighbor::Role> role_of(asn::Asn a,
                                                      asn::Asn b) const;

  [[nodiscard]] std::vector<asn::Asn> providers_of(asn::Asn asn) const;
  [[nodiscard]] std::vector<asn::Asn> customers_of(asn::Asn asn) const;
  [[nodiscard]] std::vector<asn::Asn> peers_of(asn::Asn asn) const;

  [[nodiscard]] std::size_t degree(NodeId node) const {
    return adjacency_[node].size();
  }

 private:
  std::vector<asn::Asn> nodes_;
  std::unordered_map<asn::Asn, NodeId> index_;
  std::vector<Edge> edges_;
  std::vector<std::vector<Neighbor>> adjacency_;
  std::size_t live_edge_count_ = 0;
  std::uint64_t generation_ = 0;
};

}  // namespace asrel::topo
