#include "topology/graph.hpp"

#include <algorithm>

namespace asrel::topo {

NodeId AsGraph::add_node(asn::Asn asn) {
  if (const auto it = index_.find(asn); it != index_.end()) return it->second;
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(asn);
  adjacency_.emplace_back();
  index_.emplace(asn, id);
  ++generation_;
  return id;
}

std::optional<EdgeId> AsGraph::add_edge(asn::Asn a, asn::Asn b, RelType rel) {
  Edge proto;
  proto.rel = rel;
  return add_edge(a, b, proto);
}

std::optional<EdgeId> AsGraph::add_edge(asn::Asn a, asn::Asn b,
                                        const Edge& proto) {
  if (a == b) return std::nullopt;
  if (find_edge(a, b)) return std::nullopt;
  const NodeId na = add_node(a);
  const NodeId nb = add_node(b);

  Edge edge = proto;
  if (edge.rel == RelType::kP2C) {
    edge.u = na;  // provider
    edge.v = nb;  // customer
  } else {
    // Canonical orientation: lower ASN first.
    edge.u = a < b ? na : nb;
    edge.v = a < b ? nb : na;
  }
  const EdgeId id = static_cast<EdgeId>(edges_.size());
  edges_.push_back(edge);

  const auto role_from = [&](NodeId self) {
    switch (edge.rel) {
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
  adjacency_[na].push_back({nb, id, role_from(na)});
  adjacency_[nb].push_back({na, id, role_from(nb)});
  ++live_edge_count_;
  ++generation_;
  return id;
}

namespace {

Neighbor::Role role_on_edge(const Edge& edge, NodeId self) {
  switch (edge.rel) {
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

}  // namespace

bool AsGraph::remove_edge(EdgeId id) {
  if (id >= edges_.size() || edges_[id].removed) return false;
  Edge& edge = edges_[id];
  const auto drop_entry = [&](NodeId node) {
    auto& adjacency = adjacency_[node];
    for (auto it = adjacency.begin(); it != adjacency.end(); ++it) {
      if (it->edge == id) {
        adjacency.erase(it);
        return;
      }
    }
  };
  drop_entry(edge.u);
  drop_entry(edge.v);
  edge.removed = true;
  --live_edge_count_;
  ++generation_;
  return true;
}

bool AsGraph::set_edge_rel(EdgeId id, RelType rel, NodeId provider) {
  if (id >= edges_.size() || edges_[id].removed) return false;
  Edge& edge = edges_[id];
  if (rel == RelType::kP2C) {
    if (provider != edge.u && provider != edge.v) return false;
    if (provider != edge.u) std::swap(edge.u, edge.v);
  } else {
    // Canonical lower-ASN-first orientation, matching add_edge.
    if (asn_of(edge.v) < asn_of(edge.u)) std::swap(edge.u, edge.v);
  }
  edge.rel = rel;
  edge.scope = ExportScope::kFull;
  edge.scope_via_community = false;
  edge.hybrid_rel.reset();
  const auto patch_entry = [&](NodeId node) {
    for (auto& neighbor : adjacency_[node]) {
      if (neighbor.edge == id) {
        neighbor.role = role_on_edge(edge, node);
        return;
      }
    }
  };
  patch_entry(edge.u);
  patch_entry(edge.v);
  ++generation_;
  return true;
}

void AsGraph::restore_edges(std::vector<Edge> edges) {
  edges_ = std::move(edges);
  adjacency_.assign(nodes_.size(), {});
  live_edge_count_ = 0;
  for (EdgeId id = 0; id < edges_.size(); ++id) {
    const Edge& edge = edges_[id];
    if (edge.removed) continue;
    adjacency_[edge.u].push_back({edge.v, id, role_on_edge(edge, edge.u)});
    adjacency_[edge.v].push_back({edge.u, id, role_on_edge(edge, edge.v)});
    ++live_edge_count_;
  }
  ++generation_;
}

bool AsGraph::set_edge_scope(EdgeId id, ExportScope scope,
                             bool via_community) {
  if (id >= edges_.size() || edges_[id].removed) return false;
  Edge& edge = edges_[id];
  if (edge.rel != RelType::kP2C) return false;
  edge.scope = scope;
  edge.scope_via_community = via_community;
  ++generation_;
  return true;
}

std::optional<NodeId> AsGraph::node_of(asn::Asn asn) const {
  const auto it = index_.find(asn);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

std::optional<EdgeId> AsGraph::find_edge(asn::Asn a, asn::Asn b) const {
  const auto na = node_of(a);
  const auto nb = node_of(b);
  if (!na || !nb) return std::nullopt;
  // Scan the smaller adjacency list.
  const NodeId from = degree(*na) <= degree(*nb) ? *na : *nb;
  const NodeId to = from == *na ? *nb : *na;
  for (const auto& neighbor : adjacency_[from]) {
    if (neighbor.node == to) return neighbor.edge;
  }
  return std::nullopt;
}

std::optional<Neighbor::Role> AsGraph::role_of(asn::Asn a, asn::Asn b) const {
  const auto na = node_of(a);
  const auto nb = node_of(b);
  if (!na || !nb) return std::nullopt;
  for (const auto& neighbor : adjacency_[*na]) {
    if (neighbor.node == *nb) return neighbor.role;
  }
  return std::nullopt;
}

namespace {

std::vector<asn::Asn> collect_by_role(const AsGraph& graph, asn::Asn asn,
                                      Neighbor::Role role) {
  std::vector<asn::Asn> out;
  const auto node = graph.node_of(asn);
  if (!node) return out;
  for (const auto& neighbor : graph.neighbors(*node)) {
    if (neighbor.role == role) out.push_back(graph.asn_of(neighbor.node));
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

std::vector<asn::Asn> AsGraph::providers_of(asn::Asn asn) const {
  return collect_by_role(*this, asn, Neighbor::Role::kCustomer);
}

std::vector<asn::Asn> AsGraph::customers_of(asn::Asn asn) const {
  return collect_by_role(*this, asn, Neighbor::Role::kProvider);
}

std::vector<asn::Asn> AsGraph::peers_of(asn::Asn asn) const {
  return collect_by_role(*this, asn, Neighbor::Role::kPeer);
}

}  // namespace asrel::topo
