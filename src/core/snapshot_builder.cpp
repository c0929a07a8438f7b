#include "core/snapshot_builder.hpp"

#include <algorithm>
#include <string>
#include <unordered_map>

#include "core/bias_audit.hpp"
#include "infer/problink.hpp"
#include "infer/toposcope.hpp"
#include "topology/cone.hpp"

namespace asrel::core {

namespace {

/// Flattens an Inference into snapshot labels in its deterministic
/// first-inserted order.
io::SnapshotAlgorithm flatten(std::string name,
                              const infer::Inference& inference) {
  io::SnapshotAlgorithm algorithm;
  algorithm.name = std::move(name);
  algorithm.labels.reserve(inference.size());
  for (const auto& link : inference.order()) {
    const infer::InferredRel* rel = inference.find(link);
    if (rel == nullptr) continue;
    algorithm.labels.push_back(
        val::CleanLabel{.link = link, .rel = rel->rel,
                        .provider = rel->provider});
  }
  return algorithm;
}

void add_ases(io::Snapshot& snapshot, const Scenario& scenario) {
  const auto& world = scenario.world();
  const auto& graph = world.graph;
  const auto& observed = scenario.observed();
  const auto cone_sizes = topo::customer_cone_sizes(graph);
  std::vector<asn::Asn> asns{graph.nodes().begin(), graph.nodes().end()};
  std::sort(asns.begin(), asns.end());
  snapshot.ases.reserve(asns.size());
  for (const auto asn : asns) {
    io::SnapshotAs as;
    as.asn = asn;
    as.attrs = world.attrs.at(asn);
    if (const auto index = observed.index_of(asn)) {
      as.transit_degree = observed.transit_degree(*index);
      as.node_degree = observed.node_degree(*index);
    }
    if (const auto node = graph.node_of(asn)) {
      as.cone_size = cone_sizes[*node];
    }
    snapshot.ases.push_back(std::move(as));
  }
}

void add_edges(io::Snapshot& snapshot, const Scenario& scenario) {
  const auto& graph = scenario.world().graph;
  snapshot.edges.reserve(graph.live_edge_count());
  for (const auto& edge : graph.edges()) {
    if (edge.removed) continue;
    snapshot.edges.push_back(io::SnapshotEdge{
        .a = graph.asn_of(edge.u),
        .b = graph.asn_of(edge.v),
        .rel = edge.rel,
        .scope = edge.scope,
        .scope_via_community = edge.scope_via_community,
        .misdocumented = edge.misdocumented,
        .hybrid_rel = edge.hybrid_rel,
    });
  }
}

void add_algorithms(io::Snapshot& snapshot, const Scenario& scenario) {
  const auto& observed = scenario.observed();
  infer::ProbLinkParams problink_params;
  problink_params.threads = scenario.params().threads;
  infer::TopoScopeParams toposcope_params;
  toposcope_params.threads = scenario.params().threads;
  const auto& asrank = scenario.asrank();
  const auto problink = infer::run_problink(observed, asrank,
                                            scenario.validation(),
                                            problink_params);
  const auto toposcope = infer::run_toposcope(observed, asrank,
                                              scenario.validation(),
                                              toposcope_params);
  snapshot.algorithms.push_back(
      flatten(std::string{kSnapshotAlgorithms[0]}, asrank.inference));
  snapshot.algorithms.push_back(
      flatten(std::string{kSnapshotAlgorithms[1]}, problink.inference));
  snapshot.algorithms.push_back(
      flatten(std::string{kSnapshotAlgorithms[2]}, toposcope.inference));
}

void add_links(io::Snapshot& snapshot, const Scenario& scenario,
               const SnapshotClassSource* classes) {
  // The interned string table is derived from the links section
  // (first-occurrence order over observed links), so both are built
  // together.
  std::unordered_map<std::string, std::uint32_t> interned;
  const auto intern = [&](std::string name) {
    const auto it = interned.find(name);
    if (it != interned.end()) return it->second;
    const auto id = static_cast<std::uint32_t>(snapshot.class_names.size());
    interned.emplace(name, id);
    snapshot.class_names.push_back(std::move(name));
    return id;
  };
  const auto fill = [&](const auto& regional, const auto& topological) {
    // BiasAudit's inferred_links() is exactly observed().link_order(), so
    // both callers below emit the same link sequence.
    const auto& order = scenario.observed().link_order();
    snapshot.links.reserve(order.size());
    for (const auto& link : order) {
      snapshot.links.push_back(io::SnapshotLinkTag{
          .link = link,
          .regional_class = intern(regional(link)),
          .topological_class = intern(topological(link)),
      });
    }
  };
  if (classes != nullptr) {
    fill(classes->regional_class_of, classes->topological_class_of);
  } else {
    const BiasAudit audit{scenario};
    fill([&](const val::AsLink& link) { return audit.regional_class_of(link); },
         [&](const val::AsLink& link) {
           return audit.topological_class_of(link);
         });
  }
}

}  // namespace

io::Snapshot build_snapshot(const Scenario& scenario,
                            const SnapshotClassSource* classes) {
  io::Snapshot snapshot;
  snapshot.meta.as_count = scenario.params().topology.as_count;
  snapshot.meta.seed = scenario.params().topology.seed;
  snapshot.meta.scheme_seed = scenario.params().scheme_seed;
  snapshot.clique = scenario.world().clique;
  snapshot.hypergiants = scenario.world().hypergiants;
  add_ases(snapshot, scenario);
  add_edges(snapshot, scenario);
  snapshot.validation = scenario.validation();
  add_algorithms(snapshot, scenario);
  add_links(snapshot, scenario, classes);
  return snapshot;
}

}  // namespace asrel::core
