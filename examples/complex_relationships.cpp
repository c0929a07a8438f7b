// Detects complex relationships (hybrid and partial transit, Giotsas et
// al. 2014 / §3.1) from the observed paths, then — like the paper's §6.1 —
// confirms the partial-transit candidates against a looking glass, since
// public routing data alone cannot distinguish partial transit from plain
// peering.
//
//   ./examples/complex_relationships [as_count] [seed]
#include <cstdio>
#include <cstdlib>

#include "core/looking_glass.hpp"
#include "core/scenario.hpp"
#include "infer/asrank.hpp"
#include "infer/complex.hpp"

int main(int argc, char** argv) {
  using namespace asrel;

  core::ScenarioParams params;
  params.topology.as_count = argc > 1 ? std::atoi(argv[1]) : 6000;
  params.topology.seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 42;
  const auto scenario = core::Scenario::build(params);
  const auto& asrank = scenario->asrank();

  const auto candidates = infer::detect_complex_relationships(
      scenario->observed(), asrank.clique);

  std::size_t hybrid = 0;
  std::size_t partial = 0;
  for (const auto& candidate : candidates) {
    candidate.kind == infer::ComplexKind::kHybrid ? ++hybrid : ++partial;
  }
  std::printf("Detected %zu complex-relationship candidates: %zu hybrid, "
              "%zu partial-transit.\n",
              candidates.size(), hybrid, partial);

  // Ground-truth scoring for the hybrid candidates.
  const auto& world = scenario->world();
  std::size_t hybrid_hits = 0;
  std::size_t true_hybrids = 0;
  for (const auto& edge : world.graph.edges()) {
    if (edge.hybrid_rel) ++true_hybrids;
  }
  for (const auto& candidate : candidates) {
    if (candidate.kind != infer::ComplexKind::kHybrid) continue;
    const auto edge_id =
        world.graph.find_edge(candidate.link.a, candidate.link.b);
    if (edge_id && world.graph.edge(*edge_id).hybrid_rel) ++hybrid_hits;
  }
  std::printf("Hybrid candidates matching ground-truth hybrid links: "
              "%zu of %zu candidates (%zu hybrids exist in total).\n",
              hybrid_hits, hybrid, true_hybrids);

  // Looking-glass confirmation of partial transit (§6.1 workflow): a
  // candidate is confirmed when the provider's routers show the
  // no-export-to-peers community, or refuted as plain peering otherwise.
  const core::LookingGlass glass{world, scenario->schemes(),
                                 scenario->params().propagation};
  std::size_t confirmed = 0;
  std::size_t refuted_peering = 0;
  std::size_t silent_partial = 0;
  int shown = 0;
  std::printf("\nLooking-glass confirmation of partial-transit candidates:\n");
  for (const auto& candidate : candidates) {
    if (candidate.kind != infer::ComplexKind::kPartialTransit) continue;
    const asn::Asn customer = candidate.link.a == candidate.provider
                                  ? candidate.link.b
                                  : candidate.link.a;
    const auto view = glass.query(candidate.provider, customer);
    const auto tag = val::no_export_to_peers_community(candidate.provider);
    const bool tagged =
        view.reachable &&
        std::find(view.communities.begin(), view.communities.end(), tag) !=
            view.communities.end();
    const auto edge_id =
        world.graph.find_edge(candidate.link.a, candidate.link.b);
    const bool truth_partial =
        edge_id &&
        world.graph.edge(*edge_id).scope != topo::ExportScope::kFull;
    if (tagged) {
      ++confirmed;
    } else if (truth_partial) {
      ++silent_partial;  // real but contract-level, invisible even to a LG
    } else {
      ++refuted_peering;
    }
    if (shown++ < 10) {
      std::printf("  AS%u -> AS%u  evidence=%u  LG:%s  truth:%s\n",
                  candidate.provider.value(), customer.value(),
                  candidate.evidence, tagged ? "990-tag" : "no-tag",
                  truth_partial ? "partial-transit" : "peering/full");
    }
  }
  std::printf("\nSummary: %zu confirmed by community, %zu silent partial "
              "transit, %zu turned out to be plain peering.\n",
              confirmed, silent_partial, refuted_peering);
  std::printf("(The peering refutations are the point: public paths alone "
              "cannot separate the two — §6.1 needed Cogent's looking "
              "glass for the same reason.)\n");
  return 0;
}
