// Compares all four implemented classifiers (Gao 2001, ASRank 2013,
// ProbLink 2019, TopoScope 2020) against the ground truth AND against the
// best-effort validation data — showing the paper's central point: the
// validation data systematically overstates how good the algorithms are,
// because it covers the easy links.
//
//   ./examples/algorithm_comparison [as_count] [seed]
#include <cstdio>
#include <cstdlib>

#include "core/bias_audit.hpp"
#include "core/scenario.hpp"
#include "infer/asrank.hpp"
#include "infer/gao.hpp"
#include "infer/problink.hpp"
#include "infer/toposcope.hpp"

namespace {

using namespace asrel;

struct Score {
  double accuracy_vs_truth = 0;     // all visible links, ground truth
  double accuracy_vs_validation = 0;  // validated links only
};

Score score(const core::Scenario& scenario,
            const infer::Inference& inference) {
  Score result;
  const auto& world = scenario.world();
  std::size_t correct = 0;
  std::size_t total = 0;
  for (const auto& link : scenario.observed().link_order()) {
    const auto edge_id = world.graph.find_edge(link.a, link.b);
    if (!edge_id) continue;
    const auto& edge = world.graph.edge(*edge_id);
    if (edge.hybrid_rel || edge.rel == topo::RelType::kS2S) continue;
    const auto* rel = inference.find(link);
    if (rel == nullptr) continue;
    ++total;
    if (rel->rel == edge.rel &&
        (edge.rel != topo::RelType::kP2C ||
         rel->provider == world.graph.asn_of(edge.u))) {
      ++correct;
    }
  }
  result.accuracy_vs_truth =
      total ? static_cast<double>(correct) / static_cast<double>(total) : 0;

  correct = total = 0;
  for (const auto& label : scenario.validation()) {
    const auto* rel = inference.find(label.link);
    if (rel == nullptr) continue;
    ++total;
    if (rel->rel == label.rel &&
        (label.rel != topo::RelType::kP2C ||
         rel->provider == label.provider)) {
      ++correct;
    }
  }
  result.accuracy_vs_validation =
      total ? static_cast<double>(correct) / static_cast<double>(total) : 0;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  core::ScenarioParams params;
  params.topology.as_count = argc > 1 ? std::atoi(argv[1]) : 6000;
  params.topology.seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 42;
  const auto scenario = core::Scenario::build(params);

  std::printf("Running the four classifiers...\n");
  const auto gao = infer::run_gao(scenario->observed());
  const auto& asrank = scenario->asrank();
  const auto problink = infer::run_problink(scenario->observed(), asrank,
                                            scenario->validation());
  const auto toposcope = infer::run_toposcope(scenario->observed(), asrank,
                                              scenario->validation());

  struct Entry {
    const char* name;
    const infer::Inference* inference;
  };
  const Entry entries[] = {{"Gao (2001)", &gao},
                           {"ASRank (2013)", &asrank.inference},
                           {"ProbLink (2019)", &problink.inference},
                           {"TopoScope (2020)", &toposcope.inference}};

  std::printf("\n%-18s %18s %22s %10s\n", "algorithm", "acc. vs truth",
              "acc. vs validation", "gap");
  for (const auto& entry : entries) {
    const auto s = score(*scenario, *entry.inference);
    std::printf("%-18s %18.3f %22.3f %+9.3f\n", entry.name,
                s.accuracy_vs_truth, s.accuracy_vs_validation,
                s.accuracy_vs_validation - s.accuracy_vs_truth);
  }
  std::printf("\nA positive gap = the biased validation data makes the "
              "classifier look better than it is on the full link "
              "population (§6).\n");

  std::printf("\nPairwise agreement on shared links:\n%-18s", "");
  for (const auto& entry : entries) std::printf(" %16s", entry.name);
  std::printf("\n");
  for (const auto& row : entries) {
    std::printf("%-18s", row.name);
    for (const auto& column : entries) {
      std::printf(" %16.3f",
                  row.inference->agreement_with(*column.inference));
    }
    std::printf("\n");
  }
  return 0;
}
