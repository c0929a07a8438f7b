// Quickstart: build a small world, run the full §4 pipeline, infer
// relationships with all three classifiers, and print the headline bias
// numbers.
//
//   ./examples/quickstart [as_count] [seed]
#include <cstdio>
#include <cstdlib>

#include "core/bias_audit.hpp"
#include "core/case_study.hpp"
#include "core/scenario.hpp"
#include "infer/asrank.hpp"
#include "infer/problink.hpp"
#include "infer/toposcope.hpp"

int main(int argc, char** argv) {
  using namespace asrel;

  core::ScenarioParams params;
  params.topology.as_count = argc > 1 ? std::atoi(argv[1]) : 4000;
  params.topology.seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 42;
  params.vantage.target_count = 120;

  std::printf("Building scenario (%d ASes, seed %llu)...\n",
              params.topology.as_count,
              static_cast<unsigned long long>(params.topology.seed));
  const auto scenario = core::Scenario::build(params);

  const auto& world = scenario->world();
  std::printf("  ground truth: %zu ASes, %zu links\n",
              world.graph.node_count(), world.graph.edge_count());
  std::printf("  observed:     %zu sanitized paths, %zu visible links\n",
              scenario->observed().path_count(),
              scenario->observed().link_count());
  std::printf("  validation:   %zu raw entries -> %zu cleaned labels\n",
              scenario->raw_validation().size(),
              scenario->validation().size());

  std::printf("\nRunning ASRank...\n");
  const auto& asrank = scenario->asrank();
  std::printf("  clique size %zu, %zu links classified\n",
              asrank.clique.size(), asrank.inference.size());

  std::printf("Running ProbLink...\n");
  const auto problink = infer::run_problink(
      scenario->observed(), asrank, scenario->validation());
  std::printf("  %d iterations, trained on %zu links\n",
              problink.iterations_used, problink.training_links);

  std::printf("Running TopoScope...\n");
  const auto toposcope = infer::run_toposcope(
      scenario->observed(), asrank, scenario->validation());
  std::printf("  %d VP groups, %zu hidden links predicted\n",
              toposcope.groups_used,
              infer::predict_hidden_links(scenario->observed()).size());

  const core::BiasAudit audit{*scenario};

  std::printf("\n=== Regional imbalance (Fig. 1) ===\n%s",
              eval::render_coverage(audit.regional_coverage()).c_str());
  std::printf("\n=== Topological imbalance (Fig. 2) ===\n%s",
              eval::render_coverage(audit.topological_coverage()).c_str());

  std::printf("\n=== Per-class validation, ASRank (Table 1) ===\n%s",
              eval::render_validation_table(
                  audit.validation_table(asrank.inference, 100))
                  .c_str());
  std::printf("\n=== Per-class validation, ProbLink (Table 2) ===\n%s",
              eval::render_validation_table(
                  audit.validation_table(problink.inference, 100))
                  .c_str());
  std::printf("\n=== Per-class validation, TopoScope (Table 3) ===\n%s",
              eval::render_validation_table(
                  audit.validation_table(toposcope.inference, 100))
                  .c_str());

  std::printf("\n=== Case study (§6.1) ===\n%s",
              core::render(core::run_case_study(*scenario, audit,
                                                asrank.inference))
                  .c_str());
  return 0;
}
