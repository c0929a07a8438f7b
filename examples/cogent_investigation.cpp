// Walks through the §6.1 investigation step by step the way an operator
// would: find the suspicious links, grep the public paths for the triplet
// evidence, then point a looking glass at the provider and read the
// communities off the routes.
//
//   ./examples/cogent_investigation [as_count] [seed]
#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "core/bias_audit.hpp"
#include "core/case_study.hpp"
#include "core/looking_glass.hpp"
#include "core/scenario.hpp"
#include "infer/asrank.hpp"

int main(int argc, char** argv) {
  using namespace asrel;

  core::ScenarioParams params;
  params.topology.as_count = argc > 1 ? std::atoi(argv[1]) : 6000;
  params.topology.seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 42;
  const auto scenario = core::Scenario::build(params);
  const core::BiasAudit audit{*scenario};

  std::printf("Step 1 — run ASRank and evaluate against the validation "
              "data...\n");
  const auto& asrank = scenario->asrank();
  const auto report =
      core::run_case_study(*scenario, audit, asrank.inference);
  std::printf("%s\n", core::render(report).c_str());
  if (report.dominant_count == 0) {
    std::printf("No targets; try a larger world.\n");
    return 0;
  }

  const auto t1 = report.dominant_tier1;
  std::printf("Step 2 — grep the public paths for C|AS%u|X triplets (the "
              "evidence ASRank needs for P2C):\n", t1.value());
  std::printf("  found for %zu of %zu target links — \"we were unable to "
              "find any triplet\" (§6.1)\n\n",
              report.with_clique_triplet, report.targets.size());

  std::printf("Step 3 — query AS%u's looking glass for each target:\n",
              t1.value());
  const core::LookingGlass glass{scenario->world(), scenario->schemes(),
                                 scenario->params().propagation};
  const auto tag = val::no_export_to_peers_community(t1);
  int shown = 0;
  for (const auto& target : report.targets) {
    if (shown++ >= 8) break;
    const auto view = glass.query(t1, target.other);
    std::printf("  > show route AS%u\n", target.other.value());
    if (!view.reachable) {
      std::printf("    (unreachable)\n");
      continue;
    }
    std::printf("    path:");
    for (const auto hop : view.path) std::printf(" %u", hop.value());
    std::printf("\n    communities:");
    for (const auto community : view.communities) {
      std::printf(" %s%s", bgp::to_string(community).c_str(),
                  community == tag ? "(*)" : "");
    }
    std::printf("\n");
  }
  std::printf("\n(*) = %s — the no-export-to-peers action community. "
              "It never reaches the public collectors because AS%u strips "
              "it before redistribution (§6.1, footnote 11).\n",
              bgp::to_string(tag).c_str(), t1.value());

  std::printf("\nStep 4 — root causes across all %zu targets of AS%u:\n",
              report.targets.size(), t1.value());
  std::printf("  %zu tag the community (partial transit)\n",
              report.with_action_community);
  std::printf("  %zu are silent contract-level partial transit\n",
              report.with_silent_partial_transit);
  std::printf("  %zu are inaccurate validation data (really P2P)\n",
              report.with_wrong_validation);
  return 0;
}
