// Seed-stability analysis: the paper's findings must not be a property of
// one lucky world. Rebuilds the scenario under several seeds and reports
// the headline statistics' spread — every claim should hold for every
// seed.
//
// Runs on a reduced world (ASREL_STABILITY_AS, default 5000).
#include <algorithm>
#include <vector>

#include "bench_common.hpp"
#include "core/case_study.hpp"
#include "eval/coverage.hpp"

namespace {

using namespace asrel;

struct Headline {
  std::uint64_t seed = 0;
  double lacnic_coverage = 0;
  double arin_coverage = 0;
  double total_ppv_p = 0;
  double t1_tr_ppv_p = 0;
  double s_t1_mcc = 0;
  bool dominant_is_tagging_t1 = false;
  std::size_t clique_true = 0;
  std::size_t clique_size = 0;
};

Headline measure(std::uint64_t seed, int as_count) {
  core::ScenarioParams params;
  params.topology.as_count = as_count;
  params.topology.seed = seed;
  const auto scenario = core::Scenario::build(params);
  const core::BiasAudit audit{*scenario};
  const auto& asrank = scenario->asrank();

  Headline h;
  h.seed = seed;
  for (const auto& row : audit.regional_coverage().rows) {
    if (row.name == "L°") h.lacnic_coverage = row.coverage;
    if (row.name == "AR°") h.arin_coverage = row.coverage;
  }
  const auto table = audit.validation_table(asrank.inference, 50);
  h.total_ppv_p = table.total.p2p.ppv();
  for (const auto& row : table.rows) {
    if (row.name == "T1-TR") h.t1_tr_ppv_p = row.p2p.ppv();
    if (row.name == "S-T1") h.s_t1_mcc = row.mcc;
  }
  const auto report =
      core::run_case_study(*scenario, audit, asrank.inference);
  h.dominant_is_tagging_t1 =
      report.dominant_tier1 == scenario->world().cogent_like;

  h.clique_size = asrank.clique.size();
  for (const auto member : asrank.clique) {
    if (scenario->world().attrs.at(member).tier == topo::Tier::kClique) {
      ++h.clique_true;
    }
  }
  return h;
}

}  // namespace

int main() {
  using namespace asrel;
  const int as_count = bench::env_int("ASREL_STABILITY_AS", 5000);
  const std::vector<std::uint64_t> seeds{42, 1337, 90210};

  std::printf("\n=== Seed stability (%d ASes, %zu seeds) ===\n", as_count,
              seeds.size());
  std::printf("%8s %10s %10s %12s %12s %10s %10s %14s\n", "seed", "L° cov",
              "AR° cov", "Total PPV_P", "T1-TR PPV_P", "S-T1 MCC",
              "clique", "§6.1 dominant");

  bool all_hold = true;
  for (const auto seed : seeds) {
    const auto h = measure(seed, as_count);
    std::printf("%8llu %10.3f %10.3f %12.3f %12.3f %10.3f %7zu/%-2zu %14s\n",
                static_cast<unsigned long long>(h.seed), h.lacnic_coverage,
                h.arin_coverage, h.total_ppv_p, h.t1_tr_ppv_p, h.s_t1_mcc,
                h.clique_true, h.clique_size,
                h.dominant_is_tagging_t1 ? "tagging-T1" : "OTHER");
    const bool holds = h.lacnic_coverage < 0.02 &&
                       h.arin_coverage > 0.1 &&
                       h.t1_tr_ppv_p < h.total_ppv_p &&
                       h.s_t1_mcc < 0.3 && h.dominant_is_tagging_t1 &&
                       h.clique_true * 10 >= h.clique_size * 9;
    all_hold = all_hold && holds;
  }
  std::printf("\nEvery headline claim holds for every seed: %s\n",
              all_hold ? "YES" : "NO");
  return 0;
}
