// Ablations over the design knobs DESIGN.md calls out — each isolates one
// mechanism the paper names as a source of bias and shows the output change:
//
//  A. Community-documentation bias OFF (every transit documents at the same
//     rate regardless of region/tier): the LACNIC coverage hole disappears.
//  B. Export scopes OFF (no partial transit honored in propagation): the
//     Cogent mechanism vanishes and T1-TR P2P precision recovers.
//  C. Vantage-point count sweep: visibility grows with collectors, but
//     coverage bias does not go away.
//
// Runs on a reduced world (env ASREL_ABLATION_AS, default 6000) because it
// rebuilds the scenario several times.
#include "bench_common.hpp"
#include "eval/coverage.hpp"

namespace {

using namespace asrel;

struct Snapshot {
  double lacnic_coverage = 0;
  double arin_coverage = 0;
  double t1_tr_ppv_p = 0;
  std::size_t visible_links = 0;
  std::size_t validated = 0;
};

Snapshot measure(const core::ScenarioParams& params) {
  const auto scenario = core::Scenario::build(params);
  const core::BiasAudit audit{*scenario};
  const auto& asrank = scenario->asrank();

  Snapshot snap;
  snap.visible_links = scenario->observed().link_count();
  snap.validated = scenario->validation().size();
  for (const auto& row : audit.regional_coverage().rows) {
    if (row.name == "L°") snap.lacnic_coverage = row.coverage;
    if (row.name == "AR°") snap.arin_coverage = row.coverage;
  }
  const auto table = audit.validation_table(asrank.inference, 100);
  for (const auto& row : table.rows) {
    if (row.name == "T1-TR") snap.t1_tr_ppv_p = row.p2p.ppv();
  }
  return snap;
}

}  // namespace

int main() {
  using namespace asrel;
  core::ScenarioParams base = bench::default_params();
  base.topology.as_count = bench::env_int("ASREL_ABLATION_AS", 6000);

  std::printf("\n=== Ablation A — community-documentation bias ===\n");
  const auto baseline = measure(base);
  auto uniform = base;
  for (auto& profile : uniform.topology.regions) {
    profile.doc_communities_transit = 0.45;  // one global rate
    profile.doc_communities_stub = 0.05;
  }
  uniform.topology.doc_factors = {.clique_prob = 0.8,
                                  .large = 1.0,
                                  .mid = 1.0,
                                  .small = 1.0};
  const auto unbiased = measure(uniform);
  std::printf("%-28s %12s %12s\n", "", "baseline", "uniform-doc");
  std::printf("%-28s %12.3f %12.3f\n", "L° coverage",
              baseline.lacnic_coverage, unbiased.lacnic_coverage);
  std::printf("%-28s %12.3f %12.3f\n", "AR° coverage",
              baseline.arin_coverage, unbiased.arin_coverage);
  std::printf("-> the L° coverage hole is an artifact of who documents "
              "communities: %s\n",
              unbiased.lacnic_coverage > 10 * baseline.lacnic_coverage +
                      0.005
                  ? "CONFIRMED"
                  : "NOT CONFIRMED");

  std::printf("\n=== Ablation B — partial-transit export scopes ===\n");
  auto no_scopes = base;
  no_scopes.propagation.honor_export_scopes = false;
  const auto open_world = measure(no_scopes);
  std::printf("%-28s %12s %12s\n", "", "baseline", "scopes-off");
  std::printf("%-28s %12.3f %12.3f\n", "T1-TR PPV_P",
              baseline.t1_tr_ppv_p, open_world.t1_tr_ppv_p);
  std::printf("-> the T1-TR precision drop is caused by honored export "
              "scopes: %s\n",
              open_world.t1_tr_ppv_p > baseline.t1_tr_ppv_p + 0.02
                  ? "CONFIRMED"
                  : "NOT CONFIRMED");

  std::printf("\n=== Ablation C — vantage-point count sweep ===\n");
  std::printf("%8s %16s %12s %12s\n", "VPs", "visible links", "validated",
              "L° coverage");
  for (const int count : {60, 120, 240, 320}) {
    auto params = base;
    params.vantage.target_count = count;
    const auto snap = measure(params);
    std::printf("%8d %16zu %12zu %12.3f\n", count, snap.visible_links,
                snap.validated, snap.lacnic_coverage);
  }
  std::printf("-> more collectors widen visibility but do not close the "
              "regional validation gap.\n");
  return 0;
}
