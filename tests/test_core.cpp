#include <gtest/gtest.h>

#include <string>
#include <unordered_set>

#include "core/bias_audit.hpp"
#include "core/case_study.hpp"
#include "core/looking_glass.hpp"
#include "core/scenario.hpp"
#include "eval/ppdc.hpp"
#include "infer/asrank.hpp"
#include "io/as_rel.hpp"
#include "test_support.hpp"

namespace asrel::core {
namespace {

using asn::Asn;

// --------------------------------------------------------------- scenario --

TEST(Scenario, PipelineProducesAllStages) {
  const auto& scenario = test::shared_scenario();
  EXPECT_GT(scenario.world().graph.node_count(), 2000u);
  EXPECT_GT(scenario.paths().path_count(), 10000u);
  EXPECT_GT(scenario.observed().link_count(), 1000u);
  EXPECT_GT(scenario.raw_validation().size(), 100u);
  EXPECT_GT(scenario.validation().size(), 100u);
  EXPECT_GT(scenario.orgs().as_count(), 1000u);
}

TEST(Scenario, RegionMapperRefinedByDelegations) {
  const auto& scenario = test::shared_scenario();
  EXPECT_GT(scenario.region_mapper().refined_count(), 0u);
  // Every generated AS maps to its true region through the full pipeline.
  const auto& world = scenario.world();
  for (const Asn asn : world.graph.nodes()) {
    EXPECT_EQ(scenario.region_mapper().region_of(asn),
              world.attrs.at(asn).region);
  }
}

TEST(Scenario, CleaningStatsAddUp) {
  const auto& scenario = test::shared_scenario();
  const auto& stats = scenario.cleaning_stats();
  EXPECT_EQ(stats.input_entries, scenario.raw_validation().size());
  EXPECT_EQ(stats.kept, scenario.validation().size());
  EXPECT_LE(stats.kept + stats.as_trans_removed + stats.reserved_removed +
                stats.sibling_removed + stats.multi_label_entries +
                stats.s2s_label_removed,
            stats.input_entries + stats.multi_label_entries);
}

TEST(Scenario, ValidationIsCleanOfSpuriousEntries) {
  const auto& scenario = test::shared_scenario();
  for (const auto& label : scenario.validation()) {
    EXPECT_FALSE(asn::is_reserved(label.link.a));
    EXPECT_FALSE(asn::is_reserved(label.link.b));
    EXPECT_FALSE(scenario.orgs().are_siblings(label.link.a, label.link.b));
    EXPECT_NE(label.rel, topo::RelType::kS2S);
  }
}

TEST(Scenario, OptionalSourcesEnlargeValidation) {
  core::ScenarioParams params;
  params.topology.as_count = 1200;
  params.vantage.target_count = 60;
  const auto base = Scenario::build(params);
  params.include_rpsl_source = true;
  params.include_direct_reports = true;
  const auto extended = Scenario::build(params);
  EXPECT_GT(extended->raw_validation().size(), base->raw_validation().size());
}

TEST(Scenario, DeterministicForSameParams) {
  core::ScenarioParams params;
  params.topology.as_count = 1000;
  params.vantage.target_count = 50;
  const auto a = Scenario::build(params);
  const auto b = Scenario::build(params);
  EXPECT_EQ(a->observed().link_count(), b->observed().link_count());
  EXPECT_EQ(a->validation().size(), b->validation().size());
  for (std::size_t i = 0; i < a->validation().size(); ++i) {
    EXPECT_EQ(a->validation()[i].link, b->validation()[i].link);
    EXPECT_EQ(a->validation()[i].rel, b->validation()[i].rel);
  }
}

void expect_same_asrank(const infer::AsRankResult& actual,
                        const infer::AsRankResult& expected,
                        const std::string& where) {
  EXPECT_EQ(actual.clique, expected.clique) << where;
  EXPECT_EQ(actual.passes_used, expected.passes_used) << where;
  ASSERT_EQ(actual.inference.order(), expected.inference.order()) << where;
  for (const auto& link : expected.inference.order()) {
    const auto* got = actual.inference.find(link);
    const auto* want = expected.inference.find(link);
    ASSERT_NE(got, nullptr) << where;
    EXPECT_EQ(got->rel, want->rel) << where;
    EXPECT_EQ(got->provider, want->provider) << where;
  }
}

TEST(Scenario, AsRankMatchesAStandaloneRun) {
  // ASRank runs beside community extraction (on the pool's side thread for
  // threads != 1); its result must equal a run over the finished view.
  core::ScenarioParams params;
  params.topology.as_count = 600;
  params.topology.seed = 17;
  params.vantage.target_count = 40;
  for (const unsigned threads : {0u, 1u, 2u, 4u}) {
    params.threads = threads;
    const auto scenario = Scenario::build(params);
    expect_same_asrank(scenario->asrank(),
                       infer::run_asrank(scenario->observed()),
                       "threads=" + std::to_string(threads));
  }
  params.threads = 2;
  const auto built = Scenario::build(params);
  const bgp::Propagator propagator = built->propagator();
  const auto parts = Scenario::from_parts(params, propagator, built->world(),
                                          built->vantage_points(),
                                          built->paths());
  expect_same_asrank(parts->asrank(), infer::run_asrank(parts->observed()),
                     "from_parts");
}

// -------------------------------------------------------------- bias audit --

TEST(BiasAudit, RegionalCoverageShowsLacnicGap) {
  const auto& scenario = test::shared_scenario();
  const BiasAudit audit{scenario};
  const auto report = audit.regional_coverage();
  ASSERT_FALSE(report.rows.empty());

  double lacnic_share = 0;
  double lacnic_coverage = 1;
  double arin_coverage = 0;
  for (const auto& row : report.rows) {
    if (row.name == "L°") {
      lacnic_share = row.share;
      lacnic_coverage = row.coverage;
    }
    if (row.name == "AR°") arin_coverage = row.coverage;
  }
  // The paper's Fig. 1: L° holds a substantial share of links but is
  // essentially uncovered, while AR° coverage is high.
  EXPECT_GT(lacnic_share, 0.05);
  EXPECT_LT(lacnic_coverage, 0.02);
  EXPECT_GT(arin_coverage, 0.15);
}

TEST(BiasAudit, TopologicalCoverageConcentratesOnTier1) {
  const auto& scenario = test::shared_scenario();
  const BiasAudit audit{scenario};
  const auto report = audit.topological_coverage();
  double t1_tr = 0;
  double s_tr = 1;
  for (const auto& row : report.rows) {
    if (row.name == "T1-TR") t1_tr = row.coverage;
    if (row.name == "S-TR") s_tr = row.coverage;
  }
  EXPECT_GT(t1_tr, 2 * s_tr);  // the paper's Fig. 2 spike
}

TEST(BiasAudit, SharesSumToOne) {
  const auto& scenario = test::shared_scenario();
  const BiasAudit audit{scenario};
  double total = 0;
  for (const auto& row : audit.regional_coverage().rows) total += row.share;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(BiasAudit, TransitHeatmapsSkewTowardSmallDegrees) {
  const auto& scenario = test::shared_scenario();
  const BiasAudit audit{scenario};
  const auto maps = audit.transit_degree_heatmaps();
  ASSERT_GT(maps.inferred.total(), 0u);
  ASSERT_GT(maps.validated.total(), 0u);
  // Fig. 3: inferred TR° links concentrate in the bottom-left corner more
  // than the validated ones.
  EXPECT_GT(maps.inferred.bottom_left_mass(), 0.3);
  EXPECT_GE(maps.inferred.bottom_left_mass(),
            maps.validated.bottom_left_mass() * 0.9);
}

TEST(BiasAudit, ValidationTableHasProblemClasses) {
  const auto& scenario = test::shared_scenario();
  const BiasAudit audit{scenario};
  const auto asrank = infer::run_asrank(scenario.observed());
  const auto table = audit.validation_table(asrank.inference, 50);
  EXPECT_GT(table.total.p2p.ppv(), 0.7);
  EXPECT_GT(table.total.p2c.ppv(), 0.9);
  bool found_t1_tr = false;
  for (const auto& row : table.rows) {
    if (row.name == "T1-TR") {
      found_t1_tr = true;
      EXPECT_LT(row.p2p.ppv(), table.total.p2p.ppv());
    }
  }
  EXPECT_TRUE(found_t1_tr);
}

TEST(BiasAudit, SamplingExperimentHasNoTrend) {
  const auto& scenario = test::shared_scenario();
  const BiasAudit audit{scenario};
  const auto asrank = infer::run_asrank(scenario.observed());
  eval::SamplingParams params;
  params.repetitions = 20;
  params.step = 7;
  const auto result =
      audit.sampling_experiment(asrank.inference, "T1-TR", params);
  ASSERT_FALSE(result.points.empty());
  // Appendix A: no systematic slope in the medians.
  EXPECT_LT(std::abs(result.ppv_p_slope), 0.002);
  EXPECT_LT(std::abs(result.mcc_slope), 0.002);
}

TEST(BiasAudit, PpdcHeatmapsBuild) {
  const auto& scenario = test::shared_scenario();
  const BiasAudit audit{scenario};
  const auto asrank = infer::run_asrank(scenario.observed());
  const auto with_vps = audit.ppdc_heatmaps(asrank.inference, false);
  const auto without_vps = audit.ppdc_heatmaps(asrank.inference, true);
  EXPECT_GT(with_vps.inferred.total(), 0u);
  // Dropping VP-incident links shrinks the population (Fig. 8 vs Fig. 7).
  EXPECT_LT(without_vps.inferred.total(), with_vps.inferred.total());
}

TEST(Ppdc, SizesAreBoundedByAsCount) {
  const auto& scenario = test::shared_scenario();
  const auto asrank = infer::run_asrank(scenario.observed());
  const auto sizes = eval::ppdc_sizes(scenario.observed(), asrank.inference);
  for (const auto& [asn, size] : sizes) {
    EXPECT_LT(size, scenario.observed().as_count());
  }
  // Clique members see big cones.
  std::uint32_t best = 0;
  for (const Asn member : scenario.world().clique) {
    const auto it = sizes.find(member);
    if (it != sizes.end()) best = std::max(best, it->second);
  }
  EXPECT_GT(best, 100u);
}

// ------------------------------------------------------------ looking glass --

TEST(LookingGlass, ShowsPathAndCommunities) {
  const auto& scenario = test::shared_scenario();
  const LookingGlass glass{scenario.world(), scenario.schemes(),
                           scenario.params().propagation};
  const Asn t1 = scenario.world().clique.front();
  const Asn origin = scenario.world().graph.nodes().back();
  const auto view = glass.query(t1, origin);
  ASSERT_TRUE(view.reachable);
  EXPECT_EQ(view.path.front(), t1);
  EXPECT_EQ(view.path.back(), origin);
}

TEST(LookingGlass, RevealsNoExportCommunityOnTaggedRoutes) {
  const auto& scenario = test::shared_scenario();
  const auto& world = scenario.world();
  const LookingGlass glass{world, scenario.schemes(),
                           scenario.params().propagation};
  const auto expected = val::no_export_to_peers_community(world.cogent_like);
  int seen = 0;
  int total = 0;
  for (const auto& edge : world.graph.edges()) {
    if (!edge.scope_via_community) continue;
    ++total;
    const auto view =
        glass.query(world.cogent_like, world.graph.asn_of(edge.v));
    if (!view.reachable) continue;
    if (std::find(view.communities.begin(), view.communities.end(),
                  expected) != view.communities.end()) {
      ++seen;
    }
  }
  ASSERT_GT(total, 0);
  EXPECT_GE(seen, total - 2);  // route must go via the tagged customer
}

TEST(LookingGlass, UnreachableForUnknownAs) {
  const auto& scenario = test::shared_scenario();
  const LookingGlass glass{scenario.world(), scenario.schemes(),
                           scenario.params().propagation};
  const auto view = glass.query(Asn{4999999}, scenario.world().clique[0]);
  EXPECT_FALSE(view.reachable);
}

// ------------------------------------------------------------- case study --

TEST(CaseStudy, FindsTheCogentMechanism) {
  const auto& scenario = test::shared_scenario();
  const BiasAudit audit{scenario};
  const auto asrank = infer::run_asrank(scenario.observed());
  const auto report = run_case_study(scenario, audit, asrank.inference);

  ASSERT_GT(report.wrong_p2p_t1_tr, 0u);
  EXPECT_EQ(report.dominant_tier1, scenario.world().cogent_like);
  // No clique triplet exists for any target — the §6.1 observation.
  EXPECT_EQ(report.with_clique_triplet, 0u);
  // Most targets show the action community through the looking glass.
  EXPECT_GT(report.with_action_community, report.dominant_count / 2);
  const auto text = render(report);
  EXPECT_NE(text.find("Dominant Tier-1"), std::string::npos);
}

// --------------------------------------------------------------------- io --

TEST(AsRelIo, InferenceRoundTrips) {
  const auto& scenario = test::shared_scenario();
  const auto asrank = infer::run_asrank(scenario.observed());
  const auto text = io::to_as_rel_text(asrank.inference);
  const auto reparsed = io::parse_as_rel_text(text);
  EXPECT_EQ(reparsed.size(), asrank.inference.size());
  EXPECT_EQ(reparsed.agreement_with(asrank.inference), 1.0);
}

TEST(AsRelIo, ParsesCaidaFormat) {
  const auto inference = io::parse_as_rel_text(
      "# comment\n"
      "3356|20|-1\n"
      "10|20|0\n"
      "bad|line|x\n");
  EXPECT_EQ(inference.size(), 2u);
  const auto* p2c = inference.find(val::AsLink{Asn{3356}, Asn{20}});
  ASSERT_NE(p2c, nullptr);
  EXPECT_EQ(p2c->rel, topo::RelType::kP2C);
  EXPECT_EQ(p2c->provider, Asn{3356});
  const auto* p2p = inference.find(val::AsLink{Asn{10}, Asn{20}});
  ASSERT_NE(p2p, nullptr);
  EXPECT_EQ(p2p->rel, topo::RelType::kP2P);
}

TEST(AsRelIo, GroundTruthSerializes) {
  const auto mw = test::micro_world();
  std::ostringstream out;
  io::write_as_rel(mw.world.graph, out);
  const auto inference = io::parse_as_rel_text(out.str());
  EXPECT_EQ(inference.size(), mw.world.graph.edge_count());
}

}  // namespace
}  // namespace asrel::core
