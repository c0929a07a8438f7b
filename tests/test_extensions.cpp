#include <gtest/gtest.h>

#include <sstream>
#include <unordered_set>

#include "core/link_features.hpp"
#include "infer/asrank.hpp"
#include "infer/complex.hpp"
#include "io/rib_dump.hpp"
#include "test_support.hpp"

namespace asrel {
namespace {

using asn::Asn;

// ---------------------------------------------------------------- rib dump --

TEST(RibDump, WritesTableDump2Lines) {
  const auto& scenario = test::shared_scenario();
  std::ostringstream out;
  io::RibDumpOptions options;
  options.max_routes = 50;
  io::write_rib_dump(scenario.propagator(), scenario.paths(),
                     scenario.schemes(), options, out);
  const auto text = out.str();
  EXPECT_NE(text.find("TABLE_DUMP2|1522886400|B|10.255."), std::string::npos);
  // 50 lines written.
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(text.begin(), text.end(), '\n')),
            50u);
}

TEST(RibDump, ParseRecoversPathsAndPeers) {
  const auto& scenario = test::shared_scenario();
  std::ostringstream out;
  io::RibDumpOptions options;
  options.max_routes = 2000;
  io::write_rib_dump(scenario.propagator(), scenario.paths(),
                     scenario.schemes(), options, out);

  io::RibParseStats stats;
  const auto table = io::parse_rib_dump_text(out.str(), &stats);
  EXPECT_EQ(stats.routes, 2000u);
  EXPECT_EQ(stats.malformed, 0u);
  EXPECT_EQ(table.path_count(), 2000u);
  EXPECT_GT(table.vantage_points().size(), 0u);
}

TEST(RibDump, RoundTripPreservesHops) {
  const auto& scenario = test::shared_scenario();
  std::ostringstream out;
  io::RibDumpOptions options;
  options.max_routes = 500;
  io::write_rib_dump(scenario.propagator(), scenario.paths(),
                     scenario.schemes(), options, out);
  const auto table = io::parse_rib_dump_text(out.str());

  // Collect the original first 500 paths for comparison.
  std::vector<std::vector<Asn>> original;
  scenario.paths().for_each_path([&](const bgp::PathTable::PathRef& ref) {
    if (original.size() >= 500) return;
    original.emplace_back(ref.path.begin(), ref.path.end());
  });
  std::vector<std::vector<Asn>> reparsed;
  table.for_each_path([&](const bgp::PathTable::PathRef& ref) {
    reparsed.emplace_back(ref.path.begin(), ref.path.end());
  });
  ASSERT_EQ(reparsed.size(), original.size());
  // The dump groups by origin in the same global order, so a sorted
  // multiset comparison is robust against iteration-order differences.
  std::sort(original.begin(), original.end());
  std::sort(reparsed.begin(), reparsed.end());
  EXPECT_EQ(original, reparsed);
}

TEST(RibDump, InferenceRunsOnParsedDump) {
  // The whole inference stack must be drivable from an on-disk dump.
  const auto& scenario = test::shared_scenario();
  std::ostringstream out;
  io::write_rib_dump(scenario.propagator(), scenario.paths(),
                     scenario.schemes(), {}, out);
  const auto table = io::parse_rib_dump_text(out.str());
  const auto observed = infer::ObservedPaths::build(table);
  EXPECT_EQ(observed.link_count(), scenario.observed().link_count());
  const auto from_dump = infer::run_asrank(observed);
  const auto direct = infer::run_asrank(scenario.observed());
  EXPECT_EQ(from_dump.clique, direct.clique);
  EXPECT_GT(from_dump.inference.agreement_with(direct.inference), 0.999);
}

TEST(RibDump, MalformedLinesAreCounted) {
  io::RibParseStats stats;
  const auto table = io::parse_rib_dump_text(
      "TABLE_DUMP2|0|B|10.0.0.1|100|10.0.0.0/24|100 200 300|IGP|x|0|0||NAG||\n"
      "garbage\n"
      "TABLE_DUMP2|0|B|10.0.0.1|bad|10.0.0.0/24|100|IGP|x|0|0||NAG||\n",
      &stats);
  EXPECT_EQ(stats.routes, 1u);
  EXPECT_EQ(stats.malformed, 2u);
  EXPECT_EQ(table.path_count(), 1u);
}

// ---------------------------------------------------------------- complex --

TEST(ComplexDetection, FindsPlantedPartialTransit) {
  const auto& scenario = test::shared_scenario();
  const auto asrank = infer::run_asrank(scenario.observed());
  const auto candidates = infer::detect_complex_relationships(
      scenario.observed(), asrank.clique);

  // Every community-tagged partial-transit link that is visible should be
  // flagged (possibly along with peering false positives — that ambiguity
  // is the §6.1 point).
  const auto& world = scenario.world();
  std::unordered_set<val::AsLink> flagged;
  for (const auto& candidate : candidates) {
    if (candidate.kind == infer::ComplexKind::kPartialTransit) {
      flagged.insert(candidate.link);
    }
  }
  std::size_t tagged_visible = 0;
  std::size_t tagged_flagged = 0;
  for (const auto& edge : world.graph.edges()) {
    if (!edge.scope_via_community) continue;
    const val::AsLink link{world.graph.asn_of(edge.u),
                           world.graph.asn_of(edge.v)};
    if (scenario.observed().find_link(link) == infer::kNoLink) continue;
    ++tagged_visible;
    if (flagged.contains(link)) ++tagged_flagged;
  }
  ASSERT_GT(tagged_visible, 0u);
  EXPECT_GT(tagged_flagged * 2, tagged_visible);  // majority recall
}

TEST(ComplexDetection, PartialTransitCandidatesAreCliqueAdjacent) {
  const auto& scenario = test::shared_scenario();
  const auto asrank = infer::run_asrank(scenario.observed());
  const auto candidates = infer::detect_complex_relationships(
      scenario.observed(), asrank.clique);
  std::unordered_set<Asn> clique(asrank.clique.begin(), asrank.clique.end());
  for (const auto& candidate : candidates) {
    if (candidate.kind != infer::ComplexKind::kPartialTransit) continue;
    EXPECT_TRUE(clique.contains(candidate.provider));
    EXPECT_TRUE(candidate.link.a == candidate.provider ||
                candidate.link.b == candidate.provider);
  }
}

TEST(ComplexDetection, Deterministic) {
  const auto& scenario = test::shared_scenario();
  const auto asrank = infer::run_asrank(scenario.observed());
  const auto a = infer::detect_complex_relationships(scenario.observed(),
                                                     asrank.clique);
  const auto b = infer::detect_complex_relationships(scenario.observed(),
                                                     asrank.clique);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].link, b[i].link);
    EXPECT_EQ(a[i].evidence, b[i].evidence);
  }
}

// --------------------------------------------------------------- features --

TEST(LinkFeatures, CoversEveryVisibleLink) {
  const auto& scenario = test::shared_scenario();
  const auto asrank = infer::run_asrank(scenario.observed());
  const core::LinkFeatureExtractor features{scenario, asrank.inference};
  EXPECT_EQ(features.all().size(), scenario.observed().link_count());
}

TEST(LinkFeatures, ValuesAreInternallyConsistent) {
  const auto& scenario = test::shared_scenario();
  const auto asrank = infer::run_asrank(scenario.observed());
  const core::LinkFeatureExtractor features{scenario, asrank.inference};
  const auto total_vps = scenario.observed().vp_count();
  for (const auto& [link, f] : features.all()) {
    EXPECT_GT(f.vp_visibility, 0u);
    EXPECT_LE(f.vp_visibility, total_vps);
    // Originated-through is a subset of redistributed-via.
    EXPECT_LE(f.prefixes_originated, f.prefixes_redistributed);
    EXPECT_LE(f.addresses_originated, f.addresses_redistributed);
    EXPECT_GE(f.transit_degree_diff, 0.0);
    EXPECT_LE(f.transit_degree_diff, 1.0);
    EXPECT_GE(f.ppdc_diff, 0.0);
    EXPECT_LE(f.ppdc_diff, 1.0);
    EXPECT_EQ(f.common_facilities, 0u);  // substrate not modeled
    EXPECT_LE(f.manrs_participants, 2u);
  }
}

TEST(LinkFeatures, CliqueMeshIsHighlyVisible) {
  const auto& scenario = test::shared_scenario();
  const auto asrank = infer::run_asrank(scenario.observed());
  const core::LinkFeatureExtractor features{scenario, asrank.inference};
  const auto& clique = scenario.world().clique;
  std::size_t checked = 0;
  double visibility = 0;
  for (std::size_t i = 0; i < clique.size(); ++i) {
    for (std::size_t j = i + 1; j < clique.size(); ++j) {
      const auto* f = features.find(val::AsLink{clique[i], clique[j]});
      if (f == nullptr) continue;
      ++checked;
      visibility += f->vp_visibility;
    }
  }
  ASSERT_GT(checked, 0u);
  // Peer routes only descend, so a mesh link is visible from the two
  // members' customer cones — still well above a typical IXP peering.
  EXPECT_GT(visibility / static_cast<double>(checked),
            0.04 * static_cast<double>(scenario.observed().vp_count()));
}

TEST(LinkFeatures, StubUplinksSeeMoreObserversThanReceivers) {
  // For a link right above an origin stub, "ASes left" (potential
  // observers) should typically dwarf "ASes right" (the stub side).
  const auto& scenario = test::shared_scenario();
  const auto asrank = infer::run_asrank(scenario.observed());
  const core::LinkFeatureExtractor features{scenario, asrank.inference};
  const auto& world = scenario.world();
  std::size_t wins = 0;
  std::size_t checked = 0;
  for (const auto& edge : world.graph.edges()) {
    if (checked >= 200) break;
    if (edge.rel != topo::RelType::kP2C) continue;
    const Asn customer = world.graph.asn_of(edge.v);
    if (world.attrs.at(customer).tier != topo::Tier::kStub) continue;
    const auto* f = features.find(
        val::AsLink{world.graph.asn_of(edge.u), customer});
    if (f == nullptr) continue;
    ++checked;
    if (f->ases_left > f->ases_right) ++wins;
  }
  ASSERT_GT(checked, 50u);
  EXPECT_GT(wins * 10, checked * 9);  // >90 %
}

}  // namespace
}  // namespace asrel
