// Cross-module property tests on fully generated scenarios: invariants
// that must hold for any seed, sampled over the shared scenario plus a
// couple of small fresh worlds.
#include <gtest/gtest.h>

#include <numeric>
#include <unordered_set>

#include "eval/heatmap.hpp"
#include "infer/asrank.hpp"
#include "io/as_rel.hpp"
#include "test_support.hpp"

namespace asrel {
namespace {

using asn::Asn;

// ---- valley-freeness over real collected paths ---------------------------

TEST(Property, CollectedPathsAreValleyFree) {
  // Sampled check over the shared scenario: reading a path collector-first,
  // relationships ascend (provider direction), flatten at most once (peer),
  // then descend. Siblings may appear anywhere.
  const auto& scenario = test::shared_scenario();
  const auto& graph = scenario.world().graph;
  const auto propagator = scenario.propagator();

  std::size_t checked = 0;
  std::size_t sampled = 0;
  scenario.paths().for_each_path([&](const bgp::PathTable::PathRef& ref) {
    if (++sampled % 97 != 0 || checked >= 3000) return;  // sample ~1 %
    // Collapse prepending; skip mangled/leaked paths (hops outside the
    // graph).
    std::vector<Asn> hops;
    for (const Asn hop : ref.path) {
      if (hops.empty() || hops.back() != hop) hops.push_back(hop);
    }
    for (const Asn hop : hops) {
      if (!graph.node_of(hop)) return;
    }
    ++checked;
    const Asn origin = graph.asn_of(ref.origin);
    int phase = 0;  // 0 ascending, 2 descending
    for (std::size_t i = 0; i + 1 < hops.size(); ++i) {
      const auto edge_id = graph.find_edge(hops[i], hops[i + 1]);
      ASSERT_TRUE(edge_id);
      const auto& edge = graph.edge(*edge_id);
      const auto rel = propagator.effective_rel(edge, origin);
      if (rel == topo::RelType::kS2S) continue;
      if (rel == topo::RelType::kP2P) {
        EXPECT_EQ(phase, 0) << "peer hop after the peak";
        phase = 2;
        continue;
      }
      const bool left_is_provider = graph.asn_of(edge.u) == hops[i];
      if (phase == 0 && !left_is_provider) continue;  // still ascending
      EXPECT_TRUE(left_is_provider) << "ascent after descent";
      phase = 2;
    }
  });
  EXPECT_GT(checked, 500u);
}

// ---- link accounting -------------------------------------------------------

TEST(Property, EveryVisibleLinkExistsInGroundTruth) {
  const auto& scenario = test::shared_scenario();
  const auto& graph = scenario.world().graph;
  for (const auto& link : scenario.observed().link_order()) {
    EXPECT_TRUE(graph.find_edge(link.a, link.b))
        << link.a.value() << "-" << link.b.value();
  }
}

TEST(Property, LinkOccurrencesMatchPathScan) {
  const auto& scenario = test::shared_scenario();
  const auto& observed = scenario.observed();
  std::size_t positions = 0;
  for (std::size_t p = 0; p < observed.path_count(); ++p) {
    positions += observed.path(p).size() - 1;
  }
  std::size_t recorded = 0;
  for (infer::LinkId id = 0; id < observed.link_count(); ++id) {
    recorded += observed.link_occurrences(id);
  }
  EXPECT_EQ(recorded, positions);
}

TEST(Property, TransitDegreeNeverExceedsNodeDegree) {
  const auto& observed = test::shared_scenario().observed();
  for (infer::AsIndex i = 0; i < observed.as_count(); ++i) {
    EXPECT_LE(observed.transit_degree(i), observed.node_degree(i));
  }
}

// ---- heatmap invariants ----------------------------------------------------

TEST(Property, HeatmapFractionsSumToOne) {
  eval::Heatmap map{eval::HeatmapSpec{.x_cap = 100, .y_cap = 50,
                                      .x_bins = 10, .y_bins = 5}};
  for (std::uint32_t i = 0; i < 500; ++i) {
    map.add(i % 137, (i * 7) % 211);
  }
  double total = 0;
  for (std::size_t x = 0; x < 10; ++x) {
    for (std::size_t y = 0; y < 5; ++y) {
      total += map.fraction(x, y);
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_EQ(map.total(), 500u);
}

// ---- ground-truth serialization round trip --------------------------------

TEST(Property, GroundTruthAsRelRoundTripsAllEdges) {
  const auto& world = test::shared_scenario().world();
  std::ostringstream out;
  io::write_as_rel(world.graph, out);
  const auto parsed = io::parse_as_rel_text(out.str());
  ASSERT_EQ(parsed.size(), world.graph.edge_count());
  std::size_t sampled = 0;
  for (const auto& edge : world.graph.edges()) {
    if (++sampled % 17 != 0) continue;
    const Asn u = world.graph.asn_of(edge.u);
    const Asn v = world.graph.asn_of(edge.v);
    const auto* rel = parsed.find(val::AsLink{u, v});
    ASSERT_NE(rel, nullptr);
    EXPECT_EQ(rel->rel, edge.rel);
    if (edge.rel == topo::RelType::kP2C) {
      EXPECT_EQ(rel->provider, u);
    }
  }
}

// ---- inference totals -------------------------------------------------------

TEST(Property, AsRankClassCountsPartitionTheLinks) {
  const auto& scenario = test::shared_scenario();
  const auto result = infer::run_asrank(scenario.observed());
  std::size_t p2p = 0;
  std::size_t p2c = 0;
  for (const auto& link : result.inference.order()) {
    const auto* rel = result.inference.find(link);
    ASSERT_NE(rel, nullptr);
    switch (rel->rel) {
      case topo::RelType::kP2P:
        ++p2p;
        break;
      case topo::RelType::kP2C:
        ++p2c;
        // Provider is one of the endpoints.
        EXPECT_TRUE(rel->provider == link.a || rel->provider == link.b);
        break;
      case topo::RelType::kS2S:
        FAIL() << "ASRank never emits sibling labels";
    }
  }
  EXPECT_EQ(p2p + p2c, scenario.observed().link_count());
  // The world is customer-provider dominated.
  EXPECT_GT(p2c, p2p);
}

TEST(Property, VantagePointsObserveTheirOwnFirstHops) {
  const auto& scenario = test::shared_scenario();
  const auto& observed = scenario.observed();
  // Each VP's origin_count equals the number of its sanitized paths.
  std::vector<std::uint32_t> per_vp(observed.vp_count(), 0);
  for (std::size_t p = 0; p < observed.path_count(); ++p) {
    ++per_vp[observed.vp_of_path(p)];
  }
  for (std::uint16_t vp = 0; vp < observed.vp_count(); ++vp) {
    EXPECT_EQ(observed.origin_count(vp), per_vp[vp]);
  }
}

}  // namespace
}  // namespace asrel
