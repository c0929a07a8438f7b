#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <unordered_set>

#include "infer/asrank.hpp"
#include "infer/clique.hpp"
#include "infer/gao.hpp"
#include "infer/inference.hpp"
#include "infer/observed.hpp"
#include "infer/problink.hpp"
#include "infer/toposcope.hpp"
#include "observed_oracle.hpp"
#include "test_support.hpp"
#include "testing/property.hpp"

namespace asrel::infer {
namespace {

using asn::Asn;

// A tiny hand-rolled path table:
//   vp0 = AS1 (full feed), vp1 = AS5
//   paths as annotated below.
bgp::PathTable tiny_table() {
  bgp::PathTable table;
  table.set_vantage_points({{Asn{1}, true, false}, {Asn{5}, true, false}});
  table.resize_origins(8);
  const auto add = [&](topo::NodeId origin, std::uint32_t vp,
                       std::initializer_list<std::uint32_t> hops) {
    std::vector<Asn> path;
    for (const auto value : hops) path.push_back(Asn{value});
    table.add_path(origin, vp, path);
  };
  add(0, 0, {1, 2, 3});        // AS1 -> AS2 -> AS3
  add(1, 0, {1, 2, 4});        // AS1 -> AS2 -> AS4
  add(2, 0, {1, 2, 2, 2, 4});  // prepending on AS2
  add(3, 1, {5, 2, 3});        // AS5 -> AS2 -> AS3
  add(4, 0, {1, 6, 1, 3});     // loop: dropped
  add(5, 0, {1, 2, 23456});    // AS_TRANS: dropped
  add(6, 0, {1, 2, 64512});    // private ASN: dropped
  table.recount();
  return table;
}

TEST(ObservedPaths, SanitizesLoopsReservedAndPrepending) {
  SanitizeStats stats;
  const auto observed = ObservedPaths::build(tiny_table(), &stats);
  EXPECT_EQ(stats.input_paths, 7u);
  EXPECT_EQ(stats.dropped_loop, 1u);
  EXPECT_EQ(stats.dropped_reserved, 2u);
  EXPECT_EQ(stats.kept, 4u);
  EXPECT_EQ(observed.path_count(), 4u);
  // The prepended path collapsed to 3 hops.
  EXPECT_EQ(observed.path(2).size(), 3u);
}

TEST(ObservedPaths, TransitDegreeCountsMiddleNeighbors) {
  const auto observed = ObservedPaths::build(tiny_table(), nullptr);
  // AS2 appears in the middle next to {1, 3, 4, 5}: transit degree 4.
  const auto as2 = observed.index_of(Asn{2});
  ASSERT_TRUE(as2);
  EXPECT_EQ(observed.transit_degree(*as2), 4u);
  // Path-end ASes have transit degree 0.
  EXPECT_EQ(observed.transit_degree(*observed.index_of(Asn{3})), 0u);
  EXPECT_EQ(observed.transit_degree(*observed.index_of(Asn{1})), 0u);
}

TEST(ObservedPaths, NodeDegreeCountsDistinctNeighbors) {
  const auto observed = ObservedPaths::build(tiny_table(), nullptr);
  EXPECT_EQ(observed.node_degree(*observed.index_of(Asn{2})), 4u);
  EXPECT_EQ(observed.node_degree(*observed.index_of(Asn{3})), 1u);
}

TEST(ObservedPaths, LinkStatisticsTrackVps) {
  const auto observed = ObservedPaths::build(tiny_table(), nullptr);
  const LinkId shared = observed.find_link(val::AsLink{Asn{2}, Asn{3}});
  ASSERT_NE(shared, kNoLink);
  EXPECT_EQ(observed.link_vp_count(shared), 2u);  // seen from both VPs
  EXPECT_EQ(observed.link_occurrences(shared), 2u);
  const LinkId single = observed.find_link(val::AsLink{Asn{2}, Asn{4}});
  ASSERT_NE(single, kNoLink);
  EXPECT_EQ(observed.link_vp_count(single), 1u);
  EXPECT_EQ(observed.find_link(val::AsLink{Asn{1}, Asn{9}}), kNoLink);
}

TEST(ObservedPaths, RankOrderIsTransitDegreeFirst) {
  const auto observed = ObservedPaths::build(tiny_table(), nullptr);
  const auto rank = observed.rank_order();
  EXPECT_EQ(observed.asn_at(rank[0]), Asn{2});  // highest transit degree
}

/// Origins for which `neighbor` is `vp`'s first hop; 0 when it never is.
std::uint32_t first_hop_count(const ObservedPaths& observed, std::uint16_t vp,
                              Asn neighbor) {
  for (const FirstHop& hop : observed.first_hops(vp)) {
    if (observed.asn_at(hop.as) == neighbor) return hop.count;
  }
  return 0;
}

TEST(ObservedPaths, FirstHopCoverage) {
  const auto observed = ObservedPaths::build(tiny_table(), nullptr);
  EXPECT_EQ(first_hop_count(observed, 0, Asn{2}), 3u);
  EXPECT_EQ(observed.origin_count(0), 3u);  // after sanitization
  EXPECT_EQ(first_hop_count(observed, 1, Asn{2}), 1u);
  EXPECT_EQ(first_hop_count(observed, 1, Asn{3}), 0u);
}

TEST(ObservedPaths, RejectsMoreVantagePointsThan16BitsHold) {
  // VP numbers are stored in 16 bits, so 65,535 VPs is the most a table
  // may carry. A path from the last of them keeps its number.
  const auto table_with = [](std::size_t vp_count) {
    bgp::PathTable table;
    std::vector<bgp::VantagePoint> vps;
    for (std::size_t v = 0; v < vp_count; ++v) {
      vps.push_back({Asn{static_cast<std::uint32_t>(100000 + v)}, true,
                     false});
    }
    table.set_vantage_points(vps);
    table.resize_origins(1);
    const auto last = static_cast<std::uint32_t>(vp_count - 1);
    const std::vector<Asn> path{vps[last].asn, Asn{7}};
    table.add_path(0, last, path);
    table.recount();
    return table;
  };
  EXPECT_THROW((void)ObservedPaths::build(table_with(65536)),
               std::invalid_argument);
  const auto observed = ObservedPaths::build(table_with(65535));
  ASSERT_EQ(observed.path_count(), 1u);
  EXPECT_EQ(observed.vp_of_path(0), 65534u);
  EXPECT_EQ(observed.origin_count(65534), 1u);
  EXPECT_EQ(observed.first_hops(65534).size(), 1u);
  EXPECT_EQ(observed.link_vp_count(0), 1u);
}

// ------------------------------------------- dense build versus the oracle --

std::optional<std::string> oracle_mismatch(const bgp::PathTable& table,
                                           unsigned threads = 0) {
  SanitizeStats stats;
  const auto observed = ObservedPaths::build(table, &stats, threads);
  return test::diff_against_oracle(observed, stats,
                                   test::ObservedOracle::build(table));
}

/// A random collector table over a random ASN pool: VPs (some sharing an
/// ASN, more than 64 in the larger cases so the VP bitsets span words),
/// paths that usually start at their VP, and injected prepending, loops,
/// reserved ASNs and one-hop paths.
bgp::PathTable random_table(testing::Rng& rng) {
  const std::size_t pool_size = 2 + rng.below(300);
  std::vector<Asn> pool;
  for (std::size_t i = 0; i < pool_size; ++i) {
    pool.push_back(Asn{static_cast<std::uint32_t>(
        rng.chance(0.2) ? 131072 + rng.below(1000000) : 1 + rng.below(60000))});
  }
  const std::vector<Asn> reserved{
      Asn{0},     asn::kAsTrans,    Asn{64512},      Asn{65000},
      Asn{64496}, Asn{4200000000u}, Asn{4294967295u}};

  bgp::PathTable table;
  std::vector<bgp::VantagePoint> vps;
  const std::size_t vp_count = 1 + rng.below(rng.chance(0.3) ? 140 : 12);
  for (std::size_t v = 0; v < vp_count; ++v) {
    vps.push_back({rng.pick(pool), true, false});
  }
  table.set_vantage_points(vps);
  const std::size_t origins = 1 + rng.below(60);
  table.resize_origins(origins);

  const std::size_t path_count = rng.below(1500);
  std::vector<Asn> path;
  for (std::size_t k = 0; k < path_count; ++k) {
    const auto vp = static_cast<std::uint32_t>(rng.below(vp_count));
    path.clear();
    if (rng.chance(0.95)) path.push_back(vps[vp].asn);
    const std::size_t length = rng.below(7);
    for (std::size_t h = 0; h < length; ++h) path.push_back(rng.pick(pool));
    if (path.empty()) path.push_back(rng.pick(pool));
    if (rng.chance(0.2)) {  // prepending
      const std::size_t at = rng.below(path.size());
      path.insert(path.begin() + static_cast<std::ptrdiff_t>(at),
                  1 + rng.below(3), path[at]);
    }
    if (rng.chance(0.05) && path.size() >= 2) {  // loop
      path.push_back(path[rng.below(path.size() - 1)]);
    }
    if (rng.chance(0.05)) {  // reserved hop
      path.insert(path.begin() + static_cast<std::ptrdiff_t>(
                                     rng.below(path.size() + 1)),
                  rng.pick(reserved));
    }
    table.add_path(static_cast<topo::NodeId>(rng.below(origins)), vp, path);
  }
  table.recount();
  return table;
}

TEST(ObservedPaths, DenseBuildMatchesOracleOnTinyTable) {
  const auto mismatch = oracle_mismatch(tiny_table());
  EXPECT_FALSE(mismatch) << *mismatch;
}

TEST(ObservedPaths, DenseBuildMatchesOracleOnRandomTables) {
  testing::PropertyConfig config;
  config.cases = 60;
  const auto result = testing::check_property<std::uint64_t>(
      config, [](testing::Rng& rng) { return rng.next(); },
      [](const std::uint64_t& seed) -> std::optional<std::string> {
        for (const unsigned threads : {1u, 4u}) {
          testing::Rng rng{seed};
          if (auto mismatch = oracle_mismatch(random_table(rng), threads)) {
            return "threads " + std::to_string(threads) + ": " + *mismatch;
          }
        }
        return std::nullopt;
      });
  EXPECT_TRUE(result.ok) << result.message << " (case " << result.failing_case
                         << ", seed " << *result.counterexample << ")";
}

TEST(ObservedPaths, DenseBuildMatchesOracleOnGeneratedWorlds) {
  // Real propagation output: prepending, private-ASN leaks and AS_TRANS
  // mangling come from the simulator itself.
  for (const auto& [as_count, seed] :
       std::vector<std::pair<int, std::uint64_t>>{
           {150, 3}, {300, 17}, {500, 42}}) {
    topo::TopologyParams topo_params;
    topo_params.as_count = as_count;
    topo_params.seed = seed;
    const topo::World world = topo::generate(topo_params);
    bgp::VantageParams vantage_params;
    vantage_params.target_count = 70;
    bgp::PropagationParams propagation;
    propagation.private_asn_leak = 0.1;
    propagation.legacy_mangle = 0.1;
    const bgp::Propagator propagator{world, propagation};
    const auto table = bgp::collect_paths(
        propagator, bgp::select_vantage_points(world, vantage_params));
    const auto mismatch = oracle_mismatch(table);
    EXPECT_FALSE(mismatch) << "as_count " << as_count << " seed " << seed
                           << ": " << *mismatch;
  }
}

TEST(ObservedPaths, ThreadCountDoesNotChangeTheBuild) {
  // Chunk bounds move with the thread count; nothing else may.
  const auto rendered = [](const bgp::PathTable& table, unsigned threads) {
    SanitizeStats stats;
    const auto observed = ObservedPaths::build(table, &stats, threads);
    return test::render_observed(observed, stats);
  };
  const auto make_table = [](std::size_t origins,
                             std::initializer_list<std::pair<
                                 topo::NodeId, std::vector<std::uint32_t>>>
                                 paths) {
    bgp::PathTable table;
    table.set_vantage_points({{Asn{1}, true, false}, {Asn{5}, true, false}});
    table.resize_origins(origins);
    for (const auto& [origin, hops] : paths) {
      std::vector<Asn> path;
      for (const auto value : hops) path.push_back(Asn{value});
      table.add_path(origin, path.front() == Asn{1} ? 0 : 1, path);
    }
    table.recount();
    return table;
  };
  // Fewer origins than threads, and origin 1 holds most hops, so the
  // hop-balanced split leaves a chunk empty at 3 threads and more.
  const auto few = make_table(3, {{0, {1, 2, 3}},
                                  {1, {1, 2, 2, 4}},
                                  {1, {5, 2, 2, 2, 4}},
                                  {1, {1, 6, 4}},
                                  {1, {5, 6, 6, 4}},
                                  {2, {5, 3}}});
  // Origins 0, 2, 3 and 5 hold only paths with a reserved ASN or a loop,
  // so at 3 and 8 threads whole chunks keep nothing, the first included.
  const auto dropped =
      make_table(6, {{0, {1, 2, 64512, 10}}, {0, {5, 6, 5, 10}},
                     {1, {1, 2, 3, 11}},     {1, {5, 2, 3, 11}},
                     {2, {1, 2, 1, 12}},     {2, {5, 23456, 3, 12}},
                     {3, {1, 7, 64513, 13}}, {3, {5, 7, 5, 13}},
                     {4, {1, 6, 6, 14}},     {4, {5, 6, 4, 14}},
                     {5, {1, 2, 4, 1}},      {5, {5, 0, 4, 15}}});
  SanitizeStats stats;
  EXPECT_EQ(ObservedPaths::build(dropped, &stats, 8).path_count(), 4u);
  EXPECT_EQ(stats.dropped_loop + stats.dropped_reserved, 8u);

  const std::pair<const char*, const bgp::PathTable*> tables[] = {
      {"scenario", &test::shared_scenario().paths()},
      {"few origins", &few},
      {"dropped chunks", &dropped}};
  for (const auto& [name, table] : tables) {
    const std::string serial = rendered(*table, 1);
    for (const unsigned threads : {2u, 3u, 8u}) {
      EXPECT_TRUE(rendered(*table, threads) == serial)
          << name << " differs from serial at threads=" << threads;
    }
  }
}

// ----------------------------------------------------------------- clique --

TEST(Clique, RecoversGroundTruthTier1s) {
  const auto& scenario = test::shared_scenario();
  const auto clique = infer_clique(scenario.observed(), {});
  std::unordered_set<Asn> truth(scenario.world().clique.begin(),
                                scenario.world().clique.end());
  std::size_t correct = 0;
  for (const Asn member : clique) {
    if (truth.contains(member)) ++correct;
  }
  ASSERT_FALSE(clique.empty());
  // High precision; recall may miss a few members in small worlds.
  EXPECT_GE(static_cast<double>(correct),
            0.9 * static_cast<double>(clique.size()));
  EXPECT_GE(correct, truth.size() / 2);
}

/// Reference clique: the per-membership rescan that infer_clique replaced
/// with one triplet scan. Same Bron-Kerbosch seed, same purify/extend
/// rounds, but the transit evidence is recounted over every path after
/// each membership change. `rescans` reports how many times it was.
struct ReferenceClique {
  std::vector<Asn> clique;
  int rescans = 0;
};

void reference_bron_kerbosch(const std::vector<std::vector<bool>>& adjacent,
                             std::vector<std::size_t>& current,
                             std::vector<std::size_t> candidates,
                             std::vector<std::size_t> excluded,
                             std::vector<std::size_t>& best) {
  if (candidates.empty() && excluded.empty()) {
    if (current.size() > best.size() ||
        (current.size() == best.size() && current < best)) {
      best = current;
    }
    return;
  }
  const std::vector<std::size_t> iteration = candidates;
  for (const std::size_t v : iteration) {
    std::vector<std::size_t> next_candidates;
    std::vector<std::size_t> next_excluded;
    for (const std::size_t u : candidates) {
      if (adjacent[v][u]) next_candidates.push_back(u);
    }
    for (const std::size_t u : excluded) {
      if (adjacent[v][u]) next_excluded.push_back(u);
    }
    current.push_back(v);
    reference_bron_kerbosch(adjacent, current, std::move(next_candidates),
                            std::move(next_excluded), best);
    current.pop_back();
    candidates.erase(std::find(candidates.begin(), candidates.end(), v));
    excluded.push_back(v);
  }
}

ReferenceClique reference_clique(const ObservedPaths& observed,
                                 const CliqueParams& params) {
  constexpr std::uint32_t kThreshold = 2;
  ReferenceClique out;
  const auto rank = observed.rank_order();
  const std::size_t pool = std::min(params.seed_pool, rank.size());
  if (pool == 0) return out;
  std::vector<std::vector<bool>> adjacent(pool, std::vector<bool>(pool));
  for (std::size_t i = 0; i < pool; ++i) {
    for (std::size_t j = i + 1; j < pool; ++j) {
      adjacent[i][j] = adjacent[j][i] =
          observed.link_id(rank[i], rank[j]) != kNoLink;
    }
  }
  std::vector<std::size_t> current;
  std::vector<std::size_t> candidates(pool);
  for (std::size_t i = 0; i < pool; ++i) candidates[i] = i;
  std::vector<std::size_t> best;
  reference_bron_kerbosch(adjacent, current, std::move(candidates), {}, best);
  if (best.empty()) best.push_back(0);

  const std::size_t n = observed.as_count();
  std::vector<std::uint8_t> member(n, 0);
  std::size_t size = 0;
  for (const std::size_t i : best) {
    member[rank[i]] = 1;
    ++size;
  }
  std::vector<std::uint32_t> evidence;
  bool stale = true;
  const auto current_evidence = [&]() -> const std::vector<std::uint32_t>& {
    if (stale) {
      evidence.assign(n, 0);
      for (std::size_t p = 0; p < observed.path_count(); ++p) {
        const auto path = observed.path(p);
        for (std::size_t i = 0; i + 2 < path.size(); ++i) {
          if (member[path[i]] != 0 && member[path[i + 1]] != 0) {
            ++evidence[path[i + 2]];
          }
        }
      }
      ++out.rescans;
      stale = false;
    }
    return evidence;
  };
  const auto set_member = [&](AsIndex as, bool in) {
    member[as] = in ? 1 : 0;
    in ? ++size : --size;
    stale = true;
  };
  const auto purify = [&] {
    bool removed_any = false;
    while (size > 1) {
      const auto& counts = current_evidence();
      AsIndex worst = kNoAs;
      std::uint32_t worst_count = 0;
      for (AsIndex as = 0; as < n; ++as) {
        if (member[as] != 0 && counts[as] > worst_count) {
          worst_count = counts[as];
          worst = as;
        }
      }
      if (worst_count < kThreshold) break;
      set_member(worst, false);
      removed_any = true;
    }
    return removed_any;
  };
  const std::size_t extension = std::min(params.extension_pool, rank.size());
  const auto extend = [&] {
    bool added_any = false;
    for (std::size_t i = 0; i < extension; ++i) {
      const AsIndex candidate = rank[i];
      if (member[candidate] != 0) continue;
      bool connected_to_all = true;
      for (AsIndex as = 0; as < n && connected_to_all; ++as) {
        connected_to_all =
            member[as] == 0 || observed.link_id(candidate, as) != kNoLink;
      }
      if (!connected_to_all) continue;
      if (current_evidence()[candidate] >= kThreshold) continue;
      set_member(candidate, true);
      added_any = true;
    }
    return added_any;
  };
  purify();
  for (int round = 0; round < 4; ++round) {
    const bool grew = extend();
    const bool shrank = purify();
    if (!grew && !shrank) break;
  }
  for (AsIndex as = 0; as < n; ++as) {
    if (member[as] != 0) out.clique.push_back(observed.asn_at(as));
  }
  return out;
}

TEST(Clique, MatchesPerMembershipRescan) {
  const auto expect_match = [](const ObservedPaths& observed,
                               const CliqueParams& params,
                               const char* name) {
    const ReferenceClique reference = reference_clique(observed, params);
    EXPECT_EQ(infer_clique(observed, params), reference.clique) << name;
    return reference.rescans;
  };

  // The canonical world and a 1000-AS one both change membership several
  // times (9 and 7 rescans), so purify and extend run against many
  // evidence states.
  const auto& canonical = test::shared_scenario().observed();
  EXPECT_GE(expect_match(canonical, {}, "canonical"), 5);
  expect_match(canonical, {5, 8}, "canonical, pools {5, 8}");

  topo::TopologyParams topo_params;
  topo_params.as_count = 1000;
  topo_params.seed = 1;
  const topo::World world = topo::generate(topo_params);
  const bgp::Propagator propagator{world, bgp::PropagationParams{}};
  const auto thousand = ObservedPaths::build(bgp::collect_paths(
      propagator, bgp::select_vantage_points(world, {})));
  EXPECT_GE(expect_match(thousand, {}, "1000 ASes, seed 1"), 5);

  // Pools wider than the AS universe clamp to it.
  const test::MicroWorld mw = test::micro_world();
  const bgp::Propagator micro_propagator{mw.world, bgp::PropagationParams{}};
  std::vector<bgp::VantagePoint> vps;
  for (const Asn asn : mw.world.graph.nodes()) {
    vps.push_back({asn, true, false});
  }
  const auto micro =
      ObservedPaths::build(bgp::collect_paths(micro_propagator, vps));
  ASSERT_LT(micro.as_count(), 20u);
  expect_match(micro, {20, 30}, "micro world, pools {20, 30}");
}

TEST(Clique, RejectsPoolsAboveTheTableLimit) {
  const auto& observed = test::shared_scenario().observed();
  for (const CliqueParams params :
       {CliqueParams{kMaxCliquePool + 1, 60},
        CliqueParams{14, kMaxCliquePool + 1}}) {
    try {
      (void)infer_clique(observed, params);
      ADD_FAILURE() << "pools " << params.seed_pool << ", "
                    << params.extension_pool << " were accepted";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string{error.what()}.find(
                    std::to_string(kMaxCliquePool)),
                std::string::npos)
          << error.what();
    }
  }
  EXPECT_FALSE(infer_clique(observed, {14, kMaxCliquePool}).empty());
}

// ----------------------------------------------------------------- asrank --

TEST(AsRank, LabelsEveryVisibleLink) {
  const auto& scenario = test::shared_scenario();
  const auto result = run_asrank(scenario.observed());
  EXPECT_EQ(result.inference.size(), scenario.observed().link_count());
}

TEST(AsRank, Deterministic) {
  const auto& scenario = test::shared_scenario();
  const auto a = run_asrank(scenario.observed());
  const auto b = run_asrank(scenario.observed());
  EXPECT_EQ(a.clique, b.clique);
  EXPECT_EQ(a.inference.agreement_with(b.inference), 1.0);
}

TEST(AsRank, CliqueMeshInferredAsPeering) {
  const auto& scenario = test::shared_scenario();
  const auto result = run_asrank(scenario.observed());
  for (std::size_t i = 0; i < result.clique.size(); ++i) {
    for (std::size_t j = i + 1; j < result.clique.size(); ++j) {
      const auto* rel =
          result.inference.find(val::AsLink{result.clique[i],
                                            result.clique[j]});
      if (rel == nullptr) continue;
      EXPECT_EQ(rel->rel, topo::RelType::kP2P);
    }
  }
}

TEST(AsRank, TaggedPartialTransitLinksInferredAsPeering) {
  // The §6.1 mechanism: community-tagged customers of the Cogent analogue
  // lack clique triplets and must overwhelmingly be inferred P2P.
  const auto& scenario = test::shared_scenario();
  const auto& world = scenario.world();
  const auto result = run_asrank(scenario.observed());
  int p2p = 0;
  int p2c = 0;
  for (const auto& edge : world.graph.edges()) {
    if (!edge.scope_via_community) continue;
    const auto* rel = result.inference.find(val::AsLink{
        world.graph.asn_of(edge.u), world.graph.asn_of(edge.v)});
    if (rel == nullptr) continue;
    rel->rel == topo::RelType::kP2P ? ++p2p : ++p2c;
  }
  ASSERT_GT(p2p + p2c, 0);
  EXPECT_GT(p2p, 2 * p2c);
}

TEST(AsRank, OrdinaryTier1CustomersInferredAsCustomers) {
  const auto& scenario = test::shared_scenario();
  const auto& world = scenario.world();
  const auto result = run_asrank(scenario.observed());
  std::unordered_set<Asn> clique(world.clique.begin(), world.clique.end());
  int correct = 0;
  int wrong = 0;
  for (const auto& edge : world.graph.edges()) {
    if (edge.rel != topo::RelType::kP2C) continue;
    if (edge.scope != topo::ExportScope::kFull) continue;
    const Asn provider = world.graph.asn_of(edge.u);
    const Asn customer = world.graph.asn_of(edge.v);
    if (!clique.contains(provider)) continue;
    if (world.attrs.at(customer).tier == topo::Tier::kStub) continue;
    const auto* rel = result.inference.find(val::AsLink{provider, customer});
    if (rel == nullptr) continue;
    const bool ok =
        rel->rel == topo::RelType::kP2C && rel->provider == provider;
    ok ? ++correct : ++wrong;
  }
  ASSERT_GT(correct, 0);
  EXPECT_GT(correct, 4 * wrong);
}

TEST(AsRank, OverallAccuracyAgainstGroundTruth) {
  const auto& scenario = test::shared_scenario();
  const auto& world = scenario.world();
  const auto result = run_asrank(scenario.observed());
  std::size_t correct = 0;
  std::size_t total = 0;
  for (const auto& link : scenario.observed().link_order()) {
    const auto edge_id = world.graph.find_edge(link.a, link.b);
    if (!edge_id) continue;
    const auto& edge = world.graph.edge(*edge_id);
    if (edge.hybrid_rel || edge.rel == topo::RelType::kS2S) continue;
    const auto* rel = result.inference.find(link);
    ASSERT_NE(rel, nullptr);
    ++total;
    if (rel->rel == edge.rel &&
        (edge.rel != topo::RelType::kP2C ||
         rel->provider == world.graph.asn_of(edge.u))) {
      ++correct;
    }
  }
  ASSERT_GT(total, 1000u);
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(total), 0.9);
}

TEST(AsRank, SubsetModeLabelsOnlySubsetLinks) {
  const auto& scenario = test::shared_scenario();
  std::vector<std::uint32_t> half;
  for (std::uint32_t p = 0; p < scenario.observed().path_count(); p += 2) {
    half.push_back(p);
  }
  const auto global = run_asrank(scenario.observed());
  const auto subset = run_asrank_subset(scenario.observed(), {}, half,
                                        global.clique);
  EXPECT_LT(subset.inference.size(), global.inference.size());
  EXPECT_GT(subset.inference.size(), 0u);
}

TEST(AsRank, ManyLinksLabelLikeFewLinks) {
  // Regression test for worlds above 32,768 links, whose directed slots
  // need more than 16 bits. Adding a far-away star of 33,000 one-hop paths
  // behind one more VP goes past that count without changing anything
  // ASRank reads for the original links: the star is transit-free, each of
  // its first hops covers one origin, and going from 11 to 12 VPs keeps the
  // "widely seen" cut at 3 VPs. So both worlds must label the original
  // links alike.
  topo::TopologyParams topo_params;
  topo_params.as_count = 400;
  topo_params.seed = 5;
  const topo::World world = topo::generate(topo_params);
  bgp::VantageParams vantage_params;
  vantage_params.target_count = 11;
  auto vps = bgp::select_vantage_points(world, vantage_params);
  ASSERT_GE(vps.size(), 11u);
  vps.resize(11);
  const bgp::Propagator propagator{world, bgp::PropagationParams{}};
  const auto table = bgp::collect_paths(propagator, vps);

  // The star goes first (origin 0), so the original links get the high
  // ids whose slots do not fit in 16 bits.
  bgp::PathTable wide;
  auto wide_vps = vps;
  const Asn hub{4100000000u};
  wide_vps.push_back({hub, true, false});
  wide.set_vantage_points(wide_vps);
  wide.resize_origins(table.origin_count() + 1);
  constexpr std::uint32_t kStarPaths = 33000;
  for (std::uint32_t k = 1; k <= kStarPaths; ++k) {
    const std::vector<Asn> path{hub, Asn{hub.value() + k}};
    wide.add_path(0, 11, path);
  }
  table.for_each_path([&](const bgp::PathTable::PathRef& ref) {
    wide.add_path(ref.origin + 1, ref.vp_index, ref.path);
  });
  wide.recount();

  const auto narrow_observed = ObservedPaths::build(table);
  const auto wide_observed = ObservedPaths::build(wide);
  ASSERT_LE(2 * narrow_observed.link_count(), 65536u);
  ASSERT_GT(2 * wide_observed.link_count(), 65536u);

  const auto same_labels = [](const Inference& narrow, const Inference& wide) {
    for (const auto& link : narrow.order()) {
      const auto* a = narrow.find(link);
      const auto* b = wide.find(link);
      ASSERT_NE(b, nullptr);
      EXPECT_EQ(a->rel, b->rel) << link.a.value() << "-" << link.b.value();
      EXPECT_EQ(a->provider, b->provider);
    }
  };
  const auto narrow = run_asrank(narrow_observed);
  const auto wide_result = run_asrank(wide_observed);
  EXPECT_EQ(wide_result.clique, narrow.clique);
  EXPECT_EQ(wide_result.passes_used, narrow.passes_used);
  EXPECT_EQ(wide_result.inference.size(), wide_observed.link_count());
  same_labels(narrow.inference, wide_result.inference);

  // Subset runs over every third original path.
  std::vector<std::uint32_t> subset;
  std::vector<std::uint32_t> wide_ids;
  for (std::uint32_t p = 0; p < narrow_observed.path_count(); p += 3) {
    subset.push_back(p);
    wide_ids.push_back(p + kStarPaths);
  }
  const auto narrow_subset =
      run_asrank_subset(narrow_observed, {}, subset, narrow.clique);
  const auto wide_subset =
      run_asrank_subset(wide_observed, {}, wide_ids, narrow.clique);
  EXPECT_EQ(wide_subset.inference.order(), narrow_subset.inference.order());
  same_labels(narrow_subset.inference, wide_subset.inference);
}

// -------------------------------------------------------------------- gao --

TEST(Gao, LabelsEverythingAndIsDeterministic) {
  const auto& scenario = test::shared_scenario();
  const auto a = run_gao(scenario.observed());
  const auto b = run_gao(scenario.observed());
  EXPECT_EQ(a.size(), scenario.observed().link_count());
  EXPECT_EQ(a.agreement_with(b), 1.0);
}

TEST(Gao, ReasonableAgreementWithAsRank) {
  const auto& scenario = test::shared_scenario();
  const auto gao = run_gao(scenario.observed());
  const auto asrank = run_asrank(scenario.observed());
  EXPECT_GT(gao.agreement_with(asrank.inference), 0.6);
}

// --------------------------------------------------------------- problink --

TEST(ProbLink, ConvergesAndLabelsEverything) {
  const auto& scenario = test::shared_scenario();
  const auto asrank = run_asrank(scenario.observed());
  const auto result =
      run_problink(scenario.observed(), asrank, scenario.validation());
  EXPECT_EQ(result.inference.size(), scenario.observed().link_count());
  EXPECT_GT(result.training_links, 100u);
  EXPECT_GT(result.iterations_used, 0);
}

TEST(ProbLink, Deterministic) {
  const auto& scenario = test::shared_scenario();
  const auto asrank = run_asrank(scenario.observed());
  const auto a =
      run_problink(scenario.observed(), asrank, scenario.validation());
  const auto b =
      run_problink(scenario.observed(), asrank, scenario.validation());
  EXPECT_EQ(a.inference.agreement_with(b.inference), 1.0);
}

TEST(ProbLink, ThreadCountDoesNotChangeLabelsOrConfidence) {
  // The path sweeps split the paths into one chunk per thread; on the tiny
  // table, eight threads leave some chunks empty.
  const auto tiny = ObservedPaths::build(tiny_table(), nullptr);
  val::CleanLabel customer;
  customer.link = val::AsLink{Asn{2}, Asn{3}};
  customer.rel = topo::RelType::kP2C;
  customer.provider = Asn{2};
  val::CleanLabel peer;
  peer.link = val::AsLink{Asn{1}, Asn{2}};
  const std::vector<val::CleanLabel> tiny_training{customer, peer};
  ASSERT_LT(tiny.path_count(), 8u);

  const auto& scenario = test::shared_scenario();
  const std::vector<std::pair<const ObservedPaths*,
                              std::span<const val::CleanLabel>>>
      cases{{&scenario.observed(), scenario.validation()},
            {&tiny, tiny_training}};
  for (const auto& [observed, training] : cases) {
    const auto asrank = run_asrank(*observed);
    ProbLinkParams params;
    params.threads = 1;
    const auto serial = run_problink(*observed, asrank, training, params);
    ASSERT_EQ(serial.confidence.size(), observed->link_count());
    for (const unsigned threads : {2u, 3u, 8u}) {
      params.threads = threads;
      const auto parallel = run_problink(*observed, asrank, training, params);
      EXPECT_EQ(parallel.iterations_used, serial.iterations_used) << threads;
      EXPECT_EQ(parallel.confidence, serial.confidence) << threads;
      ASSERT_EQ(parallel.inference.order(), serial.inference.order());
      for (const auto& link : serial.inference.order()) {
        const auto* want = serial.inference.find(link);
        const auto* got = parallel.inference.find(link);
        EXPECT_EQ(got->rel, want->rel) << threads;
        EXPECT_EQ(got->provider, want->provider) << threads;
      }
    }
  }
}

TEST(ProbLink, StaysCloseToInitialLabeling) {
  // ProbLink refines ASRank; it should not rewrite the world wholesale.
  const auto& scenario = test::shared_scenario();
  const auto asrank = run_asrank(scenario.observed());
  const auto result =
      run_problink(scenario.observed(), asrank, scenario.validation());
  EXPECT_GT(result.inference.agreement_with(asrank.inference), 0.7);
}

// -------------------------------------------------------------- toposcope --

TEST(TopoScope, UsesRequestedGroups) {
  const auto& scenario = test::shared_scenario();
  const auto asrank = run_asrank(scenario.observed());
  TopoScopeParams params;
  params.vp_groups = 4;
  const auto result = run_toposcope(scenario.observed(), asrank,
                                    scenario.validation(), params);
  EXPECT_EQ(result.groups_used, 4);
  EXPECT_EQ(result.inference.size(), scenario.observed().link_count());
}

TEST(TopoScope, HiddenLinksAreActuallyHidden) {
  const auto& scenario = test::shared_scenario();
  for (const auto& hidden : predict_hidden_links(scenario.observed())) {
    EXPECT_EQ(scenario.observed().find_link(hidden.link), kNoLink);
    EXPECT_GT(hidden.confidence, 0.0);
    EXPECT_LE(hidden.confidence, 1.0);
  }
}

TEST(TopoScope, SomeHiddenLinksAreRealGroundTruthLinks) {
  // The whole point of the stage: links the collectors miss often exist.
  const auto& scenario = test::shared_scenario();
  const auto hidden_links = predict_hidden_links(scenario.observed());
  if (hidden_links.empty()) GTEST_SKIP() << "no hidden predictions";
  std::size_t real = 0;
  for (const auto& hidden : hidden_links) {
    if (scenario.world().graph.find_edge(hidden.link.a, hidden.link.b)) {
      ++real;
    }
  }
  EXPECT_GT(real, 0u);
}

TEST(TopoScope, Deterministic) {
  const auto& scenario = test::shared_scenario();
  const auto asrank = run_asrank(scenario.observed());
  const auto a =
      run_toposcope(scenario.observed(), asrank, scenario.validation());
  const auto b =
      run_toposcope(scenario.observed(), asrank, scenario.validation());
  EXPECT_EQ(a.inference.agreement_with(b.inference), 1.0);

  // Hidden links from a serially rebuilt view match, link and confidence.
  const auto hidden_a = predict_hidden_links(scenario.observed());
  const auto hidden_b = predict_hidden_links(
      ObservedPaths::build(scenario.paths(), nullptr, 1));
  ASSERT_EQ(hidden_a.size(), hidden_b.size());
  for (std::size_t i = 0; i < hidden_a.size(); ++i) {
    EXPECT_EQ(hidden_a[i].link, hidden_b[i].link) << i;
    EXPECT_EQ(hidden_a[i].confidence, hidden_b[i].confidence) << i;
  }
}

// ---------------------------------------------------------------- common --

TEST(Inference, AgreementWithSelfIsOne) {
  Inference inference;
  InferredRel rel;
  rel.rel = topo::RelType::kP2P;
  inference.set(val::AsLink{Asn{1}, Asn{2}}, rel);
  EXPECT_EQ(inference.agreement_with(inference), 1.0);
}

TEST(Inference, SetOverwrites) {
  Inference inference;
  InferredRel rel;
  rel.rel = topo::RelType::kP2P;
  inference.set(val::AsLink{Asn{1}, Asn{2}}, rel);
  rel.rel = topo::RelType::kP2C;
  rel.provider = Asn{1};
  inference.set(val::AsLink{Asn{1}, Asn{2}}, rel);
  EXPECT_EQ(inference.size(), 1u);
  EXPECT_EQ(inference.find(val::AsLink{Asn{1}, Asn{2}})->rel,
            topo::RelType::kP2C);
}

}  // namespace
}  // namespace asrel::infer

namespace asrel::infer {
namespace {

TEST(ProbLink, ConfidenceCoversAllLinksAndIsCalibratedish) {
  const auto& scenario = test::shared_scenario();
  const auto asrank = run_asrank(scenario.observed());
  const auto result =
      run_problink(scenario.observed(), asrank, scenario.validation());
  ASSERT_EQ(result.confidence.size(), scenario.observed().link_count());
  double low = 1.0;
  for (const auto& [link, confidence] : result.confidence) {
    EXPECT_GE(confidence, 1.0 / 3.0 - 1e-9);  // argmax of a 3-class softmax
    EXPECT_LE(confidence, 1.0 + 1e-9);
    low = std::min(low, confidence);
  }
  // Hard links exist: not everything is certain.
  EXPECT_LT(low, 0.9);
}

}  // namespace
}  // namespace asrel::infer
