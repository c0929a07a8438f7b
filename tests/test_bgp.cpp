#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_set>

#include "bgp/community.hpp"
#include "bgp/propagation.hpp"
#include "bgp/vantage.hpp"
#include "test_support.hpp"
#include "testing/naive_propagator.hpp"
#include "testing/prng.hpp"

namespace asrel::bgp {
namespace {

using asn::Asn;
using test::micro_world;
using test::MicroWorld;

// ------------------------------------------------------------ communities --

TEST(Community, PartsAndFormat) {
  const Community c{3356, 666};
  EXPECT_EQ(c.high(), 3356);
  EXPECT_EQ(c.low(), 666);
  EXPECT_EQ(to_string(c), "3356:666");
}

TEST(Community, ParseRoundTrip) {
  const auto c = parse_community("174:990");
  ASSERT_TRUE(c);
  EXPECT_EQ(*c, (Community{174, 990}));
  EXPECT_EQ(parse_community(to_string(*c)), c);
}

TEST(Community, ParseRejects) {
  EXPECT_FALSE(parse_community("174"));
  EXPECT_FALSE(parse_community("174:"));
  EXPECT_FALSE(parse_community(":990"));
  EXPECT_FALSE(parse_community("70000:1"));
  EXPECT_FALSE(parse_community("174:70000"));
  EXPECT_FALSE(parse_community("a:b"));
}

TEST(Community, WellKnownValues) {
  EXPECT_EQ(to_string(kBlackhole), "65535:666");
  EXPECT_EQ(to_string(kNoExport), "65535:65281");
}

TEST(LargeCommunity, ParseAndFormat) {
  const auto c = parse_large_community("3356:100:200");
  ASSERT_TRUE(c);
  EXPECT_EQ(c->global, 3356u);
  EXPECT_EQ(to_string(*c), "3356:100:200");
  EXPECT_FALSE(parse_large_community("3356:100"));
}

// ------------------------------------------------------------ propagation --

PropagationParams quiet_params() {
  PropagationParams params;
  params.enable_prepending = false;
  params.private_asn_leak = 0.0;
  params.threads = 1;
  return params;
}

TEST(Propagation, CustomerRouteClimbsProviders) {
  const MicroWorld mw = micro_world();
  const Propagator prop{mw.world, quiet_params()};
  const auto rib = prop.propagate(mw.s1);
  // S1 -> M1 -> L1 -> T1a: everyone on the chain has a customer route.
  for (const Asn asn : {mw.m1, mw.l1, mw.t1a}) {
    const auto node = *mw.world.graph.node_of(asn);
    EXPECT_EQ(rib.pref[node], static_cast<std::uint8_t>(RoutePref::kCustomer));
  }
}

TEST(Propagation, PeerRouteDoesNotChain) {
  const MicroWorld mw = micro_world();
  const Propagator prop{mw.world, quiet_params()};
  const auto rib = prop.propagate(mw.s1);
  // T1b hears S1 via peer T1a; T1b's peer S4 must NOT receive that peer
  // route over the (S4, T1b) peering — S4 reaches S1 via its provider M4.
  const auto t1b = *mw.world.graph.node_of(mw.t1b);
  EXPECT_EQ(rib.pref[t1b], static_cast<std::uint8_t>(RoutePref::kPeer));
  const auto s4 = *mw.world.graph.node_of(mw.s4);
  EXPECT_EQ(rib.pref[s4], static_cast<std::uint8_t>(RoutePref::kProvider));
  EXPECT_EQ(rib.parent[s4], *mw.world.graph.node_of(mw.m4));
}

TEST(Propagation, EveryoneReachesEveryOrigin) {
  const MicroWorld mw = micro_world();
  const Propagator prop{mw.world, quiet_params()};
  for (const Asn origin : mw.world.graph.nodes()) {
    const auto rib = prop.propagate(origin);
    for (topo::NodeId node = 0; node < mw.world.graph.node_count(); ++node) {
      EXPECT_TRUE(rib.reachable(node))
          << "AS" << mw.world.graph.asn_of(node).value()
          << " cannot reach AS" << origin.value();
    }
  }
}

TEST(Propagation, PathReconstructionEndsAtOrigin) {
  const MicroWorld mw = micro_world();
  const Propagator prop{mw.world, quiet_params()};
  const auto rib = prop.propagate(mw.s3);
  const auto path = prop.path_at(rib, *mw.world.graph.node_of(mw.s1));
  ASSERT_GE(path.size(), 2u);
  EXPECT_EQ(path.front(), mw.s1);
  EXPECT_EQ(path.back(), mw.s3);
}

TEST(Propagation, PartialTransitHidesCustomerFromPeers) {
  const MicroWorld mw = micro_world();
  const Propagator prop{mw.world, quiet_params()};
  // L2 tags customers-only at T1a; T1a must not export L2's routes to its
  // peer T1b. But L2 is multihomed to T1b directly, so T1b still reaches it
  // as a customer route.
  const auto rib = prop.propagate(mw.s3);  // S3 sits under L2 (and L3)
  const auto t1b = *mw.world.graph.node_of(mw.t1b);
  EXPECT_TRUE(rib.reachable(t1b));
  // T1b's route must go via its own customers (L2 or L3), never via T1a.
  const auto path = prop.path_at(rib, t1b);
  for (const Asn hop : path) {
    EXPECT_NE(hop, mw.t1a);
  }
}

TEST(Propagation, PartialTransitCustomersOnlyOriginVisibility) {
  const MicroWorld mw = micro_world();
  const Propagator prop{mw.world, quiet_params()};
  // Routes ORIGINATED by L2 reach T1a (customer route) but T1a must not
  // give them to T1b; T1b uses its own customer link to L2.
  const auto rib = prop.propagate(mw.l2);
  const auto t1b = *mw.world.graph.node_of(mw.t1b);
  EXPECT_EQ(rib.parent[t1b], *mw.world.graph.node_of(mw.l2));
}

TEST(Propagation, ScopesCanBeDisabledForAblation) {
  const MicroWorld mw = micro_world();
  auto params = quiet_params();
  params.honor_export_scopes = false;
  const Propagator prop{mw.world, params};
  // With scopes ignored, T1b may hear L2's origin via peer T1a — but the
  // direct customer route still wins by preference. Check instead at the
  // path level for S1: nothing should change structurally. Just assert the
  // propagation remains total.
  const auto rib = prop.propagate(mw.l2);
  for (topo::NodeId node = 0; node < mw.world.graph.node_count(); ++node) {
    EXPECT_TRUE(rib.reachable(node));
  }
}

TEST(Propagation, ValleyFreePathsEverywhere) {
  // Property: every path collected at any VP is valley-free with respect to
  // the (hybrid-resolved) ground truth: ascending hops, at most one flat
  // peer hop, then descending hops. Sibling hops may appear anywhere.
  const MicroWorld mw = micro_world();
  const Propagator prop{mw.world, quiet_params()};
  const auto& graph = mw.world.graph;
  for (const Asn origin : graph.nodes()) {
    const auto rib = prop.propagate(origin);
    for (topo::NodeId node = 0; node < graph.node_count(); ++node) {
      const auto path = prop.path_at(rib, node);
      if (path.size() < 2) continue;
      // Phases: 0 = ascending (right is provider of left), 1 = peer used,
      // 2 = descending.
      int phase = 0;
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        const auto edge_id = graph.find_edge(path[i], path[i + 1]);
        ASSERT_TRUE(edge_id);
        const auto rel = prop.effective_rel(graph.edge(*edge_id), origin);
        if (rel == topo::RelType::kS2S) continue;
        if (rel == topo::RelType::kP2P) {
          EXPECT_EQ(phase, 0) << "peer hop after the peak";
          phase = 2;
          continue;
        }
        const auto& edge = graph.edge(*edge_id);
        const bool left_is_provider = graph.asn_of(edge.u) == path[i];
        if (phase == 0 && !left_is_provider) continue;  // still ascending
        EXPECT_TRUE(left_is_provider) << "ascent after descent";
        phase = 2;
      }
    }
  }
}

TEST(Propagation, DeterministicAcrossThreadCounts) {
  core::ScenarioParams params;
  params.topology.as_count = 800;
  params.vantage.target_count = 40;
  params.propagation.threads = 1;
  const auto single = core::Scenario::build(params);
  params.propagation.threads = 4;
  const auto multi = core::Scenario::build(params);
  EXPECT_EQ(single->paths().path_count(), multi->paths().path_count());
  EXPECT_EQ(single->observed().link_count(), multi->observed().link_count());
  EXPECT_EQ(single->raw_validation().size(), multi->raw_validation().size());
}

TEST(Propagation, PrependingInflatesPathsDeterministically) {
  const auto& world = test::shared_scenario().world();
  PropagationParams params;
  params.threads = 1;
  const Propagator prop{world, params};
  // prepend_count must be deterministic and bounded.
  const Asn origin = world.graph.nodes()[0];
  for (topo::NodeId node = 0; node < 100; ++node) {
    const auto a = prop.prepend_count(node, origin);
    const auto b = prop.prepend_count(node, origin);
    EXPECT_EQ(a, b);
    EXPECT_LE(a, 3u);
  }
}

TEST(Propagation, LeakedPrivateAsnIsPrivate) {
  const auto& world = test::shared_scenario().world();
  PropagationParams params;
  params.private_asn_leak = 1.0;  // force leaks
  const Propagator prop{world, params};
  const auto leak = prop.leaked_private_asn(world.graph.nodes()[0]);
  ASSERT_TRUE(leak);
  EXPECT_TRUE(asn::is_private_use(*leak));
}

// A random world of 30-150 ASes for the naive-reference comparison: a
// peering core, providers drawn mostly from lower-numbered ASes (a few
// backward P2C links make provider cycles), peers, siblings, hybrid links,
// both restricted export scopes and heavy prepending. ASNs mix 16- and
// 32-bit so legacy sessions mangle, and one VP is absent from the graph.
struct RandomWorld {
  topo::World world;
  std::vector<VantagePoint> vps;
  PropagationParams params;
};

RandomWorld random_world(std::uint64_t seed) {
  asrel::testing::Rng rng{seed};
  RandomWorld out;
  auto& graph = out.world.graph;
  const auto n = static_cast<std::uint32_t>(rng.range(30, 150));
  std::vector<Asn> asns;
  for (std::uint32_t i = 0; i < n; ++i) {
    const Asn asn{rng.chance(0.3) ? 131072 + i : 1000 + i};
    out.world.attrs[asn].prepend_propensity =
        rng.pick(std::vector<double>{0.0, 0.0, 0.3, 0.7});
    graph.add_node(asn);
    asns.push_back(asn);
  }
  const auto random_edge = [&](std::uint32_t a, std::uint32_t b,
                               topo::RelType rel) {
    topo::Edge proto;
    proto.rel = rel;
    if (rel == topo::RelType::kP2C) {
      proto.scope = rng.pick(std::vector<topo::ExportScope>{
          topo::ExportScope::kFull, topo::ExportScope::kFull,
          topo::ExportScope::kFull, topo::ExportScope::kNoProviders,
          topo::ExportScope::kCustomersOnly});
      proto.scope_via_community = rng.chance(0.5);
    }
    if (rng.chance(0.12)) {
      proto.hybrid_rel = rel == topo::RelType::kP2C ? topo::RelType::kP2P
                                                    : topo::RelType::kP2C;
    }
    graph.add_edge(asns[a], asns[b], proto);  // duplicates are refused
  };
  const std::uint32_t core = std::min<std::uint32_t>(5, n / 6);
  for (std::uint32_t a = 0; a < core; ++a) {
    for (std::uint32_t b = a + 1; b < core; ++b) {
      random_edge(a, b, topo::RelType::kP2P);
    }
  }
  for (std::uint32_t i = core; i < n; ++i) {
    for (auto k = rng.range(1, 3); k > 0; --k) {
      random_edge(static_cast<std::uint32_t>(rng.below(i)), i,
                  topo::RelType::kP2C);
    }
  }
  const auto any = [&] { return static_cast<std::uint32_t>(rng.below(n)); };
  for (std::uint32_t k = 0; k < n / 20; ++k) {
    random_edge(any(), any(), topo::RelType::kP2C);
  }
  for (std::uint32_t k = 0; k < n / 2; ++k) {
    random_edge(any(), any(), topo::RelType::kP2P);
  }
  for (std::uint32_t k = 0; k < n / 15; ++k) {
    random_edge(any(), any(), topo::RelType::kS2S);
  }
  for (const Asn asn : asns) {
    if (!rng.chance(0.3)) continue;
    out.vps.push_back({asn, rng.chance(0.6), rng.chance(0.3)});
  }
  out.vps.insert(out.vps.begin() + static_cast<std::ptrdiff_t>(
                                       rng.below(out.vps.size() + 1)),
                 VantagePoint{Asn{999}, true, false});
  out.params.private_asn_leak = 0.3;
  out.params.legacy_mangle = 0.5;
  out.params.honor_export_scopes = seed % 7 != 0;
  out.params.salt = rng.next();
  out.params.threads = 1 + static_cast<unsigned>(seed % 3);
  return out;
}

TEST(Propagation, MatchesNaiveReference) {
  std::size_t hybrid = 0, no_providers = 0, customers_only = 0;
  std::size_t prepended = 0, leaked = 0, mangled = 0, partial_feed = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const RandomWorld rw = random_world(seed);
    const auto& graph = rw.world.graph;
    for (const auto& edge : graph.edges()) {
      hybrid += edge.is_hybrid() ? 1 : 0;
      no_providers += edge.scope == topo::ExportScope::kNoProviders ? 1 : 0;
      customers_only +=
          edge.scope == topo::ExportScope::kCustomersOnly ? 1 : 0;
    }
    const Propagator prop{rw.world, rw.params};
    const PathTable table = collect_paths(prop, rw.vps);
    const auto vps = table.vantage_points();
    for (topo::NodeId origin = 0; origin < graph.node_count(); ++origin) {
      const Asn origin_asn = graph.asn_of(origin);
      const OriginRib rib = prop.propagate(origin_asn);
      const OriginRib want = asrel::testing::naive_propagate(prop, origin_asn);
      const auto where = [&] {
        return "seed " + std::to_string(seed) + ", origin AS" +
               std::to_string(origin_asn.value());
      };
      ASSERT_EQ(rib.origin, want.origin) << where();
      ASSERT_EQ(rib.parent, want.parent) << where();
      ASSERT_EQ(rib.via_edge, want.via_edge) << where();
      ASSERT_EQ(rib.pref, want.pref) << where();
      ASSERT_EQ(rib.dist, want.dist) << where();

      const auto paths = asrel::testing::naive_harvest(prop, want, rw.vps);
      ASSERT_EQ(table.origin_path_count(origin), paths.size()) << where();
      std::size_t i = 0;
      table.for_each_path_of(origin, [&](const PathTable::PathRef& ref) {
        const auto& expected = paths[i++];
        EXPECT_EQ(ref.vp_index, expected.vp_index) << where();
        EXPECT_TRUE(std::ranges::equal(ref.path, expected.path)) << where();
        const auto& vp = vps[ref.vp_index];
        partial_feed += vp.full_feed ? 0 : 1;
        mangled += std::ranges::count(ref.path, asn::kAsTrans) > 0 ? 1 : 0;
        leaked += asn::is_private_use(ref.path.back()) ? 1 : 0;
        prepended +=
            std::ranges::adjacent_find(ref.path) != ref.path.end() ? 1 : 0;
      });
    }
  }
  // The worlds exercise every mechanism the oracle models.
  EXPECT_GT(hybrid, 100u);
  EXPECT_GT(no_providers, 100u);
  EXPECT_GT(customers_only, 100u);
  EXPECT_GT(prepended, 1000u);
  EXPECT_GT(leaked, 1000u);
  EXPECT_GT(mangled, 100u);
  EXPECT_GT(partial_feed, 1000u);
}

TEST(Propagation, UnaffectedVerdictsMatchTheNaiveReference) {
  // rib_affected's "unaffected" must be exact: an origin it lets the
  // stream skip re-propagates, on the mutated graph, to its old rib.
  std::size_t skipped = 0;
  std::size_t redone = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    RandomWorld rw = random_world(seed);
    auto& graph = rw.world.graph;
    Propagator prop{rw.world, rw.params};
    asrel::testing::Rng rng{seed ^ 0xD1CEull};
    for (int step = 0; step < 8; ++step) {
      std::vector<OriginRib> ribs;
      for (topo::NodeId origin = 0; origin < graph.node_count(); ++origin) {
        ribs.push_back(prop.propagate(graph.asn_of(origin)));
      }
      const auto id = static_cast<topo::EdgeId>(rng.below(graph.edge_count()));
      const topo::Edge& edge = graph.edge(id);
      const auto any_asn = [&] {
        return graph.asn_of(
            static_cast<topo::NodeId>(rng.below(graph.node_count())));
      };
      std::optional<topo::EdgeId> touched;
      switch (step % 4) {
        case 0:
          if (graph.remove_edge(id)) touched = id;
          break;
        case 1:
          if (graph.set_edge_rel(id,
                                 rng.chance(0.5) ? topo::RelType::kP2C
                                                 : topo::RelType::kP2P,
                                 rng.chance(0.5) ? edge.u : edge.v)) {
            touched = id;
          }
          break;
        case 2:
          if (graph.set_edge_scope(id,
                                   rng.chance(0.5)
                                       ? topo::ExportScope::kNoProviders
                                       : topo::ExportScope::kCustomersOnly,
                                   false)) {
            touched = id;
          }
          break;
        default:
          touched = graph.add_edge(any_asn(), any_asn(), topo::RelType::kP2P);
          break;
      }
      if (!touched) continue;
      prop.rebuild_adjacency();
      for (const auto& rib : ribs) {
        if (prop.rib_affected(rib, std::span{&*touched, 1})) {
          ++redone;
          continue;
        }
        ++skipped;
        const OriginRib want =
            asrel::testing::naive_propagate(prop, graph.asn_of(rib.origin));
        ASSERT_EQ(rib.parent, want.parent) << "seed " << seed;
        ASSERT_EQ(rib.via_edge, want.via_edge) << "seed " << seed;
        ASSERT_EQ(rib.pref, want.pref) << "seed " << seed;
        ASSERT_EQ(rib.dist, want.dist) << "seed " << seed;
      }
    }
  }
  EXPECT_GT(skipped, 1000u);
  EXPECT_GT(redone, 100u);
}

// A sink has no sibling, customer or hybrid link, so it exports to no one
// (propagate() records its best offer without queueing it).
bool is_sink(const topo::AsGraph& graph, topo::NodeId node) {
  return std::ranges::none_of(graph.neighbors(node), [&](const auto& nb) {
    return graph.edge(nb.edge).is_hybrid() ||
           nb.role == topo::Neighbor::Role::kProvider ||
           nb.role == topo::Neighbor::Role::kSibling;
  });
}

TEST(Propagation, SinkMaskFollowsEdgeMutations) {
  // The sink mask is rebuilt with the adjacency: a sink that gains a
  // customer must be queued again, and a provider that loses its last
  // customer must stop being queued. Both propagate() and collect_paths
  // (whose unread mask leaves non-VP sinks out) must match the oracle in
  // every state.
  std::size_t to_core = 0, to_sink = 0, sink_origins = 0;
  std::size_t full_sink_vps = 0, partial_sink_vps = 0;
  std::size_t sink_peer_routes = 0, sink_tie_wins = 0;
  const auto peer = static_cast<std::uint8_t>(RoutePref::kPeer);
  const auto provider = static_cast<std::uint8_t>(RoutePref::kProvider);
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    RandomWorld rw = random_world(seed);
    auto& graph = rw.world.graph;
    const topo::NodeId n = graph.node_count();
    Propagator prop{rw.world, rw.params};
    asrel::testing::Rng rng{seed ^ 0x51DEull};
    const auto check = [&](int step) {
      std::vector<bool> sink(n);
      for (topo::NodeId node = 0; node < n; ++node) {
        sink[node] = is_sink(graph, node);
      }
      for (const auto& vp : resolve_vp_sessions(graph, rw.vps)) {
        if (!sink[vp.node]) continue;
        ++(vp.full_feed ? full_sink_vps : partial_sink_vps);
      }
      const PathTable table = collect_paths(prop, rw.vps);
      for (topo::NodeId origin = 0; origin < n; ++origin) {
        const Asn origin_asn = graph.asn_of(origin);
        const auto where = [&] {
          return "seed " + std::to_string(seed) + ", step " +
                 std::to_string(step) + ", origin AS" +
                 std::to_string(origin_asn.value());
        };
        const OriginRib rib = prop.propagate(origin_asn);
        const OriginRib want =
            asrel::testing::naive_propagate(prop, origin_asn);
        ASSERT_EQ(rib.parent, want.parent) << where();
        ASSERT_EQ(rib.via_edge, want.via_edge) << where();
        ASSERT_EQ(rib.pref, want.pref) << where();
        ASSERT_EQ(rib.dist, want.dist) << where();
        sink_origins += sink[origin] ? 1 : 0;
        for (topo::NodeId node = 0; node < n; ++node) {
          if (!sink[node] || node == origin) continue;
          sink_peer_routes += want.pref[node] == peer ? 1 : 0;
          if (want.pref[node] != provider) continue;
          // Providers whose export reaches this sink at its own length.
          std::size_t tied = 0;
          for (const auto& nb : graph.neighbors(node)) {
            if (nb.role != topo::Neighbor::Role::kCustomer) continue;
            tied += want.reachable(nb.node) &&
                            want.dist[nb.node] + 1 +
                                    prop.prepend_count(nb.node, origin_asn) ==
                                want.dist[node]
                        ? 1
                        : 0;
          }
          sink_tie_wins += tied >= 2 ? 1 : 0;
        }

        const auto paths = asrel::testing::naive_harvest(prop, want, rw.vps);
        ASSERT_EQ(table.origin_path_count(origin), paths.size()) << where();
        std::size_t i = 0;
        table.for_each_path_of(origin, [&](const PathTable::PathRef& ref) {
          EXPECT_EQ(ref.vp_index, paths[i].vp_index) << where();
          EXPECT_TRUE(std::ranges::equal(ref.path, paths[i].path)) << where();
          ++i;
        });
      }
    };
    check(0);
    for (int step = 1; step <= 6; ++step) {
      const auto pick = [&](bool want_sink) {
        std::vector<topo::NodeId> nodes;
        for (topo::NodeId node = 0; node < n; ++node) {
          if (is_sink(graph, node) == want_sink) nodes.push_back(node);
        }
        return nodes.empty() ? topo::kInvalidNode : rng.pick(nodes);
      };
      if (step % 2 == 1) {
        // A sink becomes a provider: of a neighbour it already has, or of
        // a new customer.
        const topo::NodeId node = pick(true);
        ASSERT_NE(node, topo::kInvalidNode);
        const auto neighbors = graph.neighbors(node);
        if (!neighbors.empty() && rng.chance(0.5)) {
          const topo::EdgeId id = neighbors[rng.below(neighbors.size())].edge;
          ASSERT_TRUE(graph.set_edge_rel(id, topo::RelType::kP2C, node));
        } else {
          std::optional<topo::EdgeId> added;
          while (!added) {
            added = graph.add_edge(
                graph.asn_of(node),
                graph.asn_of(static_cast<topo::NodeId>(rng.below(n))),
                topo::RelType::kP2C);
          }
        }
        prop.rebuild_adjacency();
        ASSERT_FALSE(is_sink(graph, node)) << "seed " << seed;
        ++to_core;
      } else {
        // A transit AS loses every customer, sibling and hybrid link:
        // removed, or turned into peering or a link to a new provider.
        const topo::NodeId node = pick(false);
        ASSERT_NE(node, topo::kInvalidNode);
        const std::vector<topo::Neighbor> neighbors(
            graph.neighbors(node).begin(), graph.neighbors(node).end());
        for (const auto& nb : neighbors) {
          if (!graph.edge(nb.edge).is_hybrid() &&
              nb.role != topo::Neighbor::Role::kProvider &&
              nb.role != topo::Neighbor::Role::kSibling) {
            continue;
          }
          switch (rng.below(3)) {
            case 0:
              ASSERT_TRUE(graph.remove_edge(nb.edge));
              break;
            case 1:
              ASSERT_TRUE(graph.set_edge_rel(nb.edge, topo::RelType::kP2P,
                                             node));
              break;
            default:
              ASSERT_TRUE(graph.set_edge_rel(nb.edge, topo::RelType::kP2C,
                                             nb.node));
              break;
          }
        }
        prop.rebuild_adjacency();
        ASSERT_TRUE(is_sink(graph, node)) << "seed " << seed;
        ++to_sink;
      }
      check(step);
    }
  }
  EXPECT_GT(to_core, 30u);
  EXPECT_GT(to_sink, 30u);
  EXPECT_GT(sink_origins, 1000u);
  EXPECT_GT(full_sink_vps, 50u);
  EXPECT_GT(partial_sink_vps, 50u);
  EXPECT_GT(sink_peer_routes, 1000u);
  EXPECT_GT(sink_tie_wins, 1000u);
}

void expect_same_rib(const OriginRib& a, const OriginRib& b) {
  EXPECT_EQ(a.origin, b.origin);
  EXPECT_EQ(a.parent, b.parent);
  EXPECT_EQ(a.via_edge, b.via_edge);
  EXPECT_EQ(a.pref, b.pref);
  EXPECT_EQ(a.dist, b.dist);
}

TEST(Propagation, RefusesAGraphMutatedAfterConstruction) {
  MicroWorld mw = micro_world();
  auto& graph = mw.world.graph;
  Propagator prop{mw.world, quiet_params()};
  const auto m1_m2 = *graph.find_edge(mw.m1, mw.m2);
  const auto l1_m1 = *graph.find_edge(mw.l1, mw.m1);
  const std::vector<topo::Edge> edges{graph.edges().begin(),
                                      graph.edges().end()};
  // Every mutation path moves the generation; each stale propagate is
  // refused until the adjacency is rebuilt.
  const std::vector<std::function<void()>> mutations{
      [&] { ASSERT_TRUE(graph.remove_edge(m1_m2)); },
      [&] { ASSERT_TRUE(graph.add_edge(mw.m1, mw.m2, topo::RelType::kP2P)); },
      [&] {
        ASSERT_TRUE(graph.set_edge_rel(l1_m1, topo::RelType::kP2P,
                                       *graph.node_of(mw.l1)));
      },
      [&] {
        ASSERT_TRUE(graph.set_edge_rel(l1_m1, topo::RelType::kP2C,
                                       *graph.node_of(mw.l1)));
      },
      [&] {
        ASSERT_TRUE(graph.set_edge_scope(
            l1_m1, topo::ExportScope::kCustomersOnly, true));
      },
      [&] { graph.restore_edges(edges); },
      [&] { graph.mutable_edge(l1_m1).scope = topo::ExportScope::kFull; },
  };
  for (std::size_t i = 0; i < mutations.size(); ++i) {
    const auto generation = graph.generation();
    mutations[i]();
    EXPECT_NE(graph.generation(), generation) << "mutation " << i;
    EXPECT_THROW((void)prop.propagate(mw.s1), std::logic_error)
        << "mutation " << i;
    prop.rebuild_adjacency();
    expect_same_rib(prop.propagate(mw.s1),
                    Propagator{mw.world, quiet_params()}.propagate(mw.s1));
  }
  // A new node changes the node set the propagator was sized for.
  graph.add_node(Asn{999});
  EXPECT_THROW(prop.rebuild_adjacency(), std::logic_error);
}

TEST(Propagation, ScratchReuseIsStateless) {
  // One thread, one scratch: a larger world's origin in between must
  // leave no trace in the next rib of the smaller one. Both must match
  // a rib computed on a new thread, whose scratch starts empty.
  const MicroWorld mw = micro_world();
  const RandomWorld rw = random_world(3);
  const Propagator small{mw.world, quiet_params()};
  const Propagator large{rw.world, rw.params};
  OriginRib fresh;
  std::thread{[&] { fresh = small.propagate(mw.s3); }}.join();
  const OriginRib first = small.propagate(mw.s3);
  const OriginRib other = large.propagate(rw.world.graph.asn_of(7));
  ASSERT_GT(other.parent.size(), first.parent.size());
  const OriginRib again = small.propagate(mw.s3);
  expect_same_rib(fresh, first);
  expect_same_rib(first, again);
}

// ---------------------------------------------------------------- vantage --

TEST(Vantage, IncludesEveryCliqueMember) {
  const auto& scenario = test::shared_scenario();
  std::unordered_set<Asn> vps;
  for (const auto& vp : scenario.vantage_points()) vps.insert(vp.asn);
  for (const Asn member : scenario.world().clique)
    EXPECT_TRUE(vps.contains(member));
}

TEST(Vantage, RespectsTargetCount) {
  const auto& world = test::shared_scenario().world();
  VantageParams params;
  params.target_count = 50;
  const auto vps = select_vantage_points(world, params);
  EXPECT_EQ(vps.size(), 50u);
}

TEST(Vantage, DeterministicSelection) {
  const auto& world = test::shared_scenario().world();
  VantageParams params;
  const auto a = select_vantage_points(world, params);
  const auto b = select_vantage_points(world, params);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].asn, b[i].asn);
    EXPECT_EQ(a[i].full_feed, b[i].full_feed);
  }
}

TEST(Vantage, NoDuplicates) {
  const auto& scenario = test::shared_scenario();
  std::unordered_set<Asn> seen;
  for (const auto& vp : scenario.vantage_points()) {
    EXPECT_TRUE(seen.insert(vp.asn).second);
  }
}

// ------------------------------------------------------------- collection --

TEST(Collection, PathsStartAtVpAndEndAtOrigin) {
  const auto& scenario = test::shared_scenario();
  const auto vps = scenario.paths().vantage_points();
  std::size_t checked = 0;
  scenario.paths().for_each_path([&](const PathTable::PathRef& ref) {
    if (checked > 2000) return;
    // Legacy 16-bit sessions may show the VP itself as AS_TRANS.
    if (vps[ref.vp_index].legacy_16bit) return;
    ++checked;
    ASSERT_FALSE(ref.path.empty());
    EXPECT_EQ(ref.path.front(), vps[ref.vp_index].asn);
  });
  EXPECT_GT(checked, 0u);
}

TEST(Collection, PartialFeedsExportOnlyCustomerRoutes) {
  // A partial-feed VP's paths must all start with a customer/sibling route:
  // verify by recomputing the route preference for a sample.
  const auto& scenario = test::shared_scenario();
  const auto prop = scenario.propagator();
  const auto vps = scenario.paths().vantage_points();
  const auto& graph = scenario.world().graph;

  int checked = 0;
  scenario.paths().for_each_path([&](const PathTable::PathRef& ref) {
    if (checked >= 60) return;
    const auto& vp = vps[ref.vp_index];
    if (vp.full_feed || vp.legacy_16bit) return;
    if (ref.path.size() < 2) return;
    ++checked;
    const auto rib = prop.propagate(graph.asn_of(ref.origin));
    const auto vp_node = graph.node_of(vp.asn);
    ASSERT_TRUE(vp_node);
    EXPECT_EQ(rib.pref[*vp_node],
              static_cast<std::uint8_t>(RoutePref::kCustomer));
  });
  EXPECT_GT(checked, 0);
}

TEST(Collection, SerialAndParallelPathTablesByteIdentical) {
  // Thread striping must be invisible in the output: the serialized table
  // from a single-threaded run and a multi-threaded run have to match
  // byte for byte, not just in aggregate counts.
  topo::TopologyParams topo_params;
  topo_params.as_count = 700;
  topo_params.seed = 5;
  const topo::World world = topo::generate(topo_params);
  VantageParams vantage_params;
  vantage_params.target_count = 30;
  const auto vps = select_vantage_points(world, vantage_params);

  const auto serialize = [](const PathTable& table) {
    std::string out;
    table.for_each_path([&](const PathTable::PathRef& ref) {
      out += std::to_string(ref.vp_index);
      out += '/';
      out += std::to_string(ref.origin);
      for (const Asn asn : ref.path) {
        out += ':';
        out += std::to_string(asn.value());
      }
      out += '\n';
    });
    return out;
  };

  PropagationParams params;
  params.threads = 1;
  PathTable serial = collect_paths(Propagator{world, params}, vps);
  params.threads = 4;
  PathTable parallel = collect_paths(Propagator{world, params}, vps);
  serial.recount();
  parallel.recount();
  EXPECT_EQ(serial.path_count(), parallel.path_count());
  EXPECT_EQ(serialize(serial), serialize(parallel));
}

TEST(Collection, HarvestRefusesRibsWhoseChainsDoNotFallToTheOrigin) {
  // The harvest walks each VP's parent chain and sizes every path from the
  // rib's distances, so they must fall strictly along the chain and reach
  // 0 at the origin. A rib that breaks either rule is refused, never
  // written as a wrong path.
  const MicroWorld mw = micro_world();
  const auto& graph = mw.world.graph;
  const Propagator prop{mw.world, quiet_params()};
  const std::vector<VantagePoint> vps{{mw.s1, true, false}};
  const auto sessions = resolve_vp_sessions(graph, vps);
  const auto refusal = [&](const OriginRib& rib) -> std::string {
    PathTable table;
    table.resize_origins(graph.node_count());
    table.set_vantage_points(vps);
    try {
      harvest_origin(prop, rib, sessions, table);
    } catch (const std::logic_error& e) {
      return e.what();
    }
    return {};
  };

  const OriginRib rib = prop.propagate(mw.s3);
  ASSERT_GE(rib.dist[*graph.node_of(mw.s1)], 2);
  EXPECT_EQ(refusal(rib), "");

  OriginRib flat = rib;  // a parent no closer to the origin than its child
  for (auto& dist : flat.dist) {
    if (dist != 0 && dist < kMaxDist) dist = kMaxDist - 1;
  }
  EXPECT_NE(refusal(flat).find("broken parent chain"), std::string::npos);

  OriginRib lifted = rib;  // every distance one too long
  for (auto& dist : lifted.dist) {
    if (dist < kMaxDist - 1) ++dist;
  }
  EXPECT_NE(refusal(lifted).find("origin distance is not 0"),
            std::string::npos);
}

TEST(Collection, SinkVantagePointsKeepTheirPaths) {
  // collect_paths leaves sinks no collector reads unrouted, but a sink VP
  // keeps its path. T1 and T2 peer. T1 provides A, C and D; A provides
  // the origin O; C and D both provide Q and R; T2 provides P, which also
  // peers with A. So P learns O's route from its peer A, and Q picks
  // between C and D, whose offers are equally long.
  topo::World world;
  auto& graph = world.graph;
  const Asn t1{10}, t2{11}, a{20}, c{22}, d{23}, o{30}, p{40}, q{41}, r{42};
  for (const Asn asn : {t1, t2, a, c, d, o, p, q, r}) {
    world.attrs[asn].prepend_propensity = 0.0;
    graph.add_node(asn);
  }
  ASSERT_TRUE(graph.add_edge(t1, t2, topo::RelType::kP2P));
  for (const auto& [up, down] : std::vector<std::pair<Asn, Asn>>{
           {t1, a}, {t1, c}, {t1, d}, {a, o}, {t2, p},
           {c, q}, {d, q}, {c, r}, {d, r}}) {
    ASSERT_TRUE(graph.add_edge(up, down, topo::RelType::kP2C));
  }
  ASSERT_TRUE(graph.add_edge(a, p, topo::RelType::kP2P));
  const std::vector<VantagePoint> vps{
      {t1, true, false}, {p, true, false}, {q, true, false}, {a, false, false}};
  const Propagator prop{world, quiet_params()};
  const auto node = [&](Asn asn) { return *graph.node_of(asn); };
  for (const Asn sink : {o, p, q, r}) EXPECT_TRUE(is_sink(graph, node(sink)));

  const OriginRib from_o = prop.propagate(o);
  EXPECT_EQ(from_o.pref[node(p)], static_cast<std::uint8_t>(RoutePref::kPeer));
  EXPECT_EQ(from_o.parent[node(p)], node(a));
  EXPECT_EQ(from_o.pref[node(q)],
            static_cast<std::uint8_t>(RoutePref::kProvider));
  EXPECT_EQ(from_o.dist[node(c)], from_o.dist[node(d)]);
  // An unread flag drops a sink's route, the origin's excepted, and is
  // ignored on a transit AS.
  const std::vector<std::uint8_t> unread(graph.node_count(), 1);
  const OriginRib pruned = prop.propagate(o, unread);
  for (const Asn sink : {p, q, r}) EXPECT_FALSE(pruned.reachable(node(sink)));
  EXPECT_EQ(pruned.dist[node(o)], 0);
  for (const Asn transit : {t1, t2, a, c, d}) {
    EXPECT_EQ(pruned.parent[node(transit)], from_o.parent[node(transit)]);
    EXPECT_EQ(pruned.dist[node(transit)], from_o.dist[node(transit)]);
  }
  EXPECT_THROW((void)prop.propagate(o, std::span{unread}.first(2)),
               std::invalid_argument);

  const PathTable table = collect_paths(prop, vps);
  std::size_t sink_vp_paths = 0;
  for (topo::NodeId origin = 0; origin < graph.node_count(); ++origin) {
    const Asn origin_asn = graph.asn_of(origin);
    const std::uint32_t at = origin_asn.value();
    const OriginRib want = asrel::testing::naive_propagate(prop, origin_asn);
    const OriginRib rib = prop.propagate(origin_asn);
    EXPECT_EQ(rib.parent[node(r)], want.parent[node(r)]) << at;
    EXPECT_EQ(rib.via_edge[node(r)], want.via_edge[node(r)]) << at;
    EXPECT_EQ(rib.pref[node(r)], want.pref[node(r)]) << at;
    EXPECT_EQ(rib.dist[node(r)], want.dist[node(r)]) << at;
    EXPECT_TRUE(rib.reachable(node(r))) << at;

    const auto paths = asrel::testing::naive_harvest(prop, want, vps);
    ASSERT_EQ(table.origin_path_count(origin), paths.size()) << at;
    std::size_t i = 0;
    table.for_each_path_of(origin, [&](const PathTable::PathRef& ref) {
      EXPECT_EQ(ref.vp_index, paths[i].vp_index) << at;
      EXPECT_TRUE(std::ranges::equal(ref.path, paths[i].path)) << at;
      sink_vp_paths += ref.path.front() == p || ref.path.front() == q ? 1 : 0;
      ++i;
    });
  }
  // P and Q each reach every origin but themselves.
  EXPECT_EQ(sink_vp_paths, 2 * (graph.node_count() - 1));
}

TEST(Collection, PathCountMatchesRecount) {
  const auto& scenario = test::shared_scenario();
  std::size_t counted = 0;
  scenario.paths().for_each_path([&](const auto&) { ++counted; });
  EXPECT_EQ(counted, scenario.paths().path_count());
}

}  // namespace
}  // namespace asrel::bgp
