// Micro-scale behavioural tests: the headline mechanisms of the paper on a
// 13-AS world whose every link is known by construction (see test_support).
#include <gtest/gtest.h>

#include <numeric>

#include "bgp/propagation.hpp"
#include "infer/asrank.hpp"
#include "test_support.hpp"
#include "validation/extract.hpp"
#include "validation/scheme.hpp"

namespace asrel {
namespace {

using asn::Asn;
using test::micro_world;
using test::MicroWorld;

/// Collects paths with every AS acting as a full-feed vantage point.
bgp::PathTable observe_everything(const MicroWorld& mw,
                                  const bgp::Propagator& propagator) {
  std::vector<bgp::VantagePoint> vps;
  for (const Asn asn : mw.world.graph.nodes()) {
    vps.push_back({asn, /*full_feed=*/true, /*legacy_16bit=*/false});
  }
  return bgp::collect_paths(propagator, std::move(vps));
}

bgp::PropagationParams quiet() {
  bgp::PropagationParams params;
  params.enable_prepending = false;
  params.private_asn_leak = 0.0;
  params.legacy_mangle = 0.0;
  params.threads = 1;
  return params;
}

class MicroAsRank : public ::testing::Test {
 protected:
  void SetUp() override {
    mw_ = micro_world();
    propagator_ =
        std::make_unique<bgp::Propagator>(mw_.world, quiet());
    table_ = observe_everything(mw_, *propagator_);
    observed_ = infer::ObservedPaths::build(table_);
    path_ids_.resize(observed_.path_count());
    std::iota(path_ids_.begin(), path_ids_.end(), 0u);
    // Tiny worlds cannot support clique inference; supply the known clique
    // (the real pipeline recovers it on realistic worlds — see test_infer).
    // The clique-customer degree bound is likewise scaled down: in a 13-AS
    // world every transit degree is single-digit.
    infer::AsRankParams params;
    params.clique_customer_td_max = 1;
    result_ = infer::run_asrank_subset(observed_, params, path_ids_,
                                       mw_.world.clique);
  }

  const infer::InferredRel* rel(Asn a, Asn b) const {
    return result_.inference.find(val::AsLink{a, b});
  }

  MicroWorld mw_;
  std::unique_ptr<bgp::Propagator> propagator_;
  bgp::PathTable table_;
  infer::ObservedPaths observed_;
  std::vector<std::uint32_t> path_ids_;
  infer::AsRankResult result_;
};

TEST_F(MicroAsRank, CliqueMeshIsPeering) {
  const auto* r = rel(mw_.t1a, mw_.t1b);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->rel, topo::RelType::kP2P);
}

TEST_F(MicroAsRank, FullTransitCustomerIsP2C) {
  // L1 is an ordinary customer of T1a: the [T1b, T1a, L1] triplet exists.
  const auto* r = rel(mw_.t1a, mw_.l1);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->rel, topo::RelType::kP2C);
  EXPECT_EQ(r->provider, mw_.t1a);
}

TEST_F(MicroAsRank, PartialTransitCustomerIsMisinferredAsPeer) {
  // The §6.1 mechanism in miniature: L2 blocks redistribution to peers, so
  // the [T1b, T1a, L2] triplet never exists and ASRank calls the link P2P.
  const auto* r = rel(mw_.t1a, mw_.l2);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->rel, topo::RelType::kP2P);
}

TEST_F(MicroAsRank, MultihomedLegOfPartialTransitCustomerIsStillP2C) {
  // L2's *other* (full transit) uplink via T1b has the triplet.
  const auto* r = rel(mw_.t1b, mw_.l2);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->rel, topo::RelType::kP2C);
  EXPECT_EQ(r->provider, mw_.t1b);
}

TEST_F(MicroAsRank, AnycastStubPeeringIsMisinferredAsCustomer) {
  // S4 peers with T1b, but a terminal AS next to a clique member defaults
  // to customer — the paper's S-T1 confusion.
  const auto* r = rel(mw_.s4, mw_.t1b);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->rel, topo::RelType::kP2C);
  EXPECT_EQ(r->provider, mw_.t1b);
}

TEST_F(MicroAsRank, MidTransitChainIsP2C) {
  const auto* r = rel(mw_.l1, mw_.m1);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->rel, topo::RelType::kP2C);
  EXPECT_EQ(r->provider, mw_.l1);
  const auto* deeper = rel(mw_.m1, mw_.s1);
  ASSERT_NE(deeper, nullptr);
  EXPECT_EQ(deeper->rel, topo::RelType::kP2C);
  EXPECT_EQ(deeper->provider, mw_.m1);
}

TEST_F(MicroAsRank, ExhaustedPassBudgetStillCountsVotes) {
  // The fixpoint needs more than one sweep here, so a budget of one runs
  // out before it settles: one more sweep must still count the votes, and
  // passes_used counts only the step-4 sweep that ran.
  ASSERT_GT(result_.passes_used, 1);
  infer::AsRankParams params;
  params.clique_customer_td_max = 1;
  params.max_passes = 1;
  const auto budget = infer::run_asrank_subset(observed_, params, path_ids_,
                                               mw_.world.clique);
  EXPECT_EQ(budget.passes_used, 1);

  const auto expect = [&](Asn a, Asn b, topo::RelType type, Asn provider) {
    const auto* r = budget.inference.find(val::AsLink{a, b});
    ASSERT_NE(r, nullptr) << a.value() << "-" << b.value();
    EXPECT_EQ(r->rel, type) << a.value() << "-" << b.value();
    if (type == topo::RelType::kP2C) {
      EXPECT_EQ(r->provider, provider);
    }
  };
  using topo::RelType;
  expect(mw_.t1a, mw_.t1b, RelType::kP2P, {});
  expect(mw_.t1a, mw_.l1, RelType::kP2C, mw_.t1a);
  expect(mw_.t1a, mw_.l2, RelType::kP2P, {});
  expect(mw_.t1b, mw_.l2, RelType::kP2C, mw_.t1b);
  expect(mw_.s4, mw_.t1b, RelType::kP2C, mw_.t1b);
  expect(mw_.l1, mw_.m1, RelType::kP2C, mw_.l1);
  expect(mw_.m1, mw_.s1, RelType::kP2C, mw_.m1);
}

// ----------------------------------------------------- extraction (micro) --

TEST(MicroExtraction, PartialTransitLinkIsValidatedAsP2C) {
  // The provider's own feed tags the customer — community validation
  // records P2C even though ASRank infers P2P: the §6 contradiction.
  const MicroWorld mw = micro_world();
  const bgp::Propagator propagator{mw.world, quiet()};
  const auto table = observe_everything(mw, propagator);
  const auto schemes = val::SchemeDirectory::build(mw.world, 1);
  val::ExtractParams params;
  params.stale_documentation = 0.0;
  const auto raw =
      val::extract_from_communities(propagator, table, schemes, params);

  const auto* entry = raw.find(val::AsLink{mw.t1a, mw.l2});
  ASSERT_NE(entry, nullptr);
  ASSERT_FALSE(entry->labels.empty());
  EXPECT_EQ(entry->labels[0].rel, topo::RelType::kP2C);
  EXPECT_EQ(entry->labels[0].provider, mw.t1a);
}

TEST(MicroExtraction, HybridLinkGetsBothLabels) {
  const MicroWorld mw = micro_world();
  const bgp::Propagator propagator{mw.world, quiet()};
  const auto table = observe_everything(mw, propagator);
  const auto schemes = val::SchemeDirectory::build(mw.world, 1);
  val::ExtractParams params;
  params.stale_documentation = 0.0;
  const auto raw =
      val::extract_from_communities(propagator, table, schemes, params);

  const auto* entry = raw.find(val::AsLink{mw.m3, mw.m4});
  ASSERT_NE(entry, nullptr);
  EXPECT_TRUE(entry->multi_label())
      << "hybrid PoP-dependent link should collect conflicting labels";
}

TEST(MicroExtraction, PeeringLabeledAsPeering) {
  const MicroWorld mw = micro_world();
  const bgp::Propagator propagator{mw.world, quiet()};
  const auto table = observe_everything(mw, propagator);
  const auto schemes = val::SchemeDirectory::build(mw.world, 1);
  val::ExtractParams params;
  params.stale_documentation = 0.0;
  const auto raw =
      val::extract_from_communities(propagator, table, schemes, params);

  const auto* entry = raw.find(val::AsLink{mw.m1, mw.m2});
  if (entry == nullptr) GTEST_SKIP() << "link not tagged in this world";
  for (const auto& label : entry->labels) {
    EXPECT_EQ(label.rel, topo::RelType::kP2P);
  }
}

// ----------------------------------------------------- scheme ambiguity ---

TEST(SchemeAmbiguity, CollidingKeysAreSkippedWhenBothOnPath) {
  // Two ASes with the same low-16 key (5 and 65536+5) publish schemes; a
  // community 5:<v> on a path containing both cannot be attributed.
  topo::World world;
  const Asn a5{5};
  const Asn a65541{65541};  // 1.5 in asdot: low 16 bits == 5
  const Asn origin{900};
  for (const Asn asn : {a5, a65541, origin}) {
    world.graph.add_node(asn);
    auto& attrs = world.attrs[asn];
    attrs.tier = topo::Tier::kMidTransit;
    attrs.documents_communities = true;
  }
  world.graph.add_edge(a5, a65541, topo::RelType::kP2C);
  world.graph.add_edge(a65541, origin, topo::RelType::kP2C);

  const auto schemes = val::SchemeDirectory::build(world, 1);
  // Both must exist for the ambiguity check to be exercised.
  if (schemes.scheme_of(a5) == nullptr ||
      schemes.scheme_of(a65541) == nullptr) {
    GTEST_SKIP() << "scheme sampling did not cover both owners";
  }
  ASSERT_EQ(schemes.key_matches(5).size(), 2u);

  const bgp::Propagator propagator{world, quiet()};
  std::vector<bgp::VantagePoint> vps{{a5, true, false}};
  const auto table = bgp::collect_paths(propagator, vps);
  val::ExtractStats stats;
  const auto raw = val::extract_from_communities(propagator, table, schemes,
                                                 {}, &stats);
  EXPECT_GT(stats.ambiguous_keys_skipped, 0u)
      << "colliding keys on the same path must be treated as ambiguous";
}

}  // namespace
}  // namespace asrel
