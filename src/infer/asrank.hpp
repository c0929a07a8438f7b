// ASRank (Luckie et al., IMC 2013) reimplementation.
//
// Pipeline (documented against the published algorithm):
//   1. sanitize paths (done by ObservedPaths),
//   2. rank ASes by transit degree,
//   3. infer the provider-free clique (Bron-Kerbosch + extension),
//   4. seed provider->customer descents at triplets that contain two
//      consecutive clique members — the evidence the paper's §6.1 case study
//      shows to be *necessary* for a P2C verdict next to a Tier-1 — and
//      propagate descents across paths to a fixpoint,
//   5. seed additional descents at dominant-degree peaks of paths that never
//      touch the clique (regional hierarchies),
//   6. infer providers of vantage points from full-table first-hop shares,
//   7. resolve each link: clique mesh -> p2p; directed vote majority -> p2c;
//      unvoted links against a transit-degree-0 AS -> p2c (stub rule);
//      everything else -> p2p.
//
// Step 4's asymmetry (descents are only ever seeded *after* a clique pair,
// never on the ascending side) is what reproduces the paper's headline
// T1-TR failure: a Tier-1 customer that blocks peer redistribution never
// appears in a "C|T1|X" triplet and ends up inferred as a peer.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "infer/clique.hpp"
#include "infer/inference.hpp"
#include "infer/observed.hpp"

namespace asrel::infer {

struct AsRankParams {
  CliqueParams clique;
  /// Step 5: the peak of a clique-free path seeds a descent only if its
  /// transit degree dominates its right neighbor by this factor...
  double peak_degree_ratio = 5.0;
  /// ...and is at least this large.
  std::uint32_t peak_min_transit_degree = 10;
  /// Step 6: a first-hop neighbor covering at least this share of a VP's
  /// origins is giving it a (near) full table, i.e. is its provider.
  double vp_full_table_share = 0.25;
  /// A first-hop neighbor covering no more than this share announces only
  /// its own cone: a peer of the VP (unless descent votes say otherwise).
  double vp_peer_max_share = 0.05;
  /// Noise floor: ignore first-hop neighbors seen for fewer origins.
  std::uint32_t vp_min_first_hops = 3;
  /// Unvoted clique-adjacent links: the non-clique side is inferred to be a
  /// customer when its transit degree is below this bound (this is the rule
  /// that mis-types anycast/research stubs peering with Tier-1s, §6).
  std::uint32_t clique_customer_td_max = 4;
  /// Unvoted stub links count as provider links only when broadly visible
  /// (a stub's transit link is seen by most collectors; an IXP peering of a
  /// stub is not).
  double stub_provider_vp_share = 0.2;
  /// Maximum descent-propagation passes (fixpoint usually in 3-4).
  int max_passes = 10;
};

struct AsRankResult {
  Inference inference;
  std::vector<asn::Asn> clique;
  /// Step-4 descent sweeps that ran: the one that found the fixpoint
  /// included, never more than max_passes. Neither step 5's sweeps nor a
  /// vote-counting sweep after an exhausted budget count.
  int passes_used = 0;
};

[[nodiscard]] AsRankResult run_asrank(const ObservedPaths& observed,
                                      const AsRankParams& params = {});

/// Restricted variant used by TopoScope's vantage-point grouping: run the
/// pipeline on a subset of paths, optionally with a precomputed clique
/// (group views are too fragmentary to re-infer the clique reliably).
[[nodiscard]] AsRankResult run_asrank_subset(
    const ObservedPaths& observed, const AsRankParams& params,
    std::span<const std::uint32_t> path_ids,
    std::span<const asn::Asn> clique_override);

}  // namespace asrel::infer
