#include "infer/asrank.hpp"

#include <algorithm>
#include <numeric>
#include <ranges>

#include "obs/trace.hpp"

namespace asrel::infer {

namespace {

using asn::Asn;

/// `path_ids` is a range of path indices: a span for subset runs, an iota
/// view for the full run (so the full run allocates no id list).
template <typename PathIds>
AsRankResult run_impl(const ObservedPaths& observed,
                      const AsRankParams& params, const PathIds& path_ids,
                      std::span<const asn::Asn> clique_override,
                      bool subset_mode) {
  AsRankResult result;
  if (clique_override.empty()) {
    result.clique = infer_clique(observed, params.clique);
  } else {
    result.clique.assign(clique_override.begin(), clique_override.end());
  }
  std::vector<std::uint8_t> in_clique(observed.as_count(), 0);
  for (const Asn member : result.clique) {
    if (const auto index = observed.index_of(member)) in_clique[*index] = 1;
  }

  // Directed provider->customer evidence, indexed by directed slot.
  // `inferred` holds pairs accepted as descents (continuation triggers);
  // `votes` counts supporting path positions for majority resolution. A
  // pair inferred in *both* directions (siblings, mutual-transit artifacts)
  // is ambiguous and must never act as a descent trigger: treating it as
  // one lets an ascending occurrence start a bogus descent that cascades up
  // entire provider chains.
  std::vector<std::uint8_t> inferred(2 * observed.link_count(), 0);
  std::vector<std::uint32_t> votes(2 * observed.link_count(), 0);
  std::size_t inferred_count = 0;
  const auto infer = [&](std::uint32_t slot) {
    if (inferred[slot] == 0) {
      inferred[slot] = 1;
      ++inferred_count;
    }
  };
  const auto trigger_ok = [&](std::uint32_t slot) {
    return inferred[slot] != 0 && inferred[slot ^ 1] == 0;
  };

  // Per directed slot: does the hop enter a clique member, and are both of
  // its ends members? Sweeps read only path_slots, never the hop arena.
  constexpr std::uint8_t kEntersClique = 1;
  constexpr std::uint8_t kCliquePair = 2;
  std::vector<std::uint8_t> slot_flags(2 * observed.link_count(), 0);
  for (LinkId id = 0; id < observed.link_count(); ++id) {
    const auto [lo, hi] = observed.link_ends(id);
    const std::uint8_t pair =
        in_clique[lo] != 0 && in_clique[hi] != 0 ? kCliquePair : 0;
    slot_flags[2 * id] = pair | (in_clique[hi] != 0 ? kEntersClique : 0);
    slot_flags[2 * id + 1] = pair | (in_clique[lo] != 0 ? kEntersClique : 0);
  }

  // One sweep over the paths: extends `inferred` and counts this sweep's
  // votes into `sweep_votes`. Only a sweep that infers nothing counts votes
  // against a trigger set that is stable and self-consistent (early sweeps
  // can contain transient bad triggers); `settled` says the last sweep was
  // one and nothing was inferred since.
  std::vector<std::uint32_t> sweep_votes(2 * observed.link_count(), 0);
  bool settled = false;
  const auto descent_pass = [&] {
    std::fill(sweep_votes.begin(), sweep_votes.end(), 0);
    const std::size_t before = inferred_count;
    for (const std::uint32_t p : path_ids) {
      bool descending = false;
      for (const std::uint32_t slot : observed.path_slots(p)) {
        const std::uint8_t flags = slot_flags[slot];
        if (descending) {
          // Consistency guard: no valley-free descent ever enters a clique
          // member (it is provider-free). Hitting one means the descent was
          // started by a bad trigger — abandon it instead of voting
          // "x provides a Tier-1" and cascading garbage.
          if ((flags & kEntersClique) != 0) {
            descending = false;
            continue;
          }
          infer(slot);
          ++sweep_votes[slot];
          continue;
        }
        if ((flags & kCliquePair) != 0) {
          descending = true;  // peak crossed; votes start at the next pair
          continue;
        }
        if (trigger_ok(slot)) {
          descending = true;  // known descent continues after this pair
        }
      }
    }
    settled = inferred_count == before;
    return !settled;
  };

  // ---- Step 4: clique-pair seeded descents, to a fixpoint ----------------
  int sweeps = 0;
  while (sweeps < params.max_passes) {
    ++sweeps;
    if (!descent_pass()) break;
  }
  result.passes_used = sweeps;

  const double widely_seen_vps =
      params.stub_provider_vp_share * static_cast<double>(observed.vp_count());

  // ---- Step 5: dominant peaks of clique-free paths -----------------------
  {
    bool seeded = false;
    for (const std::uint32_t p : path_ids) {
      const auto path = observed.path(p);
      if (path.size() < 3) continue;
      if (std::any_of(path.begin(), path.end(),
                      [&](AsIndex hop) { return in_clique[hop] != 0; })) {
        continue;
      }

      std::size_t peak = 0;
      std::uint32_t peak_td = 0;
      for (std::size_t i = 0; i < path.size(); ++i) {
        const std::uint32_t td = observed.transit_degree(path[i]);
        if (td > peak_td) {
          peak_td = td;
          peak = i;
        }
      }
      if (peak + 1 >= path.size()) continue;
      if (peak_td < params.peak_min_transit_degree) continue;
      const std::uint32_t right_td = observed.transit_degree(path[peak + 1]);
      if (static_cast<double>(peak_td) <
          params.peak_degree_ratio * std::max(1u, right_td)) {
        continue;
      }
      // Visibility gate: a transit link below a peak is seen by most
      // collectors; a peering link is only seen from inside the peak's
      // customer cone. Without this, IXP peers of regional transits would
      // be swallowed as customers.
      const std::uint32_t slot = observed.path_slots(p)[peak];
      if (static_cast<double>(observed.link_vp_count(slot / 2)) <
          widely_seen_vps) {
        continue;
      }
      infer(slot);
      ++votes[slot];
      seeded = true;
    }
    if (seeded) {
      settled = false;  // the seeds changed the trigger set
      for (int extra = 0; extra < params.max_passes; ++extra) {
        if (!descent_pass()) break;
      }
    }
  }

  // ---- Descent votes: counted against the final trigger set ---------------
  // A settled sweep ran with the trigger set unchanged throughout, so its
  // votes are what one more sweep would count. Only when a pass budget ran
  // out first does one more sweep run to count them.
  if (!settled) descent_pass();
  for (std::size_t slot = 0; slot < votes.size(); ++slot) {
    votes[slot] += sweep_votes[slot];
  }

  // ---- Step 6: relationships of vantage points from feed sizes ------------
  // A VP's first-hop coverage tells how much of a table each neighbor gives
  // it: a (near) full table marks a provider, a small slice marks a peer
  // announcing only its own cone (Luckie et al. classify collector-peer
  // sessions the same way). Customer sessions are left to the descent votes.
  std::vector<std::uint8_t> vp_peer_link;
  if (!subset_mode) {
    vp_peer_link.assign(observed.link_count(), 0);
    for (std::uint16_t vp = 0; vp < observed.vp_count(); ++vp) {
      const std::uint32_t origins = observed.origin_count(vp);
      if (origins == 0) continue;
      const auto vp_index = observed.index_of(observed.vp_asns()[vp]);
      if (!vp_index || in_clique[*vp_index] != 0) continue;
      for (const FirstHop& hop : observed.first_hops(vp)) {
        // Clique neighbors are judged by triplet evidence only: a Tier-1
        // peer's customer cone can rival a backup provider's selected share,
        // so feed size cannot separate the two.
        if (in_clique[hop.as] != 0) continue;
        if (hop.count < params.vp_min_first_hops) continue;
        const LinkId link = observed.link_id(hop.as, *vp_index);
        if (link == kNoLink) continue;  // no link to label
        const double share =
            static_cast<double>(hop.count) / static_cast<double>(origins);
        if (share >= params.vp_full_table_share) {
          const std::uint32_t slot = directed_slot(link, hop.as, *vp_index);
          infer(slot);
          votes[slot] += 2;  // full table: provider
        } else if (share <= params.vp_peer_max_share) {
          vp_peer_link[link] = 1;
        }
      }
    }
  }

  // ---- Step 7: per-link resolution ----------------------------------------
  // Subset runs label only the links their paths actually contain, in the
  // order those paths first show them.
  std::vector<LinkId> scope;
  if (subset_mode) {
    std::vector<std::uint8_t> seen(observed.link_count(), 0);
    for (const std::uint32_t p : path_ids) {
      for (const std::uint32_t slot : observed.path_slots(p)) {
        if (seen[slot / 2] == 0) {
          seen[slot / 2] = 1;
          scope.push_back(slot / 2);
        }
      }
    }
  } else {
    scope.resize(observed.link_count());
    std::iota(scope.begin(), scope.end(), LinkId{0});
  }

  for (const LinkId id : scope) {
    const AsLink& link = observed.link_order()[id];
    const auto [ia, ib] = observed.link_ends(id);
    InferredRel rel;
    const bool a_clique = in_clique[ia] != 0;
    const bool b_clique = in_clique[ib] != 0;
    if (a_clique && b_clique) {
      rel.rel = topo::RelType::kP2P;
      result.inference.set(link, rel);
      continue;
    }
    const std::uint32_t va = votes[2 * id];
    const std::uint32_t vb = votes[2 * id + 1];
    if (va > vb) {
      rel.rel = topo::RelType::kP2C;
      rel.provider = link.a;
    } else if (vb > va) {
      rel.rel = topo::RelType::kP2C;
      rel.provider = link.b;
    } else if (va > 0) {
      rel.rel = topo::RelType::kP2P;  // perfectly conflicting evidence
    } else if (!vp_peer_link.empty() && vp_peer_link[id] != 0) {
      rel.rel = topo::RelType::kP2P;  // small feed into a collector peer
    } else {
      // No votes at all.
      const std::uint32_t ta = observed.transit_degree(ia);
      const std::uint32_t tb = observed.transit_degree(ib);
      const bool widely_seen =
          static_cast<double>(observed.link_vp_count(id)) >= widely_seen_vps;
      if ((a_clique && tb <= params.clique_customer_td_max) ||
          (b_clique && ta <= params.clique_customer_td_max)) {
        // Clique-adjacent small AS: assumed customer. This is precisely the
        // aggregation error behind the paper's S-T1 finding.
        rel.rel = topo::RelType::kP2C;
        rel.provider = a_clique ? link.a : link.b;
      } else if (ta == 0 && tb > 0 && widely_seen) {
        rel.rel = topo::RelType::kP2C;  // broadly visible stub uplink
        rel.provider = link.b;
      } else if (tb == 0 && ta > 0 && widely_seen) {
        rel.rel = topo::RelType::kP2C;
        rel.provider = link.a;
      } else {
        rel.rel = topo::RelType::kP2P;
      }
    }
    result.inference.set(link, rel);
  }
  return result;
}

}  // namespace

AsRankResult run_asrank(const ObservedPaths& observed,
                        const AsRankParams& params) {
  obs::StageScope stage{"infer.asrank"};
  const auto all = std::views::iota(
      std::uint32_t{0}, static_cast<std::uint32_t>(observed.path_count()));
  return run_impl(observed, params, all, {}, /*subset_mode=*/false);
}

AsRankResult run_asrank_subset(const ObservedPaths& observed,
                               const AsRankParams& params,
                               std::span<const std::uint32_t> path_ids,
                               std::span<const asn::Asn> clique_override) {
  return run_impl(observed, params, path_ids, clique_override,
                  /*subset_mode=*/true);
}

}  // namespace asrel::infer
