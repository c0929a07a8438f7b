#include "infer/clique.hpp"

#include <algorithm>

#include "obs/trace.hpp"

namespace asrel::infer {

namespace {

/// Exact Bron-Kerbosch (no pivoting; the pool is tiny) collecting the
/// largest clique in the pool.
void bron_kerbosch(const std::vector<std::vector<bool>>& adjacent,
                   std::vector<std::size_t>& current,
                   std::vector<std::size_t> candidates,
                   std::vector<std::size_t> excluded,
                   std::vector<std::size_t>& best) {
  if (candidates.empty() && excluded.empty()) {
    // Largest clique wins; ties resolve to the lexicographically smallest
    // (by pool rank) member set for determinism.
    if (current.size() > best.size() ||
        (current.size() == best.size() && current < best)) {
      best = current;
    }
    return;
  }
  // Iterate over a copy; candidates shrinks as we go.
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
    bron_kerbosch(adjacent, current, std::move(next_candidates),
                  std::move(next_excluded), best);
    current.pop_back();
    candidates.erase(std::find(candidates.begin(), candidates.end(), v));
    excluded.push_back(v);
  }
}

/// How often each AS appears directly after two consecutive members of
/// the clique in a path — i.e. receives transit through the top of the
/// hierarchy. Provider-free ASes never do; customers of clique members do.
/// Indexed by AsIndex; `member` holds one byte per AsIndex.
std::vector<std::uint32_t> transit_evidence(
    const ObservedPaths& observed, const std::vector<std::uint8_t>& member) {
  std::vector<std::uint32_t> counts(observed.as_count(), 0);
  for (std::size_t p = 0; p < observed.path_count(); ++p) {
    const auto path = observed.path(p);
    for (std::size_t i = 0; i + 2 < path.size(); ++i) {
      if (member[path[i]] != 0 && member[path[i + 1]] != 0) {
        ++counts[path[i + 2]];
      }
    }
  }
  return counts;
}

constexpr std::uint32_t kTransitedThreshold = 2;

}  // namespace

std::vector<asn::Asn> infer_clique(const ObservedPaths& observed,
                                   const CliqueParams& params) {
  obs::StageScope stage{"infer.clique"};
  const auto rank = observed.rank_order();
  const std::size_t pool =
      std::min(params.seed_pool, static_cast<std::size_t>(rank.size()));
  if (pool == 0) return {};

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
  bron_kerbosch(adjacent, current, std::move(candidates), {}, best);
  if (best.empty()) best.push_back(0);  // degenerate: just the top AS

  // Membership is one byte per AsIndex. Transit evidence depends only on
  // the membership, so it is recomputed only after the clique changes.
  const std::size_t n = observed.as_count();
  std::vector<std::uint8_t> member(n, 0);
  std::size_t size = 0;
  for (const std::size_t i : best) {
    member[rank[i]] = 1;
    ++size;
  }
  std::vector<std::uint32_t> evidence;
  bool evidence_stale = true;
  const auto current_evidence = [&]() -> const std::vector<std::uint32_t>& {
    if (evidence_stale) {
      evidence = transit_evidence(observed, member);
      evidence_stale = false;
    }
    return evidence;
  };
  const auto set_member = [&](AsIndex as, bool in) {
    member[as] = in ? 1 : 0;
    in ? ++size : --size;
    evidence_stale = true;
  };

  // A member that receives transit *through* two other members is not
  // provider-free; purge the worst offender at a time so the evidence gets
  // cleaner as the seed purifies. Ties go to the lowest ASN, i.e. the
  // lowest index.
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
      if (worst_count < kTransitedThreshold) break;
      set_member(worst, false);
      removed_any = true;
    }
    return removed_any;
  };

  // Greedy extension over the next ranks: fully linked to the current
  // clique and never transited through it.
  const std::size_t extension =
      std::min(params.extension_pool, static_cast<std::size_t>(rank.size()));
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
      if (current_evidence()[candidate] >= kTransitedThreshold) continue;
      set_member(candidate, true);
      added_any = true;
    }
    return added_any;
  };

  // Alternate purification and extension until stable: a new member's
  // peering paths can expose an earlier member as a customer, and a purge
  // can unblock a candidate that failed the fully-linked test before.
  purify();
  for (int round = 0; round < 4; ++round) {
    const bool grew = extend();
    const bool shrank = purify();
    if (!grew && !shrank) break;
  }

  std::vector<asn::Asn> out;
  out.reserve(size);
  for (AsIndex as = 0; as < n; ++as) {
    if (member[as] != 0) out.push_back(observed.asn_at(as));
  }
  return out;
}

}  // namespace asrel::infer
