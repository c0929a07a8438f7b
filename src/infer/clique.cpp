#include "infer/clique.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <string>

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

/// Hop triplets among the top `k` ranks, counted in one scan of the paths:
/// entry (x * k + y) * k + z counts the path positions where the ASes at
/// rank positions x, y and z appear in that order. An AS appearing right
/// after two members has received transit through the top of the
/// hierarchy; provider-free ASes never do, customers of members do. Every
/// member and every candidate ranks below `k`, so summing the rows of the
/// member pairs gives all the evidence the clique ever reads.
std::vector<std::uint32_t> triplet_table(const ObservedPaths& observed,
                                         std::span<const AsIndex> rank,
                                         std::size_t k) {
  constexpr std::uint8_t kOutside = 0xFF;  // k <= kMaxCliquePool < 0xFF
  std::vector<std::uint8_t> position(observed.as_count(), kOutside);
  for (std::size_t r = 0; r < k; ++r) {
    position[rank[r]] = static_cast<std::uint8_t>(r);
  }
  std::vector<std::uint32_t> table(k * k * k, 0);
  for (std::size_t p = 0; p < observed.path_count(); ++p) {
    const auto path = observed.path(p);
    if (path.size() < 3) continue;
    std::uint8_t x = position[path[0]];
    std::uint8_t y = position[path[1]];
    for (std::size_t i = 2; i < path.size(); ++i) {
      const std::uint8_t z = position[path[i]];
      if (x != kOutside && y != kOutside && z != kOutside) {
        ++table[(x * k + y) * k + z];
      }
      x = y;
      y = z;
    }
  }
  return table;
}

constexpr std::uint32_t kTransitedThreshold = 2;

}  // namespace

std::vector<asn::Asn> infer_clique(const ObservedPaths& observed,
                                   const CliqueParams& params) {
  if (std::max(params.seed_pool, params.extension_pool) > kMaxCliquePool) {
    throw std::invalid_argument(
        "infer_clique: seed_pool and extension_pool must be at most " +
        std::to_string(kMaxCliquePool));
  }
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

  // Members and candidates are all among the top `k` ranks, so membership
  // and evidence live in rank-position space. The paths are scanned once;
  // after a membership change the evidence is re-summed from the table.
  const std::size_t extension =
      std::min(params.extension_pool, static_cast<std::size_t>(rank.size()));
  const std::size_t k = std::max(pool, extension);
  const std::vector<std::uint32_t> table = triplet_table(observed, rank, k);
  std::vector<std::uint8_t> member(k, 0);
  std::size_t size = 0;
  for (const std::size_t i : best) {
    member[i] = 1;
    ++size;
  }
  std::vector<std::uint32_t> evidence(k, 0);
  bool evidence_stale = true;
  const auto current_evidence = [&]() -> const std::vector<std::uint32_t>& {
    if (evidence_stale) {
      std::fill(evidence.begin(), evidence.end(), 0);
      for (std::size_t x = 0; x < k; ++x) {
        if (member[x] == 0) continue;
        for (std::size_t y = 0; y < k; ++y) {
          if (member[y] == 0) continue;
          const std::uint32_t* row = &table[(x * k + y) * k];
          for (std::size_t z = 0; z < k; ++z) evidence[z] += row[z];
        }
      }
      evidence_stale = false;
    }
    return evidence;
  };
  const auto set_member = [&](std::size_t r, bool in) {
    member[r] = in ? 1 : 0;
    in ? ++size : --size;
    evidence_stale = true;
  };

  // A member that receives transit *through* two other members is not
  // provider-free; purge the worst offender at a time so the evidence gets
  // cleaner as the seed purifies. Ties go to the lowest ASN, i.e. the
  // lowest AsIndex.
  const auto purify = [&] {
    bool removed_any = false;
    while (size > 1) {
      const auto& counts = current_evidence();
      std::size_t worst = k;
      std::uint32_t worst_count = 0;
      for (std::size_t r = 0; r < k; ++r) {
        if (member[r] == 0) continue;
        if (counts[r] > worst_count ||
            (counts[r] == worst_count && worst != k && rank[r] < rank[worst])) {
          worst_count = counts[r];
          worst = r;
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
  const auto extend = [&] {
    bool added_any = false;
    for (std::size_t i = 0; i < extension; ++i) {
      if (member[i] != 0) continue;
      bool connected_to_all = true;
      for (std::size_t r = 0; r < k && connected_to_all; ++r) {
        connected_to_all =
            member[r] == 0 || observed.link_id(rank[i], rank[r]) != kNoLink;
      }
      if (!connected_to_all) continue;
      if (current_evidence()[i] >= kTransitedThreshold) continue;
      set_member(i, true);
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
  for (std::size_t r = 0; r < k; ++r) {
    if (member[r] != 0) out.push_back(observed.asn_at(rank[r]));
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace asrel::infer
