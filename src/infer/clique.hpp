// Clique (provider-free Tier-1 core) inference, Luckie et al. 2013 style:
// run Bron-Kerbosch over the visible links among the top transit-degree
// ASes, keep the largest clique containing the #1 AS, then greedily extend
// with further ASes (in rank order) that link to every member. A member
// that receives transit through two other members is purged, and such a
// candidate is skipped. That evidence comes from one scan of the paths,
// which counts hop triplets among the top ranks; each membership change
// only re-sums the member pairs' rows.
#pragma once

#include <cstddef>
#include <vector>

#include "asn/asn.hpp"
#include "infer/observed.hpp"

namespace asrel::infer {

/// Largest pool infer_clique accepts. The triplet table has
/// max(seed_pool, extension_pool)^3 counters: 8 MiB at this limit.
inline constexpr std::size_t kMaxCliquePool = 128;

/// Both pools must be at most kMaxCliquePool.
struct CliqueParams {
  std::size_t seed_pool = 14;      ///< BK runs on the top-N by transit degree
  std::size_t extension_pool = 60; ///< ranks considered for greedy extension
};

/// Returns clique ASNs sorted ascending. Deterministic. Throws
/// std::invalid_argument when a pool exceeds kMaxCliquePool.
[[nodiscard]] std::vector<asn::Asn> infer_clique(const ObservedPaths& observed,
                                                 const CliqueParams& params);

}  // namespace asrel::infer
