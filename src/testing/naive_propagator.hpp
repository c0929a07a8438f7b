// A deliberately naive Gao-Rexford reference propagator: the differential
// oracle for bgp::Propagator and collect_paths' harvest.
//
// It computes the same three phases from the textbook definition, with no
// buckets, no adjacency index and no scratch reuse: for each path length d
// in increasing order, every AS without a route scans all its neighbours
// for an export of exactly length d and keeps the one whose next hop ranks
// lowest. Every weight is at least one, so all exporters of a length-d
// route already hold their final route when level d is scanned. The cost
// is O(kMaxDist * (V + E)) per phase — fine for the small worlds the tests
// use, and simple enough to check by reading.
//
// It shares only the propagator's public per-origin coin flips
// (effective_rel, prepend_count, leaked_private_asn); the tie-rank and
// legacy-mangle hashes are its own copies. It never calls propagate,
// path_at or harvest_origin.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "asn/asn.hpp"
#include "bgp/propagation.hpp"
#include "bgp/vantage.hpp"

namespace asrel::testing {

/// Best routes of every AS toward `origin`, field for field what
/// Propagator::propagate should return.
[[nodiscard]] bgp::OriginRib naive_propagate(const bgp::Propagator& coins,
                                             asn::Asn origin);

struct NaivePath {
  std::uint32_t vp_index = 0;  ///< position among the VPs found in the graph
  std::vector<asn::Asn> path;  ///< collector side first
};

/// The paths collect_paths should store for the rib's origin, in stored
/// order: feed filtering, prepending, private-ASN leak, legacy mangling.
[[nodiscard]] std::vector<NaivePath> naive_harvest(
    const bgp::Propagator& coins, const bgp::OriginRib& rib,
    std::span<const bgp::VantagePoint> vps);

}  // namespace asrel::testing
