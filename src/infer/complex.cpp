#include "infer/complex.hpp"

#include <algorithm>
#include <vector>

namespace asrel::infer {

namespace {

using asn::Asn;

struct Evidence {
  std::uint32_t descent_xy = 0;  // [C,C,...] descent crossing x->y
  std::uint32_t descent_yx = 0;
  std::uint32_t peak = 0;        // link is the local peak of a clique-free path
  std::uint32_t after_clique_member_xy = 0;  // [T1, y] with x == T1
  std::uint32_t after_clique_member_yx = 0;
};

}  // namespace

std::vector<ComplexCandidate> detect_complex_relationships(
    const ObservedPaths& observed, std::span<const asn::Asn> clique,
    const ComplexParams& params) {
  std::vector<std::uint8_t> in_clique(observed.as_count(), 0);
  for (const Asn member : clique) {
    if (const auto index = observed.index_of(member)) in_clique[*index] = 1;
  }
  // Indexed by LinkId; `touched` marks links that gathered any evidence.
  std::vector<Evidence> evidence(observed.link_count());
  std::vector<std::uint8_t> touched(observed.link_count(), 0);
  const auto entry_of = [&](std::uint32_t slot) -> Evidence& {
    const LinkId id = slot / 2;
    touched[id] = 1;
    return evidence[id];
  };

  for (std::size_t p = 0; p < observed.path_count(); ++p) {
    const auto path = observed.path(p);
    const auto slots = observed.path_slots(p);
    if (path.size() < 2) continue;

    bool touches_clique = false;
    bool descending = false;
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      const AsIndex x = path[i];
      const AsIndex y = path[i + 1];
      const bool x_clique = in_clique[x] != 0;
      const bool y_clique = in_clique[y] != 0;
      if (x_clique) touches_clique = true;
      // Index order is ASN order: x < y means x is link.a.
      if (descending) {
        auto& entry = entry_of(slots[i]);
        (x < y) ? ++entry.descent_xy : ++entry.descent_yx;
      }
      if (x_clique && y_clique) {
        descending = true;
        continue;
      }
      if (x_clique) {
        auto& entry = entry_of(slots[i]);
        (x < y) ? ++entry.after_clique_member_xy
                : ++entry.after_clique_member_yx;
      }
    }
    if (in_clique[path.back()] != 0) touches_clique = true;

    // Local-peak evidence: in a clique-free path, the adjacent pair with
    // the two highest transit degrees behaves like the peering at the top.
    if (!touches_clique && path.size() >= 3) {
      std::size_t best = 0;
      std::uint64_t best_score = 0;
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        const std::uint64_t score =
            std::uint64_t{observed.transit_degree(path[i])} +
            observed.transit_degree(path[i + 1]);
        if (score > best_score) {
          best_score = score;
          best = i;
        }
      }
      if (best > 0 && best + 2 < path.size()) {
        ++entry_of(slots[best]).peak;
      }
    }
  }

  std::vector<ComplexCandidate> out;
  for (LinkId id = 0; id < observed.link_count(); ++id) {
    if (touched[id] == 0) continue;
    const val::AsLink& link = observed.link_order()[id];
    const Evidence& entry = evidence[id];
    const std::uint32_t descent =
        std::max(entry.descent_xy, entry.descent_yx);
    // Hybrid: transit behaviour for some origins, peering for others.
    if (descent >= params.min_descent_evidence &&
        entry.peak >= params.min_peak_evidence) {
      ComplexCandidate candidate;
      candidate.link = link;
      candidate.kind = ComplexKind::kHybrid;
      candidate.evidence = std::min(descent, entry.peak);
      out.push_back(candidate);
      continue;
    }
    // Partial transit: a clique member repeatedly carries this neighbor's
    // routes downward, yet no clique pair ever precedes the link (no
    // export across the top) and the neighbor clearly has a cone.
    const auto [ia, ib] = observed.link_ends(id);
    const bool a_clique = in_clique[ia] != 0;
    const bool b_clique = in_clique[ib] != 0;
    if (a_clique == b_clique) continue;
    const std::uint32_t after_member = a_clique
                                           ? entry.after_clique_member_xy
                                           : entry.after_clique_member_yx;
    const std::uint32_t customer_td =
        observed.transit_degree(a_clique ? ib : ia);
    if (descent == 0 && after_member >= params.min_partial_transit_occurrences &&
        customer_td >= params.min_customer_transit_degree) {
      ComplexCandidate candidate;
      candidate.link = link;
      candidate.kind = ComplexKind::kPartialTransit;
      candidate.evidence = after_member;
      candidate.provider = a_clique ? link.a : link.b;
      out.push_back(candidate);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const ComplexCandidate& a, const ComplexCandidate& b) {
              if (a.evidence != b.evidence) return a.evidence > b.evidence;
              return a.link < b.link;
            });
  return out;
}

}  // namespace asrel::infer
