#include "infer/gao.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace asrel::infer {

Inference run_gao(const ObservedPaths& observed, const GaoParams& params) {
  // Votes per directed link: 2 * link for link.a providing link.b,
  // 2 * link + 1 for the reverse: a hop's slot is the vote for its left
  // end providing its right end, and slot ^ 1 the vote for the reverse.
  std::vector<std::uint32_t> votes(2 * observed.link_count(), 0);

  for (std::size_t p = 0; p < observed.path_count(); ++p) {
    const auto path = observed.path(p);
    const auto slots = observed.path_slots(p);
    if (path.size() < 2) continue;
    // Top of the hill: highest node degree.
    std::size_t top = 0;
    std::uint32_t top_degree = 0;
    for (std::size_t i = 0; i < path.size(); ++i) {
      const std::uint32_t degree = observed.node_degree(path[i]);
      if (degree > top_degree) {
        top_degree = degree;
        top = i;
      }
    }
    // Left of the top the path ascends, right of it it descends.
    for (std::size_t i = 0; i < slots.size(); ++i) {
      if (i + 1 <= top) {
        ++votes[slots[i] ^ 1];  // right provides left
      } else {
        ++votes[slots[i]];  // left provides right
      }
    }
  }

  Inference inference;
  for (LinkId id = 0; id < observed.link_count(); ++id) {
    const AsLink& link = observed.link_order()[id];
    const std::uint32_t va = votes[2 * id];
    const std::uint32_t vb = votes[2 * id + 1];
    InferredRel rel;
    const auto [ia, ib] = observed.link_ends(id);
    const double da = observed.node_degree(ia);
    const double db = observed.node_degree(ib);
    const double band = std::fabs(std::log2((da + 1.0) / (db + 1.0)));

    if (va > 0 && vb > 0 &&
        static_cast<double>(std::max(va, vb)) <
            params.dominance * static_cast<double>(std::min(va, vb)) &&
        band < params.peer_degree_band) {
      rel.rel = topo::RelType::kP2P;
    } else if (va >= vb) {
      rel.rel = topo::RelType::kP2C;
      rel.provider = link.a;
    } else {
      rel.rel = topo::RelType::kP2C;
      rel.provider = link.b;
    }
    inference.set(link, rel);
  }
  return inference;
}

}  // namespace asrel::infer
