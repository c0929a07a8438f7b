#include "observed_oracle.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_set>

namespace asrel::test {

namespace {

using asn::Asn;
using val::AsLink;

/// Inserts into a sorted vector iff absent.
template <typename T>
void insert_sorted_unique(std::vector<T>& values, const T& value) {
  const auto it = std::lower_bound(values.begin(), values.end(), value);
  if (it == values.end() || *it != value) values.insert(it, value);
}

std::string link_name(const AsLink& link) {
  return std::to_string(link.a.value()) + "-" + std::to_string(link.b.value());
}

}  // namespace

ObservedOracle ObservedOracle::build(const bgp::PathTable& table) {
  ObservedOracle out;
  const auto vps = table.vantage_points();
  for (const auto& vp : vps) out.vp_asns.push_back(vp.asn);
  out.first_hop.resize(vps.size());
  out.origins_per_vp.assign(vps.size(), 0);

  // Pass 1: sanitize and store paths; collect the AS universe.
  std::unordered_set<Asn> as_set;
  std::vector<Asn> hops;
  std::unordered_set<Asn> seen_in_path;
  table.for_each_path([&](const bgp::PathTable::PathRef& ref) {
    ++out.stats.input_paths;
    hops.clear();
    for (const Asn hop : ref.path) {
      if (hops.empty() || hops.back() != hop) hops.push_back(hop);
    }
    if (std::any_of(hops.begin(), hops.end(), asn::is_reserved)) {
      ++out.stats.dropped_reserved;
      return;
    }
    seen_in_path.clear();
    for (const Asn hop : hops) {
      if (!seen_in_path.insert(hop).second) {
        ++out.stats.dropped_loop;
        return;
      }
    }
    ++out.stats.kept;
    out.paths.push_back(hops);
    out.path_vp.push_back(static_cast<std::uint16_t>(ref.vp_index));
    as_set.insert(hops.begin(), hops.end());
    if (hops.size() >= 2) ++out.first_hop[ref.vp_index][hops[1]];
    ++out.origins_per_vp[ref.vp_index];
  });

  out.ases.assign(as_set.begin(), as_set.end());
  std::sort(out.ases.begin(), out.ases.end());
  const auto index_of = [&](Asn asn) {
    return static_cast<std::size_t>(
        std::lower_bound(out.ases.begin(), out.ases.end(), asn) -
        out.ases.begin());
  };

  // Pass 2: degrees, transit degrees, link statistics.
  const std::size_t n = out.ases.size();
  std::vector<std::vector<Asn>> neighbor_sets(n);
  std::vector<std::vector<Asn>> transit_sets(n);
  std::vector<std::vector<std::uint16_t>> link_vps;
  for (std::size_t p = 0; p < out.paths.size(); ++p) {
    const auto& path = out.paths[p];
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      insert_sorted_unique(neighbor_sets[index_of(path[i])], path[i + 1]);
      insert_sorted_unique(neighbor_sets[index_of(path[i + 1])], path[i]);
      if (i + 2 < path.size()) {
        insert_sorted_unique(transit_sets[index_of(path[i + 1])], path[i]);
        insert_sorted_unique(transit_sets[index_of(path[i + 1])],
                             path[i + 2]);
      }
      const AsLink link{path[i], path[i + 1]};
      auto [it, inserted] = out.links.try_emplace(link);
      if (inserted) {
        it->second.link_id = static_cast<std::uint32_t>(out.link_order.size());
        out.link_order.push_back(link);
        link_vps.emplace_back();
      }
      ++it->second.occurrences;
      insert_sorted_unique(link_vps[it->second.link_id], out.path_vp[p]);
    }
  }
  for (auto& [link, info] : out.links) {
    info.vp_count = static_cast<std::uint16_t>(link_vps[info.link_id].size());
  }
  for (std::size_t i = 0; i < n; ++i) {
    out.node_degree.push_back(
        static_cast<std::uint32_t>(neighbor_sets[i].size()));
    out.transit_degree.push_back(
        static_cast<std::uint32_t>(transit_sets[i].size()));
  }

  std::vector<std::size_t> rank(n);
  for (std::size_t i = 0; i < n; ++i) rank[i] = i;
  std::sort(rank.begin(), rank.end(), [&](std::size_t a, std::size_t b) {
    if (out.transit_degree[a] != out.transit_degree[b]) {
      return out.transit_degree[a] > out.transit_degree[b];
    }
    if (out.node_degree[a] != out.node_degree[b]) {
      return out.node_degree[a] > out.node_degree[b];
    }
    return out.ases[a] < out.ases[b];
  });
  for (const std::size_t i : rank) out.rank_order.push_back(out.ases[i]);
  return out;
}

std::optional<std::string> diff_against_oracle(
    const infer::ObservedPaths& observed,
    const infer::SanitizeStats& observed_stats, const ObservedOracle& oracle) {
  std::ostringstream why;
  const auto fail = [&]() -> std::optional<std::string> { return why.str(); };

  const auto& want = oracle.stats;
  if (observed_stats.input_paths != want.input_paths ||
      observed_stats.dropped_loop != want.dropped_loop ||
      observed_stats.dropped_reserved != want.dropped_reserved ||
      observed_stats.kept != want.kept) {
    why << "SanitizeStats differ: kept " << observed_stats.kept << " vs "
        << want.kept << ", loops " << observed_stats.dropped_loop << " vs "
        << want.dropped_loop << ", reserved "
        << observed_stats.dropped_reserved << " vs " << want.dropped_reserved;
    return fail();
  }

  // Paths, hop by hop, with their VPs.
  if (observed.path_count() != oracle.paths.size()) {
    why << "path_count " << observed.path_count() << " vs "
        << oracle.paths.size();
    return fail();
  }
  for (std::size_t p = 0; p < oracle.paths.size(); ++p) {
    const auto path = observed.path(p);
    const auto& expected = oracle.paths[p];
    bool same = path.size() == expected.size() &&
                observed.vp_of_path(p) == oracle.path_vp[p];
    for (std::size_t i = 0; same && i < path.size(); ++i) {
      same = observed.asn_at(path[i]) == expected[i];
    }
    if (!same) {
      why << "path " << p << " differs";
      return fail();
    }
    // One directed slot per hop pair: 2 * link, plus 1 when the hop runs
    // from the higher index to the lower.
    const auto slots = observed.path_slots(p);
    same = slots.size() == (path.empty() ? 0 : path.size() - 1);
    for (std::size_t i = 0; same && i < slots.size(); ++i) {
      same = slots[i] == 2 * observed.link_id(path[i], path[i + 1]) +
                             (path[i] > path[i + 1] ? 1 : 0);
    }
    if (!same) {
      why << "path_slots of path " << p << " differ";
      return fail();
    }
  }

  // AS universe, degrees and rank order.
  if (!std::equal(observed.ases().begin(), observed.ases().end(),
                  oracle.ases.begin(), oracle.ases.end())) {
    why << "ases differ (" << observed.as_count() << " vs "
        << oracle.ases.size() << ")";
    return fail();
  }
  for (infer::AsIndex i = 0; i < oracle.ases.size(); ++i) {
    if (observed.index_of(oracle.ases[i]) != i ||
        observed.transit_degree(i) != oracle.transit_degree[i] ||
        observed.node_degree(i) != oracle.node_degree[i]) {
      why << "AS " << oracle.ases[i].value() << ": index or degrees differ";
      return fail();
    }
  }
  const auto rank = observed.rank_order();
  for (std::size_t r = 0; r < oracle.rank_order.size(); ++r) {
    if (r >= rank.size() || observed.asn_at(rank[r]) != oracle.rank_order[r]) {
      why << "rank_order differs at " << r;
      return fail();
    }
  }
  if (rank.size() != oracle.rank_order.size()) {
    why << "rank_order length " << rank.size();
    return fail();
  }

  // Links: order, ids, both lookups and the per-link statistics.
  if (!std::equal(observed.link_order().begin(), observed.link_order().end(),
                  oracle.link_order.begin(), oracle.link_order.end())) {
    why << "link_order differs (" << observed.link_count() << " vs "
        << oracle.link_order.size() << ")";
    return fail();
  }
  for (const auto& [link, info] : oracle.links) {
    const infer::LinkId id = observed.find_link(link);
    const auto ia = observed.index_of(link.a);
    const auto ib = observed.index_of(link.b);
    if (id != info.link_id || !ia || !ib ||
        observed.link_id(*ia, *ib) != id || observed.link_id(*ib, *ia) != id ||
        observed.link_ends(id) != std::pair{*ia, *ib}) {
      why << "link " << link_name(link) << ": id lookup differs";
      return fail();
    }
    if (observed.link_occurrences(id) != info.occurrences ||
        observed.link_vp_count(id) != info.vp_count) {
      why << "link " << link_name(link) << ": occurrences "
          << observed.link_occurrences(id) << " vs " << info.occurrences
          << ", vp_count " << observed.link_vp_count(id) << " vs "
          << info.vp_count;
      return fail();
    }
  }

  // Vantage points: first hops and origin counts.
  if (!std::equal(observed.vp_asns().begin(), observed.vp_asns().end(),
                  oracle.vp_asns.begin(), oracle.vp_asns.end())) {
    why << "vp_asns differ";
    return fail();
  }
  for (std::uint16_t vp = 0; vp < observed.vp_count(); ++vp) {
    if (observed.origin_count(vp) != oracle.origins_per_vp[vp]) {
      why << "origin_count(" << vp << ") differs";
      return fail();
    }
    std::size_t listed = 0;
    for (const auto& hop : observed.first_hops(vp)) {
      const auto it = oracle.first_hop[vp].find(observed.asn_at(hop.as));
      if (it == oracle.first_hop[vp].end() || it->second != hop.count) {
        why << "first hop of vp " << vp << " via "
            << observed.asn_at(hop.as).value() << " differs";
        return fail();
      }
      ++listed;
    }
    if (listed != oracle.first_hop[vp].size()) {
      why << "vp " << vp << " lists " << listed << " first hops, want "
          << oracle.first_hop[vp].size();
      return fail();
    }
  }
  return std::nullopt;
}

std::string render_observed(const infer::ObservedPaths& observed,
                            const infer::SanitizeStats& stats) {
  std::ostringstream out;
  out << "stats " << stats.input_paths << ' ' << stats.dropped_loop << ' '
      << stats.dropped_reserved << ' ' << stats.kept << '\n';
  for (std::size_t p = 0; p < observed.path_count(); ++p) {
    out << "path " << observed.vp_of_path(p) << ':';
    for (const infer::AsIndex hop : observed.path(p)) out << ' ' << hop;
    out << " |";
    for (const std::uint32_t slot : observed.path_slots(p)) out << ' ' << slot;
    out << '\n';
  }
  for (infer::AsIndex i = 0; i < observed.as_count(); ++i) {
    out << "as " << observed.asn_at(i).value() << ' '
        << observed.transit_degree(i) << ' ' << observed.node_degree(i)
        << ':';
    for (const infer::Adjacency& entry : observed.neighbors(i)) {
      out << ' ' << entry.neighbor << '/' << entry.link;
    }
    out << '\n';
  }
  out << "rank";
  for (const infer::AsIndex index : observed.rank_order()) out << ' ' << index;
  out << '\n';
  for (infer::LinkId id = 0; id < observed.link_count(); ++id) {
    const auto [a, b] = observed.link_ends(id);
    out << "link " << link_name(observed.link_order()[id]) << ' ' << a << ' '
        << b << ' ' << observed.link_occurrences(id) << ' '
        << observed.link_vp_count(id) << '\n';
  }
  for (std::size_t vp = 0; vp < observed.vp_count(); ++vp) {
    const auto index = static_cast<std::uint16_t>(vp);
    out << "vp " << observed.vp_asns()[vp].value() << ' '
        << observed.origin_count(index) << ':';
    for (const infer::FirstHop& hop : observed.first_hops(index)) {
      out << ' ' << hop.as << '=' << hop.count;
    }
    out << '\n';
  }
  return out.str();
}

}  // namespace asrel::test
