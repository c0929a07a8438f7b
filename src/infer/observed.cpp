#include "infer/observed.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>
#include <string>

namespace asrel::infer {

namespace {

using asn::Asn;

/// Open-addressing map from 64-bit keys to 32-bit values: linear probing
/// over a power-of-two table kept at most half full. All-ones is the empty
/// key; no caller produces it (ASN keys fit in 32 bits, and pair keys put
/// a VP number or an index below kNoAs in the high half).
class FlatMap {
 public:
  explicit FlatMap(std::size_t expected) {
    rehash(std::bit_ceil(std::max<std::size_t>(16, expected * 2)));
  }

  /// The value slot for `key`, created holding `fresh` when absent.
  /// `inserted` reports which. The reference lives until the next call.
  std::uint32_t& slot(std::uint64_t key, std::uint32_t fresh,
                      bool& inserted) {
    if (2 * (size_ + 1) > slots_.size()) rehash(2 * slots_.size());
    Slot* hit = probe(key);
    inserted = hit->key == kEmpty;
    if (inserted) {
      *hit = Slot{key, fresh};
      ++size_;
    }
    return hit->value;
  }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.key != kEmpty) fn(s.key, s.value);
    }
  }

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  struct Slot {
    std::uint64_t key = kEmpty;
    std::uint32_t value = 0;
  };

  Slot* probe(std::uint64_t key) {
    std::size_t i = (key * 0x9E3779B97F4A7C15ull) >> shift_;
    while (slots_[i].key != key && slots_[i].key != kEmpty) {
      i = (i + 1) & (slots_.size() - 1);
    }
    return &slots_[i];
  }

  void rehash(std::size_t capacity) {
    std::vector<Slot> old(capacity);
    old.swap(slots_);
    shift_ = 64 - std::countr_zero(capacity);
    for (const Slot& s : old) {
      if (s.key != kEmpty) *probe(s.key) = s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  int shift_ = 64;
};

}  // namespace

ObservedPaths ObservedPaths::build(const bgp::PathTable& table,
                                   SanitizeStats* stats) {
  const auto vps = table.vantage_points();
  if (vps.size() > std::numeric_limits<std::uint16_t>::max()) {
    throw std::invalid_argument(
        "ObservedPaths: " + std::to_string(vps.size()) +
        " vantage points; at most 65535 fit the 16-bit VP numbers");
  }
  ObservedPaths out;
  SanitizeStats local;

  out.vp_asns_.reserve(vps.size());
  for (const auto& vp : vps) out.vp_asns_.push_back(vp.asn);
  out.origins_per_vp_.assign(vps.size(), 0);

  // Sanitizing only shrinks paths, so the table's sizes bound the arena.
  out.arena_.reserve(table.hop_count());
  out.offsets_.reserve(table.path_count() + 1);
  out.path_vp_.reserve(table.path_count());

  // Pass 1: sanitize and store paths under provisional ids. Each distinct
  // ASN is looked up in `provisional` and classified (reserved or not)
  // once; loops are caught by stamping ids with the path's serial number.
  FlatMap provisional(table.origin_count());
  std::vector<Asn> provisional_asn;
  std::vector<std::uint8_t> reserved;
  std::vector<std::uint32_t> last_seen;
  std::vector<std::uint8_t> kept_as;
  FlatMap first_hop_counts(vps.size() * 16);  // (vp << 32 | id) -> origins
  std::vector<AsIndex> hops;
  std::uint32_t serial = 0;
  table.for_each_path([&](const bgp::PathTable::PathRef& ref) {
    ++local.input_paths;
    hops.clear();
    bool has_reserved = false;
    Asn previous;
    for (const Asn hop : ref.path) {
      if (!hops.empty() && hop == previous) continue;  // prepending
      previous = hop;
      bool inserted = false;
      const AsIndex id = provisional.slot(
          hop.value(), static_cast<std::uint32_t>(provisional_asn.size()),
          inserted);
      if (inserted) {
        provisional_asn.push_back(hop);
        reserved.push_back(asn::is_reserved(hop) ? 1 : 0);
        last_seen.push_back(0);
        kept_as.push_back(0);
      }
      has_reserved |= reserved[id] != 0;
      hops.push_back(id);
    }
    if (has_reserved) {
      ++local.dropped_reserved;
      return;
    }
    ++serial;
    for (const AsIndex id : hops) {
      if (last_seen[id] == serial) {
        ++local.dropped_loop;
        return;
      }
      last_seen[id] = serial;
    }
    ++local.kept;
    out.arena_.insert(out.arena_.end(), hops.begin(), hops.end());
    out.offsets_.push_back(static_cast<std::uint32_t>(out.arena_.size()));
    out.path_vp_.push_back(static_cast<std::uint16_t>(ref.vp_index));
    for (const AsIndex id : hops) kept_as[id] = 1;
    if (hops.size() >= 2) {
      bool inserted = false;
      ++first_hop_counts.slot((std::uint64_t{ref.vp_index} << 32) | hops[1],
                              0, inserted);
    }
    ++out.origins_per_vp_[ref.vp_index];
  });

  // Final indices: the ASes of kept paths in ascending ASN order, so index
  // order is ASN order. Rewrite the arena in place.
  std::vector<AsIndex> by_asn;
  for (AsIndex id = 0; id < kept_as.size(); ++id) {
    if (kept_as[id] != 0) by_asn.push_back(id);
  }
  std::sort(by_asn.begin(), by_asn.end(), [&](AsIndex a, AsIndex b) {
    return provisional_asn[a] < provisional_asn[b];
  });
  const std::size_t n = by_asn.size();
  std::vector<AsIndex> final_index(provisional_asn.size(), kNoAs);
  out.ases_.reserve(n);
  for (AsIndex i = 0; i < n; ++i) {
    final_index[by_asn[i]] = i;
    out.ases_.push_back(provisional_asn[by_asn[i]]);
  }
  for (AsIndex& hop : out.arena_) hop = final_index[hop];

  // Pass 2: links in first-occurrence order, with each hop's directed slot,
  // occurrences, a VP bitset and, per endpoint, whether that endpoint was
  // seen mid-path on the link (bit 0 for the lower index, bit 1 for the
  // higher).
  out.slots_.assign(out.arena_.size(), 0);
  const std::size_t words = (vps.size() + 63) / 64;
  FlatMap link_index(n * 4);
  std::vector<std::uint64_t> link_vps;
  std::vector<std::uint8_t> transit_end;
  for (std::size_t p = 0; p < out.path_count(); ++p) {
    const auto path = out.path(p);
    std::uint32_t* slot = out.slots_.data() + out.offsets_[p];
    const std::uint16_t vp = out.path_vp_[p];
    const std::size_t vp_word = vp / 64;
    const std::uint64_t vp_bit = std::uint64_t{1} << (vp % 64);
    LinkId previous_link = kNoLink;
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      const AsIndex lo = std::min(path[i], path[i + 1]);
      const AsIndex hi = std::max(path[i], path[i + 1]);
      bool inserted = false;
      const LinkId id = link_index.slot(
          (std::uint64_t{lo} << 32) | hi,
          static_cast<LinkId>(out.link_order_.size()), inserted);
      if (inserted) {
        out.link_order_.emplace_back(out.ases_[lo], out.ases_[hi]);
        out.link_ends_.emplace_back(lo, hi);
        out.link_occurrences_.push_back(0);
        link_vps.resize(link_vps.size() + words);
        transit_end.push_back(0);
      }
      slot[i] = directed_slot(id, path[i], path[i + 1]);
      ++out.link_occurrences_[id];
      link_vps[id * words + vp_word] |= vp_bit;
      if (previous_link != kNoLink) {
        // path[i] sits between the previous link and this one.
        const AsIndex middle = path[i];
        transit_end[id] |= middle == lo ? 1 : 2;
        transit_end[previous_link] |=
            middle == out.link_ends_[previous_link].first ? 1 : 2;
      }
      previous_link = id;
    }
  }

  const std::size_t link_count = out.link_order_.size();
  out.link_vp_count_.resize(link_count);
  out.transit_degree_.assign(n, 0);
  std::vector<std::uint32_t> degree(n, 0);
  for (LinkId id = 0; id < link_count; ++id) {
    int vp_count = 0;
    for (std::size_t w = 0; w < words; ++w) {
      vp_count += std::popcount(link_vps[id * words + w]);
    }
    out.link_vp_count_[id] = static_cast<std::uint16_t>(vp_count);
    const auto [lo, hi] = out.link_ends_[id];
    ++degree[lo];
    ++degree[hi];
    if (transit_end[id] & 1) ++out.transit_degree_[lo];
    if (transit_end[id] & 2) ++out.transit_degree_[hi];
  }

  // Neighbor lists (CSR), each sorted by neighbor index.
  out.adjacency_offsets_.resize(n + 1);
  for (std::size_t i = 0; i < n; ++i) {
    out.adjacency_offsets_[i + 1] = out.adjacency_offsets_[i] + degree[i];
  }
  out.adjacency_.resize(2 * link_count);
  std::vector<std::uint32_t> cursor(out.adjacency_offsets_.begin(),
                                    out.adjacency_offsets_.end() - 1);
  for (LinkId id = 0; id < link_count; ++id) {
    const auto [lo, hi] = out.link_ends_[id];
    out.adjacency_[cursor[lo]++] = Adjacency{hi, id};
    out.adjacency_[cursor[hi]++] = Adjacency{lo, id};
  }
  for (std::size_t i = 0; i < n; ++i) {
    std::sort(out.adjacency_.begin() + out.adjacency_offsets_[i],
              out.adjacency_.begin() + out.adjacency_offsets_[i + 1],
              [](const Adjacency& x, const Adjacency& y) {
                return x.neighbor < y.neighbor;
              });
  }

  out.rank_.resize(n);
  for (std::size_t i = 0; i < n; ++i) out.rank_[i] = static_cast<AsIndex>(i);
  std::sort(out.rank_.begin(), out.rank_.end(), [&](AsIndex a, AsIndex b) {
    if (out.transit_degree_[a] != out.transit_degree_[b]) {
      return out.transit_degree_[a] > out.transit_degree_[b];
    }
    if (degree[a] != degree[b]) return degree[a] > degree[b];
    return a < b;
  });

  // First hops per VP, sorted by neighbor index.
  out.first_hop_offsets_.assign(vps.size() + 1, 0);
  first_hop_counts.for_each([&](std::uint64_t key, std::uint32_t) {
    ++out.first_hop_offsets_[(key >> 32) + 1];
  });
  for (std::size_t vp = 0; vp < vps.size(); ++vp) {
    out.first_hop_offsets_[vp + 1] += out.first_hop_offsets_[vp];
  }
  out.first_hops_.resize(out.first_hop_offsets_.back());
  cursor.assign(out.first_hop_offsets_.begin(),
                out.first_hop_offsets_.end() - 1);
  first_hop_counts.for_each([&](std::uint64_t key, std::uint32_t count) {
    out.first_hops_[cursor[key >> 32]++] =
        FirstHop{final_index[key & 0xFFFFFFFFu], count};
  });
  for (std::size_t vp = 0; vp < vps.size(); ++vp) {
    std::sort(out.first_hops_.begin() + out.first_hop_offsets_[vp],
              out.first_hops_.begin() + out.first_hop_offsets_[vp + 1],
              [](const FirstHop& x, const FirstHop& y) { return x.as < y.as; });
  }

  if (stats != nullptr) *stats = local;
  return out;
}

std::optional<AsIndex> ObservedPaths::index_of(asn::Asn asn) const {
  const auto it = std::lower_bound(ases_.begin(), ases_.end(), asn);
  if (it == ases_.end() || *it != asn) return std::nullopt;
  return static_cast<AsIndex>(it - ases_.begin());
}

LinkId ObservedPaths::link_id(AsIndex a, AsIndex b) const {
  if (node_degree(b) < node_degree(a)) std::swap(a, b);
  const auto list = neighbors(a);
  const auto it = std::lower_bound(
      list.begin(), list.end(), b,
      [](const Adjacency& entry, AsIndex x) { return entry.neighbor < x; });
  return it != list.end() && it->neighbor == b ? it->link : kNoLink;
}

LinkId ObservedPaths::find_link(const AsLink& link) const {
  const auto a = index_of(link.a);
  const auto b = index_of(link.b);
  return a && b ? link_id(*a, *b) : kNoLink;
}

}  // namespace asrel::infer
