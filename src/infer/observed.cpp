#include "infer/observed.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/parallel.hpp"
#include "obs/trace.hpp"

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

/// One contiguous origin range. Pass 1 fills the sanitize fields under
/// provisional ids local to the chunk; pass 2 the link fields, under local
/// link ids in the range's own first-occurrence order.
struct Chunk {
  // Pass 1.
  SanitizeStats stats;
  std::vector<Asn> asn;            // provisional id -> ASN
  std::vector<std::uint8_t> kept;  // id occurs on a kept path
  FlatMap first_hops{16};          // (vp << 32 | id) -> origins
  std::vector<std::uint32_t> origins_per_vp;
  std::size_t hops = 0;  // kept hops written at the region's start
  // Pass 2.
  std::vector<AsIndex> final_index;  // id -> AsIndex, kNoAs when not kept
  std::vector<std::pair<AsIndex, AsIndex>> ends;
  std::vector<std::uint32_t> occurrences;
  std::vector<std::uint64_t> vps;  // `words` bitset words per link
  // Bit 0: the lower-index end was seen mid-path on the link; bit 1: the
  // higher-index end.
  std::vector<std::uint8_t> transit_end;
};

}  // namespace

ObservedPaths ObservedPaths::build(const bgp::PathTable& table,
                                   SanitizeStats* stats, unsigned threads) {
  const auto vps = table.vantage_points();
  if (vps.size() > std::numeric_limits<std::uint16_t>::max()) {
    throw std::invalid_argument(
        "ObservedPaths: " + std::to_string(vps.size()) +
        " vantage points; at most 65535 fit the 16-bit VP numbers");
  }
  core::ThreadPool& pool = core::ThreadPool::shared();
  const unsigned workers = core::ThreadPool::effective_threads(threads);
  ObservedPaths out;

  out.vp_asns_.reserve(vps.size());
  for (const auto& vp : vps) out.vp_asns_.push_back(vp.asn);

  // Both passes run per contiguous origin range. Sanitizing only shrinks
  // paths, so each range's table sizes bound what it keeps: chunk c writes
  // hops from hop_base[c], and path ends and VPs from path_base[c], of
  // arrays allocated once, here, and filled (and faulted in) by the
  // chunks. Chunks work on a local Chunk and move it out at the end;
  // writing neighboring elements of `chunks` per path would false-share.
  const std::size_t chunk_count = std::max<std::size_t>(
      1, std::min<std::size_t>(workers, table.origin_count()));
  const std::vector<std::size_t> bounds =
      bgp::split_origins_by_hops(table, chunk_count);
  std::vector<std::size_t> hop_base(chunk_count + 1, 0);
  std::vector<std::size_t> path_base(chunk_count + 1, 0);
  for (std::size_t c = 0; c < chunk_count; ++c) {
    hop_base[c + 1] = hop_base[c];
    path_base[c + 1] = path_base[c];
    for (std::size_t origin = bounds[c]; origin < bounds[c + 1]; ++origin) {
      const auto node = static_cast<topo::NodeId>(origin);
      hop_base[c + 1] += table.origin_hop_count(node);
      path_base[c + 1] += table.origin_path_count(node);
    }
  }
  out.arena_.resize(hop_base[chunk_count]);
  out.offsets_.resize(path_base[chunk_count] + 1);
  out.path_vp_.resize(path_base[chunk_count]);
  std::vector<Chunk> chunks(chunk_count);

  // Pass 1: sanitize. Each distinct ASN is looked up in the chunk's
  // `provisional` map and classified (reserved or not) once; loops are
  // caught by stamping ids with the path's serial number. A reserved ASN
  // drops the path at once, a loop only at its end, since a later reserved
  // ASN takes precedence in the stats. Hops go straight to the region and
  // are kept by advancing `part.hops` past them; path ends are stored
  // relative to the region start until the compaction.
  pool.run_indexed(chunk_count, workers, [&](std::size_t c) {
    obs::TraceSpan span{"infer.sanitize.chunk"};
    Chunk part;
    part.first_hops = FlatMap(vps.size() * 4);
    part.origins_per_vp.assign(vps.size(), 0);
    FlatMap provisional(table.origin_count());
    std::vector<std::uint8_t> reserved;
    std::vector<std::uint32_t> last_seen;
    AsIndex* const region = out.arena_.data() + hop_base[c];
    std::uint32_t* const ends = out.offsets_.data() + 1 + path_base[c];
    std::uint16_t* const path_vps = out.path_vp_.data() + path_base[c];
    std::uint32_t serial = 0;
    for (std::size_t origin = bounds[c]; origin < bounds[c + 1]; ++origin) {
      table.for_each_path_of(
          static_cast<topo::NodeId>(origin),
          [&](const bgp::PathTable::PathRef& ref) {
            ++part.stats.input_paths;
            ++serial;
            AsIndex* const hops = region + part.hops;
            std::size_t length = 0;
            bool has_loop = false;
            Asn previous;
            for (const Asn hop : ref.path) {
              if (length != 0 && hop == previous) continue;  // prepending
              previous = hop;
              bool inserted = false;
              const AsIndex id = provisional.slot(
                  hop.value(), static_cast<std::uint32_t>(part.asn.size()),
                  inserted);
              if (inserted) {
                part.asn.push_back(hop);
                reserved.push_back(asn::is_reserved(hop) ? 1 : 0);
                last_seen.push_back(0);
                part.kept.push_back(0);
              }
              if (reserved[id] != 0) {
                ++part.stats.dropped_reserved;
                return;
              }
              has_loop |= last_seen[id] == serial;
              last_seen[id] = serial;
              hops[length++] = id;
            }
            if (has_loop) {
              ++part.stats.dropped_loop;
              return;
            }
            for (std::size_t i = 0; i < length; ++i) part.kept[hops[i]] = 1;
            if (length >= 2) {
              bool inserted = false;
              ++part.first_hops.slot(
                  (std::uint64_t{ref.vp_index} << 32) | hops[1], 0, inserted);
            }
            ++part.origins_per_vp[ref.vp_index];
            part.hops += length;
            ends[part.stats.kept] = static_cast<std::uint32_t>(part.hops);
            path_vps[part.stats.kept] =
                static_cast<std::uint16_t>(ref.vp_index);
            ++part.stats.kept;
          });
    }
    chunks[c] = std::move(part);
  });

  // Final indices: the sorted union of every chunk's kept ASNs, so index
  // order is ASN order.
  for (const Chunk& part : chunks) {
    for (std::size_t id = 0; id < part.asn.size(); ++id) {
      if (part.kept[id] != 0) out.ases_.push_back(part.asn[id]);
    }
  }
  std::sort(out.ases_.begin(), out.ases_.end());
  out.ases_.erase(std::unique(out.ases_.begin(), out.ases_.end()),
                  out.ases_.end());
  const std::size_t n = out.ases_.size();

  // Ordered compaction: move each region down to where the kept data of
  // the chunks before it ends. Destinations never pass their sources, so
  // moving in chunk order never overwrites data not yet moved. Afterwards
  // path_base[c] is where chunk c's kept paths start.
  SanitizeStats local;
  std::size_t hop_at = 0;
  std::size_t path_at = 0;
  for (std::size_t c = 0; c < chunk_count; ++c) {
    const Chunk& part = chunks[c];
    const std::size_t kept = part.stats.kept;
    if (hop_at != hop_base[c]) {
      const auto from =
          out.arena_.begin() + static_cast<std::ptrdiff_t>(hop_base[c]);
      std::copy(from, from + static_cast<std::ptrdiff_t>(part.hops),
                out.arena_.begin() + static_cast<std::ptrdiff_t>(hop_at));
    }
    for (std::size_t k = 0; k < kept; ++k) {
      out.offsets_[1 + path_at + k] = static_cast<std::uint32_t>(
          hop_at + out.offsets_[1 + path_base[c] + k]);
      out.path_vp_[path_at + k] = out.path_vp_[path_base[c] + k];
    }
    path_base[c] = path_at;
    hop_at += part.hops;
    path_at += kept;
    local.input_paths += part.stats.input_paths;
    local.dropped_loop += part.stats.dropped_loop;
    local.dropped_reserved += part.stats.dropped_reserved;
    local.kept += kept;
  }
  path_base[chunk_count] = path_at;
  out.arena_.resize(hop_at);
  out.offsets_.resize(path_at + 1);
  out.path_vp_.resize(path_at);
  out.slots_.resize(hop_at);

  // Pass 2: each chunk rewrites its paths to final indices, then numbers
  // its links in its own first-occurrence order, writing local directed
  // slots, occurrences, a VP bitset and, per endpoint, whether that
  // endpoint was seen mid-path on the link.
  const std::size_t words = (vps.size() + 63) / 64;
  pool.run_indexed(chunk_count, workers, [&](std::size_t c) {
    obs::TraceSpan span{"infer.sanitize.links"};
    Chunk part = std::move(chunks[c]);
    part.final_index.assign(part.asn.size(), kNoAs);
    for (std::size_t id = 0; id < part.asn.size(); ++id) {
      if (part.kept[id] == 0) continue;
      part.final_index[id] = static_cast<AsIndex>(
          std::lower_bound(out.ases_.begin(), out.ases_.end(), part.asn[id]) -
          out.ases_.begin());
    }
    FlatMap link_index(n * 4);
    for (std::size_t p = path_base[c]; p < path_base[c + 1]; ++p) {
      const std::uint32_t begin = out.offsets_[p];
      const std::uint32_t end = out.offsets_[p + 1];
      AsIndex* const hops = out.arena_.data();
      std::uint32_t* const slots = out.slots_.data();
      for (std::uint32_t i = begin; i < end; ++i) {
        hops[i] = part.final_index[hops[i]];
      }
      const std::uint16_t vp = out.path_vp_[p];
      const std::size_t vp_word = vp / 64;
      const std::uint64_t vp_bit = std::uint64_t{1} << (vp % 64);
      LinkId previous_link = kNoLink;
      for (std::uint32_t i = begin; i + 1 < end; ++i) {
        const AsIndex lo = std::min(hops[i], hops[i + 1]);
        const AsIndex hi = std::max(hops[i], hops[i + 1]);
        bool inserted = false;
        const LinkId id =
            link_index.slot((std::uint64_t{lo} << 32) | hi,
                            static_cast<LinkId>(part.ends.size()), inserted);
        if (inserted) {
          part.ends.emplace_back(lo, hi);
          part.occurrences.push_back(0);
          part.vps.resize(part.vps.size() + words);
          part.transit_end.push_back(0);
        }
        slots[i] = directed_slot(id, hops[i], hops[i + 1]);
        ++part.occurrences[id];
        part.vps[id * words + vp_word] |= vp_bit;
        if (previous_link != kNoLink) {
          // hops[i] sits between the previous link and this one.
          part.transit_end[id] |= hops[i] == lo ? 1 : 2;
          part.transit_end[previous_link] |=
              hops[i] == part.ends[previous_link].first ? 1 : 2;
        }
        previous_link = id;
      }
      if (end != begin) slots[end - 1] = 0;  // unused
    }
    chunks[c] = std::move(part);
  });

  // Merging the chunks in order assigns LinkIds in the global
  // first-occurrence order: occurrences add up, VP bitsets and transit
  // flags OR together. The per-chunk sums merge here too.
  FlatMap link_index(n * 4);
  std::vector<std::uint64_t> link_vps;
  std::vector<std::uint8_t> transit_end;
  std::vector<std::vector<LinkId>> global(chunk_count);
  out.origins_per_vp_.assign(vps.size(), 0);
  std::vector<std::pair<std::uint64_t, std::uint32_t>> first_hop_counts;
  for (std::size_t c = 0; c < chunk_count; ++c) {
    const Chunk& part = chunks[c];
    global[c].resize(part.ends.size());
    for (std::size_t l = 0; l < part.ends.size(); ++l) {
      const auto [lo, hi] = part.ends[l];
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
      global[c][l] = id;
      out.link_occurrences_[id] += part.occurrences[l];
      for (std::size_t w = 0; w < words; ++w) {
        link_vps[id * words + w] |= part.vps[l * words + w];
      }
      transit_end[id] |= part.transit_end[l];
    }
    for (std::size_t vp = 0; vp < vps.size(); ++vp) {
      out.origins_per_vp_[vp] += part.origins_per_vp[vp];
    }
    part.first_hops.for_each([&](std::uint64_t key, std::uint32_t count) {
      first_hop_counts.emplace_back(
          (key >> 32 << 32) | part.final_index[key & 0xFFFFFFFFu], count);
    });
  }
  chunks.clear();

  // Local slots become global ones; the first chunk's local ids already
  // are.
  pool.run_indexed(chunk_count, workers, [&](std::size_t c) {
    if (c == 0) return;
    for (std::size_t p = path_base[c]; p < path_base[c + 1]; ++p) {
      for (std::uint32_t i = out.offsets_[p]; i + 1 < out.offsets_[p + 1];
           ++i) {
        std::uint32_t& slot = out.slots_[i];
        slot = 2 * global[c][slot / 2] + slot % 2;
      }
    }
  });
  global.clear();

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

  // First hops per VP, sorted by neighbor index: the chunks' counts sorted
  // by (vp, AsIndex), with equal keys summed.
  std::sort(first_hop_counts.begin(), first_hop_counts.end());
  out.first_hop_offsets_.assign(vps.size() + 1, 0);
  for (std::size_t i = 0; i < first_hop_counts.size(); ++i) {
    const auto [key, count] = first_hop_counts[i];
    if (i != 0 && first_hop_counts[i - 1].first == key) {
      out.first_hops_.back().count += count;
      continue;
    }
    out.first_hops_.push_back(
        FirstHop{static_cast<AsIndex>(key & 0xFFFFFFFFu), count});
    ++out.first_hop_offsets_[(key >> 32) + 1];
  }
  for (std::size_t vp = 0; vp < vps.size(); ++vp) {
    out.first_hop_offsets_[vp + 1] += out.first_hop_offsets_[vp];
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
