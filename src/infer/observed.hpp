// The observed world: sanitized collector paths and the statistics every
// inference algorithm consumes (visible links, node/transit degrees, VP
// visibility). Inference algorithms operate on *this* view only — they never
// touch the ground-truth graph, mirroring how the real tools consume
// Route Views / RIS dumps.
//
// Everything is dense. ASes are numbered 0..as_count() in ascending ASN
// order, so comparing two AsIndex values compares their ASNs. Paths are
// stored as AsIndex hops. Links are numbered 0..link_count() in the order
// they first occur over the paths, and each AS carries a neighbor list
// (sorted by AsIndex) that maps an (AsIndex, AsIndex) pair to its LinkId.
//
// The build resolves every hop's link once and keeps it: path_slots(p)
// holds, per hop pair of path p, the directed slot 2 * LinkId when the hop
// runs link.a -> link.b and 2 * LinkId + 1 when it runs b -> a. Path
// sweeps read these instead of calling link_id per hop; link_id is for
// pairs that are not hops of an observed path.
//
// The build is chunk-parallel and its output does not depend on the
// thread count. Sanitize runs per contiguous origin range, each chunk
// writing into its range's upper-bound region of one shared hop arena; an
// ordered compaction closes the gaps. Links are numbered per contiguous
// path range and merged in range order, which reproduces the global
// first-occurrence order (DESIGN.md §5).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "asn/asn.hpp"
#include "bgp/propagation.hpp"
#include "validation/label.hpp"

namespace asrel::infer {

using val::AsLink;

struct SanitizeStats {
  std::size_t input_paths = 0;
  std::size_t dropped_loop = 0;
  std::size_t dropped_reserved = 0;  ///< AS_TRANS / private / documentation
  std::size_t kept = 0;
};

/// Dense AS index local to the observed data set (ascending ASN order).
using AsIndex = std::uint32_t;
inline constexpr AsIndex kNoAs = ~AsIndex{0};

/// Dense link id: position in link_order().
using LinkId = std::uint32_t;
inline constexpr LinkId kNoLink = ~LinkId{0};

/// Directed slot of a hop from `from` to `to` across `link`: 2 * link when
/// it runs link.a -> link.b (ascending index), 2 * link + 1 when reversed.
inline std::uint32_t directed_slot(LinkId link, AsIndex from, AsIndex to) {
  return 2 * link + (from < to ? 0 : 1);
}

/// One entry of an AS's neighbor list.
struct Adjacency {
  AsIndex neighbor = kNoAs;
  LinkId link = kNoLink;
};

/// Distinct origins a VP reaches through one first-hop neighbor.
struct FirstHop {
  AsIndex as = kNoAs;
  std::uint32_t count = 0;
};

class ObservedPaths {
 public:
  /// Sanitization (the first step of every published pipeline):
  ///  * prepending collapsed,
  ///  * paths with loops (non-consecutive repeats) dropped,
  ///  * paths containing reserved ASNs or AS_TRANS dropped.
  /// Throws std::invalid_argument when the table has more than 65,535
  /// vantage points: VP numbers are stored in 16 bits. `threads` follows
  /// the pool convention (0 = auto, 1 = serial, N = at most N); the result
  /// is identical for every value.
  [[nodiscard]] static ObservedPaths build(const bgp::PathTable& table,
                                           SanitizeStats* stats = nullptr,
                                           unsigned threads = 0);

  // ---- paths ----
  [[nodiscard]] std::size_t path_count() const { return offsets_.size() - 1; }
  /// Hops of path `i`, collector side first.
  [[nodiscard]] std::span<const AsIndex> path(std::size_t i) const {
    return std::span{arena_}.subspan(offsets_[i],
                                     offsets_[i + 1] - offsets_[i]);
  }
  /// directed_slot of each hop of path `i`: max(size - 1, 0) entries,
  /// entry k for the hop path(i)[k] -> path(i)[k + 1].
  [[nodiscard]] std::span<const std::uint32_t> path_slots(
      std::size_t i) const {
    const std::uint32_t size = offsets_[i + 1] - offsets_[i];
    return std::span{slots_}.subspan(offsets_[i], size == 0 ? 0 : size - 1);
  }
  [[nodiscard]] std::uint16_t vp_of_path(std::size_t i) const {
    return path_vp_[i];
  }

  // ---- AS universe ----
  [[nodiscard]] std::size_t as_count() const { return ases_.size(); }
  [[nodiscard]] asn::Asn asn_at(AsIndex index) const { return ases_[index]; }
  [[nodiscard]] std::optional<AsIndex> index_of(asn::Asn asn) const;
  [[nodiscard]] std::span<const asn::Asn> ases() const { return ases_; }

  /// Number of distinct neighbors observed next to this AS while it is in
  /// the middle of a path — Luckie et al.'s "transit degree".
  [[nodiscard]] std::uint32_t transit_degree(AsIndex index) const {
    return transit_degree_[index];
  }
  [[nodiscard]] std::uint32_t node_degree(AsIndex index) const {
    return adjacency_offsets_[index + 1] - adjacency_offsets_[index];
  }
  /// The AS's observed neighbors, ascending by AsIndex.
  [[nodiscard]] std::span<const Adjacency> neighbors(AsIndex index) const {
    return std::span{adjacency_}.subspan(adjacency_offsets_[index],
                                         node_degree(index));
  }

  /// ASes sorted by (transit degree desc, node degree desc, asn asc) — the
  /// processing order of the ASRank pipeline.
  [[nodiscard]] std::span<const AsIndex> rank_order() const { return rank_; }

  // ---- links ----
  [[nodiscard]] std::size_t link_count() const { return link_order_.size(); }
  /// Links by LinkId, i.e. in deterministic (first-observed) order.
  [[nodiscard]] std::span<const AsLink> link_order() const {
    return link_order_;
  }
  /// The link between two ASes (either order), or kNoLink.
  [[nodiscard]] LinkId link_id(AsIndex a, AsIndex b) const;
  /// ASN-level lookup for callers outside the index space.
  [[nodiscard]] LinkId find_link(const AsLink& link) const;
  /// Endpoints as (index of link.a, index of link.b); first < second.
  [[nodiscard]] std::pair<AsIndex, AsIndex> link_ends(LinkId id) const {
    return link_ends_[id];
  }
  /// Path positions where the link appears.
  [[nodiscard]] std::uint32_t link_occurrences(LinkId id) const {
    return link_occurrences_[id];
  }
  /// Distinct VPs that observed the link.
  [[nodiscard]] std::uint16_t link_vp_count(LinkId id) const {
    return link_vp_count_[id];
  }

  // ---- vantage points ----
  [[nodiscard]] std::span<const asn::Asn> vp_asns() const { return vp_asns_; }
  [[nodiscard]] std::size_t vp_count() const { return vp_asns_.size(); }

  /// Distinct origins for which each neighbor is the VP's first hop — the
  /// "full table?" signal used to infer VP-adjacent relationships. Sorted
  /// by AsIndex; neighbors never seen as a first hop are absent.
  [[nodiscard]] std::span<const FirstHop> first_hops(std::uint16_t vp) const {
    return std::span{first_hops_}.subspan(
        first_hop_offsets_[vp],
        first_hop_offsets_[vp + 1] - first_hop_offsets_[vp]);
  }
  [[nodiscard]] std::uint32_t origin_count(std::uint16_t vp) const {
    return origins_per_vp_[vp];
  }

 private:
  /// std::allocator whose value-initialization default-initializes:
  /// resize() neither zero-fills nor touches the new pages, so the build's
  /// chunks fault in and fill the path arrays in parallel.
  template <typename T>
  struct UninitAllocator : std::allocator<T> {
    template <typename U>
    struct rebind {
      using other = UninitAllocator<U>;
    };
    UninitAllocator() = default;
    template <typename U>
    UninitAllocator(const UninitAllocator<U>&) noexcept {}
    template <typename U>
    void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
      ::new (static_cast<void*>(p)) U;
    }
    template <typename U, typename... Args>
    void construct(U* p, Args&&... args) {
      ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }
  };
  template <typename T>
  using UninitVector = std::vector<T, UninitAllocator<T>>;

  UninitVector<AsIndex> arena_;
  // Directed hop slots, parallel to arena_; each path's last entry is 0.
  UninitVector<std::uint32_t> slots_;
  UninitVector<std::uint32_t> offsets_{0};
  UninitVector<std::uint16_t> path_vp_;

  std::vector<asn::Asn> ases_;  // sorted
  std::vector<std::uint32_t> transit_degree_;
  std::vector<std::uint32_t> adjacency_offsets_{0};  // CSR over ases_
  std::vector<Adjacency> adjacency_;
  std::vector<AsIndex> rank_;

  std::vector<AsLink> link_order_;
  std::vector<std::pair<AsIndex, AsIndex>> link_ends_;
  std::vector<std::uint32_t> link_occurrences_;
  std::vector<std::uint16_t> link_vp_count_;

  std::vector<asn::Asn> vp_asns_;
  std::vector<std::uint32_t> first_hop_offsets_{0};  // CSR over VPs
  std::vector<FirstHop> first_hops_;
  std::vector<std::uint32_t> origins_per_vp_;
};

}  // namespace asrel::infer
