// Snapshot v3: the one on-disk form of an io::Snapshot, a flat,
// mmap-able image.
//
// The data is laid out as fixed-width little-endian records with the
// hash indexes *precomputed in the file*, so a reader maps it and serves
// it in place; it is the query engine's only representation:
//
//   [Header]                 fixed 264 bytes: magic "ASRELFL3", version,
//                            sizes, meta, counts, section offsets
//   [class-name refs]        StrRef per class name
//   [string pool]            deduplicated UTF-8 bytes (countries, names)
//   [AS records]             48-byte As, snapshot order (sorted by ASN)
//   [ASN hash index]         open addressing, u32 slots -> AS index
//   [edge records]           12-byte Edge (a = provider for P2C)
//   [edge hash index]        keyed by canonical (min,max) pair
//   [CSR adjacency]          offsets[n_ases+1] + edge indexes, both u32;
//                            row i lists every edge incident to AS i
//   [clique] [hypergiants]   u32 ASN lists
//   [validation labels]      16-byte Label + hash index
//   [algorithm table]        Algo entries -> shared label array + one
//                            hash index per algorithm
//   [link tags]              16-byte LinkTag + hash index
//
// Every section starts 8-byte aligned, so a reader maps the file and
// casts section pointers to the record structs below — zero parse, zero
// allocation. Opening is O(#sections): magic/version/size checks plus
// per-section bounds validation. A deep pass (fnv1a64 over everything
// after the header) is optional: the atomic write protocol (tmp + fsync
// + rename) means a file that exists at the final path was written
// completely, so the hot-reload path can skip the checksum and swap
// snapshots in microseconds. Structural open guarantees memory safety on
// arbitrary bytes (probes are capped, string refs clamped); semantic
// integrity needs the deep verify. The reader does not range-check enum
// codes: an out-of-range region, tier or relationship renders as "?" /
// "unknown" wherever it is shown.
//
// Hash tables: power-of-two capacity at most 1/2 load, SplitMix64
// finalizer, linear probing, u32 slots holding record indexes with
// 0xFFFFFFFF = empty. Lookups are one multiply-shift plus a short
// linear scan over mapped memory.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "io/snapshot.hpp"

namespace asrel::io {

inline constexpr std::string_view kFlatSnapshotMagic = "ASRELFL3";
inline constexpr std::uint32_t kFlatSnapshotVersion = 3;

namespace flat {

// The zero-parse reader casts mapped bytes to these structs, which is
// only the declared wire layout on a little-endian host.
static_assert(std::endian::native == std::endian::little,
              "flat snapshots are little-endian on disk and read in place");

inline constexpr std::uint32_t kEmptySlot = 0xFFFFFFFFu;

/// SplitMix64 finalizer — the table hash. Full-avalanche, so sequential
/// ASNs spread uniformly.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Canonical (min,max) pair key shared by the edge/link/validation/
/// verdict tables.
[[nodiscard]] constexpr std::uint64_t link_key(std::uint32_t a,
                                               std::uint32_t b) {
  const std::uint32_t lo = a < b ? a : b;
  const std::uint32_t hi = a < b ? b : a;
  return (std::uint64_t{lo} << 32) | hi;
}

/// Offset + length into the string pool.
struct StrRef {
  std::uint32_t off = 0;
  std::uint32_t len = 0;
};
static_assert(sizeof(StrRef) == 8);

// AS-attribute and edge flag bits.
inline constexpr std::uint8_t kAsFlagHypergiant = 1u << 0;
inline constexpr std::uint8_t kAsFlagDocuments = 1u << 1;
inline constexpr std::uint8_t kAsFlagRpsl = 1u << 2;
inline constexpr std::uint8_t kAsFlagMeetings = 1u << 3;
inline constexpr std::uint8_t kAsFlagStrips = 1u << 4;
inline constexpr std::uint8_t kEdgeFlagScopeCommunity = 1u << 0;
inline constexpr std::uint8_t kEdgeFlagMisdocumented = 1u << 1;
inline constexpr std::uint8_t kEdgeFlagHybrid = 1u << 2;

struct As {
  std::uint32_t asn = 0;
  std::uint8_t region = 0;
  std::uint8_t tier = 0;
  std::uint8_t stub_kind = 0;
  std::uint8_t flags = 0;
  double prepend_propensity = 0.0;
  std::uint32_t transit_degree = 0;
  std::uint32_t node_degree = 0;
  std::uint32_t cone_size = 0;
  StrRef country;
  /// Incident-link counts precomputed at build time (the only AsSummary
  /// fields not derivable from the CSR row).
  std::uint32_t observed_links = 0;
  std::uint32_t validated_links = 0;
  std::uint32_t pad = 0;
};
static_assert(sizeof(As) == 48 && alignof(As) == 8);

struct Edge {
  std::uint32_t a = 0;  ///< provider when rel == kP2C
  std::uint32_t b = 0;
  std::uint8_t rel = 0;
  std::uint8_t scope = 0;
  std::uint8_t flags = 0;
  std::uint8_t hybrid = 0;  ///< RelType code, valid iff kEdgeFlagHybrid
};
static_assert(sizeof(Edge) == 12);

/// Validation entry or algorithm verdict; link stored canonical (a < b).
struct Label {
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint32_t provider = 0;
  std::uint8_t rel = 0;
  std::uint8_t pad[3] = {0, 0, 0};
};
static_assert(sizeof(Label) == 16);

struct LinkTag {
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint32_t regional_class = 0;
  std::uint32_t topological_class = 0;
};
static_assert(sizeof(LinkTag) == 16);

/// One inference algorithm: name, its slice of the shared label array,
/// and its own hash index. Offsets are absolute file offsets.
struct Algo {
  StrRef name;
  std::uint64_t labels_off = 0;
  std::uint64_t labels_count = 0;
  std::uint64_t index_off = 0;
  std::uint64_t index_capacity = 0;
};
static_assert(sizeof(Algo) == 40);

struct Header {
  char magic[8];
  std::uint32_t version;
  std::uint32_t header_size;
  std::uint64_t file_size;
  std::uint64_t checksum;  ///< fnv1a64 of every byte after the header

  std::int64_t as_count;
  std::uint64_t seed;
  std::uint64_t scheme_seed;
  std::uint64_t epoch;
  std::uint64_t built_unix_ms;

  std::uint32_t n_class_names;
  std::uint32_t n_ases;
  std::uint32_t n_edges;
  std::uint32_t n_clique;
  std::uint32_t n_hypergiants;
  std::uint32_t n_validation;
  std::uint32_t n_algorithms;
  std::uint32_t n_links;

  std::uint64_t off_class_names;
  std::uint64_t off_strings;
  std::uint64_t strings_bytes;
  std::uint64_t off_ases;
  std::uint64_t off_as_index;
  std::uint64_t as_index_capacity;
  std::uint64_t off_edges;
  std::uint64_t off_edge_index;
  std::uint64_t edge_index_capacity;
  std::uint64_t off_csr_offsets;  ///< n_ases + 1 u32 prefix sums
  std::uint64_t off_csr_entries;  ///< edge indexes, 2 * n_edges u32
  std::uint64_t off_clique;
  std::uint64_t off_hypergiants;
  std::uint64_t off_validation;
  std::uint64_t off_validation_index;
  std::uint64_t validation_index_capacity;
  std::uint64_t off_algorithms;
  std::uint64_t off_links;
  std::uint64_t off_link_index;
  std::uint64_t link_index_capacity;
};
static_assert(sizeof(Header) == 264 && alignof(Header) == 8);

}  // namespace flat

/// to_snapshot_bytes (declared in io/snapshot.hpp) + the tmp/fsync/rename
/// protocol of io/atomic_file. Honors the fault injector's snapshot write
/// cap (serve/fault_inject.hpp).
[[nodiscard]] bool save_flat_snapshot_file(const Snapshot& snapshot,
                                           const std::string& path,
                                           std::string* error);

/// Read-only view over one flat snapshot — either an mmap of the file or
/// an owned byte buffer. All accessors return pointers/views into that
/// memory; the view must outlive them (the serving layer keeps it behind
/// a shared_ptr pinned by each QueryEngine).
class FlatView {
 public:
  static constexpr std::uint32_t npos = flat::kEmptySlot;

  /// mmaps `path` and validates the structure. `deep_verify` additionally
  /// checks the full payload checksum — required for untrusted bytes,
  /// skippable on the hot-reload path (atomic rename guarantees a
  /// complete file). Honors the fault injector's snapshot read cap: a
  /// capped (torn) read fails like a truncated file.
  [[nodiscard]] static std::shared_ptr<const FlatView> open_file(
      const std::string& path, std::string* error, bool deep_verify = true);

  /// Same validation over an in-memory image (takes ownership).
  [[nodiscard]] static std::shared_ptr<const FlatView> from_bytes(
      std::string bytes, std::string* error, bool deep_verify = true);

  ~FlatView();
  FlatView(const FlatView&) = delete;
  FlatView& operator=(const FlatView&) = delete;

  [[nodiscard]] const flat::Header& header() const { return *header_; }
  [[nodiscard]] std::size_t size_bytes() const { return size_; }

  // ---- record arrays (pointers into the mapped image) ----
  [[nodiscard]] const flat::As* ases() const { return ases_; }
  [[nodiscard]] const flat::Edge* edges() const { return edges_; }
  [[nodiscard]] const flat::Label* validation() const { return validation_; }
  [[nodiscard]] const flat::LinkTag* links() const { return links_; }
  [[nodiscard]] const flat::Algo* algorithms() const { return algorithms_; }
  [[nodiscard]] const std::uint32_t* clique() const { return clique_; }
  [[nodiscard]] const std::uint32_t* hypergiants() const {
    return hypergiants_;
  }
  [[nodiscard]] const flat::Label* algo_labels(const flat::Algo& algo) const;

  /// Clamped view into the string pool (safe on arbitrary refs).
  [[nodiscard]] std::string_view string_at(flat::StrRef ref) const;
  [[nodiscard]] std::string_view class_name(std::uint32_t index) const;
  [[nodiscard]] std::string_view algorithm_name(std::uint32_t index) const;

  // ---- O(1) hash probes ----
  [[nodiscard]] std::uint32_t find_as(std::uint32_t asn) const;
  [[nodiscard]] std::uint32_t find_edge(std::uint32_t a,
                                        std::uint32_t b) const;
  [[nodiscard]] std::uint32_t find_link(std::uint32_t a,
                                        std::uint32_t b) const;
  [[nodiscard]] std::uint32_t find_validation(std::uint32_t a,
                                              std::uint32_t b) const;
  /// Index into algo_labels(algorithms()[algo]), or npos.
  [[nodiscard]] std::uint32_t find_verdict(std::uint32_t algo,
                                           std::uint32_t a,
                                           std::uint32_t b) const;

  /// CSR row for AS index `as_idx`: [begin, end) of edge indexes.
  [[nodiscard]] std::pair<const std::uint32_t*, const std::uint32_t*>
  neighbors(std::uint32_t as_idx) const;

  /// Full deep checksum pass (what open(deep_verify=true) runs).
  [[nodiscard]] bool verify(std::string* error = nullptr) const;

 private:
  FlatView() = default;
  [[nodiscard]] static std::shared_ptr<const FlatView> validate(
      std::shared_ptr<FlatView> view, std::string* error, bool deep_verify);

  const char* data_ = nullptr;
  std::size_t size_ = 0;
  void* map_ = nullptr;      ///< set when mmap'd (unmapped in dtor)
  std::string owned_;        ///< set when from_bytes

  // Section pointers resolved once during validate().
  const flat::Header* header_ = nullptr;
  const flat::StrRef* class_names_ = nullptr;
  const char* strings_ = nullptr;
  const flat::As* ases_ = nullptr;
  const std::uint32_t* as_index_ = nullptr;
  const flat::Edge* edges_ = nullptr;
  const std::uint32_t* edge_index_ = nullptr;
  const std::uint32_t* csr_offsets_ = nullptr;
  const std::uint32_t* csr_entries_ = nullptr;
  const std::uint32_t* clique_ = nullptr;
  const std::uint32_t* hypergiants_ = nullptr;
  const flat::Label* validation_ = nullptr;
  const std::uint32_t* validation_index_ = nullptr;
  const flat::Algo* algorithms_ = nullptr;
  const flat::LinkTag* links_ = nullptr;
  const std::uint32_t* link_index_ = nullptr;
};

}  // namespace asrel::io
