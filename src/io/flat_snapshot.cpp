#include "io/flat_snapshot.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <unordered_map>
#include <utility>
#include <vector>

#include "io/atomic_file.hpp"
#include "io/wire.hpp"
#include "serve/fault_inject.hpp"

namespace asrel::io {

namespace {

using flat::kEmptySlot;
using flat::link_key;
using flat::mix64;

[[nodiscard]] std::uint64_t table_capacity(std::size_t n) {
  // Power of two, load factor <= 1/2; a minimum of 8 keeps empty tables
  // probe-able with the same code path.
  std::uint64_t cap = 8;
  while (cap < 2 * static_cast<std::uint64_t>(n)) cap <<= 1;
  return cap;
}

/// Open-addressing insert; keeps the first record for a duplicate key.
class TableBuilder {
 public:
  explicit TableBuilder(std::size_t n)
      : slots_(table_capacity(n), kEmptySlot) {}

  template <typename KeyOf>
  void insert(std::uint64_t key, std::uint32_t index, KeyOf key_of) {
    const std::uint64_t mask = slots_.size() - 1;
    std::uint64_t slot = mix64(key) & mask;
    while (slots_[slot] != kEmptySlot) {
      if (key_of(slots_[slot]) == key) return;  // keep-first
      slot = (slot + 1) & mask;
    }
    slots_[slot] = index;
  }

  [[nodiscard]] const std::vector<std::uint32_t>& slots() const {
    return slots_;
  }

 private:
  std::vector<std::uint32_t> slots_;
};

/// Deduplicating string pool builder.
class PoolBuilder {
 public:
  flat::StrRef intern(std::string_view s) {
    const auto it = seen_.find(std::string{s});
    if (it != seen_.end()) return it->second;
    const flat::StrRef ref{static_cast<std::uint32_t>(bytes_.size()),
                           static_cast<std::uint32_t>(s.size())};
    bytes_.append(s);
    seen_.emplace(std::string{s}, ref);
    return ref;
  }

  [[nodiscard]] const std::string& bytes() const { return bytes_; }

 private:
  std::string bytes_;
  std::unordered_map<std::string, flat::StrRef> seen_;
};

void pad8(std::string& out) {
  while (out.size() % 8 != 0) out.push_back('\0');
}

/// Records the current (aligned) offset, then appends `count` records of
/// `bytes_each` from `data`.
template <typename T>
std::uint64_t append_section(std::string& out, const T* data,
                             std::size_t count) {
  pad8(out);
  const std::uint64_t off = out.size();
  if (count > 0) {
    out.append(reinterpret_cast<const char*>(data), count * sizeof(T));
  }
  return off;
}

template <typename T>
std::uint64_t append_section(std::string& out, const std::vector<T>& v) {
  return append_section(out, v.data(), v.size());
}

}  // namespace

std::string to_snapshot_bytes(const Snapshot& snapshot) {
  PoolBuilder pool;

  std::vector<flat::StrRef> class_refs;
  class_refs.reserve(snapshot.class_names.size());
  for (const auto& name : snapshot.class_names) {
    class_refs.push_back(pool.intern(name));
  }

  std::vector<flat::As> ases(snapshot.ases.size());
  std::unordered_map<std::uint32_t, std::uint32_t> as_of_asn;
  as_of_asn.reserve(snapshot.ases.size());
  for (std::size_t i = 0; i < snapshot.ases.size(); ++i) {
    const SnapshotAs& src = snapshot.ases[i];
    flat::As& dst = ases[i];
    dst.asn = src.asn.value();
    dst.region = static_cast<std::uint8_t>(src.attrs.region);
    dst.tier = static_cast<std::uint8_t>(src.attrs.tier);
    dst.stub_kind = static_cast<std::uint8_t>(src.attrs.stub_kind);
    std::uint8_t flags = 0;
    if (src.attrs.hypergiant) flags |= flat::kAsFlagHypergiant;
    if (src.attrs.documents_communities) flags |= flat::kAsFlagDocuments;
    if (src.attrs.maintains_rpsl) flags |= flat::kAsFlagRpsl;
    if (src.attrs.attends_meetings) flags |= flat::kAsFlagMeetings;
    if (src.attrs.strips_communities) flags |= flat::kAsFlagStrips;
    dst.flags = flags;
    dst.prepend_propensity = src.attrs.prepend_propensity;
    dst.transit_degree = src.transit_degree;
    dst.node_degree = src.node_degree;
    dst.cone_size = src.cone_size;
    dst.country = pool.intern(src.attrs.country);
    as_of_asn.emplace(dst.asn, static_cast<std::uint32_t>(i));
  }

  // Incident observed/validated link counts live in the AS record so
  // as_summary needs no side table.
  const auto bump = [&](std::uint32_t asn, std::uint32_t flat::As::* field) {
    const auto it = as_of_asn.find(asn);
    if (it != as_of_asn.end()) ++(ases[it->second].*field);
  };
  for (const auto& tag : snapshot.links) {
    bump(tag.link.a.value(), &flat::As::observed_links);
    bump(tag.link.b.value(), &flat::As::observed_links);
  }
  for (const auto& label : snapshot.validation) {
    bump(label.link.a.value(), &flat::As::validated_links);
    bump(label.link.b.value(), &flat::As::validated_links);
  }

  TableBuilder as_index(ases.size());
  for (std::uint32_t i = 0; i < ases.size(); ++i) {
    as_index.insert(ases[i].asn, i,
                    [&](std::uint32_t slot) { return ases[slot].asn; });
  }

  std::vector<flat::Edge> edges(snapshot.edges.size());
  for (std::size_t i = 0; i < snapshot.edges.size(); ++i) {
    const SnapshotEdge& src = snapshot.edges[i];
    flat::Edge& dst = edges[i];
    dst.a = src.a.value();
    dst.b = src.b.value();
    dst.rel = static_cast<std::uint8_t>(src.rel);
    dst.scope = static_cast<std::uint8_t>(src.scope);
    std::uint8_t flags = 0;
    if (src.scope_via_community) flags |= flat::kEdgeFlagScopeCommunity;
    if (src.misdocumented) flags |= flat::kEdgeFlagMisdocumented;
    if (src.hybrid_rel) flags |= flat::kEdgeFlagHybrid;
    dst.flags = flags;
    dst.hybrid =
        src.hybrid_rel ? static_cast<std::uint8_t>(*src.hybrid_rel) : 0;
  }
  const auto edge_key = [&](std::uint32_t slot) {
    return link_key(edges[slot].a, edges[slot].b);
  };
  TableBuilder edge_index(edges.size());
  for (std::uint32_t i = 0; i < edges.size(); ++i) {
    edge_index.insert(link_key(edges[i].a, edges[i].b), i, edge_key);
  }

  // CSR adjacency: counting pass, prefix sums, fill.
  std::vector<std::uint32_t> csr_offsets(ases.size() + 1, 0);
  const auto row_of = [&](std::uint32_t asn) -> std::uint32_t {
    const auto it = as_of_asn.find(asn);
    return it == as_of_asn.end() ? kEmptySlot : it->second;
  };
  for (const auto& edge : edges) {
    for (const std::uint32_t end : {row_of(edge.a), row_of(edge.b)}) {
      if (end != kEmptySlot) ++csr_offsets[end + 1];
    }
  }
  for (std::size_t i = 1; i < csr_offsets.size(); ++i) {
    csr_offsets[i] += csr_offsets[i - 1];
  }
  std::vector<std::uint32_t> csr_entries(csr_offsets.back());
  {
    std::vector<std::uint32_t> cursor(csr_offsets.begin(),
                                      csr_offsets.end() - 1);
    for (std::uint32_t e = 0; e < edges.size(); ++e) {
      for (const std::uint32_t end :
           {row_of(edges[e].a), row_of(edges[e].b)}) {
        if (end != kEmptySlot) csr_entries[cursor[end]++] = e;
      }
    }
  }

  std::vector<std::uint32_t> clique;
  clique.reserve(snapshot.clique.size());
  for (const auto asn : snapshot.clique) clique.push_back(asn.value());
  std::vector<std::uint32_t> hypergiants;
  hypergiants.reserve(snapshot.hypergiants.size());
  for (const auto asn : snapshot.hypergiants) {
    hypergiants.push_back(asn.value());
  }

  const auto to_label = [](const val::CleanLabel& src) {
    flat::Label label;
    label.a = src.link.a.value();
    label.b = src.link.b.value();
    label.provider = src.provider.value();
    label.rel = static_cast<std::uint8_t>(src.rel);
    return label;
  };
  std::vector<flat::Label> validation(snapshot.validation.size());
  for (std::size_t i = 0; i < validation.size(); ++i) {
    validation[i] = to_label(snapshot.validation[i]);
  }
  TableBuilder validation_index(validation.size());
  for (std::uint32_t i = 0; i < validation.size(); ++i) {
    validation_index.insert(
        link_key(validation[i].a, validation[i].b), i,
        [&](std::uint32_t s) {
          return link_key(validation[s].a, validation[s].b);
        });
  }

  // Algorithms: one shared label array, one hash index each. Byte
  // offsets are resolved after layout, so stage relative positions now.
  std::vector<flat::Algo> algos(snapshot.algorithms.size());
  std::vector<flat::Label> algo_labels;
  std::vector<std::vector<std::uint32_t>> algo_slots;
  algo_slots.reserve(snapshot.algorithms.size());
  for (std::size_t a = 0; a < snapshot.algorithms.size(); ++a) {
    const SnapshotAlgorithm& src = snapshot.algorithms[a];
    algos[a].name = pool.intern(src.name);
    algos[a].labels_off = algo_labels.size();  // record index for now
    algos[a].labels_count = src.labels.size();
    const std::size_t base = algo_labels.size();
    algo_labels.resize(base + src.labels.size());
    for (std::size_t i = 0; i < src.labels.size(); ++i) {
      algo_labels[base + i] = to_label(src.labels[i]);
    }
    TableBuilder index(src.labels.size());
    for (std::uint32_t i = 0; i < src.labels.size(); ++i) {
      const flat::Label& label = algo_labels[base + i];
      index.insert(link_key(label.a, label.b), i, [&](std::uint32_t s) {
        const flat::Label& other = algo_labels[base + s];
        return link_key(other.a, other.b);
      });
    }
    algo_slots.push_back(index.slots());
  }

  std::vector<flat::LinkTag> links(snapshot.links.size());
  for (std::size_t i = 0; i < links.size(); ++i) {
    const SnapshotLinkTag& src = snapshot.links[i];
    links[i] = flat::LinkTag{src.link.a.value(), src.link.b.value(),
                             src.regional_class, src.topological_class};
  }
  TableBuilder link_index(links.size());
  for (std::uint32_t i = 0; i < links.size(); ++i) {
    link_index.insert(link_key(links[i].a, links[i].b), i,
                      [&](std::uint32_t s) {
                        return link_key(links[s].a, links[s].b);
                      });
  }

  // ---- layout ----
  std::string out(sizeof(flat::Header), '\0');
  flat::Header header{};
  std::memcpy(header.magic, kFlatSnapshotMagic.data(), 8);
  header.version = kFlatSnapshotVersion;
  header.header_size = sizeof(flat::Header);
  header.as_count = snapshot.meta.as_count;
  header.seed = snapshot.meta.seed;
  header.scheme_seed = snapshot.meta.scheme_seed;
  header.epoch = snapshot.meta.epoch;
  header.built_unix_ms = snapshot.meta.built_unix_ms;
  header.n_class_names = static_cast<std::uint32_t>(class_refs.size());
  header.n_ases = static_cast<std::uint32_t>(ases.size());
  header.n_edges = static_cast<std::uint32_t>(edges.size());
  header.n_clique = static_cast<std::uint32_t>(clique.size());
  header.n_hypergiants = static_cast<std::uint32_t>(hypergiants.size());
  header.n_validation = static_cast<std::uint32_t>(validation.size());
  header.n_algorithms = static_cast<std::uint32_t>(algos.size());
  header.n_links = static_cast<std::uint32_t>(links.size());

  header.off_class_names = append_section(out, class_refs);
  header.off_strings =
      append_section(out, pool.bytes().data(), pool.bytes().size());
  header.strings_bytes = pool.bytes().size();
  header.off_ases = append_section(out, ases);
  header.off_as_index = append_section(out, as_index.slots());
  header.as_index_capacity = as_index.slots().size();
  header.off_edges = append_section(out, edges);
  header.off_edge_index = append_section(out, edge_index.slots());
  header.edge_index_capacity = edge_index.slots().size();
  header.off_csr_offsets = append_section(out, csr_offsets);
  header.off_csr_entries = append_section(out, csr_entries);
  header.off_clique = append_section(out, clique);
  header.off_hypergiants = append_section(out, hypergiants);
  header.off_validation = append_section(out, validation);
  header.off_validation_index = append_section(out, validation_index.slots());
  header.validation_index_capacity = validation_index.slots().size();

  const std::uint64_t labels_base = [&] {
    pad8(out);
    return out.size();
  }();
  append_section(out, algo_labels);
  for (std::size_t a = 0; a < algos.size(); ++a) {
    algos[a].labels_off =
        labels_base + algos[a].labels_off * sizeof(flat::Label);
    pad8(out);
    algos[a].index_off = out.size();
    algos[a].index_capacity = algo_slots[a].size();
    append_section(out, algo_slots[a]);
  }
  header.off_algorithms = append_section(out, algos);

  header.off_links = append_section(out, links);
  header.off_link_index = append_section(out, link_index.slots());
  header.link_index_capacity = link_index.slots().size();

  pad8(out);
  header.file_size = out.size();
  header.checksum = wire::fnv1a64(
      std::string_view{out}.substr(sizeof(flat::Header)));
  std::memcpy(out.data(), &header, sizeof(header));
  return out;
}

bool save_flat_snapshot_file(const Snapshot& snapshot,
                             const std::string& path, std::string* error) {
  return write_file_atomic(
      to_snapshot_bytes(snapshot), path, error,
      serve::fault::FaultInjector::instance().snapshot_write_cap());
}

// ---- FlatView ----

FlatView::~FlatView() {
  if (map_ != nullptr) ::munmap(map_, size_);
}

namespace {

/// Section bounds check: [off, off + count * elem) inside the file, with
/// the element's natural alignment. `off` is checked against the file
/// size before the subtraction, so a huge offset cannot wrap around.
[[nodiscard]] bool section_ok(std::uint64_t off, std::uint64_t count,
                              std::uint64_t elem, std::uint64_t align,
                              std::size_t file_size) {
  if (off % align != 0 || off < sizeof(flat::Header)) return false;
  if (off > file_size) return false;
  return count <= (file_size - off) / elem;
}

}  // namespace

std::shared_ptr<const FlatView> FlatView::validate(
    std::shared_ptr<FlatView> view, std::string* error, bool deep_verify) {
  const auto fail = [&](std::string_view message) {
    if (error != nullptr) *error = std::string{message};
    return nullptr;
  };
  const char* data = view->data_;
  const std::size_t size = view->size_;
  if (size < sizeof(flat::Header)) {
    return fail("file too short to hold a flat snapshot header");
  }
  if (std::string_view{data, 8} != kFlatSnapshotMagic) {
    return fail("bad magic: not a flat (v3) snapshot file");
  }
  const auto* header = reinterpret_cast<const flat::Header*>(data);
  if (header->version != kFlatSnapshotVersion) {
    if (error != nullptr) {
      *error = "unsupported flat snapshot version " +
               std::to_string(header->version) + " (this build reads " +
               std::to_string(kFlatSnapshotVersion) + ")";
    }
    return nullptr;
  }
  if (header->header_size != sizeof(flat::Header)) {
    return fail("flat header size mismatch");
  }
  if (header->file_size != size) {
    return fail("flat file size mismatch (truncated or trailing garbage)");
  }

  const auto ok = [&](std::uint64_t off, std::uint64_t count,
                      std::uint64_t elem, std::uint64_t align) {
    return section_ok(off, count, elem, align, size);
  };
  const auto pow2 = [](std::uint64_t v) {
    return v != 0 && (v & (v - 1)) == 0;
  };
  const flat::Header& h = *header;
  const bool sections_ok =
      ok(h.off_class_names, h.n_class_names, sizeof(flat::StrRef), 8) &&
      ok(h.off_strings, h.strings_bytes, 1, 8) &&
      ok(h.off_ases, h.n_ases, sizeof(flat::As), 8) &&
      ok(h.off_as_index, h.as_index_capacity, 4, 8) &&
      pow2(h.as_index_capacity) &&
      ok(h.off_edges, h.n_edges, sizeof(flat::Edge), 8) &&
      ok(h.off_edge_index, h.edge_index_capacity, 4, 8) &&
      pow2(h.edge_index_capacity) &&
      ok(h.off_csr_offsets, std::uint64_t{h.n_ases} + 1, 4, 8) &&
      ok(h.off_csr_entries, 2 * std::uint64_t{h.n_edges}, 4, 8) &&
      ok(h.off_clique, h.n_clique, 4, 8) &&
      ok(h.off_hypergiants, h.n_hypergiants, 4, 8) &&
      ok(h.off_validation, h.n_validation, sizeof(flat::Label), 8) &&
      ok(h.off_validation_index, h.validation_index_capacity, 4, 8) &&
      pow2(h.validation_index_capacity) &&
      ok(h.off_algorithms, h.n_algorithms, sizeof(flat::Algo), 8) &&
      ok(h.off_links, h.n_links, sizeof(flat::LinkTag), 8) &&
      ok(h.off_link_index, h.link_index_capacity, 4, 8) &&
      pow2(h.link_index_capacity);
  if (!sections_ok) {
    return fail("flat section out of bounds or misaligned");
  }

  const auto at = [&](std::uint64_t off) { return data + off; };
  view->header_ = header;
  view->class_names_ =
      reinterpret_cast<const flat::StrRef*>(at(h.off_class_names));
  view->strings_ = at(h.off_strings);
  view->ases_ = reinterpret_cast<const flat::As*>(at(h.off_ases));
  view->as_index_ =
      reinterpret_cast<const std::uint32_t*>(at(h.off_as_index));
  view->edges_ = reinterpret_cast<const flat::Edge*>(at(h.off_edges));
  view->edge_index_ =
      reinterpret_cast<const std::uint32_t*>(at(h.off_edge_index));
  view->csr_offsets_ =
      reinterpret_cast<const std::uint32_t*>(at(h.off_csr_offsets));
  view->csr_entries_ =
      reinterpret_cast<const std::uint32_t*>(at(h.off_csr_entries));
  view->clique_ = reinterpret_cast<const std::uint32_t*>(at(h.off_clique));
  view->hypergiants_ =
      reinterpret_cast<const std::uint32_t*>(at(h.off_hypergiants));
  view->validation_ =
      reinterpret_cast<const flat::Label*>(at(h.off_validation));
  view->validation_index_ =
      reinterpret_cast<const std::uint32_t*>(at(h.off_validation_index));
  view->algorithms_ =
      reinterpret_cast<const flat::Algo*>(at(h.off_algorithms));
  view->links_ = reinterpret_cast<const flat::LinkTag*>(at(h.off_links));
  view->link_index_ =
      reinterpret_cast<const std::uint32_t*>(at(h.off_link_index));

  // Per-algorithm section bounds (O(#algorithms), still structural).
  for (std::uint32_t a = 0; a < h.n_algorithms; ++a) {
    const flat::Algo& algo = view->algorithms_[a];
    if (!ok(algo.labels_off, algo.labels_count, sizeof(flat::Label), 8) ||
        !ok(algo.index_off, algo.index_capacity, 4, 8) ||
        !pow2(algo.index_capacity)) {
      return fail("flat algorithm section out of bounds");
    }
  }

  if (deep_verify && !view->verify(error)) return nullptr;
  return view;
}

std::shared_ptr<const FlatView> FlatView::open_file(const std::string& path,
                                                    std::string* error,
                                                    bool deep_verify) {
  const auto fail = [&](std::string message) {
    if (error != nullptr) {
      *error = std::move(message) + ": " + std::strerror(errno);
    }
    return nullptr;
  };
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return fail("cannot open " + path);
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return fail("cannot stat " + path);
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  // Fault injection: a capped (torn) read fails like a truncated file.
  if (serve::fault::FaultInjector::instance().snapshot_read_cap() < size) {
    ::close(fd);
    if (error != nullptr) *error = "torn read (fault injection cap)";
    return nullptr;
  }
  if (size == 0) {
    ::close(fd);
    if (error != nullptr) *error = "empty flat snapshot file";
    return nullptr;
  }
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) return fail("cannot mmap " + path);
  std::shared_ptr<FlatView> view{new FlatView};
  view->map_ = map;
  view->data_ = static_cast<const char*>(map);
  view->size_ = size;
  return validate(std::move(view), error, deep_verify);
}

std::shared_ptr<const FlatView> FlatView::from_bytes(std::string bytes,
                                                     std::string* error,
                                                     bool deep_verify) {
  std::shared_ptr<FlatView> view{new FlatView};
  view->owned_ = std::move(bytes);
  view->data_ = view->owned_.data();
  view->size_ = view->owned_.size();
  return validate(std::move(view), error, deep_verify);
}

bool FlatView::verify(std::string* error) const {
  const std::string_view payload{data_ + sizeof(flat::Header),
                                 size_ - sizeof(flat::Header)};
  if (wire::fnv1a64(payload) != header_->checksum) {
    if (error != nullptr) {
      *error = "flat payload checksum mismatch: snapshot is corrupted";
    }
    return false;
  }
  return true;
}

const flat::Label* FlatView::algo_labels(const flat::Algo& algo) const {
  return reinterpret_cast<const flat::Label*>(data_ + algo.labels_off);
}

std::string_view FlatView::string_at(flat::StrRef ref) const {
  // Clamped so a corrupt ref (structural-only open) cannot escape the
  // pool.
  if (ref.off > header_->strings_bytes ||
      ref.len > header_->strings_bytes - ref.off) {
    return {};
  }
  return {strings_ + ref.off, ref.len};
}

std::string_view FlatView::class_name(std::uint32_t index) const {
  if (index >= header_->n_class_names) return {};
  return string_at(class_names_[index]);
}

std::string_view FlatView::algorithm_name(std::uint32_t index) const {
  if (index >= header_->n_algorithms) return {};
  return string_at(algorithms_[index].name);
}

namespace {

/// Shared linear-probe loop. `key_of` maps an occupied slot's record
/// index to its key; probes are capped at the capacity so a corrupt
/// (full) table terminates.
template <typename KeyOf>
[[nodiscard]] std::uint32_t probe(const std::uint32_t* slots,
                                  std::uint64_t capacity, std::uint64_t key,
                                  KeyOf key_of) {
  const std::uint64_t mask = capacity - 1;
  std::uint64_t slot = mix64(key) & mask;
  for (std::uint64_t i = 0; i < capacity; ++i) {
    const std::uint32_t index = slots[slot];
    if (index == kEmptySlot) return kEmptySlot;
    if (key_of(index) == key) return index;
    slot = (slot + 1) & mask;
  }
  return kEmptySlot;
}

}  // namespace

std::uint32_t FlatView::find_as(std::uint32_t asn) const {
  const flat::Header& h = *header_;
  return probe(as_index_, h.as_index_capacity, asn, [&](std::uint32_t i) {
    return i < h.n_ases ? std::uint64_t{ases_[i].asn} : ~std::uint64_t{0};
  });
}

std::uint32_t FlatView::find_edge(std::uint32_t a, std::uint32_t b) const {
  const flat::Header& h = *header_;
  return probe(edge_index_, h.edge_index_capacity, link_key(a, b),
               [&](std::uint32_t i) {
                 return i < h.n_edges ? link_key(edges_[i].a, edges_[i].b)
                                      : ~std::uint64_t{0};
               });
}

std::uint32_t FlatView::find_link(std::uint32_t a, std::uint32_t b) const {
  const flat::Header& h = *header_;
  return probe(link_index_, h.link_index_capacity, link_key(a, b),
               [&](std::uint32_t i) {
                 return i < h.n_links ? link_key(links_[i].a, links_[i].b)
                                      : ~std::uint64_t{0};
               });
}

std::uint32_t FlatView::find_validation(std::uint32_t a,
                                        std::uint32_t b) const {
  const flat::Header& h = *header_;
  return probe(validation_index_, h.validation_index_capacity, link_key(a, b),
               [&](std::uint32_t i) {
                 return i < h.n_validation
                            ? link_key(validation_[i].a, validation_[i].b)
                            : ~std::uint64_t{0};
               });
}

std::uint32_t FlatView::find_verdict(std::uint32_t algo, std::uint32_t a,
                                     std::uint32_t b) const {
  if (algo >= header_->n_algorithms) return npos;
  const flat::Algo& entry = algorithms_[algo];
  const flat::Label* labels = algo_labels(entry);
  const auto* slots =
      reinterpret_cast<const std::uint32_t*>(data_ + entry.index_off);
  return probe(slots, entry.index_capacity, link_key(a, b),
               [&](std::uint32_t i) {
                 return i < entry.labels_count
                            ? link_key(labels[i].a, labels[i].b)
                            : ~std::uint64_t{0};
               });
}

std::pair<const std::uint32_t*, const std::uint32_t*> FlatView::neighbors(
    std::uint32_t as_idx) const {
  const flat::Header& h = *header_;
  if (as_idx >= h.n_ases) return {nullptr, nullptr};
  const std::uint32_t total = 2 * h.n_edges;
  // Clamp against a corrupt (structural-only) offsets row.
  std::uint32_t begin = csr_offsets_[as_idx];
  std::uint32_t end = csr_offsets_[as_idx + 1];
  if (begin > total) begin = total;
  if (end > total || end < begin) end = begin;
  return {csr_entries_ + begin, csr_entries_ + end};
}

}  // namespace asrel::io
