#include "testing/flat_oracle.hpp"

#include <cstdint>

#include "io/flat_snapshot.hpp"

namespace asrel::testing {

namespace {

/// Touches every record and every lookup path of `view`. The sum only
/// keeps the reads from being optimized away.
std::uint64_t walk(const io::FlatView& view) {
  const io::flat::Header& h = view.header();
  std::uint64_t sink = h.epoch;
  for (std::uint32_t i = 0; i < h.n_class_names; ++i) {
    sink += view.class_name(i).size();
  }
  for (std::uint32_t i = 0; i < h.n_ases; ++i) {
    const io::flat::As& as = view.ases()[i];
    sink += view.string_at(as.country).size() + view.find_as(as.asn);
    const auto [begin, end] = view.neighbors(i);
    for (auto it = begin; it != end; ++it) {
      // A corrupt CSR entry is the consumer's to skip (QueryEngine does).
      if (*it < h.n_edges) sink += view.edges()[*it].rel;
    }
  }
  for (std::uint32_t i = 0; i < h.n_edges; ++i) {
    const io::flat::Edge& edge = view.edges()[i];
    sink += edge.flags + view.find_edge(edge.a, edge.b);
  }
  for (std::uint32_t i = 0; i < h.n_clique; ++i) sink += view.clique()[i];
  for (std::uint32_t i = 0; i < h.n_hypergiants; ++i) {
    sink += view.hypergiants()[i];
  }
  for (std::uint32_t i = 0; i < h.n_validation; ++i) {
    const io::flat::Label& label = view.validation()[i];
    sink += label.rel + view.find_validation(label.a, label.b);
  }
  for (std::uint32_t a = 0; a < h.n_algorithms; ++a) {
    const io::flat::Algo& algo = view.algorithms()[a];
    sink += view.algorithm_name(a).size();
    const io::flat::Label* labels = view.algo_labels(algo);
    for (std::uint64_t i = 0; i < algo.labels_count; ++i) {
      sink += view.find_verdict(a, labels[i].a, labels[i].b);
    }
  }
  for (std::uint32_t i = 0; i < h.n_links; ++i) {
    const io::flat::LinkTag& tag = view.links()[i];
    sink += view.find_link(tag.a, tag.b) + tag.regional_class;
  }
  return sink;
}

}  // namespace

io::Snapshot tiny_snapshot() {
  io::Snapshot snapshot;
  snapshot.meta.as_count = 4;
  snapshot.meta.seed = 7;
  snapshot.meta.scheme_seed = 11;
  snapshot.meta.epoch = 3;
  snapshot.meta.built_unix_ms = 1700000000000ull;
  snapshot.class_names = {"T1-T1", "T1-TR", "unknown"};

  const asn::Asn a1{101}, a2{202}, a3{303}, a4{404};
  for (const auto& [asn, tier] :
       {std::pair{a1, topo::Tier::kClique}, {a2, topo::Tier::kMidTransit},
        {a3, topo::Tier::kStub}, {a4, topo::Tier::kStub}}) {
    io::SnapshotAs as;
    as.asn = asn;
    as.attrs.region = rir::Region::kRipe;
    as.attrs.country = asn == a4 ? "US" : "DE";
    as.attrs.tier = tier;
    as.attrs.stub_kind = tier == topo::Tier::kStub
                             ? topo::StubKind::kEyeball
                             : topo::StubKind::kNotStub;
    as.attrs.hypergiant = asn == a4;
    as.attrs.documents_communities = asn == a1;
    as.attrs.maintains_rpsl = asn == a2;
    as.attrs.attends_meetings = asn == a3;
    as.attrs.strips_communities = asn == a4;
    as.attrs.prepend_propensity = 0.25;
    as.transit_degree = 2;
    as.node_degree = 3;
    as.cone_size = 1;
    snapshot.ases.push_back(std::move(as));
  }

  io::SnapshotEdge edge;
  edge.a = a1;
  edge.b = a2;
  edge.rel = topo::RelType::kP2C;
  edge.scope = topo::ExportScope::kCustomersOnly;
  edge.scope_via_community = true;
  snapshot.edges.push_back(edge);
  edge = io::SnapshotEdge{};
  edge.a = a2;
  edge.b = a3;
  edge.rel = topo::RelType::kP2P;
  edge.misdocumented = true;
  edge.hybrid_rel = topo::RelType::kP2C;
  snapshot.edges.push_back(edge);

  snapshot.clique = {a1};
  snapshot.hypergiants = {a4};

  val::CleanLabel label;
  label.link = val::AsLink{a1, a2};
  label.rel = topo::RelType::kP2C;
  label.provider = a1;
  snapshot.validation.push_back(label);

  io::SnapshotAlgorithm algorithm;
  algorithm.name = "asrank";
  label.link = val::AsLink{a2, a3};
  label.rel = topo::RelType::kP2P;
  label.provider = asn::Asn{0};
  algorithm.labels.push_back(label);
  snapshot.algorithms.push_back(std::move(algorithm));

  io::SnapshotLinkTag tag;
  tag.link = val::AsLink{a1, a2};
  tag.regional_class = 0;
  tag.topological_class = 1;
  snapshot.links.push_back(tag);
  return snapshot;
}

std::optional<std::string> check_flat_reader(std::string_view bytes) {
  volatile std::uint64_t sink = 0;
  bool structural_ok = false;
  for (const bool deep : {false, true}) {
    std::string error;
    const auto view = io::FlatView::from_bytes(std::string{bytes}, &error,
                                               /*deep_verify=*/deep);
    if (view == nullptr) {
      if (error.empty()) return "rejection without a reason";
      continue;
    }
    if (deep && !structural_ok) {
      return "deep open accepted what the structural open rejected";
    }
    structural_ok = true;
    sink = sink + walk(*view);
  }
  return std::nullopt;
}

}  // namespace asrel::testing
