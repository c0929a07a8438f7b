#include "flat_inflate.hpp"

#include <string>
#include <utility>

namespace asrel::test {

namespace {

val::CleanLabel from_label(const io::flat::Label& src) {
  val::CleanLabel label;
  label.link = val::AsLink{asn::Asn{src.a}, asn::Asn{src.b}};
  label.rel = static_cast<topo::RelType>(src.rel);
  label.provider = asn::Asn{src.provider};
  return label;
}

}  // namespace

io::Snapshot inflate(const io::FlatView& view) {
  const io::flat::Header& h = view.header();
  io::Snapshot snapshot;
  snapshot.meta.as_count = h.as_count;
  snapshot.meta.seed = h.seed;
  snapshot.meta.scheme_seed = h.scheme_seed;
  snapshot.meta.epoch = h.epoch;
  snapshot.meta.built_unix_ms = h.built_unix_ms;

  for (std::uint32_t i = 0; i < h.n_class_names; ++i) {
    snapshot.class_names.emplace_back(view.class_name(i));
  }

  for (std::uint32_t i = 0; i < h.n_ases; ++i) {
    const io::flat::As& src = view.ases()[i];
    io::SnapshotAs as;
    as.asn = asn::Asn{src.asn};
    as.attrs.region = static_cast<rir::Region>(src.region);
    as.attrs.tier = static_cast<topo::Tier>(src.tier);
    as.attrs.stub_kind = static_cast<topo::StubKind>(src.stub_kind);
    as.attrs.hypergiant = src.flags & io::flat::kAsFlagHypergiant;
    as.attrs.documents_communities = src.flags & io::flat::kAsFlagDocuments;
    as.attrs.maintains_rpsl = src.flags & io::flat::kAsFlagRpsl;
    as.attrs.attends_meetings = src.flags & io::flat::kAsFlagMeetings;
    as.attrs.strips_communities = src.flags & io::flat::kAsFlagStrips;
    as.attrs.country = std::string{view.string_at(src.country)};
    as.attrs.prepend_propensity = src.prepend_propensity;
    as.transit_degree = src.transit_degree;
    as.node_degree = src.node_degree;
    as.cone_size = src.cone_size;
    snapshot.ases.push_back(std::move(as));
  }

  for (std::uint32_t i = 0; i < h.n_edges; ++i) {
    const io::flat::Edge& src = view.edges()[i];
    io::SnapshotEdge edge;
    edge.a = asn::Asn{src.a};
    edge.b = asn::Asn{src.b};
    edge.rel = static_cast<topo::RelType>(src.rel);
    edge.scope = static_cast<topo::ExportScope>(src.scope);
    edge.scope_via_community = src.flags & io::flat::kEdgeFlagScopeCommunity;
    edge.misdocumented = src.flags & io::flat::kEdgeFlagMisdocumented;
    if (src.flags & io::flat::kEdgeFlagHybrid) {
      edge.hybrid_rel = static_cast<topo::RelType>(src.hybrid);
    }
    snapshot.edges.push_back(edge);
  }

  for (std::uint32_t i = 0; i < h.n_clique; ++i) {
    snapshot.clique.push_back(asn::Asn{view.clique()[i]});
  }
  for (std::uint32_t i = 0; i < h.n_hypergiants; ++i) {
    snapshot.hypergiants.push_back(asn::Asn{view.hypergiants()[i]});
  }
  for (std::uint32_t i = 0; i < h.n_validation; ++i) {
    snapshot.validation.push_back(from_label(view.validation()[i]));
  }

  for (std::uint32_t a = 0; a < h.n_algorithms; ++a) {
    const io::flat::Algo& entry = view.algorithms()[a];
    io::SnapshotAlgorithm algorithm;
    algorithm.name = std::string{view.algorithm_name(a)};
    const io::flat::Label* labels = view.algo_labels(entry);
    for (std::uint64_t i = 0; i < entry.labels_count; ++i) {
      algorithm.labels.push_back(from_label(labels[i]));
    }
    snapshot.algorithms.push_back(std::move(algorithm));
  }

  for (std::uint32_t i = 0; i < h.n_links; ++i) {
    const io::flat::LinkTag& src = view.links()[i];
    io::SnapshotLinkTag tag;
    tag.link = val::AsLink{asn::Asn{src.a}, asn::Asn{src.b}};
    tag.regional_class = src.regional_class;
    tag.topological_class = src.topological_class;
    snapshot.links.push_back(tag);
  }
  return snapshot;
}

}  // namespace asrel::test
