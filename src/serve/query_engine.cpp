#include "serve/query_engine.hpp"

#include <algorithm>
#include <stdexcept>

#include "serve/json.hpp"

namespace asrel::serve {

namespace {

constexpr std::string_view kUnknownClass = "?";

void append_coverage_json(JsonWriter& json, std::string_view name,
                          const eval::CoverageReport& report) {
  json.begin_object();
  json.field("report", name);
  json.field("total_inferred", report.total_inferred);
  json.field("total_validated", report.total_validated);
  json.key("rows").begin_array();
  for (const auto& row : report.rows) {
    json.begin_object();
    json.field("class", row.name);
    json.field("inferred_links", row.inferred_links);
    json.field("validated_links", row.validated_links);
    json.field("share", row.share);
    json.field("coverage", row.coverage);
    json.end_object();
  }
  json.end_array();
  json.end_object();
}

void append_class_metrics_json(JsonWriter& json,
                               const eval::ClassMetrics& metrics) {
  json.begin_object();
  json.field("class", metrics.name);
  json.key("p2p").begin_object();
  json.field("ppv", metrics.p2p.ppv());
  json.field("tpr", metrics.p2p.tpr());
  json.field("links", metrics.p2p_links);
  json.end_object();
  json.key("p2c").begin_object();
  json.field("ppv", metrics.p2c.ppv());
  json.field("tpr", metrics.p2c.tpr());
  json.field("links", metrics.p2c_links);
  json.end_object();
  json.field("mcc", metrics.mcc);
  json.field("orientation_accuracy", metrics.orientation_accuracy);
  json.end_object();
}

/// Opens the engine's own encoding of `snapshot`. The reader rejecting
/// the encoder's bytes is a programming error, never bad input.
std::shared_ptr<const io::FlatView> encode_flat(const io::Snapshot& snapshot) {
  std::string error;
  auto view = io::FlatView::from_bytes(io::to_snapshot_bytes(snapshot),
                                       &error, /*deep_verify=*/false);
  if (view == nullptr) {
    throw std::logic_error{"flat snapshot encoder/reader mismatch: " + error};
  }
  return view;
}

val::AsLink link_of(std::uint32_t a, std::uint32_t b) {
  return val::AsLink{asn::Asn{a}, asn::Asn{b}};
}

val::CleanLabel clean_label(const io::flat::Label& label) {
  return val::CleanLabel{
      .link = link_of(label.a, label.b),
      .rel = static_cast<topo::RelType>(label.rel),
      .provider = asn::Asn{label.provider},
  };
}

}  // namespace

QueryEngine::QueryEngine(const io::Snapshot& snapshot,
                         QueryEngineOptions options)
    : QueryEngine(encode_flat(snapshot), options) {}

QueryEngine::QueryEngine(std::shared_ptr<const io::FlatView> flat,
                         QueryEngineOptions options)
    : flat_(std::move(flat)),
      options_(options),
      cache_(options.cache_shards, options.cache_capacity_per_shard),
      rel_cache_(options.rel_cache_shards,
                 options.rel_cache_capacity_per_shard) {
  const io::flat::Header& header = flat_->header();
  meta_.as_count = header.as_count;
  meta_.seed = header.seed;
  meta_.scheme_seed = header.scheme_seed;
  meta_.epoch = header.epoch;
  meta_.built_unix_ms = header.built_unix_ms;
}

// Every probe reads the image directly; the returned string_views point
// into it (the engine pins the view).
RelAnswer QueryEngine::rel(asn::Asn a, asn::Asn b) const {
  const io::FlatView& flat = *flat_;
  RelAnswer answer;
  answer.link = val::AsLink{a, b};
  const std::uint32_t qa = a.value();
  const std::uint32_t qb = b.value();

  if (const std::uint32_t i = flat.find_edge(qa, qb);
      i != io::FlatView::npos) {
    const io::flat::Edge& edge = flat.edges()[i];
    answer.in_graph = true;
    answer.truth_rel = static_cast<topo::RelType>(edge.rel);
    if (answer.truth_rel == topo::RelType::kP2C) {
      answer.truth_provider = asn::Asn{edge.a};
    }
    answer.scope = static_cast<topo::ExportScope>(edge.scope);
    answer.scope_via_community =
        edge.flags & io::flat::kEdgeFlagScopeCommunity;
    answer.misdocumented = edge.flags & io::flat::kEdgeFlagMisdocumented;
    if (edge.flags & io::flat::kEdgeFlagHybrid) {
      answer.hybrid_rel = static_cast<topo::RelType>(edge.hybrid);
    }
  }

  if (const std::uint32_t i = flat.find_link(qa, qb);
      i != io::FlatView::npos) {
    const io::flat::LinkTag& tag = flat.links()[i];
    answer.observed = true;
    answer.regional_class = flat.class_name(tag.regional_class);
    answer.topological_class = flat.class_name(tag.topological_class);
  }

  const std::uint32_t algorithms = flat.header().n_algorithms;
  for (std::uint32_t algo = 0; algo < algorithms; ++algo) {
    const std::uint32_t i = flat.find_verdict(algo, qa, qb);
    if (i == io::FlatView::npos) continue;
    const io::flat::Label& label =
        flat.algo_labels(flat.algorithms()[algo])[i];
    answer.verdicts.push_back(RelAnswer::Verdict{
        .algorithm = flat.algorithm_name(algo),
        .rel = static_cast<topo::RelType>(label.rel),
        .provider = asn::Asn{label.provider},
    });
  }

  if (const std::uint32_t i = flat.find_validation(qa, qb);
      i != io::FlatView::npos) {
    const io::flat::Label& label = flat.validation()[i];
    answer.validated = true;
    answer.validated_rel = static_cast<topo::RelType>(label.rel);
    answer.validated_provider = asn::Asn{label.provider};
  }

  return answer;
}

std::optional<AsSummary> QueryEngine::as_summary(asn::Asn asn) const {
  const io::FlatView& flat = *flat_;
  const std::uint32_t idx = flat.find_as(asn.value());
  if (idx == io::FlatView::npos) return std::nullopt;
  const io::flat::As& as = flat.ases()[idx];
  AsSummary summary;
  summary.asn = asn;
  summary.region = static_cast<rir::Region>(as.region);
  summary.country = flat.string_at(as.country);
  summary.tier = static_cast<topo::Tier>(as.tier);
  summary.stub_kind = static_cast<topo::StubKind>(as.stub_kind);
  summary.hypergiant = as.flags & io::flat::kAsFlagHypergiant;
  summary.transit_degree = as.transit_degree;
  summary.node_degree = as.node_degree;
  summary.cone_size = as.cone_size;
  // Neighbor-role counts come from the CSR row: O(degree) over mapped
  // memory.
  const auto [begin, end] = flat.neighbors(idx);
  const std::uint32_t n_edges = flat.header().n_edges;
  for (const std::uint32_t* it = begin; it != end; ++it) {
    if (*it >= n_edges) continue;  // corrupt entry under structural open
    const io::flat::Edge& edge = flat.edges()[*it];
    switch (static_cast<topo::RelType>(edge.rel)) {
      case topo::RelType::kP2C:
        if (edge.a == asn.value()) {
          ++summary.customers;
        } else {
          ++summary.providers;
        }
        break;
      case topo::RelType::kP2P:
        ++summary.peers;
        break;
      case topo::RelType::kS2S:
        ++summary.siblings;
        break;
    }
  }
  summary.observed_links = as.observed_links;
  summary.validated_links = as.validated_links;
  return summary;
}

std::vector<val::AsLink> QueryEngine::sample_links(std::size_t limit) const {
  std::vector<val::AsLink> out;
  const std::size_t count = num_links();
  if (count == 0 || limit == 0) return out;
  const std::size_t take = std::min(limit, count);
  const std::size_t stride = count / take;
  out.reserve(take);
  for (std::size_t i = 0; i < take; ++i) {
    const io::flat::LinkTag& tag = flat_->links()[i * stride];
    out.push_back(link_of(tag.a, tag.b));
  }
  return out;
}

std::size_t QueryEngine::num_ases() const { return flat_->header().n_ases; }

std::size_t QueryEngine::num_edges() const { return flat_->header().n_edges; }

std::size_t QueryEngine::num_links() const { return flat_->header().n_links; }

std::size_t QueryEngine::num_validation() const {
  return flat_->header().n_validation;
}

std::string QueryEngine::class_of(const val::AsLink& link,
                                  bool regional) const {
  const std::uint32_t i = flat_->find_link(link.a.value(), link.b.value());
  if (i == io::FlatView::npos) return std::string{kUnknownClass};
  const io::flat::LinkTag& tag = flat_->links()[i];
  return std::string{flat_->class_name(regional ? tag.regional_class
                                                : tag.topological_class)};
}

std::vector<val::CleanLabel> QueryEngine::validation_labels() const {
  const std::uint32_t count = flat_->header().n_validation;
  std::vector<val::CleanLabel> labels;
  labels.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    labels.push_back(clean_label(flat_->validation()[i]));
  }
  return labels;
}

eval::CoverageReport QueryEngine::coverage(bool regional) const {
  const std::uint32_t count = flat_->header().n_links;
  std::vector<val::AsLink> inferred;
  inferred.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const io::flat::LinkTag& tag = flat_->links()[i];
    inferred.push_back(link_of(tag.a, tag.b));
  }
  return eval::coverage_by_class(
      inferred, validation_labels(),
      [&](const val::AsLink& link) { return class_of(link, regional); });
}

eval::CoverageReport QueryEngine::regional_coverage() const {
  return coverage(true);
}

eval::CoverageReport QueryEngine::topological_coverage() const {
  return coverage(false);
}

std::optional<eval::ValidationTable> QueryEngine::validation_table(
    std::string_view algorithm) const {
  const std::uint32_t algorithms = flat_->header().n_algorithms;
  std::uint32_t algo = 0;
  while (algo < algorithms && flat_->algorithm_name(algo) != algorithm) {
    ++algo;
  }
  if (algo == algorithms) return std::nullopt;

  const io::flat::Algo& entry = flat_->algorithms()[algo];
  const io::flat::Label* labels = flat_->algo_labels(entry);
  infer::Inference inference;
  for (std::uint64_t i = 0; i < entry.labels_count; ++i) {
    const val::CleanLabel label = clean_label(labels[i]);
    inference.set(label.link,
                  infer::InferredRel{.rel = label.rel,
                                     .provider = label.provider});
  }
  const auto pairs = eval::make_eval_pairs(validation_labels(), inference);

  const auto classes = [this](bool regional) {
    return [this, regional](const val::AsLink& link) {
      return class_of(link, regional);
    };
  };

  // Mirrors BiasAudit::validation_table: Total° row, then the regional
  // rows, then the topological rows, each filtered by min_links.
  eval::ValidationTable table;
  table.total = eval::compute_class_metrics(pairs, "Total°");
  const auto regional = eval::build_validation_table(
      pairs, classes(true), options_.table_min_links);
  const auto topological = eval::build_validation_table(
      pairs, classes(false), options_.table_min_links);
  table.rows = regional.rows;
  table.rows.insert(table.rows.end(), topological.rows.begin(),
                    topological.rows.end());
  return table;
}

std::vector<std::string_view> QueryEngine::algorithm_names() const {
  const std::uint32_t count = flat_->header().n_algorithms;
  std::vector<std::string_view> names;
  names.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    names.push_back(flat_->algorithm_name(i));
  }
  return names;
}

std::shared_ptr<const std::string> QueryEngine::build_report(
    const std::string& key) const {
  JsonWriter json;
  if (key == "regional" || key == "topological") {
    append_coverage_json(json, key,
                         key == "regional" ? regional_coverage()
                                           : topological_coverage());
    return std::make_shared<const std::string>(std::move(json).str());
  }
  if (key.starts_with("table:")) {
    const std::string_view algorithm = std::string_view{key}.substr(6);
    const auto table = validation_table(algorithm);
    if (!table) return nullptr;
    json.begin_object();
    json.field("report", "validation-table");
    json.field("algorithm", algorithm);
    json.field("min_links", options_.table_min_links);
    json.key("total");
    append_class_metrics_json(json, table->total);
    json.key("rows").begin_array();
    for (const auto& row : table->rows) {
      append_class_metrics_json(json, row);
    }
    json.end_array();
    json.end_object();
    return std::make_shared<const std::string>(std::move(json).str());
  }
  return nullptr;
}

namespace {

void append_rel_side_json(JsonWriter& json, topo::RelType rel,
                          asn::Asn provider) {
  json.field("rel", to_string(rel));
  if (rel == topo::RelType::kP2C) {
    json.field("provider", std::uint64_t{provider.value()});
  }
}

}  // namespace

std::shared_ptr<const std::string> QueryEngine::rel_json(asn::Asn a,
                                                         asn::Asn b) const {
  const val::AsLink link{a, b};
  const std::uint64_t key =
      (std::uint64_t{link.a.value()} << 32) | link.b.value();
  return rel_cache_.get_or_compute(key, [&] {
    const RelAnswer answer = rel(a, b);
    JsonWriter json;
    json.begin_object();
    json.field("a", std::uint64_t{answer.link.a.value()});
    json.field("b", std::uint64_t{answer.link.b.value()});
    json.field("found", answer.known());
    if (answer.in_graph) {
      json.key("ground_truth").begin_object();
      append_rel_side_json(json, answer.truth_rel, answer.truth_provider);
      json.field("export_scope", to_string(answer.scope));
      json.field("scope_via_community", answer.scope_via_community);
      json.field("misdocumented", answer.misdocumented);
      if (answer.hybrid_rel) {
        json.field("hybrid_rel", to_string(*answer.hybrid_rel));
      }
      json.end_object();
    } else {
      json.key("ground_truth").null();
    }
    json.field("observed", answer.observed);
    if (answer.observed) {
      json.field("regional_class", answer.regional_class);
      json.field("topological_class", answer.topological_class);
    }
    json.key("verdicts").begin_object();
    for (const auto& verdict : answer.verdicts) {
      json.key(verdict.algorithm).begin_object();
      append_rel_side_json(json, verdict.rel, verdict.provider);
      json.end_object();
    }
    json.end_object();
    if (answer.validated) {
      json.key("validation").begin_object();
      append_rel_side_json(json, answer.validated_rel,
                           answer.validated_provider);
      json.end_object();
    } else {
      json.key("validation").null();
    }
    json.end_object();
    return std::make_shared<const std::string>(std::move(json).str());
  });
}

std::shared_ptr<const std::string> QueryEngine::report_json(
    const std::string& key) const {
  // Validate the key up front so unknown keys neither poison the cache
  // nor skew its hit/miss counters.
  bool valid = key == "regional" || key == "topological";
  if (!valid && key.starts_with("table:")) {
    const std::string_view algorithm = std::string_view{key}.substr(6);
    for (const auto name : algorithm_names()) {
      if (name == algorithm) {
        valid = true;
        break;
      }
    }
  }
  if (!valid) return nullptr;
  return cache_.get_or_compute(key, [&] { return build_report(key); });
}

}  // namespace asrel::serve
