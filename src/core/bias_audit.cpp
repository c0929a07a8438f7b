#include "core/bias_audit.hpp"

#include <unordered_set>

#include "core/parallel.hpp"
#include "eval/ppdc.hpp"
#include "obs/trace.hpp"

namespace asrel::core {

BiasAudit::BiasAudit(const Scenario& scenario, unsigned threads)
    : scenario_(&scenario),
      topo_(eval::TopoClassifier::from_world(scenario.world())) {
  obs::StageScope stage{"audit.tabulate"};
  const auto& observed = scenario.observed();
  inferred_links_.assign(observed.link_order().begin(),
                         observed.link_order().end());

  // Tabulate both class names per link up front. The classifiers are pure
  // functions of read-only state, so the links partition freely across
  // workers; slots land by index, making the caches (and everything derived
  // from them) independent of the thread count.
  core::ThreadPool& pool = core::ThreadPool::shared();
  const unsigned workers = core::ThreadPool::effective_threads(threads);
  regional_cache_.resize(inferred_links_.size());
  topological_cache_.resize(inferred_links_.size());
  core::parallel_for_ranges(
      pool, inferred_links_.size(), workers,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          regional_cache_[i] = eval::regional_class(scenario_->region_mapper(),
                                                    inferred_links_[i]);
          topological_cache_[i] = topo_.class_of(inferred_links_[i]);
        }
      });
  link_slot_.reserve(inferred_links_.size());
  for (std::size_t i = 0; i < inferred_links_.size(); ++i) {
    link_slot_.emplace(inferred_links_[i], static_cast<std::uint32_t>(i));
  }

  std::unordered_set<val::AsLink> validated;
  for (const auto& label : scenario.validation()) validated.insert(label.link);

  for (std::size_t i = 0; i < inferred_links_.size(); ++i) {
    if (topological_cache_[i] == "TR°") {
      transit_links_.push_back(inferred_links_[i]);
      if (validated.contains(inferred_links_[i])) {
        validated_transit_links_.push_back(inferred_links_[i]);
      }
    }
  }
}

std::string BiasAudit::regional_class_of(const val::AsLink& link) const {
  const auto it = link_slot_.find(link);
  if (it != link_slot_.end()) return regional_cache_[it->second];
  return eval::regional_class(scenario_->region_mapper(), link);
}

std::string BiasAudit::topological_class_of(const val::AsLink& link) const {
  const auto it = link_slot_.find(link);
  if (it != link_slot_.end()) return topological_cache_[it->second];
  return topo_.class_of(link);
}

eval::CoverageReport BiasAudit::regional_coverage() const {
  return eval::coverage_by_class(
      inferred_links_, scenario_->validation(),
      [this](const val::AsLink& link) { return regional_class_of(link); });
}

eval::CoverageReport BiasAudit::topological_coverage() const {
  return eval::coverage_by_class(
      inferred_links_, scenario_->validation(),
      [this](const val::AsLink& link) { return topological_class_of(link); });
}

namespace {

eval::Heatmap build_for(
    const std::vector<val::AsLink>& links,
    const std::function<std::uint32_t(asn::Asn)>& metric,
    const eval::HeatmapSpec& spec) {
  return eval::build_link_heatmap(links, metric, spec);
}

}  // namespace

BiasAudit::HeatmapPair BiasAudit::transit_degree_heatmaps(
    const eval::HeatmapSpec& spec) const {
  const auto& observed = scenario_->observed();
  const auto metric = [&observed](asn::Asn asn) -> std::uint32_t {
    const auto index = observed.index_of(asn);
    return index ? observed.transit_degree(*index) : 0;
  };
  return {build_for(transit_links_, metric, spec),
          build_for(validated_transit_links_, metric, spec)};
}

BiasAudit::HeatmapPair BiasAudit::node_degree_heatmaps(
    const eval::HeatmapSpec& spec) const {
  const auto& observed = scenario_->observed();
  const auto metric = [&observed](asn::Asn asn) -> std::uint32_t {
    const auto index = observed.index_of(asn);
    return index ? observed.node_degree(*index) : 0;
  };
  return {build_for(transit_links_, metric, spec),
          build_for(validated_transit_links_, metric, spec)};
}

BiasAudit::HeatmapPair BiasAudit::ppdc_heatmaps(
    const infer::Inference& inference, bool ignore_vp_links,
    const eval::HeatmapSpec& spec) const {
  const auto sizes = eval::ppdc_sizes(scenario_->observed(), inference);
  const auto metric = [&sizes](asn::Asn asn) -> std::uint32_t {
    const auto it = sizes.find(asn);
    return it == sizes.end() ? 0 : it->second;
  };
  if (!ignore_vp_links) {
    return {build_for(transit_links_, metric, spec),
            build_for(validated_transit_links_, metric, spec)};
  }
  // Fig. 8 variant: drop links incident to a route-collector peer.
  std::unordered_set<asn::Asn> vp_set;
  for (const auto& vp : scenario_->vantage_points()) vp_set.insert(vp.asn);
  const auto filter = [&vp_set](const std::vector<val::AsLink>& links) {
    std::vector<val::AsLink> kept;
    for (const auto& link : links) {
      if (!vp_set.contains(link.a) && !vp_set.contains(link.b)) {
        kept.push_back(link);
      }
    }
    return kept;
  };
  return {build_for(filter(transit_links_), metric, spec),
          build_for(filter(validated_transit_links_), metric, spec)};
}

eval::ValidationTable BiasAudit::validation_table(
    const infer::Inference& inference, std::size_t min_links) const {
  const auto pairs =
      eval::make_eval_pairs(scenario_->validation(), inference);

  eval::ValidationTable table;
  table.total = eval::compute_class_metrics(pairs, "Total°");

  const auto regional = eval::build_validation_table(
      pairs,
      [this](const val::AsLink& link) { return regional_class_of(link); },
      min_links);
  const auto topological = eval::build_validation_table(
      pairs,
      [this](const val::AsLink& link) { return topological_class_of(link); },
      min_links);
  table.rows = regional.rows;
  table.rows.insert(table.rows.end(), topological.rows.begin(),
                    topological.rows.end());
  return table;
}

eval::SamplingResult BiasAudit::sampling_experiment(
    const infer::Inference& inference, const std::string& class_name,
    const eval::SamplingParams& params) const {
  const auto pairs =
      eval::make_eval_pairs(scenario_->validation(), inference);
  std::vector<eval::EvalPair> in_class;
  for (const auto& pair : pairs) {
    if (regional_class_of(pair.link) == class_name ||
        topological_class_of(pair.link) == class_name) {
      in_class.push_back(pair);
    }
  }
  return eval::run_sampling_experiment(in_class, params);
}

}  // namespace asrel::core
