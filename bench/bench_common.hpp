// Shared scaffolding for the per-table/figure reproduction binaries.
//
// Every bench builds the same default scenario (the "April 2018 snapshot" of
// the simulated world) and caches it per process. The world size can be
// overridden with the ASREL_AS_COUNT environment variable (default 12000),
// the seed with ASREL_SEED (default 42) to study scale/seed stability, and
// the worker count with ASREL_THREADS (default 0 = auto; results are
// byte-identical for every setting).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_set>
#include <vector>
#include <cstdlib>
#include <memory>
#include <string>

#include "core/bias_audit.hpp"
#include "core/scenario.hpp"
#include "infer/asrank.hpp"
#include "infer/gao.hpp"
#include "infer/problink.hpp"
#include "infer/toposcope.hpp"

namespace asrel::bench {

inline int env_int(const char* name, int fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::atoi(value) : fallback;
}

inline core::ScenarioParams default_params() {
  core::ScenarioParams params;
  params.topology.as_count = env_int("ASREL_AS_COUNT", 12000);
  params.topology.seed =
      static_cast<std::uint64_t>(env_int("ASREL_SEED", 42));
  params.threads = static_cast<unsigned>(env_int("ASREL_THREADS", 0));
  return params;
}

inline const core::Scenario& scenario() {
  static const std::unique_ptr<core::Scenario> instance = [] {
    const auto params = default_params();
    std::printf("[setup] building scenario: %d ASes, seed %d ...\n",
                params.topology.as_count, env_int("ASREL_SEED", 42));
    const auto start = std::chrono::steady_clock::now();
    auto built = core::Scenario::build(params);
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - start);
    std::printf(
        "[setup] done in %lld ms: %zu ground-truth links, %zu visible, "
        "%zu validated\n",
        static_cast<long long>(elapsed.count()),
        built->world().graph.edge_count(), built->observed().link_count(),
        built->validation().size());
    return built;
  }();
  return *instance;
}

inline const core::BiasAudit& audit() {
  static const core::BiasAudit instance{scenario()};
  return instance;
}

inline const infer::AsRankResult& asrank() {
  static const infer::AsRankResult& result =
      []() -> const infer::AsRankResult& {
    std::printf("[setup] running ASRank ...\n");
    return scenario().asrank();
  }();
  return result;
}

inline const infer::ProbLinkResult& problink() {
  static const infer::ProbLinkResult result = [] {
    std::printf("[setup] running ProbLink ...\n");
    infer::ProbLinkParams params;
    params.threads = scenario().params().threads;
    return infer::run_problink(scenario().observed(), asrank(),
                               scenario().validation(), params);
  }();
  return result;
}

inline const infer::TopoScopeResult& toposcope() {
  static const infer::TopoScopeResult result = [] {
    std::printf("[setup] running TopoScope ...\n");
    infer::TopoScopeParams params;
    params.threads = scenario().params().threads;
    return infer::run_toposcope(scenario().observed(), asrank(),
                                scenario().validation(), params);
  }();
  return result;
}

/// Axis caps scaled to the observed metric range: x cap at the 99th
/// percentile of the larger-side values over the TR° links, y cap at a
/// tenth of it (the paper's 1500:150 proportions).
template <typename Metric>
eval::HeatmapSpec adaptive_spec(Metric&& metric) {
  std::vector<std::uint32_t> values;
  for (const auto& link : audit().transit_links()) {
    values.push_back(std::max(metric(link.a), metric(link.b)));
  }
  eval::HeatmapSpec spec;
  if (!values.empty()) {
    std::sort(values.begin(), values.end());
    const auto p99 = values[values.size() * 99 / 100];
    spec.x_cap = std::max<std::uint32_t>(30, p99);
    spec.y_cap = std::max<std::uint32_t>(15, spec.x_cap / 10);
  }
  return spec;
}

/// Median of the larger/smaller per-link metric over a link set.
template <typename Metric>
std::pair<double, double> median_metrics(
    const std::vector<val::AsLink>& links, Metric&& metric) {
  std::vector<std::uint32_t> larger;
  std::vector<std::uint32_t> smaller;
  for (const auto& link : links) {
    const auto a = metric(link.a);
    const auto b = metric(link.b);
    larger.push_back(std::max(a, b));
    smaller.push_back(std::min(a, b));
  }
  if (larger.empty()) return {0, 0};
  std::sort(larger.begin(), larger.end());
  std::sort(smaller.begin(), smaller.end());
  return {static_cast<double>(larger[larger.size() / 2]),
          static_cast<double>(smaller[smaller.size() / 2])};
}

/// The validated subset of the audit's TR° links.
inline std::vector<val::AsLink> validated_transit_links() {
  std::unordered_set<val::AsLink> validated;
  for (const auto& label : scenario().validation()) validated.insert(label.link);
  std::vector<val::AsLink> out;
  for (const auto& link : audit().transit_links()) {
    if (validated.contains(link)) out.push_back(link);
  }
  return out;
}

template <typename Metric>
void print_median_shift(const char* metric_name, Metric&& metric) {
  const auto inferred = median_metrics(audit().transit_links(), metric);
  const auto validated = median_metrics(validated_transit_links(), metric);
  std::printf(
      "median %s over TR° links — inferred: larger %.0f / smaller %.0f; "
      "validatable: larger %.0f / smaller %.0f\n",
      metric_name, inferred.first, inferred.second, validated.first,
      validated.second);
  std::printf("  validated links sit between larger ASes (paper's Fig. 3 "
              "mismatch): %s\n",
              validated.first > inferred.first ? "YES" : "NO");
}

inline void print_heatmap_pair(const char* title,
                               const core::BiasAudit::HeatmapPair& maps) {
  std::printf("\n--- %s: inferred TR° links (%zu) ---\n", title,
              maps.inferred.total());
  std::printf("%s", maps.inferred.render().c_str());
  std::printf("bottom-left mass (smallest quarter of both axes): %.2f\n",
              maps.inferred.bottom_left_mass());
  std::printf("\n--- %s: validatable TR° links (%zu) ---\n", title,
              maps.validated.total());
  std::printf("%s", maps.validated.render().c_str());
  std::printf("bottom-left mass: %.2f\n",
              maps.validated.bottom_left_mass());
}

}  // namespace asrel::bench
