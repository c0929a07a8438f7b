// Scenario: the end-to-end "Obtaining & Cleaning Data" pipeline (§4).
//
// One call wires the whole closed world together:
//   generate topology -> select vantage points -> propagate BGP ->
//   harvest collector paths -> sanitize (observed view) ->
//   compile validation data (communities, optionally RPSL + direct
//   reports) -> clean it (§4.2) -> build the ASN->region mapping from the
//   synthesized delegation files -> ASRank over the sanitized paths.
// ASRank reads only the sanitized paths, so it runs on the shared pool's
// side thread while the validation data is compiled (ThreadPool::
// run_beside); ProbLink and TopoScope start from its result and the
// cleaned validation data. Everything downstream (inference, bias audits,
// benches) consumes a Scenario.
#pragma once

#include <memory>
#include <vector>

#include "bgp/propagation.hpp"
#include "bgp/vantage.hpp"
#include "infer/asrank.hpp"
#include "infer/observed.hpp"
#include "org/as2org.hpp"
#include "rir/region_mapper.hpp"
#include "rpsl/synthesize.hpp"
#include "topology/generator.hpp"
#include "validation/cleaner.hpp"
#include "validation/extract.hpp"
#include "validation/scheme.hpp"
#include "validation/sources.hpp"

namespace asrel::core {

struct ScenarioParams {
  topo::TopologyParams topology;
  bgp::VantageParams vantage;
  bgp::PropagationParams propagation;
  val::ExtractParams extract;
  val::CleaningOptions cleaning;

  /// Recent validation efforts use communities only (§3.2); the secondary
  /// sources can be switched on for ablations.
  bool include_rpsl_source = false;
  bool include_direct_reports = false;
  rpsl::IrrParams irr;
  val::DirectReportParams reports;

  std::uint64_t scheme_seed = 2718;

  /// One knob for the whole pipeline: when nonzero, overrides the
  /// per-stage worker counts (propagation, extraction — and callers pass
  /// it on to inference and audits). 0 leaves each stage's own setting in
  /// force. Every stage is byte-identical for every value.
  unsigned threads = 0;
};

/// `params` with a nonzero `threads` copied into the per-stage worker
/// counts (propagation, extraction): the one place that knob is applied.
[[nodiscard]] ScenarioParams with_stage_threads(ScenarioParams params);

class Scenario {
 public:
  /// Builds the whole pipeline. Deterministic in `params`.
  [[nodiscard]] static std::unique_ptr<Scenario> build(
      const ScenarioParams& params);

  /// Builds a Scenario from an already-materialized world, vantage-point
  /// list, and collected path table, running only the downstream stages
  /// (sanitize -> schemes -> extract -> clean -> regions, ASRank). The
  /// streaming session uses this both per epoch (with incrementally
  /// maintained paths) and for the from-scratch reference rebuild the
  /// byte-equality invariant is checked against. `params.topology` must
  /// describe the world the parts came from; determinism then matches
  /// build().
  /// `propagator` must be built over an equal world with
  /// `params.propagation` (community extraction resolves hybrid links
  /// through it); it is only borrowed for the call.
  [[nodiscard]] static std::unique_ptr<Scenario> from_parts(
      const ScenarioParams& params, const bgp::Propagator& propagator,
      topo::World world, std::vector<bgp::VantagePoint> vps,
      bgp::PathTable paths);

  const ScenarioParams& params() const { return params_; }
  const topo::World& world() const { return world_; }
  const std::vector<bgp::VantagePoint>& vantage_points() const {
    return vps_;
  }
  const bgp::PathTable& paths() const { return paths_; }
  const infer::ObservedPaths& observed() const { return observed_; }
  const infer::SanitizeStats& sanitize_stats() const {
    return sanitize_stats_;
  }
  const val::SchemeDirectory& schemes() const { return schemes_; }
  const val::ValidationSet& raw_validation() const { return raw_validation_; }
  const std::vector<val::CleanLabel>& validation() const {
    return validation_;
  }
  const val::CleaningStats& cleaning_stats() const { return cleaning_stats_; }
  const val::ExtractStats& extract_stats() const { return extract_stats_; }
  const org::OrgMap& orgs() const { return orgs_; }
  const rir::RegionMapper& region_mapper() const { return mapper_; }
  /// ASRank over observed() with default parameters: equal to
  /// infer::run_asrank(observed()).
  const infer::AsRankResult& asrank() const { return asrank_; }

  /// A fresh propagator over this scenario's world. Construction builds
  /// its role-split adjacency, an O(V + E) pass: keep one rather than
  /// calling this per origin.
  [[nodiscard]] bgp::Propagator propagator() const {
    return bgp::Propagator{world_, params_.propagation};
  }

 private:
  Scenario() = default;

  /// Shared tail of build()/from_parts(): everything downstream of the
  /// path table (world_, vps_, paths_ must already be set).
  void finish_from_paths(const bgp::Propagator& propagator);
  /// Schemes -> extract -> clean -> regions, extraction on `extract_threads`.
  void compile_validation(const bgp::Propagator& propagator,
                          unsigned extract_threads);

  ScenarioParams params_;
  topo::World world_;
  std::vector<bgp::VantagePoint> vps_;
  bgp::PathTable paths_;
  infer::ObservedPaths observed_;
  infer::SanitizeStats sanitize_stats_;
  val::SchemeDirectory schemes_;
  val::ValidationSet raw_validation_;
  std::vector<val::CleanLabel> validation_;
  val::CleaningStats cleaning_stats_;
  val::ExtractStats extract_stats_;
  org::OrgMap orgs_;
  rir::RegionMapper mapper_;
  infer::AsRankResult asrank_;
};

}  // namespace asrel::core
