#include "core/scenario.hpp"

#include "core/parallel.hpp"
#include "obs/trace.hpp"

namespace asrel::core {

ScenarioParams with_stage_threads(ScenarioParams params) {
  if (params.threads != 0) {
    params.propagation.threads = params.threads;
    params.extract.threads = params.threads;
  }
  return params;
}

std::unique_ptr<Scenario> Scenario::build(const ScenarioParams& params) {
  obs::StageScope scenario_scope{"pipeline.build"};
  auto scenario = std::unique_ptr<Scenario>(new Scenario);
  scenario->params_ = with_stage_threads(params);
  const ScenarioParams& effective = scenario->params_;

  // 1. The world and its companion data sets.
  {
    obs::StageScope scope{"pipeline.topology"};
    scenario->world_ = topo::generate(params.topology);
  }

  // 2. Observation: collectors, propagation, sanitized paths.
  {
    obs::StageScope scope{"pipeline.vantage_points"};
    scenario->vps_ = bgp::select_vantage_points(scenario->world_,
                                                params.vantage);
  }
  const bgp::Propagator propagator{scenario->world_, effective.propagation};
  scenario->paths_ = bgp::collect_paths(propagator, scenario->vps_);
  scenario->finish_from_paths(propagator);
  return scenario;
}

std::unique_ptr<Scenario> Scenario::from_parts(
    const ScenarioParams& params, const bgp::Propagator& propagator,
    topo::World world, std::vector<bgp::VantagePoint> vps,
    bgp::PathTable paths) {
  auto scenario = std::unique_ptr<Scenario>(new Scenario);
  scenario->params_ = with_stage_threads(params);
  scenario->world_ = std::move(world);
  scenario->vps_ = std::move(vps);
  scenario->paths_ = std::move(paths);
  scenario->finish_from_paths(propagator);
  return scenario;
}

void Scenario::finish_from_paths(const bgp::Propagator& propagator) {
  {
    obs::StageScope scope{"pipeline.sanitize"};
    observed_ = infer::ObservedPaths::build(paths_, &sanitize_stats_,
                                            params_.threads);
  }

  // ASRank reads only observed_, so it runs on the pool's side thread while
  // the validation data is compiled. The side thread is one of the T
  // executors extraction would otherwise use; with T == 1 both run inline.
  const auto rank = [this] { asrank_ = infer::run_asrank(observed_); };
  const unsigned threads =
      ThreadPool::effective_threads(params_.extract.threads);
  if (threads <= 1) {
    compile_validation(propagator, threads);
    rank();
    return;
  }
  ThreadPool::shared().run_beside(
      rank, [&] { compile_validation(propagator, threads - 1); },
      "pipeline.asrank_join");
}

void Scenario::compile_validation(const bgp::Propagator& propagator,
                                  unsigned extract_threads) {
  const ScenarioParams& effective = params_;
  // 3. Validation compilation (Luckie-style communities, plus optional
  //    secondary sources).
  {
    obs::StageScope scope{"pipeline.schemes"};
    schemes_ = val::SchemeDirectory::build(world_, effective.scheme_seed);
  }
  val::ExtractParams extract = effective.extract;
  extract.threads = extract_threads;
  raw_validation_ = val::extract_from_communities(
      propagator, paths_, schemes_, extract, &extract_stats_);
  if (effective.include_rpsl_source) {
    const auto irr = rpsl::synthesize_irr(world_, effective.irr);
    raw_validation_.merge(val::extract_from_rpsl(irr));
  }
  if (effective.include_direct_reports) {
    raw_validation_.merge(
        val::collect_direct_reports(world_, effective.reports));
  }

  // 4. Cleaning (§4.2) against the as2org data.
  {
    obs::StageScope scope{"pipeline.clean"};
    orgs_ = org::OrgMap{world_.as2org};
    validation_ = val::clean(raw_validation_, orgs_, effective.cleaning,
                             &cleaning_stats_);
  }

  // 5. ASN -> region mapping: IANA bootstrap refined by the synthesized
  //    delegation files (§5).
  {
    obs::StageScope scope{"pipeline.regions"};
    mapper_ = rir::RegionMapper{};
    for (const auto& file : world_.delegations) {
      mapper_.apply(file);
    }
  }
}

}  // namespace asrel::core
