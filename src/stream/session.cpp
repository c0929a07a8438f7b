#include "stream/session.hpp"

#include <algorithm>
#include <chrono>
#include <new>
#include <stdexcept>
#include <utility>

#include "core/parallel.hpp"
#include "core/snapshot_builder.hpp"
#include "io/wire.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/fault_inject.hpp"
#include "stream/cone_filter.hpp"
#include "topology/generator.hpp"

namespace asrel::stream {

namespace {

struct StreamMetrics {
  obs::Counter& events_applied;
  obs::Counter& events_noop;
  obs::Counter& origins_redone;
  obs::Counter& origins_skipped_scan;
  obs::Counter& origins_skipped_cone;
  obs::Counter& divergences;
  obs::Counter& heals;
  obs::Counter& watchdog_runs;
  obs::Counter& recoveries_restored;
  obs::Counter& recoveries_rejected;
  obs::Counter& recoveries_cold;
  obs::Histogram& event_us;
  obs::Histogram& publish_us;
  obs::Gauge& epoch;

  static StreamMetrics& get() {
    auto& reg = obs::MetricsRegistry::global();
    static StreamMetrics metrics{
        reg.counter("asrel_stream_events_total{result=\"applied\"}",
                    "Churn events by outcome"),
        reg.counter("asrel_stream_events_total{result=\"noop\"}"),
        reg.counter("asrel_stream_origins_redone_total",
                    "Origins re-converged by the incremental propagator"),
        reg.counter("asrel_stream_origins_skipped_total{reason=\"rib_scan\"}",
                    "Origins proven unaffected (re-propagation skipped)"),
        reg.counter(
            "asrel_stream_origins_skipped_total{reason=\"cone_prefilter\"}"),
        reg.counter("asrel_stream_divergence_total",
                    "Watchdog mismatches between served and reference bytes"),
        reg.counter("asrel_stream_heals_total",
                    "Watchdog self-heals (full incremental-state rebuilds)"),
        reg.counter("asrel_stream_watchdog_runs_total",
                    "Completed divergence-watchdog audits"),
        reg.counter("asrel_stream_recoveries_total{result=\"restored\"}",
                    "Startup recovery outcomes"),
        reg.counter(
            "asrel_stream_recoveries_total{result=\"rejected_checkpoint\"}"),
        reg.counter("asrel_stream_recoveries_total{result=\"cold\"}"),
        reg.histogram("asrel_stream_event_duration_us",
                      obs::stage_buckets_us(),
                      "Per-event apply + re-convergence wall time (us)"),
        reg.histogram("asrel_stream_publish_duration_us",
                      obs::stage_buckets_us(),
                      "Per-epoch snapshot publication wall time (us)"),
        reg.gauge("asrel_stream_epoch",
                  "Streaming session's last published epoch"),
    };
    return metrics;
  }
};

CheckpointFingerprint fingerprint_of(const core::ScenarioParams& params,
                                     const topo::AsGraph& graph) {
  CheckpointFingerprint fp;
  fp.as_count = params.topology.as_count;
  fp.topo_seed = params.topology.seed;
  fp.scheme_seed = params.scheme_seed;
  fp.vantage_seed = params.vantage.seed;
  fp.vantage_targets = static_cast<std::uint32_t>(params.vantage.target_count);
  fp.node_count = graph.node_count();
  std::string nodes;
  nodes.reserve(graph.node_count() * 4);
  for (const auto asn : graph.nodes()) io::wire::put_u32(nodes, asn.value());
  fp.node_hash = io::wire::fnv1a64(nodes);
  return fp;
}

/// Section-granular diff for watchdog diagnostics, in snapshot order. The
/// defaulted operator==s make this a pure value comparison.
std::string first_diff_section(const io::Snapshot& a, const io::Snapshot& b) {
  if (!(a.meta == b.meta)) return "meta";
  if (a.class_names != b.class_names) return "class_names";
  if (a.ases != b.ases) return "ases";
  if (a.edges != b.edges) return "edges";
  if (a.clique != b.clique) return "clique";
  if (a.hypergiants != b.hypergiants) return "hypergiants";
  if (a.validation != b.validation) return "validation";
  if (a.algorithms != b.algorithms) return "algorithms";
  if (a.links != b.links) return "links";
  return "unknown";
}

}  // namespace

StreamSession::StreamSession(const core::ScenarioParams& params) {
  obs::StageScope stage{"stream.bootstrap"};
  init_static(params);
  rebuild_derived_state();
  epoch_ = 1;
  snapshot_.meta.epoch = epoch_;
  StreamMetrics::get().epoch.set(static_cast<std::int64_t>(epoch_));
}

StreamSession::StreamSession(const core::ScenarioParams& params, RestoreTag) {
  init_static(params);
}

void StreamSession::init_static(const core::ScenarioParams& params) {
  params_ = core::with_stage_threads(params);
  world_ = topo::generate(params_.topology);
  vps_ = bgp::select_vantage_points(world_, params_.vantage);
  // The propagator keeps a pointer to world_; the member is mutated in
  // place by apply(), never reseated, so the pointer stays valid. Its
  // adjacency is rebuilt after every edge mutation (apply, restore).
  propagator_ =
      std::make_unique<bgp::Propagator>(world_, params_.propagation);
  sessions_ = bgp::resolve_vp_sessions(world_.graph, vps_);
}

void StreamSession::rebuild_derived_state() {
  // Same per-origin loop as bgp::collect_paths, but the ribs are kept:
  // they are the baseline the dirty test diffs against.
  const std::size_t n = world_.graph.node_count();
  ribs_.assign(n, {});
  paths_ = bgp::PathTable{};
  paths_.resize_origins(n);
  paths_.set_vantage_points(vps_);
  const unsigned threads = bgp::origin_workers(params_.propagation.threads);
  core::ThreadPool::shared().run_indexed(n, threads, [&](std::size_t i) {
    const auto origin = static_cast<topo::NodeId>(i);
    ribs_[i] = propagator_->propagate(world_.graph.asn_of(origin));
    bgp::harvest_origin(*propagator_, ribs_[i], sessions_, paths_);
  });
  paths_.recount();

  audit_ = std::make_unique<DeltaAudit>(world_);
  scenario_ = core::Scenario::from_parts(params_, *propagator_, world_, vps_,
                                         paths_);
  // Build through the audit's class source: identical bytes to a fresh
  // BiasAudit, and it warms the per-link cache that later epochs
  // invalidate incrementally.
  auto source = audit_->class_source();
  snapshot_ = core::build_snapshot(*scenario_, &source);
  dirty_ = false;
}

StreamSession::EventOutcome StreamSession::apply(const ChurnEvent& event) {
  obs::StageScope stage{"stream.apply"};
  if (poisoned_) {
    throw std::logic_error{"apply() on a poisoned stream session"};
  }
  if (serve::fault::FaultInjector::instance().stream_apply_should_fail()) {
    // Modeled as the allocation failure an apply-path resize can hit.
    // Nothing has been mutated yet, but callers cannot know that in
    // general, so the session refuses all further work until replaced.
    poisoned_ = true;
    throw std::bad_alloc{};
  }
  StreamMetrics& metrics = StreamMetrics::get();
  const auto started = std::chrono::steady_clock::now();

  EventOutcome outcome;
  const ApplyResult result = apply_churn_event(world_, event);
  outcome.applied = result.applied;
  if (!result.applied) {
    ++stats_.events_noop;
    metrics.events_noop.inc();
    return outcome;
  }
  ++stats_.events_applied;
  metrics.events_applied.inc();

  if (!result.touched.empty()) {
    dirty_ = true;
    // The propagator's role-split adjacency is a snapshot of the graph
    // the event just mutated.
    propagator_->rebuild_adjacency();
    audit_->on_edges_touched(world_.graph, result.touched);
    // Pure-P2P link adds admit a sound pre-scan narrowing: only origins in
    // the endpoints' combined customer cones can even be offered the new
    // path (see cone_filter.hpp for the argument). Every other event shape
    // falls through to the full rib scan.
    std::vector<std::uint8_t> cone;
    const std::vector<std::uint8_t>* cone_ptr = nullptr;
    if (event.kind == ChurnKind::kLinkAdd && result.touched.size() == 1) {
      const topo::Edge& edge = world_.graph.edge(result.touched[0]);
      if (cone_filter_applies(edge)) {
        cone = p2p_add_candidates(world_.graph, edge);
        cone_ptr = &cone;
      }
    }
    const std::uint64_t redone_before = stats_.origins_redone;
    reconverge(result.touched, cone_ptr);
    outcome.dirty_origins =
        static_cast<std::size_t>(stats_.origins_redone - redone_before);
  }
  // Prefix events leave touched empty: they mutate world_.prefixes only,
  // which no snapshot section reads — a true pipeline no-op.

  metrics.event_us.observe(static_cast<double>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - started)
          .count()));
  return outcome;
}

void StreamSession::reconverge(std::span<const topo::EdgeId> touched,
                               const std::vector<std::uint8_t>* candidates) {
  obs::StageScope stage{"stream.reconverge"};
  const std::size_t n = ribs_.size();
  const unsigned threads = bgp::origin_workers(params_.propagation.threads);
  core::ThreadPool& pool = core::ThreadPool::shared();

  // Pass 1: conservative dirty scan — O(touched) per origin. Origins the
  // cone prefilter excluded skip even that.
  std::vector<std::uint8_t> dirty(n, 0);
  pool.run_indexed(n, threads, [&](std::size_t i) {
    if (candidates != nullptr && (*candidates)[i] == 0) return;
    dirty[i] = propagator_->rib_affected(ribs_[i], touched) ? 1 : 0;
  });

  // Pass 2: full re-propagation for the dirty frontier only; each origin
  // refills its own path-table bucket, exactly like the batch build.
  pool.run_indexed(n, threads, [&](std::size_t i) {
    if (dirty[i] == 0) return;
    const auto origin = static_cast<topo::NodeId>(i);
    ribs_[i] = propagator_->propagate(world_.graph.asn_of(origin));
    paths_.clear_origin(origin);
    bgp::harvest_origin(*propagator_, ribs_[i], sessions_, paths_);
  });
  paths_.recount();

  std::uint64_t redone = 0;
  for (const auto flag : dirty) redone += flag;
  std::uint64_t cone_skipped = 0;
  if (candidates != nullptr) {
    for (const auto flag : *candidates) cone_skipped += flag == 0 ? 1 : 0;
  }
  stats_.origins_redone += redone;
  stats_.origins_skipped += n - redone;
  stats_.origins_skipped_cone += cone_skipped;
  StreamMetrics& metrics = StreamMetrics::get();
  metrics.origins_redone.add(redone);
  metrics.origins_skipped_scan.add(n - redone - cone_skipped);
  metrics.origins_skipped_cone.add(cone_skipped);
}

const io::Snapshot& StreamSession::publish(std::uint64_t built_unix_ms) {
  obs::StageScope stage{"stream.publish"};
  if (poisoned_) {
    throw std::logic_error{"publish() on a poisoned stream session"};
  }
  if (serve::fault::FaultInjector::instance().stream_divergence_should_seed()) {
    // Silent corruption the incremental machinery cannot see: drop one
    // origin's path bucket without marking anything for re-propagation.
    // This publish serves the diverged bytes; the next watchdog audit
    // must detect and heal it.
    const auto n = static_cast<topo::NodeId>(ribs_.size());
    for (topo::NodeId origin = 0; origin < n; ++origin) {
      if (paths_.origin_path_count(origin) == 0) continue;
      paths_.clear_origin(origin);
      paths_.recount();
      dirty_ = true;
      break;
    }
  }
  StreamMetrics& metrics = StreamMetrics::get();
  const auto started = std::chrono::steady_clock::now();

  if (dirty_) {
    // Downstream stages (sanitize -> schemes -> extract -> clean ->
    // regions) are re-run over the maintained parts; the expensive
    // upstream — topology and all-origin propagation — is what
    // incrementality avoided.
    scenario_ = core::Scenario::from_parts(params_, *propagator_, world_,
                                           vps_, paths_);
    auto source = audit_->class_source();
    snapshot_ = core::build_snapshot(*scenario_, &source);
    dirty_ = false;
  }
  ++epoch_;
  ++stats_.epochs_published;
  snapshot_.meta.epoch = epoch_;
  snapshot_.meta.built_unix_ms = built_unix_ms;
  metrics.epoch.set(static_cast<std::int64_t>(epoch_));
  metrics.publish_us.observe(static_cast<double>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - started)
          .count()));
  return snapshot_;
}

io::Snapshot StreamSession::reference_snapshot(
    std::uint64_t built_unix_ms) const {
  obs::StageScope stage{"stream.reference"};
  const bgp::Propagator propagator{world_, params_.propagation};
  auto paths = bgp::collect_paths(propagator, vps_);
  const auto scenario = core::Scenario::from_parts(params_, propagator, world_,
                                                   vps_, std::move(paths));
  io::Snapshot snapshot = core::build_snapshot(*scenario);
  snapshot.meta.epoch = epoch_;
  snapshot.meta.built_unix_ms = built_unix_ms;
  return snapshot;
}

StreamCheckpoint StreamSession::checkpoint(
    std::uint64_t feed_position) const {
  if (poisoned_) {
    throw std::logic_error{"checkpoint() on a poisoned stream session"};
  }
  obs::StageScope stage{"stream.checkpoint"};
  StreamCheckpoint cp;
  cp.fingerprint = fingerprint_of(params_, world_.graph);
  cp.epoch = epoch_;
  cp.built_unix_ms = snapshot_.meta.built_unix_ms;
  cp.feed_position = feed_position;
  const auto edges = world_.graph.edges();
  cp.edges.assign(edges.begin(), edges.end());
  cp.prefixes.reserve(world_.prefixes.size());
  for (const auto& [asn, list] : world_.prefixes) {
    if (!list.empty()) cp.prefixes.emplace_back(asn, list);
  }
  std::sort(cp.prefixes.begin(), cp.prefixes.end(),
            [](const auto& a, const auto& b) {
              return a.first.value() < b.first.value();
            });
  cp.transit_asns = audit_->sorted_transit_asns();
  return cp;
}

std::unique_ptr<StreamSession> StreamSession::restore(
    const core::ScenarioParams& params, const StreamCheckpoint& checkpoint,
    std::string* error) {
  obs::StageScope stage{"stream.restore"};
  const auto fail = [&](const char* message) -> std::unique_ptr<StreamSession> {
    if (error != nullptr) *error = message;
    return nullptr;
  };
  if (checkpoint.epoch == 0) {
    return fail("checkpoint epoch must be >= 1");
  }
  std::unique_ptr<StreamSession> session{
      new StreamSession(params, RestoreTag{})};
  if (fingerprint_of(session->params_, session->world_.graph) !=
      checkpoint.fingerprint) {
    return fail("checkpoint fingerprint does not match the configured world");
  }

  // The decoder validated the edges against the checkpoint's own
  // fingerprint; the fingerprint match transfers that to the regenerated
  // world, so the reinstallation below cannot go out of bounds.
  session->world_.graph.restore_edges(checkpoint.edges);
  session->propagator_->rebuild_adjacency();
  session->world_.prefixes.clear();
  for (const auto& [asn, list] : checkpoint.prefixes) {
    session->world_.prefixes.emplace(asn, list);
  }

  // The bootstrap body over the restored world: the snapshot it builds
  // already reflects every event the checkpoint holds, published or not,
  // so the restored session is clean. A publish with no new events only
  // restamps, and its bytes equal the never-crashed session's publish.
  session->rebuild_derived_state();
  if (session->audit_->sorted_transit_asns() != checkpoint.transit_asns) {
    return fail("checkpoint transit bits disagree with the restored world");
  }
  session->epoch_ = checkpoint.epoch;
  session->snapshot_.meta.epoch = checkpoint.epoch;
  session->snapshot_.meta.built_unix_ms = checkpoint.built_unix_ms;
  StreamMetrics::get().epoch.set(
      static_cast<std::int64_t>(checkpoint.epoch));
  return session;
}

StreamSession::WatchdogReport StreamSession::run_watchdog() {
  obs::StageScope stage{"stream.watchdog"};
  WatchdogReport report;
  // Only audit a quiescent snapshot: with events pending publication the
  // maintained bytes legitimately trail the world and a mismatch would be
  // a false alarm, not corruption.
  if (poisoned_ || dirty_) return report;
  report.ran = true;
  StreamMetrics& metrics = StreamMetrics::get();
  metrics.watchdog_runs.inc();

  const std::uint64_t built = snapshot_.meta.built_unix_ms;
  const io::Snapshot reference = reference_snapshot(built);
  if (io::to_snapshot_bytes(snapshot_) == io::to_snapshot_bytes(reference)) {
    return report;
  }
  report.diverged = true;
  report.first_diff_section = first_diff_section(snapshot_, reference);
  ++stats_.divergences;
  metrics.divergences.inc();
  static obs::LogSite diverged_site{"stream.watchdog", "diverged", 0};
  obs::log_event(diverged_site, obs::LogLevel::kError, 0,
                 {{"epoch", epoch_},
                  {"first_diff_section", report.first_diff_section}});

  // Self-heal: throw away every piece of incremental state and re-derive
  // it from the world, then restamp the same epoch/build time so the
  // healed snapshot replaces the diverged one in place.
  rebuild_derived_state();
  snapshot_.meta.epoch = epoch_;
  snapshot_.meta.built_unix_ms = built;
  report.healed = true;
  ++stats_.heals;
  metrics.heals.inc();
  static obs::LogSite healed_site{"stream.watchdog", "healed", 0};
  obs::log_event(healed_site, obs::LogLevel::kWarn, 0, {{"epoch", epoch_}});
  return report;
}

RecoveryOutcome recover_session(const core::ScenarioParams& params,
                                const CheckpointDir& dir) {
  obs::StageScope stage{"stream.recover"};
  StreamMetrics& metrics = StreamMetrics::get();
  RecoveryOutcome outcome;
  std::string story;
  static obs::LogSite rejected_site{"stream.recover", "checkpoint_rejected",
                                    0};
  static obs::LogSite restored_site{"stream.recover", "restored", 0};
  static obs::LogSite cold_site{"stream.recover", "cold_bootstrap", 0};
  for (const auto& path : dir.candidates()) {
    std::string error;
    const auto checkpoint = load_checkpoint_file(path, &error);
    if (!checkpoint.has_value()) {
      ++outcome.checkpoints_rejected;
      metrics.recoveries_rejected.inc();
      obs::log_event(rejected_site, obs::LogLevel::kWarn, 0,
                     {{"path", path}, {"error", error}});
      story += path + ": " + error + "; ";
      continue;
    }
    auto session = StreamSession::restore(params, *checkpoint, &error);
    if (session == nullptr) {
      ++outcome.checkpoints_rejected;
      metrics.recoveries_rejected.inc();
      obs::log_event(rejected_site, obs::LogLevel::kWarn, 0,
                     {{"path", path}, {"error", error}});
      story += path + ": " + error + "; ";
      continue;
    }
    outcome.session = std::move(session);
    outcome.resumed_epoch = checkpoint->epoch;
    outcome.feed_position = checkpoint->feed_position;
    outcome.detail = story + "restored epoch " +
                     std::to_string(checkpoint->epoch) + " from " + path;
    metrics.recoveries_restored.inc();
    obs::log_event(restored_site, obs::LogLevel::kInfo, 0,
                   {{"epoch", checkpoint->epoch}, {"path", path}});
    return outcome;
  }
  outcome.session = std::make_unique<StreamSession>(params);
  outcome.detail = story + "cold bootstrap";
  metrics.recoveries_cold.inc();
  obs::log_event(
      cold_site, obs::LogLevel::kInfo, 0,
      {{"checkpoints_rejected", outcome.checkpoints_rejected}});
  return outcome;
}

}  // namespace asrel::stream
