// StreamSession: the live end-to-end pipeline.
//
// A session owns the mutable world plus every piece of derived state the
// batch pipeline computes once — per-origin ribs, the collector path
// table, link classes, the serving snapshot — and keeps them all
// consistent under a stream of ChurnEvents at a fraction of a full
// rebuild's cost:
//
//   apply(event)   mutate graph -> update audit transit bits ->
//                  rib_affected scan over all origins (conservative,
//                  O(events) per origin; pure-P2P link adds first narrow
//                  the scan to the endpoints' customer cones) ->
//                  re-propagate only the dirty origins and re-harvest
//                  just their path-table buckets.
//   publish()      if any event since the last publish touched an edge,
//                  re-run the downstream stages (sanitize/schemes/
//                  extract/clean/regions) over the maintained paths and
//                  rebuild the whole snapshot through
//                  core::build_snapshot, classes served from the
//                  DeltaAudit cache; otherwise just restamp the meta.
//
// The invariant the metamorphic suite enforces: after ANY event sequence,
// publish()'s snapshot is byte-identical to reference_snapshot() — a
// from-scratch rebuild of the same final world. Incrementality changes
// cost, never bytes.
//
// Resilience (DESIGN.md §14): checkpoint()/restore() extend that
// invariant across process death — a restarted session resumes at epoch
// K+1 with its next publish byte-identical to a never-crashed run, and
// it starts clean, its snapshot already built from the restored world —
// and run_watchdog() byte-compares the maintained snapshot against the
// reference on a cadence, self-healing by full rebuild if they ever
// disagree.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bgp/propagation.hpp"
#include "core/scenario.hpp"
#include "io/snapshot.hpp"
#include "stream/checkpoint.hpp"
#include "stream/churn.hpp"
#include "stream/delta_audit.hpp"

namespace asrel::stream {

class StreamSession {
 public:
  /// Runs the batch pipeline once (same stages as Scenario::build) to
  /// establish epoch 1 state. `params.threads` governs both the initial
  /// build and the per-event re-convergence scans.
  explicit StreamSession(const core::ScenarioParams& params);

  StreamSession(const StreamSession&) = delete;
  StreamSession& operator=(const StreamSession&) = delete;

  struct EventOutcome {
    bool applied = false;          ///< false: structural no-op
    std::size_t dirty_origins = 0; ///< origins re-propagated
  };

  /// Applies one event and re-converges the affected origins. Cheap for
  /// no-ops (nothing touched -> nothing scanned). Under fault injection
  /// (Site::kStreamApply) throws std::bad_alloc before mutating anything
  /// and poisons the session; a poisoned session refuses further work and
  /// must be replaced via restore() or a fresh bootstrap.
  EventOutcome apply(const ChurnEvent& event);

  /// Ends the epoch: if any event since the last publish changed the
  /// graph, refreshes the derived pipeline state and rebuilds the whole
  /// snapshot; then stamps meta.epoch/built_unix_ms. Returns the
  /// maintained snapshot (copy it to hand to EngineHub::publish).
  /// Throws std::logic_error on a poisoned session.
  const io::Snapshot& publish(std::uint64_t built_unix_ms);

  /// From-scratch rebuild of the current world — the oracle for the
  /// byte-equality invariant. Stamps the same epoch/built_unix_ms the
  /// last publish() used, so equal state implies equal bytes.
  [[nodiscard]] io::Snapshot reference_snapshot(
      std::uint64_t built_unix_ms) const;

  // ---- resilience ----

  /// Captures the session's durable state (DESIGN.md §14 format). The
  /// caller supplies the feed resume position it wants persisted.
  /// Throws std::logic_error on a poisoned session.
  [[nodiscard]] StreamCheckpoint checkpoint(std::uint64_t feed_position) const;

  /// Rebuilds a session from a checkpoint: regenerates the static world
  /// from `params`, verifies the fingerprint, reinstalls edges/prefixes,
  /// re-derives everything else exactly as bootstrap does (all-origin
  /// propagation and the whole snapshot included), and cross-checks the
  /// audit's transit bits. Returns null (with `*error` filled) if the
  /// checkpoint belongs to a different world or fails its integrity
  /// checks — callers then fall down the recovery ladder. On success
  /// epoch() == checkpoint.epoch, the session is clean (a publish with no
  /// new events only restamps), and the next publish is byte-identical
  /// to a never-crashed run's.
  [[nodiscard]] static std::unique_ptr<StreamSession> restore(
      const core::ScenarioParams& params, const StreamCheckpoint& checkpoint,
      std::string* error = nullptr);

  struct WatchdogReport {
    bool ran = false;      ///< false: audit skipped (dirty or poisoned)
    bool diverged = false;
    bool healed = false;
    std::string first_diff_section;  ///< e.g. "links"; set iff diverged
  };

  /// Divergence watchdog: byte-compares the maintained snapshot against a
  /// from-scratch reference of the same world. Runs only when no events
  /// are pending publication (call it right after publish()). On
  /// divergence it raises asrel_stream_divergence_total, reports the
  /// first differing section, and self-heals by rebuilding every piece of
  /// incremental state from the world — after which the maintained bytes
  /// re-satisfy the oracle and the caller should re-publish snapshot().
  WatchdogReport run_watchdog();

  /// True after an injected apply-path failure: state may be mid-mutation
  /// and publish()/checkpoint() refuse to run. Recover by restoring from
  /// the last checkpoint.
  [[nodiscard]] bool poisoned() const { return poisoned_; }

  struct Stats {
    std::uint64_t events_applied = 0;
    std::uint64_t events_noop = 0;
    std::uint64_t origins_redone = 0;   ///< re-propagated origins, cumulative
    std::uint64_t origins_skipped = 0;  ///< proven-clean origins, cumulative
    /// Of origins_skipped, those the cone prefilter excluded before the
    /// rib scan even ran (pure-P2P link adds only).
    std::uint64_t origins_skipped_cone = 0;
    std::uint64_t epochs_published = 0;
    std::uint64_t divergences = 0;  ///< watchdog mismatches detected
    std::uint64_t heals = 0;        ///< successful self-heals
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Published epoch counter: 1 after construction, +1 per publish() —
  /// aligned with EngineHub's epoch when every publish is forwarded.
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  [[nodiscard]] const topo::World& world() const { return world_; }
  [[nodiscard]] const io::Snapshot& snapshot() const { return snapshot_; }
  [[nodiscard]] const core::Scenario& scenario() const { return *scenario_; }

 private:
  struct RestoreTag {};
  /// Static-state-only construction (world/vps/propagator/sessions);
  /// restore() fills in the rest from the checkpoint.
  StreamSession(const core::ScenarioParams& params, RestoreTag);

  void init_static(const core::ScenarioParams& params);
  /// Re-derives ribs/paths/audit/scenario/snapshot from world_ alone (the
  /// bootstrap body, reused by restore() and the watchdog's self-heal).
  void rebuild_derived_state();
  void reconverge(std::span<const topo::EdgeId> touched,
                  const std::vector<std::uint8_t>* cone_candidates);

  core::ScenarioParams params_;  ///< effective (threads override applied)
  topo::World world_;
  std::vector<bgp::VantagePoint> vps_;
  std::vector<bgp::VpSession> sessions_;
  std::unique_ptr<bgp::Propagator> propagator_;
  std::vector<bgp::OriginRib> ribs_;  ///< by origin NodeId
  bgp::PathTable paths_;
  std::unique_ptr<DeltaAudit> audit_;
  std::unique_ptr<core::Scenario> scenario_;
  io::Snapshot snapshot_;
  std::uint64_t epoch_ = 0;
  Stats stats_;
  bool poisoned_ = false;

  // Set by any event since the last publish that touched an edge (and so
  // possibly paths); publish() then rebuilds the snapshot. Prefix-only
  // epochs leave it false and publish() just restamps the meta.
  bool dirty_ = false;
};

/// The recovery ladder: newest checkpoint -> previous checkpoint -> cold
/// bootstrap. Rejected candidates (torn files, foreign fingerprints) are
/// counted and narrated in `detail`; the ladder never yields a session
/// older than the newest *valid* checkpoint, so a restarted server cannot
/// serve an epoch below what it last durably persisted.
struct RecoveryOutcome {
  std::unique_ptr<StreamSession> session;
  std::uint64_t resumed_epoch = 0;   ///< 0 = cold bootstrap
  std::uint64_t feed_position = 0;   ///< events already reflected
  std::size_t checkpoints_rejected = 0;
  std::string detail;  ///< human-readable recovery story for logs/statsz
};

[[nodiscard]] RecoveryOutcome recover_session(
    const core::ScenarioParams& params, const CheckpointDir& dir);

}  // namespace asrel::stream
