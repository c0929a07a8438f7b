// live_churn: the daemon's live mode at 1000 ASes. An open-loop churn
// generator feeds a kBlock EventQueue; one consumer applies up to 25
// queued events, publishes the epoch and swaps it into the EngineHub,
// starting the next cycle as soon as an event waits. An open-loop read mix
// hits the epoll HttpServer on the same hub meanwhile. The run ends with
// checkpoint -> encode -> decode -> restore -> hub publish.
//
// Checks: the final epoch equals StreamSession::reference_snapshot byte
// for byte, every restored session's snapshot equals the live one, and
// every read returns 200 with intact framing.
#include <algorithm>
#include <cmath>
#include <numeric>
#include <thread>

#include "bench.hpp"
#include "serve/engine_hub.hpp"
#include "serving.hpp"
#include "stream/checkpoint.hpp"
#include "stream/ingest.hpp"
#include "stream/session.hpp"

namespace perfbench {

namespace {

using namespace asrel;

constexpr int kStreamAses = 1000;
/// Events per second. At 1000 ASes a publish costs ~0.8 s on 4 cores and
/// a 25-event cycle ~1 s, so 20/s leaves no margin once reads share the
/// cores; 10/s keeps the backlog flat.
constexpr double kChurnRate = 10.0;
constexpr std::size_t kMaxBatch = 25;
constexpr double kReadRate = 2000.0;
/// One read connection: with two, whether they share an event loop (one
/// in four runs) decided whether a report computed on a fresh epoch held
/// up the other connection's reads, and the read p99 with it.
constexpr int kReadConnections = 1;
/// asrel_serve's default --threads.
constexpr int kServeLoops = 4;
constexpr int kSetupRepeats = 3;
constexpr int kRestoreRepeats = 7;

/// The serving stack over one session. Members are destroyed bottom-up,
/// so the server stops before the service and hub it calls into.
struct Live {
  std::unique_ptr<stream::StreamSession> session;
  std::shared_ptr<serve::EngineHub> hub;
  std::unique_ptr<serve::AsrelService> service;
  std::unique_ptr<serve::HttpServer> server;
};

struct ChurnPhase {
  std::vector<double> freshness_ms;
  std::vector<double> queue_wait_ms;
  std::vector<double> generator_late_ms;
  std::vector<double> batch_sizes;
  std::uint64_t backlog_max = 0;
  std::uint64_t events = 0;
  PhaseStats reads;
};

struct CacheTally {
  std::uint64_t rel_hits = 0, rel_misses = 0;
  std::uint64_t report_hits = 0, report_misses = 0;
  void add(const serve::QueryEngine& engine) {
    const auto rel = engine.rel_cache_stats();
    const auto report = engine.cache_stats();
    rel_hits += rel.hits;
    rel_misses += rel.misses;
    report_hits += report.hits;
    report_misses += report.misses;
  }
};

double ratio(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

/// One measured stretch: events [first, first + n) arrive on schedule for
/// `seconds`, reads run alongside, and the consumer drains what arrived.
ChurnPhase run_phase(Live& live, const std::vector<stream::ChurnEvent>& events,
                     std::size_t first, const std::vector<ReadRequest>& pool,
                     double seconds, std::uint64_t& built,
                     CacheTally& caches) {
  ChurnPhase phase;
  stream::EventQueue queue{1024, stream::QueuePolicy::kBlock};
  std::vector<Clock::time_point> due(events.size());
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  const Clock::time_point end =
      start + std::chrono::nanoseconds(static_cast<std::int64_t>(seconds * 1e9));
  const OpenLoopSchedule schedule{start, kChurnRate};

  std::thread generator{[&] {
    for (std::size_t i = first; i < events.size(); ++i) {
      const Clock::time_point at = schedule.due(i - first);
      if (at >= end) break;
      std::this_thread::sleep_until(at);
      due[i] = at;  // published to the consumer by the queue's mutex
      queue.push({i, events[i]});
      phase.generator_late_ms.push_back(lateness_ms(at, Clock::now()));
      phase.backlog_max = std::max<std::uint64_t>(phase.backlog_max,
                                                  queue.depth());
    }
    queue.close();
  }};
  std::thread reader{[&] {
    phase.reads = run_open_loop(live.server->port(), pool, kReadConnections,
                                kReadRate, start, end);
  }};

  std::vector<stream::QueuedEvent> batch;
  while (auto head = queue.pop()) {
    batch.clear();
    batch.push_back(std::move(*head));
    while (batch.size() < kMaxBatch && queue.depth() > 0) {
      auto next = queue.pop();
      if (!next) break;
      batch.push_back(std::move(*next));
    }
    const Clock::time_point popped = Clock::now();
    for (const auto& item : batch) {
      phase.queue_wait_ms.push_back(ms_between(due[item.seq], popped));
      traced("stream.apply", "live.epoch",
             [&] { (void)live.session->apply(item.event); });
    }
    const io::Snapshot* snapshot = traced("stream.publish", "live.epoch", [&] {
      return &live.session->publish(++built);
    });
    caches.add(*live.hub->current());
    traced("serve.hub_publish", "live.epoch",
           [&] { live.hub->publish(io::Snapshot{*snapshot}); });
    const Clock::time_point visible = Clock::now();
    for (const auto& item : batch) {
      phase.freshness_ms.push_back(ms_between(due[item.seq], visible));
    }
    phase.batch_sizes.push_back(static_cast<double>(batch.size()));
    phase.events += batch.size();
  }
  generator.join();
  reader.join();
  return phase;
}

}  // namespace

Result run_live_churn(const Options& options) {
  Result result;
  SpanLog& spans = SpanLog::instance();
  // Thread settings as asrel_serve's live mode has them: the pipeline on
  // every CPU (ScenarioParams::threads left at 0), four server loops, no
  // pinning. Reads and apply/publish contend for the same cores, so a
  // read-path gain that costs publish time, or the reverse, shows here.
  core::ScenarioParams params;
  params.topology.as_count = kStreamAses;
  params.topology.seed = options.world_seed;

  // Set-up, repeated: bootstrap the session, build the first engine, start
  // the server. The last repetition is the one measured.
  Live live;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (live.server) live.server->stop();
    live = Live{};
    const Clock::time_point start = Clock::now();
    live.session = std::make_unique<stream::StreamSession>(params);
    live.hub = std::make_shared<serve::EngineHub>(
        std::make_shared<const serve::QueryEngine>(
            io::Snapshot{live.session->snapshot()}));
    live.service = std::make_unique<serve::AsrelService>(live.hub);
    live.server = std::make_unique<serve::HttpServer>(
        timed_handler(*live.service),
        server_options(*live.service, kServeLoops));
    std::string error;
    if (!live.server->start(&error)) {
      result.miss("server start: " + error);
      return result;
    }
    setup_s.push_back(seconds_since(start));
  }

  // Inputs from the seed: the churn feed over the pristine world and a
  // uniform read mix over every link and AS of the first epoch.
  const io::Snapshot& first = live.session->snapshot();
  std::vector<val::AsLink> links;
  for (const auto& tag : first.links) links.push_back(tag.link);
  std::vector<std::uint32_t> asns;
  for (const auto& as : first.ases) asns.push_back(as.asn.value());
  const auto pool = make_read_mix(1 << 15, options.seed, links, asns, false);
  const auto events = stream::generate_churn(
      live.session->world(), options.seed,
      static_cast<std::size_t>(std::ceil(options.seconds * kChurnRate)) + 4);

  std::uint64_t built = 1;
  CacheTally caches;
  const auto stats_before = live.session->stats();
  ChurnPhase untraced;
  ChurnPhase traced_phase;
  if (options.trace) {
    untraced = run_phase(live, events, 0, pool, options.seconds / 2, built,
                         caches);
    spans.set_enabled(true);
    traced_phase = run_phase(live, events, untraced.events, pool,
                             options.seconds / 2, built, caches);
  } else {
    untraced = run_phase(live, events, 0, pool, options.seconds, built,
                         caches);
  }
  caches.add(*live.hub->current());
  const ChurnPhase& measured = options.trace ? traced_phase : untraced;
  const std::uint64_t events_done = untraced.events + traced_phase.events;

  // Check 1: the maintained final epoch equals a from-scratch rebuild.
  const std::string live_bytes = io::to_snapshot_bytes(live.session->snapshot());
  const bool final_ok =
      live_bytes ==
      io::to_snapshot_bytes(live.session->reference_snapshot(built));
  if (!final_ok) result.miss("final epoch differs from reference_snapshot");

  // Recovery: checkpoint -> bytes -> parse -> restore -> hub publish.
  std::vector<double> restore_s;
  std::size_t checkpoint_bytes = 0;
  std::uint64_t restore_failed = 0;
  for (int i = 0; i < kRestoreRepeats; ++i) {
    const Clock::time_point start = Clock::now();
    const auto checkpoint = traced("stream.checkpoint", "live.restore", [&] {
      return live.session->checkpoint(events_done);
    });
    const std::string bytes = traced("stream.checkpoint_encode", "live.restore",
                                     [&] {
                                       return stream::to_checkpoint_bytes(
                                           checkpoint);
                                     });
    const auto parsed = traced("stream.checkpoint_decode", "live.restore", [&] {
      return stream::parse_checkpoint_bytes(bytes);
    });
    std::string error;
    std::unique_ptr<stream::StreamSession> restored;
    if (parsed) {
      restored = traced("stream.restore", "live.restore", [&] {
        return stream::StreamSession::restore(params, *parsed, &error);
      });
    }
    if (restored) live.hub->publish(io::Snapshot{restored->snapshot()});
    restore_s.push_back(seconds_since(start));
    checkpoint_bytes = bytes.size();
    if (!restored ||
        io::to_snapshot_bytes(restored->snapshot()) != live_bytes) {
      ++restore_failed;
      result.miss("restore " + std::to_string(i + 1) +
                  " did not reproduce the live epoch " + error);
    }
  }

  const Summary fresh = summarize(measured.freshness_ms, 0.90);
  const double read_p50_us = median(measured.reads.slice_p50_us);
  const double untraced_fresh_p50 = summarize(untraced.freshness_ms, 0.9).p50;
  PhaseStats reads;
  reads.merge(std::move(untraced.reads));
  reads.merge(std::move(traced_phase.reads));
  if (reads.failed > 0) {
    result.miss(std::to_string(reads.failed) + " reads failed");
  }
  if (!reads.balanced()) {
    result.miss("reads sent != succeeded + failed");
  }
  result.attempted = reads.sent + events_done + kRestoreRepeats;
  result.failed = reads.failed + (final_ok ? 0 : events_done) + restore_failed;

  result.note_summary("freshness_ms", fresh, "ms");
  result.detail.push_back("\"restore_repeats\":" +
                          std::to_string(kRestoreRepeats));
  result.detail.push_back(
      "\"churn\":{\"rate_per_s\":" + json_number(kChurnRate) +
      ",\"sent\":" + std::to_string(events_done) +
      ",\"succeeded\":" + std::to_string(final_ok ? events_done : 0) +
      ",\"failed\":" + std::to_string(final_ok ? 0 : events_done) +
      ",\"epochs\":" + std::to_string(built - 1) + ",\"generator_late_max_ms\":" +
      json_number(measured.generator_late_ms.empty()
                      ? 0.0
                      : *std::max_element(measured.generator_late_ms.begin(),
                                          measured.generator_late_ms.end())) +
      ",\"backlog_max\":" + std::to_string(measured.backlog_max) + "}");
  result.detail.push_back("\"read_rate_per_s\":" + json_number(kReadRate));
  result.detail.push_back(measured.reads.accounting_json("reads", result));

  // Printed in the accounting line: every workload's result line holds
  // the same metrics, and these two apply to this workload only.
  result.detail.push_back("\"restore_s\":" + json_number(median(restore_s)) +
                          ",\"live_read_p50_us\":" + json_number(read_p50_us));

  if (!options.trace) {
    result.add("setup_s", median(setup_s), "s");
    // Event freshness: due time to the hub publish that makes it visible.
    result.add("latency_p50_ms", fresh.p50, "ms");
    result.add("peak_rss_mb", peak_rss_mib(), "MiB");
    return result;
  }

  // ---- per-layer (traced) ----
  (void)add_pipeline_metrics(result, live.session->scenario(),
                             options.workdir + "/epoch.v3");

  const Summary wait = summarize(measured.queue_wait_ms, 0.99);
  result.note_summary("stream.queue_wait_ms", wait, "ms");
  result.add("stream.queue_wait_p50_ms", wait.p50, "ms");
  result.add("stream.queue_wait_p99_ms", wait.tail, "ms");
  result.add("stream.backlog_max", static_cast<double>(measured.backlog_max),
             "count");
  result.add("stream.generator_late_ms",
             measured.generator_late_ms.empty()
                 ? 0.0
                 : *std::max_element(measured.generator_late_ms.begin(),
                                     measured.generator_late_ms.end()),
             "ms");
  const std::vector<double> apply = spans.durations_ms("stream.apply");
  const Summary apply_summary = summarize(apply, 0.99);
  result.note_summary("stream.apply_ms", apply_summary, "ms");
  result.add("stream.apply_p50_ms", apply_summary.p50, "ms");
  result.add("stream.apply_p99_ms", apply_summary.tail, "ms");
  result.add("stream.apply_total_ms",
             std::accumulate(apply.begin(), apply.end(), 0.0), "ms");
  const auto stats_after = live.session->stats();
  const std::uint64_t redone =
      stats_after.origins_redone - stats_before.origins_redone;
  const std::uint64_t skipped =
      stats_after.origins_skipped - stats_before.origins_skipped;
  result.add("stream.origins_redone", static_cast<double>(redone), "count");
  // Base: every origin the rib scan considered (re-propagated + proven
  // clean), summed over all applied events of the run.
  result.add("stream.dirty_ratio", ratio(redone, redone + skipped), "ratio");
  result.detail.push_back("\"dirty_ratio_base_origins\":" +
                          std::to_string(redone + skipped));
  result.add("stream.events_per_epoch",
             std::accumulate(measured.batch_sizes.begin(),
                             measured.batch_sizes.end(), 0.0) /
                 std::max<double>(1.0, static_cast<double>(
                                           measured.batch_sizes.size())),
             "count");
  const Summary publish = summarize(spans.durations_ms("stream.publish"), 0.99);
  result.note_summary("stream.publish_ms", publish, "ms");
  result.add("stream.publish_p50_ms", publish.p50, "ms");
  result.add("stream.publish_p99_ms", publish.tail, "ms");
  result.add("serve.hub_publish_ms",
             median(spans.durations_ms("serve.hub_publish")), "ms");
  result.add("stream.checkpoint_bytes", static_cast<double>(checkpoint_bytes),
             "bytes");
  result.add("stream.checkpoint_encode_ms",
             median(spans.durations_ms("stream.checkpoint_encode")), "ms");
  result.add("stream.checkpoint_decode_ms",
             median(spans.durations_ms("stream.checkpoint_decode")), "ms");
  result.add("stream.restore_ms", median(spans.durations_ms("stream.restore")),
             "ms");

  (void)add_handle_metrics(result);
  result.add("serve.engine_rel_ns", engine_rel_ns(*live.hub->current(), pool),
             "ns");
  result.add("serve.rel_cache_hit_ratio",
             ratio(caches.rel_hits, caches.rel_hits + caches.rel_misses),
             "ratio");
  result.add("serve.report_cache_hit_ratio",
             ratio(caches.report_hits,
                   caches.report_hits + caches.report_misses),
             "ratio");
  result.add("serve.bytes_per_response",
             ratio(reads.response_bytes, reads.succeeded), "bytes");
  result.add("trace.overhead_pct",
             untraced_fresh_p50 > 0
                 ? (fresh.p50 - untraced_fresh_p50) / untraced_fresh_p50 * 100.0
                 : 0.0,
             "%");
  return result;
}

}  // namespace perfbench
