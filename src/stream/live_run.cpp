#include "stream/live_run.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "obs/log.hpp"
#include "topology/generator.hpp"

namespace asrel::stream {

namespace {

std::vector<ChurnEvent> load_feed(const LiveConfig& config) {
  if (config.replay.empty()) {
    // From the pristine world, not a resumed session's: its world already
    // reflects churn and would yield a feed the first run never saw.
    const auto count = static_cast<std::size_t>(std::max(0, config.events));
    return generate_churn(topo::generate(config.params.topology),
                          config.churn_seed, count);
  }
  std::ifstream in{config.replay};
  if (!in) throw std::runtime_error{"cannot open " + config.replay};
  std::ostringstream text;
  text << in.rdbuf();
  std::string error;
  auto events = parse_churn_text(text.str(), &error);
  if (events.empty() && !error.empty()) {
    throw std::runtime_error{"cannot parse " + config.replay + ": " + error};
  }
  return events;
}

}  // namespace

bool parse_live_flag(std::string_view flag, const char* value,
                     LiveConfig& config) {
  if (flag == "--churn-seed") {
    config.churn_seed = std::strtoull(value, nullptr, 10);
  } else if (flag == "--replay") {
    config.replay = value;
  } else if (flag == "--checkpoint-dir") {
    config.checkpoint_dir = value;
  } else if (flag == "--checkpoint-every") {
    config.checkpoint_every = std::atoi(value);
  } else if (flag == "--watchdog-every") {
    config.watchdog_every = std::atoi(value);
  } else if (flag == "--queue-cap") {
    config.queue_cap = std::atoi(value);
  } else {
    return false;
  }
  return true;
}

LiveRun::LiveRun(LiveConfig config)
    : config_(std::move(config)),
      queue_(static_cast<std::size_t>(std::max(1, config_.queue_cap)),
             config_.queue_policy) {
  config_.batch = std::max(1, config_.batch);
  config_.checkpoint_every = std::max(1, config_.checkpoint_every);
  if (!config_.checkpoint_dir.empty()) {
    checkpoints_.emplace(config_.checkpoint_dir);
  }
  feed_ = load_feed(config_);
  RecoveryOutcome outcome = recover();
  session_ = std::move(outcome.session);
  recovery_.resumed_epoch = outcome.resumed_epoch;
  recovery_.checkpoints_rejected = outcome.checkpoints_rejected;
  recovery_.detail = std::move(outcome.detail);
  applied_through_ = outcome.feed_position;
  feeder_.emplace(queue_, feed_, applied_through_);
}

RecoveryOutcome LiveRun::recover() const {
  if (checkpoints_) return recover_session(config_.params, *checkpoints_);
  return {std::make_unique<StreamSession>(config_.params), 0, 0, 0,
          "cold bootstrap (no checkpoint dir)"};
}

LiveRun::Batch LiveRun::apply_batch(bool wait) {
  Batch batch;
  while (batch.events < static_cast<std::size_t>(config_.batch) &&
         (wait || queue_.depth() > 0)) {
    const auto item = queue_.pop();
    if (!item) break;
    ++batch.events;
    apply(*item, batch);
  }
  return batch;
}

void LiveRun::apply(const QueuedEvent& item, Batch& batch) {
  // Only a replay applies events ahead of the queue. A coalescing queue
  // can pop a lower sequence number after a higher one, and that event
  // is still new.
  if (item.seq < replayed_through_) return;
  try {
    batch.redone += session_->apply(item.event).dirty_origins;
  } catch (const std::bad_alloc&) {
    static obs::LogSite poisoned_site{"stream.live", "apply_poisoned", 0};
    obs::log_event(poisoned_site, obs::LogLevel::kError, 0,
                   {{"seq", item.seq}});
    RecoveryOutcome outcome = recover();
    session_ = std::move(outcome.session);
    ++recovery_.in_process_restores;
    recovery_.checkpoints_rejected += outcome.checkpoints_rejected;
    recovery_.detail = std::move(outcome.detail);
    batch.restored = true;
    // Catch up from the restore point on the in-memory feed, then land
    // the event that failed.
    for (std::uint64_t seq = outcome.feed_position; seq <= item.seq; ++seq) {
      batch.redone += session_->apply(feed_[seq]).dirty_origins;
    }
    replayed_through_ = item.seq + 1;
  }
  applied_through_ = std::max(applied_through_, item.seq + 1);
}

LiveRun::Cadence LiveRun::after_publish() {
  Cadence cadence;
  if (config_.watchdog_every > 0 &&
      session_->epoch() %
              static_cast<std::uint64_t>(config_.watchdog_every) ==
          0) {
    cadence.watchdog = session_->run_watchdog();
  }
  if (checkpoints_ &&
      ++publishes_since_checkpoint_ >=
          static_cast<std::uint64_t>(config_.checkpoint_every) &&
      checkpoints_->save(session_->checkpoint(applied_through_),
                         &cadence.checkpoint_error)) {
    publishes_since_checkpoint_ = 0;
    ++checkpoints_written_;
  }
  return cadence;
}

bool LiveRun::finish(std::string* error) {
  feeder_.reset();
  if (!checkpoints_ || session_->poisoned()) return true;
  if (!checkpoints_->save(session_->checkpoint(applied_through_), error)) {
    return false;
  }
  ++checkpoints_written_;
  return true;
}

bool LiveRun::drained() const {
  return feeder_ && feeder_->done() && queue_.depth() == 0;
}

}  // namespace asrel::stream
