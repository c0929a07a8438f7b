// Backpressured ingest: the bounded queue between a churn feed and the
// session's apply() loop.
//
// A live feeder can outrun re-convergence (a hub-edge event costs many
// origin re-propagations). Unbounded buffering turns that into unbounded
// memory and unbounded staleness, so the queue is capped and the producer
// picks what saturation means:
//
//   kBlock    — producer waits for space. Lossless; feed_position resumes
//               are exact, so this is the policy checkpointed deployments
//               and the chaos suite use.
//   kShed     — incoming events are dropped (and counted) while full.
//   kCoalesce — an incoming event replaces a queued event for the same
//               key (same link, or same origin+prefix) in place, keeping
//               only the newest intent; with no queued partner it sheds.
//
// Consumers drain with pop(), which blocks until an event arrives or the
// queue is closed *and* empty — close() is the drain-aware shutdown: the
// producer stops, the consumer finishes the backlog, then exits.
//
// QueueFeeder is the producer LiveRun (live_run.hpp) runs: one thread
// pushing a feed into the queue. Its destructor closes the queue before
// joining, so a consumer that leaves early (a failed verify, a shutdown)
// never strands a kBlock push waiting for space; the feeder stops at the
// first push a closed queue refuses, so only that in-flight event counts
// as shed.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <span>
#include <string_view>
#include <thread>

#include "stream/churn.hpp"

namespace asrel::stream {

enum class QueuePolicy : std::uint8_t { kBlock = 0, kShed, kCoalesce };

[[nodiscard]] std::string_view to_string(QueuePolicy policy);
[[nodiscard]] std::optional<QueuePolicy> parse_queue_policy(
    std::string_view text);

/// One queued event with its feed sequence number. Consumers track
/// max(seq)+1 as the resume position a checkpoint persists.
struct QueuedEvent {
  std::uint64_t seq = 0;
  ChurnEvent event;
};

class EventQueue {
 public:
  explicit EventQueue(std::size_t cap, QueuePolicy policy);

  /// Enqueues per the policy. Returns false only when the event was shed
  /// (kShed saturated, or kCoalesce saturated with no queued partner) or
  /// the queue is closed. kBlock never sheds: it waits for space (or for
  /// close(), which sheds the in-flight event).
  bool push(const QueuedEvent& item);

  /// Blocks until an event is available or the queue is closed and empty.
  [[nodiscard]] std::optional<QueuedEvent> pop();

  /// Stops intake and wakes every waiter; queued events stay poppable so
  /// shutdown drains instead of dropping.
  void close();
  [[nodiscard]] bool closed() const;

  [[nodiscard]] std::size_t depth() const;
  [[nodiscard]] std::size_t cap() const { return cap_; }
  [[nodiscard]] QueuePolicy policy() const { return policy_; }

  struct Stats {
    std::uint64_t pushed = 0;     ///< accepted into the queue
    std::uint64_t popped = 0;
    std::uint64_t shed = 0;       ///< dropped at saturation
    std::uint64_t coalesced = 0;  ///< replaced a queued same-key event
    std::uint64_t blocked = 0;    ///< kBlock pushes that had to wait
  };
  [[nodiscard]] Stats stats() const;

 private:
  /// Same-key test for kCoalesce: link events match on the unordered AS
  /// pair, prefix events on (origin, prefix) — the pairs for which a
  /// newer event supersedes an older queued one.
  [[nodiscard]] static bool same_key(const ChurnEvent& a,
                                     const ChurnEvent& b);

  const std::size_t cap_;
  const QueuePolicy policy_;
  mutable std::mutex mutex_;
  std::condition_variable space_;  ///< signalled on pop/close (producers)
  std::condition_variable ready_;  ///< signalled on push/close (consumers)
  std::deque<QueuedEvent> items_;
  bool closed_ = false;
  Stats stats_;
};

/// Pushes events[start, end) into `queue` on its own thread, then closes
/// the queue. `events` and `queue` must outlive the feeder.
class QueueFeeder {
 public:
  QueueFeeder(EventQueue& queue, std::span<const ChurnEvent> events,
              std::uint64_t start);
  /// Closes the queue (a push waiting for space gives up), then joins.
  ~QueueFeeder();
  QueueFeeder(const QueueFeeder&) = delete;
  QueueFeeder& operator=(const QueueFeeder&) = delete;

  /// True once the whole feed was offered to the queue.
  [[nodiscard]] bool done() const { return done_.load(); }

 private:
  EventQueue& queue_;
  std::atomic<bool> done_{false};
  std::thread thread_;
};

}  // namespace asrel::stream
