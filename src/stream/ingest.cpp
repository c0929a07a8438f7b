#include "stream/ingest.hpp"

#include "obs/metrics.hpp"

namespace asrel::stream {

namespace {

struct QueueMetrics {
  obs::Gauge& depth;
  obs::Gauge& cap;
  obs::Counter& shed;
  obs::Counter& coalesced;

  static QueueMetrics& get() {
    auto& reg = obs::MetricsRegistry::global();
    static QueueMetrics metrics{
        reg.gauge("asrel_stream_queue_depth",
                  "Churn events waiting in the ingest queue"),
        reg.gauge("asrel_stream_queue_cap",
                  "Configured ingest queue capacity"),
        reg.counter("asrel_stream_queue_shed_total",
                    "Churn events dropped at queue saturation"),
        reg.counter("asrel_stream_queue_coalesced_total",
                    "Churn events that replaced a queued same-key event"),
    };
    return metrics;
  }
};

}  // namespace

std::string_view to_string(QueuePolicy policy) {
  switch (policy) {
    case QueuePolicy::kBlock:
      return "block";
    case QueuePolicy::kShed:
      return "shed";
    case QueuePolicy::kCoalesce:
      return "coalesce";
  }
  return "?";
}

std::optional<QueuePolicy> parse_queue_policy(std::string_view text) {
  if (text == "block") return QueuePolicy::kBlock;
  if (text == "shed") return QueuePolicy::kShed;
  if (text == "coalesce") return QueuePolicy::kCoalesce;
  return std::nullopt;
}

EventQueue::EventQueue(std::size_t cap, QueuePolicy policy)
    : cap_(std::max<std::size_t>(1, cap)), policy_(policy) {
  QueueMetrics::get().cap.set(static_cast<std::int64_t>(cap_));
}

bool EventQueue::same_key(const ChurnEvent& a, const ChurnEvent& b) {
  const auto is_link = [](const ChurnEvent& e) {
    return e.kind == ChurnKind::kLinkAdd || e.kind == ChurnKind::kLinkRemove ||
           e.kind == ChurnKind::kRelFlip || e.kind == ChurnKind::kScopeFlip;
  };
  if (is_link(a) != is_link(b)) return false;
  if (is_link(a)) {
    const auto lo_a = std::min(a.a, a.b), hi_a = std::max(a.a, a.b);
    const auto lo_b = std::min(b.a, b.b), hi_b = std::max(b.a, b.b);
    return lo_a == lo_b && hi_a == hi_b;
  }
  return a.a == b.a && a.prefix_host == b.prefix_host;
}

bool EventQueue::push(const QueuedEvent& item) {
  std::unique_lock lock{mutex_};
  auto& metrics = QueueMetrics::get();
  if (policy_ == QueuePolicy::kBlock) {
    if (items_.size() >= cap_ && !closed_) ++stats_.blocked;
    space_.wait(lock,
                [&] { return items_.size() < cap_ || closed_; });
  }
  if (closed_) {
    ++stats_.shed;
    metrics.shed.inc();
    return false;
  }
  if (items_.size() >= cap_) {
    if (policy_ == QueuePolicy::kCoalesce) {
      // Newest intent wins: overwrite the queued event for the same key
      // in place (latest occurrence, so relative order of distinct keys
      // is preserved).
      for (auto it = items_.rbegin(); it != items_.rend(); ++it) {
        if (same_key(it->event, item.event)) {
          *it = item;
          ++stats_.coalesced;
          metrics.coalesced.inc();
          return true;
        }
      }
    }
    ++stats_.shed;
    metrics.shed.inc();
    return false;
  }
  items_.push_back(item);
  ++stats_.pushed;
  metrics.depth.set(static_cast<std::int64_t>(items_.size()));
  ready_.notify_one();
  return true;
}

std::optional<QueuedEvent> EventQueue::pop() {
  std::unique_lock lock{mutex_};
  ready_.wait(lock, [&] { return !items_.empty() || closed_; });
  if (items_.empty()) return std::nullopt;  // closed and drained
  QueuedEvent item = items_.front();
  items_.pop_front();
  ++stats_.popped;
  QueueMetrics::get().depth.set(static_cast<std::int64_t>(items_.size()));
  space_.notify_one();
  return item;
}

void EventQueue::close() {
  {
    std::lock_guard lock{mutex_};
    closed_ = true;
  }
  space_.notify_all();
  ready_.notify_all();
}

bool EventQueue::closed() const {
  std::lock_guard lock{mutex_};
  return closed_;
}

std::size_t EventQueue::depth() const {
  std::lock_guard lock{mutex_};
  return items_.size();
}

EventQueue::Stats EventQueue::stats() const {
  std::lock_guard lock{mutex_};
  return stats_;
}

QueueFeeder::QueueFeeder(EventQueue& queue,
                         std::span<const ChurnEvent> events,
                         std::uint64_t start)
    : queue_(queue), thread_([this, events, start] {
        for (std::uint64_t seq = start; seq < events.size(); ++seq) {
          if (!queue_.push({seq, events[seq]}) && queue_.closed()) return;
        }
        done_.store(true);
        queue_.close();
      }) {}

QueueFeeder::~QueueFeeder() {
  queue_.close();
  thread_.join();
}

}  // namespace asrel::stream
