#include "core/parallel.hpp"

#include <atomic>
#include <limits>
#include <optional>
#include <system_error>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace asrel::core {

struct ThreadPool::Batch {
  const std::function<void(std::size_t)>* fn = nullptr;
  std::size_t count = 0;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> remaining{0};
  /// Threads inside drain_batch; the caller also waits for this to reach
  /// 0, so every span of the batch is recorded before run_indexed returns.
  std::atomic<unsigned> active{0};
  std::atomic<unsigned> open_slots{0};  ///< worker join permits
  std::atomic<bool> failed{false};
  std::mutex error_mutex;
  std::size_t error_index = std::numeric_limits<std::size_t>::max();
  std::exception_ptr error;

  /// Every index finished and every thread left drain_batch.
  [[nodiscard]] bool done() const {
    return remaining.load(std::memory_order_acquire) == 0 &&
           active.load(std::memory_order_acquire) == 0;
  }
};

namespace {

/// Set while the current thread executes batch indices; a nested
/// run_indexed call from inside fn falls back to inline serial execution
/// instead of deadlocking on submit_mutex_.
thread_local bool t_in_batch = false;

/// Pool instruments, bound once to the global registry so the claim loop
/// only touches striped relaxed atomics.
struct PoolMetrics {
  obs::Counter& tasks;
  obs::Counter& serial_tasks;
  obs::Counter& batches;
  obs::Counter& worker_claims;
  obs::Counter& caller_claims;
  obs::Gauge& queue_depth;

  static PoolMetrics& get() {
    auto& reg = obs::MetricsRegistry::global();
    static PoolMetrics metrics{
        reg.counter("asrel_pool_tasks_total",
                    "Batch indices executed on the shared thread pool"),
        reg.counter("asrel_pool_serial_tasks_total",
                    "Indices executed on the serial fallback path"),
        reg.counter("asrel_pool_batches_total",
                    "Parallel batches submitted to the pool"),
        reg.counter("asrel_pool_worker_claims_total",
                    "Indices claimed by pool worker threads"),
        reg.counter("asrel_pool_caller_claims_total",
                    "Indices claimed by the submitting (caller) thread"),
        reg.gauge("asrel_pool_queue_depth",
                  "Unclaimed indices in the in-flight batch"),
    };
    return metrics;
  }
};

}  // namespace

ThreadPool::ThreadPool(unsigned workers) {
  if (workers == 0) workers = effective_threads(0);
  workers_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { run_worker(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock{mutex_};
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
  {
    std::lock_guard<std::mutex> lock{side_mutex_};
    side_stop_ = true;
  }
  side_cv_.notify_all();
  if (side_.joinable()) side_.join();
}

unsigned ThreadPool::effective_threads(unsigned requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool{effective_threads(0)};
  return pool;
}

void ThreadPool::drain_batch(Batch& batch, bool on_worker) {
  PoolMetrics& metrics = PoolMetrics::get();
  obs::Counter& claims =
      on_worker ? metrics.worker_claims : metrics.caller_claims;
  std::uint64_t executed = 0;
  // Counted before the first claim: a thread that claims an index is
  // active until its span is recorded, after the batch's last index.
  batch.active.fetch_add(1, std::memory_order_acq_rel);
  {
    // One participation span per (thread, batch) that claims an index,
    // opened at the first claim and recorded when the scope closes.
    std::optional<obs::TraceSpan> span;
    for (;;) {
      // Check for a failure before claiming, never after: an index this
      // thread claims always runs, so no index below the lowest failing
      // one is skipped. Once a failure is seen, every index nobody has
      // claimed yet is retired at once.
      if (batch.failed.load(std::memory_order_relaxed)) {
        std::size_t next = batch.next.load(std::memory_order_relaxed);
        while (next < batch.count &&
               !batch.next.compare_exchange_weak(next, batch.count,
                                                 std::memory_order_relaxed)) {
        }
        if (next < batch.count) {
          const std::size_t skipped = batch.count - next;
          metrics.queue_depth.add(-static_cast<std::int64_t>(skipped));
          batch.remaining.fetch_sub(skipped, std::memory_order_acq_rel);
        }
        break;
      }
      const std::size_t i = batch.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= batch.count) break;
      if (!span) {
        span.emplace(on_worker ? "pool.drain.worker" : "pool.drain.caller");
      }
      metrics.queue_depth.add(-1);
      ++executed;
      try {
        (*batch.fn)(i);
      } catch (...) {
        batch.failed.store(true, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock{batch.error_mutex};
        if (i < batch.error_index) {
          batch.error_index = i;
          batch.error = std::current_exception();
        }
      }
      batch.remaining.fetch_sub(1, std::memory_order_acq_rel);
    }
  }
  metrics.tasks.add(executed);
  claims.add(executed);
  batch.active.fetch_sub(1, std::memory_order_acq_rel);
}

void ThreadPool::run_worker() {
  t_in_batch = true;  // nested calls from inside fn stay serial
  std::uint64_t seen_generation = 0;
  for (;;) {
    std::shared_ptr<Batch> batch;
    {
      std::unique_lock<std::mutex> lock{mutex_};
      work_cv_.wait(lock, [&] {
        return stop_ || (batch_ != nullptr && generation_ != seen_generation);
      });
      if (stop_) return;
      seen_generation = generation_;
      batch = batch_;
    }
    // Acquire a join permit; batches capped below the pool size leave the
    // surplus workers idle.
    unsigned slots = batch->open_slots.load(std::memory_order_relaxed);
    bool joined = false;
    while (slots > 0 && !joined) {
      joined = batch->open_slots.compare_exchange_weak(
          slots, slots - 1, std::memory_order_acq_rel);
    }
    if (!joined) continue;
    drain_batch(*batch, /*on_worker=*/true);
    if (batch->done()) {
      std::lock_guard<std::mutex> lock{mutex_};
      done_cv_.notify_all();
    }
  }
}

void ThreadPool::run_indexed(std::size_t count, unsigned parallelism,
                             const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  PoolMetrics& metrics = PoolMetrics::get();
  const unsigned limit = parallelism == 0 ? worker_count() + 1 : parallelism;
  if (limit <= 1 || count == 1 || workers_.empty() || t_in_batch) {
    // Serial path: in order, stop at the first failure (which is by
    // construction the lowest failing index).
    for (std::size_t i = 0; i < count; ++i) fn(i);
    metrics.serial_tasks.add(count);
    return;
  }

  std::lock_guard<std::mutex> submit{submit_mutex_};
  auto batch = std::make_shared<Batch>();
  batch->fn = &fn;
  batch->count = count;
  batch->remaining.store(count, std::memory_order_relaxed);
  batch->open_slots.store(limit - 1, std::memory_order_relaxed);
  metrics.batches.inc();
  metrics.queue_depth.add(static_cast<std::int64_t>(count));
  {
    std::lock_guard<std::mutex> lock{mutex_};
    batch_ = batch;
    ++generation_;
  }
  work_cv_.notify_all();

  t_in_batch = true;
  drain_batch(*batch, /*on_worker=*/false);
  t_in_batch = false;

  {
    std::unique_lock<std::mutex> lock{mutex_};
    done_cv_.wait(lock, [&] { return batch->done(); });
    batch_ = nullptr;
  }
  // Take the exception out of the batch: a worker may drop the last
  // reference to the batch, and the exception object is freed on this
  // thread, where it is read.
  if (std::exception_ptr error = std::exchange(batch->error, nullptr)) {
    std::rethrow_exception(error);
  }
}

void ThreadPool::run_side() {
  t_in_batch = true;  // calls from a side task into the pool stay serial
  std::unique_lock<std::mutex> lock{side_mutex_};
  for (;;) {
    side_cv_.wait(lock, [&] { return side_stop_ || side_task_ != nullptr; });
    if (side_task_ == nullptr) return;
    const std::function<void()>* task = side_task_;
    lock.unlock();
    std::exception_ptr error;
    try {
      (*task)();
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    side_error_ = std::move(error);  // the caller holds the only reference
    side_task_ = nullptr;
    side_cv_.notify_all();
  }
}

void ThreadPool::run_beside(const std::function<void()>& side,
                            const std::function<void()>& main,
                            const char* join_stage) {
  bool beside = false;
  if (!t_in_batch) {
    std::lock_guard<std::mutex> lock{side_mutex_};
    if (!side_claimed_) {
      // Started on first use, not at construction: a process may fork
      // before it starts any thread. If it cannot start, side runs inline.
      try {
        if (!side_.joinable()) side_ = std::thread{[this] { run_side(); }};
        side_claimed_ = true;
        beside = true;
        side_task_ = &side;
      } catch (const std::system_error&) {
      }
    }
  }
  if (!beside) {
    main();
    side();
    return;
  }
  side_cv_.notify_all();

  std::exception_ptr main_error;
  try {
    main();
  } catch (...) {
    main_error = std::current_exception();
  }
  std::exception_ptr side_error;
  {
    obs::StageScope join{join_stage};
    std::unique_lock<std::mutex> lock{side_mutex_};
    side_cv_.wait(lock, [&] { return side_task_ == nullptr; });
    side_error = std::exchange(side_error_, nullptr);
    side_claimed_ = false;
  }
  if (main_error) std::rethrow_exception(main_error);
  if (side_error) std::rethrow_exception(side_error);
}

}  // namespace asrel::core
