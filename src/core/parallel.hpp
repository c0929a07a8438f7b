// Shared thread pool with deterministic ordered-merge primitives.
//
// Every parallel stage of the pipeline (route propagation, ProbLink's
// per-round scoring, TopoScope's ensemble members, community extraction,
// BiasAudit tabulation) runs on one process-wide pool through two
// primitives:
//
//   parallel_map_ordered    — fn(i) for i in [0, count), results returned
//                             in index order;
//   parallel_reduce_ordered — fn(i) produces a partial, partials are merged
//                             serially in index order 0, 1, ..., count-1.
//
// Determinism argument: workers claim indices dynamically (so scheduling is
// nondeterministic), but each fn(i) depends only on i and read-only inputs,
// results land in slot i, and every merge happens on the caller thread in
// ascending index order after the batch drains. The output is therefore a
// pure function of (inputs, count) — independent of thread count, core
// count, and scheduling — which is what lets serial and 8-thread pipeline
// runs byte-compare equal (tests/test_parallel.cpp, test_metamorphic.cpp).
//
// Thread-count convention (same as PropagationParams::threads):
//   0 = auto (hardware concurrency), 1 = serial on the caller thread,
//   N = at most N concurrent executors (caller included).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

namespace asrel::core {

class ThreadPool {
 public:
  /// Spawns `workers` persistent worker threads (0 = hardware concurrency).
  explicit ThreadPool(unsigned workers = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned worker_count() const {
    return static_cast<unsigned>(workers_.size());
  }

  /// Runs fn(0), ..., fn(count-1), using at most `parallelism` concurrent
  /// executors (caller included; 0 = pool size + 1). Blocks until every
  /// index finished. If invocations throw, the exception of the *lowest*
  /// failing index is rethrown (a deterministic choice); once a failure is
  /// recorded, not-yet-claimed indices may be skipped.
  ///
  /// Batches are serialized: concurrent calls from different threads queue
  /// up, and a call made from inside a running batch executes inline and
  /// serially (no deadlock, no oversubscription).
  void run_indexed(std::size_t count, unsigned parallelism,
                   const std::function<void(std::size_t)>& fn);

  /// The process-wide pool, sized to hardware concurrency. Created on first
  /// use; shared by every pipeline stage so one `threads` knob bounds the
  /// whole process.
  static ThreadPool& shared();

  /// Resolves a user-facing thread count: 0 -> hardware concurrency (at
  /// least 1), anything else unchanged.
  [[nodiscard]] static unsigned effective_threads(unsigned requested);

 private:
  struct Batch;

  void run_worker();
  static void drain_batch(Batch& batch, bool on_worker);

  std::mutex mutex_;
  std::condition_variable work_cv_;  ///< workers: a new batch is available
  std::condition_variable done_cv_;  ///< caller: the batch drained
  std::uint64_t generation_ = 0;
  std::shared_ptr<Batch> batch_;
  bool stop_ = false;
  std::mutex submit_mutex_;  ///< one batch at a time
  std::vector<std::thread> workers_;
};

/// fn(i) -> T for i in [0, count); returns {fn(0), ..., fn(count-1)} in
/// index order. `threads` follows the 0/1/N convention above.
template <typename T, typename Fn>
std::vector<T> parallel_map_ordered(ThreadPool& pool, std::size_t count,
                                    unsigned threads, Fn&& fn) {
  std::vector<std::optional<T>> slots(count);
  pool.run_indexed(count, threads,
                   [&](std::size_t i) { slots[i].emplace(fn(i)); });
  std::vector<T> out;
  out.reserve(count);
  for (auto& slot : slots) out.push_back(std::move(*slot));
  return out;
}

/// fn(i) -> Partial; merge(acc, std::move(partial)) is applied serially in
/// index order on the caller thread, so any merge — even an
/// order-sensitive one — yields the same result as a serial loop.
template <typename Acc, typename Fn, typename Merge>
Acc parallel_reduce_ordered(ThreadPool& pool, std::size_t count,
                            unsigned threads, Acc init, Fn&& fn,
                            Merge&& merge) {
  using Partial = decltype(fn(std::size_t{0}));
  auto partials =
      parallel_map_ordered<Partial>(pool, count, threads, std::forward<Fn>(fn));
  Acc acc = std::move(init);
  for (auto& partial : partials) merge(acc, std::move(partial));
  return acc;
}

}  // namespace asrel::core
