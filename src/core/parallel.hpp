// Shared thread pool with deterministic ordered-merge primitives.
//
// Every parallel stage of the pipeline (route propagation, ProbLink's
// per-round scoring, TopoScope's ensemble members, community extraction,
// BiasAudit tabulation) runs on one process-wide pool through these
// primitives:
//
//   parallel_map_ordered    — fn(i) for i in [0, count), results returned
//                             in index order;
//   parallel_reduce_ordered — fn(i) produces a partial, partials are merged
//                             serially in index order 0, 1, ..., count-1;
//   parallel_for_ranges     — fn(begin, end) over contiguous ranges that
//                             partition [0, count), one claim per range;
//   parallel_reduce_ranges  — the same ranges, one partial each, merged in
//                             range order.
//
// Determinism argument: workers claim indices dynamically (so scheduling is
// nondeterministic), but each fn(i) depends only on i and read-only inputs,
// results land in slot i, and every merge happens on the caller thread in
// ascending index order after the batch drains. The output is therefore a
// pure function of (inputs, count) — independent of thread count, core
// count, and scheduling — which is what lets serial and 8-thread pipeline
// runs byte-compare equal (tests/test_parallel.cpp, test_metamorphic.cpp).
//
// Besides its workers, the pool owns one side thread, started on the first
// run_beside call: it runs one task next to the caller (ASRank next to
// community extraction) without a thread per call.
//
// Thread-count convention (same as PropagationParams::threads):
//   0 = auto (hardware concurrency), 1 = serial on the caller thread,
//   N = at most N concurrent executors (caller included).
#pragma once

#include <algorithm>
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
  /// index finished and every thread that ran one recorded its
  /// `pool.drain.*` trace span. If invocations throw, the exception of the
  /// *lowest* failing index is rethrown (a deterministic choice); once a
  /// failure is recorded, not-yet-claimed indices may be skipped, but a
  /// claimed index always runs.
  ///
  /// Batches are serialized: concurrent calls from different threads queue
  /// up, and a call made from inside a running batch executes inline and
  /// serially (no deadlock, no oversubscription).
  void run_indexed(std::size_t count, unsigned parallelism,
                   const std::function<void(std::size_t)>& fn);

  /// Runs `side` on the pool's side thread while the calling thread runs
  /// `main`, and returns once both have finished. It never returns or
  /// unwinds while `side` is still running. If `main` threw, that exception
  /// is rethrown; otherwise `side`'s, if any. The caller's wait for `side`
  /// is timed as the stage `join_stage` (obs::StageScope).
  ///
  /// The side thread is one persistent thread, started by the first call.
  /// Called from inside a batch (or from `side` itself), or while another
  /// caller's `side` occupies the thread, `side` runs inline after `main`
  /// (and not at all if `main` threw). Calls from `side` into the pool run
  /// inline and serially, as from inside a batch.
  void run_beside(const std::function<void()>& side,
                  const std::function<void()>& main, const char* join_stage);

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
  void run_side();
  static void drain_batch(Batch& batch, bool on_worker);

  std::mutex mutex_;
  std::condition_variable work_cv_;  ///< workers: a new batch is available
  std::condition_variable done_cv_;  ///< caller: the batch drained
  std::uint64_t generation_ = 0;
  std::shared_ptr<Batch> batch_;
  bool stop_ = false;
  std::mutex submit_mutex_;  ///< one batch at a time
  std::vector<std::thread> workers_;

  // The side thread: `side_task_` is set by the one caller that holds
  // `side_claimed_`, and cleared by the side thread once it ran.
  std::mutex side_mutex_;
  std::condition_variable side_cv_;
  const std::function<void()>* side_task_ = nullptr;
  std::exception_ptr side_error_;
  bool side_claimed_ = false;
  bool side_stop_ = false;
  std::thread side_;
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

/// The ranges parallel_for_ranges and parallel_reduce_ranges split [0,
/// count) into: one per executor, never more than `count`.
[[nodiscard]] inline std::size_t range_count(std::size_t count,
                                             unsigned threads) {
  return std::min<std::size_t>(count, ThreadPool::effective_threads(threads));
}

/// fn(begin, end) for the contiguous ranges [r * count / R, (r + 1) * count
/// / R), r < R = range_count(count, threads). A loop over links claims each
/// range whole instead of paying the pool's claim atomics per index.
template <typename Fn>
void parallel_for_ranges(ThreadPool& pool, std::size_t count,
                         unsigned threads, Fn&& fn) {
  const std::size_t ranges = range_count(count, threads);
  pool.run_indexed(ranges, threads, [&](std::size_t r) {
    fn(r * count / ranges, (r + 1) * count / ranges);
  });
}

/// fn(begin, end) -> Partial over the ranges of parallel_for_ranges;
/// merge(acc, std::move(partial)) runs serially in range order.
template <typename Acc, typename Fn, typename Merge>
Acc parallel_reduce_ranges(ThreadPool& pool, std::size_t count,
                           unsigned threads, Acc init, Fn&& fn,
                           Merge&& merge) {
  const std::size_t ranges = range_count(count, threads);
  return parallel_reduce_ordered(
      pool, ranges, threads, std::move(init),
      [&](std::size_t r) {
        return fn(r * count / ranges, (r + 1) * count / ranges);
      },
      std::forward<Merge>(merge));
}

}  // namespace asrel::core
