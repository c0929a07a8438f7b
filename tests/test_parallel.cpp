// ThreadPool unit tests plus end-to-end serial-vs-threaded byte-equality
// of the Fig. 1/2 and Table 1-3 reports.
//
// The pool's contract is stronger than "no data races": every primitive's
// result must be a pure function of (inputs, count) — independent of how
// many workers participated. The unit tests pin the sharp edges of that
// contract (order-sensitive merges, exception choice, empty batches,
// nesting); the report tests check the whole pipeline keeps it.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/parallel.hpp"
#include "core/scenario.hpp"
#include "obs/trace.hpp"
#include "test_support.hpp"
#include "testing/canonical.hpp"

namespace asrel {
namespace {

TEST(ThreadPool, OrderedReductionMatchesSerialForOrderSensitiveMerge) {
  core::ThreadPool pool{4};
  constexpr std::size_t kCount = 97;

  // String concatenation is order-sensitive: any merge that happened out of
  // index order (or dropped/duplicated an index) changes the bytes.
  std::string serial;
  for (std::size_t i = 0; i < kCount; ++i) {
    serial += std::to_string(i) + ";";
  }
  for (const unsigned threads : {0u, 1u, 2u, 3u, 8u}) {
    const std::string merged = core::parallel_reduce_ordered(
        pool, kCount, threads, std::string{},
        [](std::size_t i) { return std::to_string(i) + ";"; },
        [](std::string& acc, std::string&& partial) { acc += partial; });
    EXPECT_EQ(merged, serial) << "threads=" << threads;
  }
}

TEST(ThreadPool, MapOrderedReturnsResultsInIndexOrder) {
  core::ThreadPool pool{4};
  const auto out = core::parallel_map_ordered<std::size_t>(
      pool, 1000, 4, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 1000u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], i * i);
  }
}

TEST(ThreadPool, ZeroTasksIsANoOp) {
  core::ThreadPool pool{2};
  std::atomic<int> calls{0};
  pool.run_indexed(0, 4, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);

  const auto mapped = core::parallel_map_ordered<int>(
      pool, 0, 4, [](std::size_t) { return 1; });
  EXPECT_TRUE(mapped.empty());

  const int reduced = core::parallel_reduce_ordered(
      pool, 0, 4, 7, [](std::size_t) { return 1; },
      [](int& acc, int&& partial) { acc += partial; });
  EXPECT_EQ(reduced, 7);
}

TEST(ThreadPool, PropagatesExceptionOfLowestFailingIndex) {
  core::ThreadPool pool{4};
  // Several indices throw; the contract picks the lowest one so the error a
  // caller sees does not depend on scheduling.
  for (const unsigned threads : {1u, 4u}) {
    try {
      pool.run_indexed(64, threads, [](std::size_t i) {
        if (i % 10 == 3) {
          throw std::runtime_error{"boom at " + std::to_string(i)};
        }
      });
      FAIL() << "expected run_indexed to rethrow (threads=" << threads << ")";
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "boom at 3") << "threads=" << threads;
    }
  }
  // The pool must stay usable after a failed batch.
  std::atomic<std::size_t> sum{0};
  pool.run_indexed(10, 4, [&](std::size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 45u);
}

TEST(ThreadPool, NestedBatchesRunInlineWithoutDeadlock) {
  core::ThreadPool pool{2};
  std::vector<std::size_t> totals(8, 0);
  pool.run_indexed(totals.size(), 4, [&](std::size_t i) {
    // A stage calling another parallelized helper must not deadlock on the
    // shared pool; the inner batch runs serially inline.
    totals[i] = core::parallel_reduce_ordered(
        core::ThreadPool::shared(), 5, 4, std::size_t{0},
        [&](std::size_t j) { return i * j; },
        [](std::size_t& acc, std::size_t&& partial) { acc += partial; });
  });
  for (std::size_t i = 0; i < totals.size(); ++i) {
    EXPECT_EQ(totals[i], i * 10);
  }
}

TEST(ThreadPool, EffectiveThreadsResolvesAutoOnly) {
  EXPECT_GE(core::ThreadPool::effective_threads(0), 1u);
  EXPECT_EQ(core::ThreadPool::effective_threads(1), 1u);
  EXPECT_EQ(core::ThreadPool::effective_threads(64), 64u);
}

TEST(ThreadPool, RangesVisitEveryIndexExactlyOnce) {
  core::ThreadPool pool{4};
  for (const unsigned threads : {1u, 2u, 3u, 5u}) {
    const std::size_t t = threads;
    for (const std::size_t count :
         {std::size_t{0}, std::size_t{1}, t - 1, t, t + 1,
          std::size_t{100003}}) {
      std::vector<std::atomic<int>> visits(count);
      core::parallel_for_ranges(pool, count, threads,
                                [&](std::size_t begin, std::size_t end) {
                                  EXPECT_LT(begin, end);
                                  for (std::size_t i = begin; i < end; ++i) {
                                    visits[i].fetch_add(1);
                                  }
                                });
      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_EQ(visits[i].load(), 1)
            << "index " << i << ", count=" << count << ", threads=" << threads;
      }
      // The reducing form sees the same ranges and merges them in order.
      const auto bounds = core::parallel_reduce_ranges(
          pool, count, threads, std::vector<std::size_t>{},
          [](std::size_t begin, std::size_t end) {
            return std::vector<std::size_t>{begin, end};
          },
          [](std::vector<std::size_t>& acc, std::vector<std::size_t>&& range) {
            if (!acc.empty()) {
              EXPECT_EQ(acc.back(), range.front());
            }
            acc.insert(acc.end(), range.begin(), range.end());
          });
      EXPECT_EQ(bounds.size(), 2 * core::range_count(count, threads));
      if (count != 0) {
        EXPECT_EQ(bounds.front(), 0u);
        EXPECT_EQ(bounds.back(), count);
      }
    }
  }
}

TEST(ThreadPool, ClaimedRangesAlwaysRunSoTheLowestFailureWins) {
  // Every range throws. The range holding index 0 is claimed first, and a
  // claimed range always runs, so its exception is the one rethrown however
  // the others interleave with it.
  core::ThreadPool pool{4};
  for (int round = 0; round < 200; ++round) {
    try {
      core::parallel_for_ranges(pool, 1000, 4,
                                [](std::size_t begin, std::size_t) {
                                  throw std::runtime_error{
                                      "range at " + std::to_string(begin)};
                                });
      FAIL() << "expected a rethrow";
    } catch (const std::runtime_error& error) {
      ASSERT_STREQ(error.what(), "range at 0") << "round " << round;
    }
  }
}

TEST(ThreadPool, RunBesideFinishesSideBeforeRethrowingMain) {
  core::ThreadPool pool{2};
  std::atomic<bool> side_done{false};
  try {
    pool.run_beside(
        [&] {
          std::this_thread::sleep_for(std::chrono::milliseconds(30));
          side_done.store(true);
        },
        [] { throw std::runtime_error{"main failed"}; }, "test.join");
    FAIL() << "expected main's exception";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "main failed");
    EXPECT_TRUE(side_done.load());
  }
  // Main's exception wins over side's.
  try {
    pool.run_beside([] { throw std::runtime_error{"side failed"}; },
                    [] { throw std::runtime_error{"main failed"}; },
                    "test.join");
    FAIL() << "expected main's exception";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "main failed");
  }
}

TEST(ThreadPool, RunBesideRethrowsSideException) {
  core::ThreadPool pool{2};
  bool main_ran = false;
  try {
    pool.run_beside([] { throw std::runtime_error{"side failed"}; },
                    [&] { main_ran = true; }, "test.join");
    FAIL() << "expected side's exception";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "side failed");
  }
  EXPECT_TRUE(main_ran);
  // The side thread survives a failed task.
  std::thread::id side_thread;
  pool.run_beside([&] { side_thread = std::this_thread::get_id(); }, [] {},
                  "test.join");
  EXPECT_NE(side_thread, std::this_thread::get_id());
}

TEST(ThreadPool, RunBesideInsideABatchRunsInlineAfterMain) {
  core::ThreadPool pool{2};
  std::vector<std::vector<std::string>> steps(6);
  std::vector<char> same_thread(steps.size(), 0);
  pool.run_indexed(steps.size(), 3, [&](std::size_t i) {
    const auto caller = std::this_thread::get_id();
    pool.run_beside(
        [&] {
          steps[i].push_back("side");
          same_thread[i] = std::this_thread::get_id() == caller;
        },
        [&] { steps[i].push_back("main"); }, "test.join");
  });
  for (std::size_t i = 0; i < steps.size(); ++i) {
    EXPECT_EQ(steps[i], (std::vector<std::string>{"main", "side"})) << i;
    EXPECT_TRUE(same_thread[i]) << i;
  }
}

TEST(ThreadPool, ConcurrentRunBesideCallersBothFinish) {
  // One caller holds the side thread; the other finds it busy and runs its
  // side inline. Neither waits on the other.
  core::ThreadPool pool{2};
  std::atomic<int> sides{0};
  std::atomic<int> mains{0};
  const auto call = [&] {
    for (int round = 0; round < 25; ++round) {
      pool.run_beside(
          [&] {
            std::this_thread::sleep_for(std::chrono::microseconds(200));
            sides.fetch_add(1);
          },
          [&] { mains.fetch_add(1); }, "test.join");
    }
  };
  std::thread other{call};
  call();
  other.join();
  EXPECT_EQ(sides.load(), 50);
  EXPECT_EQ(mains.load(), 50);
}

TEST(ThreadPool, TracedBuildsAddAtMostOneTracerBuffer) {
  // The side thread is one persistent thread: builds do not start a thread
  // each, so tracing them does not leave a span buffer per build behind.
  obs::ScopedTracing tracing{true, /*clear_on_exit=*/true};
  core::ThreadPool& pool = core::ThreadPool::shared();
  { obs::TraceSpan span{"test.register_caller"}; }
  // Hold every worker inside one batch at once, so each records a span
  // (and registers its buffer) before the baseline.
  const std::size_t executors = pool.worker_count() + 1;
  std::atomic<std::size_t> arrived{0};
  pool.run_indexed(executors, 0, [&](std::size_t) {
    obs::TraceSpan span{"test.register_executor"};
    arrived.fetch_add(1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (arrived.load() < executors &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  });
  ASSERT_EQ(arrived.load(), executors);
  const std::size_t baseline = obs::Tracer::instance().thread_count();

  core::ScenarioParams params;
  params.topology.as_count = 150;
  params.vantage.target_count = 10;
  params.threads = 2;
  for (int build = 0; build < 50; ++build) {
    params.topology.seed = static_cast<std::uint64_t>(build + 1);
    (void)core::Scenario::build(params);
  }
  EXPECT_LE(obs::Tracer::instance().thread_count(), baseline + 1);
}

TEST(ThreadPool, WorkerSpansAreRecordedBeforeRunIndexedReturns) {
  // A worker records its pool.drain.worker span after its last index, so
  // run_indexed must also wait for that: right after it returns, every
  // worker that ran an index has its span in the tracer.
  obs::ScopedTracing tracing{true, /*clear_on_exit=*/true};
  core::ThreadPool& pool = core::ThreadPool::shared();
  const std::size_t executors = pool.worker_count() + 1;
  for (int batch = 0; batch < 200; ++batch) {
    obs::Tracer::instance().clear();
    // Every executor holds one index until all have claimed theirs.
    std::atomic<std::size_t> arrived{0};
    pool.run_indexed(executors, 0, [&](std::size_t) {
      arrived.fetch_add(1);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (arrived.load() < executors &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
    });
    ASSERT_EQ(arrived.load(), executors) << "batch " << batch;
    const auto spans = obs::Tracer::instance().collect();
    const auto workers = std::ranges::count_if(spans, [](const auto& span) {
      return span.name == "pool.drain.worker";
    });
    ASSERT_EQ(workers, static_cast<std::ptrdiff_t>(pool.worker_count()))
        << "batch " << batch;
  }
}

// ---- end-to-end: reports are byte-identical at every thread count --------

std::vector<asrel::testing::GoldenReport> reports_at(std::uint64_t seed,
                                                     unsigned threads) {
  core::ScenarioParams params;
  params.topology.as_count = 600;
  params.topology.seed = seed;
  params.vantage.target_count = 40;
  params.threads = threads;
  const auto scenario = core::Scenario::build(params);
  return asrel::testing::build_golden_reports(*scenario);
}

class PipelineByteEquality : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PipelineByteEquality, SerialAndThreadedReportsMatch) {
  const std::uint64_t seed = GetParam();
  const auto serial = reports_at(seed, 1);
  ASSERT_FALSE(serial.empty());
  for (const unsigned threads : {2u, 8u}) {
    const auto threaded = reports_at(seed, threads);
    ASSERT_EQ(threaded.size(), serial.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_FALSE(serial[i].json.empty()) << serial[i].filename;
      EXPECT_EQ(threaded[i].filename, serial[i].filename);
      EXPECT_EQ(threaded[i].json, serial[i].json)
          << serial[i].filename << " diverged at threads=" << threads
          << ", seed=" << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineByteEquality,
                         ::testing::Values(7u, 42u, 1337u));

}  // namespace
}  // namespace asrel
