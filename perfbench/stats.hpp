// Pure helpers the benchmark's numbers rest on: the nearest-rank
// percentile rule with its "ten samples beyond" support test, the
// open-loop schedule (due times, lateness, backlog), a seeded generator,
// and a Zipf sampler. Header-only; selftest.cpp pins each rule.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

// ---- percentiles -----------------------------------------------------------

/// 1-based nearest rank of percentile `p` (in [0,1]) over `n` samples:
/// ceil(p * n), at least 1. p50 of 4 samples is rank 2; p99 of 100 is 99.
[[nodiscard]] inline std::size_t nearest_rank(std::size_t n, double p) {
  if (n == 0) return 0;
  const auto rank =
      static_cast<std::size_t>(std::ceil(p * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

/// Samples strictly above the nearest-rank position: the tail that backs a
/// reported percentile.
[[nodiscard]] inline std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

/// A percentile is reported only when at least ten samples lie beyond it;
/// anything thinner is flagged as unsupported.
inline constexpr std::size_t kMinBeyond = 10;

[[nodiscard]] inline bool percentile_supported(std::size_t n, double p) {
  return samples_beyond(n, p) >= kMinBeyond;
}

/// Nearest-rank percentile of already sorted samples (0 when empty).
[[nodiscard]] inline double percentile_sorted(const std::vector<double>& sorted,
                                              double p) {
  if (sorted.empty()) return 0.0;
  return sorted[nearest_rank(sorted.size(), p) - 1];
}

/// Ordinary median (mean of the middle pair for even counts) — used for
/// repeated whole measurements (set-ups, builds, throughput slices), where
/// the sample is small and a rank rule would just pick one run.
[[nodiscard]] inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

/// Arithmetic mean (0 when empty): the rate over equal-length slices.
[[nodiscard]] inline double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double total = 0.0;
  for (const double v : values) total += v;
  return total / static_cast<double>(values.size());
}

// ---- open-loop schedule ----------------------------------------------------

/// Arrivals at a fixed rate from `start`: item i is due at start + i/rate.
/// The generator sends on this schedule whatever the system does, and every
/// latency is measured from the due time, so a stall also charges the
/// requests that queued behind it.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(Clock::time_point start, double rate_per_s)
      : start_(start), rate_(rate_per_s) {}

  [[nodiscard]] Clock::time_point due(std::uint64_t index) const {
    const double ns = static_cast<double>(index) * 1e9 / rate_;
    return start_ + std::chrono::nanoseconds(static_cast<std::int64_t>(ns));
  }

  /// Items due at or before `now` (index 0 is due at start).
  [[nodiscard]] std::uint64_t due_by(Clock::time_point now) const {
    if (now < start_) return 0;
    const double elapsed_s =
        std::chrono::duration<double>(now - start_).count();
    return static_cast<std::uint64_t>(std::floor(elapsed_s * rate_)) + 1;
  }

  /// Items that were due but not yet sent when item `index` went out.
  [[nodiscard]] std::uint64_t backlog(std::uint64_t index,
                                      Clock::time_point sent) const {
    const std::uint64_t due_count = due_by(sent);
    return due_count > index + 1 ? due_count - index - 1 : 0;
  }

  [[nodiscard]] double rate() const { return rate_; }
  [[nodiscard]] Clock::time_point start() const { return start_; }

 private:
  Clock::time_point start_;
  double rate_;
};

/// How late an item went out, in ms (0 when on time or early).
[[nodiscard]] inline double lateness_ms(Clock::time_point due,
                                        Clock::time_point sent) {
  const double ms =
      std::chrono::duration<double, std::milli>(sent - due).count();
  return ms > 0.0 ? ms : 0.0;
}

// ---- seeded inputs ---------------------------------------------------------

/// SplitMix64: a fixed, platform-independent stream, so one seed always
/// yields the same request and churn inputs.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n); n > 0.
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(next() % static_cast<std::uint64_t>(n));
  }

 private:
  std::uint64_t state_;
};

/// Zipf(s) over ranks 0..n-1 by inverse CDF: rank 0 is the most popular.
class Zipf {
 public:
  Zipf(std::size_t n, double exponent) : cdf_(n) {
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), exponent);
      cdf_[i] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  std::size_t draw(SplitMix& rng) const {
    const double u = rng.unit();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::size_t>(
        static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

}  // namespace perfbench
