#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "bench.hpp"

namespace perfbench {

Summary summarize(std::vector<double> values, double tail_p) {
  std::sort(values.begin(), values.end());
  Summary summary;
  summary.samples = values.size();
  summary.tail_p = tail_p;
  summary.p50 = percentile_sorted(values, 0.50);
  summary.tail = percentile_sorted(values, tail_p);
  summary.beyond = samples_beyond(values.size(), tail_p);
  summary.supported = percentile_supported(values.size(), tail_p);
  return summary;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[40];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return ec == std::errc{} ? std::string(buffer, end) : "null";
}

void Result::note_summary(const std::string& name, const Summary& summary,
                          std::string_view unit) {
  const int tail_pct = static_cast<int>(std::lround(summary.tail_p * 100));
  std::string fragment = "\"" + name + "\":{\"unit\":\"" +
                         std::string(unit) + "\",\"samples\":" +
                         std::to_string(summary.samples) +
                         ",\"p50\":" + json_number(summary.p50) + ",\"p" +
                         std::to_string(tail_pct) +
                         "\":" + json_number(summary.tail) +
                         ",\"beyond_tail\":" + std::to_string(summary.beyond) +
                         ",\"tail_supported\":" +
                         (summary.supported ? "true" : "false") + "}";
  detail.push_back(std::move(fragment));
  if (!summary.supported) {
    flagged.push_back(name + " p" + std::to_string(tail_pct) + " (" +
                      std::to_string(summary.beyond) + " beyond of " +
                      std::to_string(summary.samples) + ")");
  }
}

SpanLog& SpanLog::instance() {
  static SpanLog log;
  return log;
}

std::vector<SpanLog::Span>& SpanLog::local_buffer() {
  // One buffer per recording thread, owned by the log so spans outlive
  // the threads that recorded them.
  thread_local std::vector<Span>* buffer = nullptr;
  if (buffer == nullptr) {
    auto owned = std::make_unique<std::vector<Span>>();
    owned->reserve(1 << 12);
    buffer = owned.get();
    const std::lock_guard<std::mutex> lock{mutex_};
    buffers_.push_back(std::move(owned));
  }
  return *buffer;
}

void SpanLog::record(const char* name, const char* parent,
                     Clock::time_point start, Clock::time_point end) {
  if (!enabled_) return;
  local_buffer().push_back(
      {name, parent,
       std::chrono::duration_cast<std::chrono::nanoseconds>(start - origin_)
           .count(),
       std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
           .count()});
}

std::vector<double> SpanLog::durations_ms(std::string_view name) const {
  std::vector<double> out;
  const std::lock_guard<std::mutex> lock{mutex_};
  for (const auto& buffer : buffers_) {
    for (const Span& span : *buffer) {
      if (name == span.name) out.push_back(static_cast<double>(span.dur_ns) / 1e6);
    }
  }
  return out;
}

std::size_t SpanLog::size() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  std::size_t total = 0;
  for (const auto& buffer : buffers_) total += buffer->size();
  return total;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out{path, std::ios::binary};
  const std::lock_guard<std::mutex> lock{mutex_};
  for (std::size_t tid = 0; tid < buffers_.size(); ++tid) {
    for (const Span& span : *buffers_[tid]) {
      out << "{\"name\":\"" << span.name << "\",\"parent\":\"" << span.parent
          << "\",\"tid\":" << tid << ",\"start_ns\":" << span.start_ns
          << ",\"dur_ns\":" << span.dur_ns << "}\n";
    }
  }
  return static_cast<bool>(out);
}

double peak_rss_mib() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
