// Golden-file regression: the canonical scenario's Fig. 1/2 and Table 1-3
// JSON reports, the length and FNV-1a 64 of its flat v3 snapshot (which
// pins every label, not just the aggregates) and the raw bytes the HTTP
// server sends for a fixed request script are checked in under
// tests/golden/ and must match the current code byte for byte. Regenerate
// deliberately with `tools/asrel_golden --update` when an output change is
// intended.
#include <gtest/gtest.h>

#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "obs/log.hpp"
#include "obs/trace.hpp"
#include "test_support.hpp"
#include "testing/canonical.hpp"

namespace asrel {
namespace {

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void expect_matches_golden_file(const std::string& filename,
                                const std::string& bytes) {
  const std::string path = std::string{ASREL_GOLDEN_DIR} + "/" + filename;
  const auto checked_in = read_file(path);
  ASSERT_TRUE(checked_in.has_value())
      << path << " is missing; generate it with `asrel_golden --update`";
  EXPECT_EQ(*checked_in, bytes)
      << filename
      << " drifted from the checked-in golden file. If the change is "
         "intended, regenerate with `asrel_golden --update` and commit "
         "the diff.";
}

TEST(Golden, ReportsMatchCheckedInFiles) {
  const auto reports = testing::build_golden_reports(test::shared_scenario());
  ASSERT_FALSE(reports.empty());
  for (const auto& report : reports) {
    expect_matches_golden_file(report.filename, report.json);
  }
}

TEST(Golden, WireTranscriptMatchesCheckedInFile) {
  expect_matches_golden_file(
      testing::kWireTranscriptFile,
      testing::wire_transcript(test::shared_scenario()));
  // Observability never changes a served byte: the same script with
  // tracing and logging on yields the same transcript.
  obs::ScopedTracing tracing{true, /*clear_on_exit=*/true};
  obs::ScopedLogging logging{true, /*clear_on_exit=*/true};
  expect_matches_golden_file(
      testing::kWireTranscriptFile,
      testing::wire_transcript(test::shared_scenario()));
}

}  // namespace
}  // namespace asrel
