// asrel_golden: regenerate or diff the golden report files.
//
//   asrel_golden --check  [--dir tests/golden]   (default; exit 1 on drift)
//   asrel_golden --update [--dir tests/golden]   (rewrite the files)
//
// The tool rebuilds the canonical scenario from scratch and renders the
// Fig. 1/2 + Table 1-3 JSON reports, the flat snapshot digest and the HTTP
// wire transcript twice, refusing to proceed if the two passes disagree —
// golden files are only useful if the pipeline is byte-deterministic in
// the first place.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>

#include "core/scenario.hpp"
#include "testing/canonical.hpp"

namespace {

std::optional<std::string> read_file(const std::filesystem::path& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// First line where the two strings differ, for a human-readable diff hint.
std::size_t first_difference_line(const std::string& a, const std::string& b) {
  std::size_t line = 1;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    if (a[i] != b[i]) break;
    if (a[i] == '\n') ++line;
  }
  return line;
}

}  // namespace

int main(int argc, char** argv) {
  bool update = false;
  std::filesystem::path dir = "tests/golden";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--update") {
      update = true;
    } else if (arg == "--check") {
      update = false;
    } else if (arg == "--dir" && i + 1 < argc) {
      dir = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--check|--update] [--dir tests/golden]\n",
                   argv[0]);
      return 2;
    }
  }

  std::printf("[golden] building canonical scenario...\n");
  const auto scenario =
      asrel::core::Scenario::build(asrel::testing::canonical_scenario_params());
  const auto build = [&] {
    auto reports = asrel::testing::build_golden_reports(*scenario);
    reports.push_back({asrel::testing::kWireTranscriptFile,
                       asrel::testing::wire_transcript(*scenario)});
    return reports;
  };
  const auto reports = build();
  const auto second_pass = build();
  for (std::size_t i = 0; i < reports.size(); ++i) {
    if (reports[i].json.empty() || reports[i].json != second_pass[i].json) {
      std::fprintf(stderr,
                   "[golden] FATAL: %s is not byte-stable across two "
                   "builds — fix determinism before regenerating goldens\n",
                   reports[i].filename.c_str());
      return 1;
    }
  }

  if (update) {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    for (const auto& report : reports) {
      const auto path = dir / report.filename;
      std::ofstream out{path, std::ios::binary};
      out.write(report.json.data(),
                static_cast<std::streamsize>(report.json.size()));
      if (!out) {
        std::fprintf(stderr, "[golden] cannot write %s\n",
                     path.string().c_str());
        return 1;
      }
      std::printf("[golden] wrote %s (%zu bytes)\n", path.string().c_str(),
                  report.json.size());
    }
    return 0;
  }

  int drift = 0;
  for (const auto& report : reports) {
    const auto path = dir / report.filename;
    const auto checked_in = read_file(path);
    if (!checked_in.has_value()) {
      std::fprintf(stderr, "[golden] MISSING %s (run with --update)\n",
                   path.string().c_str());
      ++drift;
    } else if (*checked_in != report.json) {
      std::fprintf(stderr,
                   "[golden] DRIFT %s: first difference at line %zu "
                   "(%zu -> %zu bytes)\n",
                   path.string().c_str(),
                   first_difference_line(*checked_in, report.json),
                   checked_in->size(), report.json.size());
      ++drift;
    } else {
      std::printf("[golden] ok %s\n", path.string().c_str());
    }
  }
  if (drift != 0) {
    std::fprintf(stderr,
                 "[golden] %d file(s) drifted. If intended, rerun with "
                 "--update and commit the result.\n",
                 drift);
    return 1;
  }
  return 0;
}
