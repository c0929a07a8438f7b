#include "testing/canonical.hpp"

#include <cinttypes>
#include <cstdio>

#include "core/snapshot_builder.hpp"
#include "io/flat_snapshot.hpp"
#include "io/wire.hpp"
#include "serve/query_engine.hpp"

namespace asrel::testing {

core::ScenarioParams canonical_scenario_params() {
  core::ScenarioParams params;
  params.topology.as_count = 2500;
  params.topology.seed = 42;
  params.vantage.target_count = 120;
  return params;
}

std::string snapshot_digest_json(std::string_view flat_bytes) {
  char buffer[96];
  std::snprintf(buffer, sizeof buffer,
                "{\"flat_v3_bytes\":%zu,\"fnv1a64\":\"%016" PRIx64 "\"}",
                flat_bytes.size(), io::wire::fnv1a64(flat_bytes));
  return buffer;
}

std::vector<GoldenReport> build_golden_reports(
    const core::Scenario& scenario) {
  io::Snapshot snapshot = core::build_snapshot(scenario);
  const std::string flat = io::to_flat_snapshot_bytes(snapshot);
  const serve::QueryEngine engine{std::move(snapshot)};

  const auto report = [&](const char* filename, const std::string& key) {
    const auto json = engine.report_json(key);
    return GoldenReport{filename, json ? *json : std::string{}};
  };
  return {
      report("fig1_regional.json", "regional"),
      report("fig2_topological.json", "topological"),
      report("table1_asrank.json", "table:asrank"),
      report("table2_problink.json", "table:problink"),
      report("table3_toposcope.json", "table:toposcope"),
      GoldenReport{"snapshot_digest.json", snapshot_digest_json(flat)},
  };
}

}  // namespace asrel::testing
