// The canonical seed scenario and its golden reports.
//
// One place defines the world every correctness gate agrees on: the test
// suite's shared scenario, the golden files under tests/golden/, and
// tools/asrel_golden all build from canonical_scenario_params(). Changing
// these parameters is a deliberate act that forces a golden-file update in
// the same PR — exactly the review hook the golden layer exists for.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "core/scenario.hpp"

namespace asrel::testing {

/// 2500 ASes, topology seed 42, 120 vantage points: big enough that every
/// §5/§6 class is populated, small enough to build in about a second.
[[nodiscard]] core::ScenarioParams canonical_scenario_params();

/// One golden artifact: the file name under tests/golden/ and its exact
/// byte content (JSON emitted by the serving layer).
struct GoldenReport {
  std::string filename;
  std::string json;
};

/// Byte length and FNV-1a 64 of a flat v3 snapshot, as one JSON line. The
/// report goldens are aggregates; this pins every label, degree and link.
[[nodiscard]] std::string snapshot_digest_json(std::string_view flat_bytes);

/// Builds the Fig. 1/2 coverage reports and the Table 1-3 validation
/// tables for `scenario` via the snapshot + QueryEngine path, so the
/// golden files also pin the serialization format's semantics, plus the
/// digest of the scenario's flat v3 snapshot bytes. Output order and bytes
/// are deterministic.
[[nodiscard]] std::vector<GoldenReport> build_golden_reports(
    const core::Scenario& scenario);

/// Golden file name of wire_transcript()'s output.
inline constexpr const char* kWireTranscriptFile = "wire_transcript.http";

/// Starts an HttpServer on an ephemeral port over `scenario`'s
/// AsrelService, plays a fixed request script on one keep-alive
/// connection and returns every byte the server sent back, in order.
/// The script covers the service's routes and error statuses, an
/// unsupported method, three pipelining shapes (two requests in one
/// segment, a POST body plus a follower, a request split mid-line) and
/// ends with a malformed request, answered 400 before the server closes.
/// Status lines, headers (X-Request-Id included) and bodies are all
/// deterministic, so the result is pinned byte for byte.
[[nodiscard]] std::string wire_transcript(const core::Scenario& scenario);

}  // namespace asrel::testing
