// Assembles an io::Snapshot from a live Scenario: takes ASRank's labels
// from the Scenario (Scenario::asrank, computed while the validation data
// was compiled), runs ProbLink and TopoScope from them, tags every visible
// link with its §5 regional/topological class via BiasAudit, and flattens
// the ground truth into the serving layer's flat tables. This is the
// expensive batch step. A streaming publish runs the same call, over the
// session's maintained scenario. Everything in src/serve reads only its
// output.
#pragma once

#include "core/scenario.hpp"
#include "io/snapshot.hpp"

namespace asrel::core {

/// Names used for the algorithm sections, in snapshot order.
inline constexpr std::string_view kSnapshotAlgorithms[] = {
    "asrank", "problink", "toposcope"};

/// Builds every section from `scenario`: provenance meta, the clique and
/// hypergiant lists, then ases, edges, validation, algorithms and links,
/// whose class names come from a BiasAudit of the scenario. meta.epoch and
/// meta.built_unix_ms stay 0, the caller's to stamp. The same seed yields
/// byte-identical snapshots across runs.
[[nodiscard]] io::Snapshot build_snapshot(const Scenario& scenario);

}  // namespace asrel::core
