// Assembles an io::Snapshot from a live Scenario: takes ASRank's labels
// from the Scenario (Scenario::asrank, computed while the validation data
// was compiled), runs ProbLink and TopoScope from them, tags every visible
// link with its §5 regional/topological class via BiasAudit, and flattens
// the ground truth into the serving layer's flat tables. This is the
// expensive batch step. A streaming publish runs it whole too, over the
// session's maintained scenario and with its cached link classes.
// Everything in src/serve reads only its output.
#pragma once

#include <functional>

#include "core/scenario.hpp"
#include "io/snapshot.hpp"

namespace asrel::core {

/// Names used for the algorithm sections, in snapshot order.
inline constexpr std::string_view kSnapshotAlgorithms[] = {
    "asrank", "problink", "toposcope"};

/// Per-link class-name lookups for the links section. The streaming delta
/// audit passes its own cached classifications here so the publisher never
/// re-tabulates the whole link universe; batch builds leave it null and a
/// fresh BiasAudit is used.
struct SnapshotClassSource {
  std::function<std::string(const val::AsLink&)> regional_class_of;
  std::function<std::string(const val::AsLink&)> topological_class_of;
};

/// Builds every section from `scenario`: provenance meta, the clique and
/// hypergiant lists, then ases, edges, validation, algorithms and links.
/// meta.epoch and meta.built_unix_ms stay 0, the caller's to stamp.
/// `classes` supplies the links section's class names (the streaming
/// session's delta audit); null tabulates them with a fresh BiasAudit.
/// Both yield the same bytes, and the same seed yields byte-identical
/// snapshots across runs.
[[nodiscard]] io::Snapshot build_snapshot(
    const Scenario& scenario, const SnapshotClassSource* classes = nullptr);

}  // namespace asrel::core
