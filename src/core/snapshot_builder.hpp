// Assembles an io::Snapshot from a live Scenario: takes ASRank's labels
// from the Scenario (Scenario::asrank, computed while the validation data
// was compiled), runs ProbLink and TopoScope from them, tags every visible
// link with its §5 regional/topological class via BiasAudit, and flattens
// the ground truth into the serving layer's flat tables. This is the
// expensive batch step; everything in src/serve reads only its output.
#pragma once

#include <functional>

#include "core/scenario.hpp"
#include "io/snapshot.hpp"

namespace asrel::core {

/// Names used for the algorithm sections, in snapshot order.
inline constexpr std::string_view kSnapshotAlgorithms[] = {
    "asrank", "problink", "toposcope"};

/// Which snapshot sections to regenerate in rebuild_snapshot_sections.
/// The streaming publisher marks only the sections an epoch's events can
/// have changed; untouched sections keep their previous bytes.
struct SnapshotSections {
  bool ases = false;        ///< per-AS table (degrees, cone sizes)
  bool edges = false;       ///< ground-truth edge list
  bool validation = false;  ///< cleaned validation labels
  bool algorithms = false;  ///< the three inference labelings
  bool links = false;       ///< visible links + class tags (+ class_names)

  [[nodiscard]] static SnapshotSections all() {
    return {true, true, true, true, true};
  }
  [[nodiscard]] bool any() const {
    return ases || edges || validation || algorithms || links;
  }
};

/// Per-link class-name lookups for the links section. The streaming delta
/// audit passes its own cached classifications here so the publisher never
/// re-tabulates the whole link universe; batch builds leave it null and a
/// fresh BiasAudit is used.
struct SnapshotClassSource {
  std::function<std::string(const val::AsLink&)> regional_class_of;
  std::function<std::string(const val::AsLink&)> topological_class_of;
};

/// Regenerates the selected sections of `snapshot` from `scenario`,
/// leaving the rest untouched. Provenance meta plus the clique/hypergiant
/// lists are always refreshed (they are cheap copies); meta.epoch and
/// meta.built_unix_ms are the caller's to manage. Rebuilding a section
/// yields exactly the bytes a full build_snapshot of the same scenario
/// would produce for it — the byte-equality invariant depends on this.
void rebuild_snapshot_sections(io::Snapshot& snapshot,
                               const Scenario& scenario,
                               const SnapshotSections& sections,
                               const SnapshotClassSource* classes = nullptr);

/// Deterministic in the scenario: the same seed yields byte-identical
/// snapshots across runs.
[[nodiscard]] io::Snapshot build_snapshot(const Scenario& scenario);

}  // namespace asrel::core
