// The flat (v3) snapshot reader's fuzz oracle and its small fixture.
//
// fuzz/fuzz_snapshot and the in-suite FuzzProperty test share both, so
// the CI fuzz loop and the unit suite judge the reader by the same rule:
// every input is opened structural-only and with the deep checksum pass;
// each rejection must carry a reason, and each accepted image is walked
// through every FlatView accessor. The walk itself asserts nothing —
// ASan/UBSan judge it, because a structural open promises memory safety
// on arbitrary bytes.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "io/snapshot.hpp"

namespace asrel::testing {

/// A four-AS snapshot with one record in every section, every AS and edge
/// flag bit set somewhere, and a hybrid edge.
[[nodiscard]] io::Snapshot tiny_snapshot();

/// Opens `bytes` both ways and walks what opens. Returns a one-line
/// description of the first broken rule, or nullopt.
[[nodiscard]] std::optional<std::string> check_flat_reader(
    std::string_view bytes);

}  // namespace asrel::testing
