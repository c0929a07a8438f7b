// Reference inflater: a flat (v3) image back into the builder's
// in-memory io::Snapshot. Production code never needs it — the engine
// serves the image in place — but the round-trip test uses it to show the
// flat format carries every io::Snapshot field, which is what makes
// comparing to_snapshot_bytes() outputs (the stream pins, the watchdog)
// as strong as comparing the structs.
#pragma once

#include "io/flat_snapshot.hpp"
#include "io/snapshot.hpp"

namespace asrel::test {

/// O(records). Enum codes are cast back as stored.
[[nodiscard]] io::Snapshot inflate(const io::FlatView& view);

}  // namespace asrel::test
