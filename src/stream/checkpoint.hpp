// Durable stream checkpoints: crash recovery for the live pipeline.
//
// A StreamCheckpoint captures everything a StreamSession cannot re-derive
// at restart: the churned edge table (the world's only mutable topology
// state — adjacency is reconstructible from it), the live prefix table,
// the transit ASNs, the publication epoch, and the feed position. The
// transit ASNs are a stored cross-check value: checkpoint() and restore()
// both derive them from the edge table (eval::transit_asns), and restore
// refuses a checkpoint whose stored set disagrees with the restored
// edges. No dirty state is stored: restore rebuilds the whole snapshot
// from the restored world, so a mid-epoch checkpoint restores to a clean
// session whose next publish equals the never-crashed one's.
// Per-origin ribs are not stored either: propagation is a pure function
// of the edge table, so restore re-propagates every origin, and the file
// stays linear in the world's size instead of quadratic in its AS count.
// Static state (attributes, clique, delegations, vantage points) is
// regenerated from the scenario parameters, which the fingerprint pins: a
// checkpoint refuses to restore against a different world.
//
// Format mirrors the snapshot container (io/wire.hpp primitives):
//   magic "ASRELCKP" | version u32 | payload_size u64 | fnv1a64 u64 |
//   payload. Truncation and bit-flips are rejected before any section is
//   parsed; counts are validated against the remaining payload. Files are
//   written with the snapshot's crash-safe temp+fsync+rename protocol
//   (io/atomic_file), so a crash mid-checkpoint leaves the previous file
//   intact. CheckpointDir rotates `checkpoint-<epoch>.ckpt` files and
//   keeps the newest two: the recovery ladder in recover_session
//   (session.hpp) tries newest -> previous -> cold bootstrap.
//
// The decoder is canonical-form-rejecting where decoding would otherwise
// normalize (prefix host bits, unordered sections, hybrid filler bytes):
// every accepted byte string re-encodes byte-identically, the invariant
// fuzz_checkpoint enforces.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "asn/asn.hpp"
#include "netbase/ip.hpp"
#include "topology/graph.hpp"

namespace asrel::stream {

inline constexpr std::string_view kCheckpointMagic = "ASRELCKP";
/// A file of any other version is refused at the header, so the recovery
/// ladder falls through to a cold bootstrap.
inline constexpr std::uint32_t kCheckpointVersion = 3;

/// Pins the world a checkpoint belongs to. as_count + the three seeds +
/// the vantage target count determine every regenerated artifact; the
/// node hash cross-checks the regenerated node universe byte-for-byte.
struct CheckpointFingerprint {
  std::int64_t as_count = 0;
  std::uint64_t topo_seed = 0;
  std::uint64_t scheme_seed = 0;
  std::uint64_t vantage_seed = 0;
  std::uint32_t vantage_targets = 0;
  std::uint64_t node_count = 0;
  std::uint64_t node_hash = 0;  ///< fnv1a64 over LE node ASNs, NodeId order

  friend bool operator==(const CheckpointFingerprint&,
                         const CheckpointFingerprint&) = default;
};

struct StreamCheckpoint {
  CheckpointFingerprint fingerprint;
  std::uint64_t epoch = 0;
  std::uint64_t built_unix_ms = 0;
  /// Next churn-feed sequence number to consume (events [0, feed_position)
  /// are already reflected in this state).
  std::uint64_t feed_position = 0;

  std::vector<topo::Edge> edges;       ///< full table incl. tombstones
  /// Live prefix table, keyed by ascending ASN; only non-empty lists are
  /// stored (an empty list and an absent entry behave identically), each
  /// in its in-memory (announcement) order.
  std::vector<std::pair<asn::Asn, std::vector<net::Prefix4>>> prefixes;
  /// eval::transit_asns of the edge table, ascending: the providers of
  /// live P2C edges.
  std::vector<asn::Asn> transit_asns;
};

/// Deterministic: the same checkpoint value always serializes to the same
/// bytes.
[[nodiscard]] std::string to_checkpoint_bytes(
    const StreamCheckpoint& checkpoint);

/// Returns nullopt and fills `*error` with a one-line diagnosis for wrong
/// magic/version, truncation, checksum mismatch, or any structurally
/// invalid or non-canonical section.
[[nodiscard]] std::optional<StreamCheckpoint> parse_checkpoint_bytes(
    std::string_view bytes, std::string* error = nullptr);

/// Crash-safe file wrappers. Both consult FaultInjector's checkpoint I/O
/// caps, so chaos tests can tear a write (ENOSPC after N bytes — the temp
/// file is discarded, the previous checkpoint survives) or a read (the
/// header rejects the truncated prefix).
[[nodiscard]] bool save_checkpoint_file(const StreamCheckpoint& checkpoint,
                                        const std::string& path,
                                        std::string* error = nullptr);
[[nodiscard]] std::optional<StreamCheckpoint> load_checkpoint_file(
    const std::string& path, std::string* error = nullptr);

/// Rotating checkpoint directory: `checkpoint-<epoch padded to 20>.ckpt`
/// filenames sort lexically == numerically, and pruning runs only after a
/// new file is durably in place, so the ladder always has the last `keep`
/// good checkpoints to fall back through.
class CheckpointDir {
 public:
  explicit CheckpointDir(std::string dir, std::size_t keep = 2);

  [[nodiscard]] const std::string& dir() const { return dir_; }
  [[nodiscard]] std::string path_for_epoch(std::uint64_t epoch) const;

  /// Existing checkpoint files, newest epoch first.
  [[nodiscard]] std::vector<std::string> candidates() const;

  /// Writes `checkpoint` under its epoch's filename, then prunes all but
  /// the newest `keep` files. Pruning failures are ignored (stale files
  /// are harmless); write failures are not.
  [[nodiscard]] bool save(const StreamCheckpoint& checkpoint,
                          std::string* error = nullptr);

 private:
  std::string dir_;
  std::size_t keep_;
};

}  // namespace asrel::stream
