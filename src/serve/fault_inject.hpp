// Deterministic fault-injection layer for the serving stack.
//
// Chaos tests need to force the failure modes production meets rarely but
// reliably — EINTR mid-recv, short writes to slow clients, EMFILE storms
// on accept, a snapshot file torn halfway through a write — without
// patching libc or depending on timing. This layer sits between the
// server and the raw syscalls: every socket call in HttpServer and every
// snapshot file read/write routes through FaultInjector, which either
// passes straight through (the always-compiled-in, zero-cost-when-idle
// path: one acquire load, a plain load on x86) or consults a seeded plan. It is its
// own library (asrel_fault, linking only asrel_obs), so the snapshot
// codec and the stream layer consult it without linking the server.
//
// Determinism contract: the decision for the Nth call at a given site is
// a pure function of (seed, site, N) — SplitMix64 over a per-site call
// counter — so a fault schedule is byte-reproducible from its seed no
// matter how worker threads interleave, and a failing chaos run can be
// replayed exactly by re-arming the same plan.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <sys/types.h>
#include <sys/uio.h>

namespace asrel::serve::fault {

/// Syscall sites the injector can perturb. Each site draws from its own
/// deterministic stream.
enum class Site : std::size_t {
  kAccept = 0,
  kRecv,
  kSend,
  kSnapshotRead,
  kSnapshotWrite,
  kCheckpointRead,
  kCheckpointWrite,
  kStreamApply,
  kStreamDivergence,
  kWritev,
  kCount,
};

[[nodiscard]] const char* site_name(Site site);

/// Per-mille rates (0 = never, 1000 = every call) for each injected
/// failure, plus byte caps for torn snapshot I/O. Rates are integers so a
/// plan is trivially printable and hashable into a reproduction command.
struct FaultPlan {
  std::uint64_t seed = 0;

  std::uint32_t accept_eintr_permille = 0;
  std::uint32_t accept_econnaborted_permille = 0;
  std::uint32_t accept_emfile_permille = 0;

  std::uint32_t recv_eintr_permille = 0;
  std::uint32_t recv_eagain_permille = 0;  ///< only once buffer has bytes
  std::uint32_t recv_short_permille = 0;   ///< deliver 1 byte instead of n

  std::uint32_t send_eintr_permille = 0;
  std::uint32_t send_short_permille = 0;  ///< accept 1 byte instead of n

  /// The epoll flush path's own site: writev batches many responses into
  /// one syscall, so a torn writev exercises partial-write resume logic
  /// no send() fault can reach.
  std::uint32_t writev_eintr_permille = 0;
  std::uint32_t writev_short_permille = 0;  ///< accept 1 byte instead of all

  /// Snapshot file I/O: fail (reader: truncate; writer: ENOSPC-style
  /// error) once this many bytes have been moved. SIZE_MAX = never.
  std::size_t snapshot_read_cap = static_cast<std::size_t>(-1);
  std::size_t snapshot_write_cap = static_cast<std::size_t>(-1);

  /// Stream checkpoint file I/O, same semantics as the snapshot caps but
  /// on an independent site so chaos tests can tear one without the other.
  std::size_t checkpoint_read_cap = static_cast<std::size_t>(-1);
  std::size_t checkpoint_write_cap = static_cast<std::size_t>(-1);

  /// Rate at which StreamSession::apply() fails with a simulated
  /// allocation failure before mutating anything (drives checkpoint
  /// recovery in-process).
  std::uint32_t stream_apply_fail_permille = 0;
  /// Rate at which publish() silently corrupts the incremental path state
  /// — the drift the divergence watchdog exists to catch and heal.
  std::uint32_t stream_divergence_permille = 0;
};

/// Counts of faults actually injected, for test assertions ("the run
/// really did hit N EINTRs") and for /statsz debugging.
struct FaultStats {
  std::uint64_t accept_faults = 0;
  std::uint64_t recv_faults = 0;
  std::uint64_t send_faults = 0;
  std::uint64_t snapshot_read_faults = 0;
  std::uint64_t snapshot_write_faults = 0;
  std::uint64_t checkpoint_read_faults = 0;
  std::uint64_t checkpoint_write_faults = 0;
  std::uint64_t stream_apply_faults = 0;
  std::uint64_t stream_divergence_faults = 0;
  std::uint64_t writev_faults = 0;
};

/// Process-wide injector. All serving-layer syscalls funnel through the
/// wrappers below; arm()/disarm() bracket a chaos experiment.
class FaultInjector {
 public:
  static FaultInjector& instance();

  /// Installs `plan`, resets per-site counters and stats, and enables
  /// injection.
  void arm(const FaultPlan& plan);
  /// Disables injection; wrappers revert to raw syscalls.
  void disarm();

  /// Acquire pairs with arm()'s release store, so a wrapper that sees
  /// the plan enabled also sees the plan arm() installed.
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_acquire);
  }
  [[nodiscard]] FaultStats stats() const;

  /// The deterministic per-site decision stream: returns the uniform
  /// [0, 1000) draw for call number `n` at `site` under seed `seed`.
  /// Exposed so tests can verify byte-reproducibility directly.
  [[nodiscard]] static std::uint32_t draw(std::uint64_t seed, Site site,
                                          std::uint64_t n);

  // ---- syscall wrappers (used by HttpServer) ----
  [[nodiscard]] ssize_t recv(int fd, void* buf, std::size_t len, int flags);
  [[nodiscard]] ssize_t send(int fd, const void* buf, std::size_t len,
                             int flags);
  /// Gathered flush used by the epoll path; faults mirror send()'s
  /// (EINTR, short write of a single byte) but draw from their own site.
  [[nodiscard]] ssize_t writev(int fd, const struct iovec* iov, int iovcnt);
  [[nodiscard]] int accept(int fd);

  // ---- snapshot I/O caps (consulted by io/flat_snapshot directly) ----
  /// Bytes a snapshot file read may return before simulated truncation.
  [[nodiscard]] std::size_t snapshot_read_cap();
  /// Bytes a snapshot file write may persist before simulated failure.
  [[nodiscard]] std::size_t snapshot_write_cap();

  // ---- stream sites (consulted by src/stream directly) ----
  /// Bytes a checkpoint file read may return before simulated truncation.
  [[nodiscard]] std::size_t checkpoint_read_cap();
  /// Bytes a checkpoint file write may persist before simulated failure.
  [[nodiscard]] std::size_t checkpoint_write_cap();
  /// Should this apply() call fail with a simulated allocation failure?
  [[nodiscard]] bool stream_apply_should_fail();
  /// Should this publish() seed a silent divergence for the watchdog?
  [[nodiscard]] bool stream_divergence_should_seed();

 private:
  FaultInjector() = default;

  /// Advances `site`'s counter and returns its draw; never called unless
  /// enabled. Thread-safe via per-site atomic counters.
  [[nodiscard]] std::uint32_t next_draw(Site site);

  std::atomic<bool> enabled_{false};
  FaultPlan plan_;
  std::atomic<std::uint64_t> calls_[static_cast<std::size_t>(Site::kCount)];

  std::atomic<std::uint64_t> accept_faults_{0};
  std::atomic<std::uint64_t> recv_faults_{0};
  std::atomic<std::uint64_t> send_faults_{0};
  std::atomic<std::uint64_t> snapshot_read_faults_{0};
  std::atomic<std::uint64_t> snapshot_write_faults_{0};
  std::atomic<std::uint64_t> checkpoint_read_faults_{0};
  std::atomic<std::uint64_t> checkpoint_write_faults_{0};
  std::atomic<std::uint64_t> stream_apply_faults_{0};
  std::atomic<std::uint64_t> stream_divergence_faults_{0};
  std::atomic<std::uint64_t> writev_faults_{0};
};

/// RAII arm/disarm for tests: faults stay scoped to one experiment even
/// when an ASSERT unwinds early.
class ScopedFaults {
 public:
  explicit ScopedFaults(const FaultPlan& plan) {
    FaultInjector::instance().arm(plan);
  }
  ~ScopedFaults() { FaultInjector::instance().disarm(); }
  ScopedFaults(const ScopedFaults&) = delete;
  ScopedFaults& operator=(const ScopedFaults&) = delete;
};

}  // namespace asrel::serve::fault
