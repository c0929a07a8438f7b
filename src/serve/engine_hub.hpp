// Hot-reloadable engine publication — the RCU of the serving layer.
//
// The daemon must swap in a freshly written snapshot (operator SIGHUP or
// POST /reloadz) without dropping a single in-flight request. The hub
// owns the current QueryEngine in a locked shared_ptr slot: readers pin
// one epoch with a single `current()` call and keep serving from that
// engine even while a reload publishes a successor; the old engine is
// destroyed when its last in-flight reader drops the reference. Each
// QueryEngine carries its own report LRU cache, so publication implicitly
// invalidates every cached report from the previous epoch.
//
// Reloads are serialized (one at a time) and fail closed: if the loader
// cannot produce a valid snapshot — missing file, torn write, checksum
// mismatch — the previous engine stays published and the error is
// recorded for /statsz.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "io/snapshot.hpp"
#include "serve/query_engine.hpp"

namespace asrel::serve {

class EngineHub {
 public:
  /// Produces the next engine on reload. The daemon's loader mmaps the
  /// flat file with a structural-only open (microseconds). Returns
  /// nullptr + error to abort the reload and keep the current epoch live.
  using EngineLoader = std::function<std::shared_ptr<const QueryEngine>(
      std::string* error)>;

  /// A hub starts at epoch 1 with `initial`; a null loader makes reload()
  /// fail cleanly (static deployments keep working unchanged).
  explicit EngineHub(std::shared_ptr<const QueryEngine> initial,
                     EngineLoader loader = {});

  /// The engine for this request. One call per request: the returned
  /// shared_ptr pins the epoch for the request's whole lifetime.
  [[nodiscard]] std::shared_ptr<const QueryEngine> current() const {
    return engine_.load();
  }

  /// Epoch of the currently published engine (starts at 1, +1 per
  /// successful reload).
  [[nodiscard]] std::uint64_t epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

  struct ReloadResult {
    bool ok = false;
    std::uint64_t epoch = 0;   ///< published epoch after the attempt
    std::string error;         ///< set when !ok
  };

  /// Loads, builds, and publishes a new engine. Serialized; concurrent
  /// callers queue up. On failure the previous engine stays published.
  ReloadResult reload();

  /// Publishes an in-memory snapshot directly (the streaming session's
  /// path: no file round-trip; the new engine encodes its own flat
  /// image). Shares the reload mutex, so publishes and file reloads
  /// serialize against each other; readers pin epochs the same way.
  /// Always succeeds — the snapshot is already materialized.
  ReloadResult publish(const io::Snapshot& snapshot);

  // ---- async-signal-safe reload request (SIGHUP) ----
  /// Safe to call from a signal handler: just sets a flag.
  void request_reload() {
    reload_requested_.store(true, std::memory_order_release);
  }
  /// Consumes a pending request; the daemon's main loop polls this.
  [[nodiscard]] bool take_reload_request() {
    return reload_requested_.exchange(false, std::memory_order_acq_rel);
  }

  struct Stats {
    std::uint64_t epoch = 0;
    std::uint64_t reloads_ok = 0;
    std::uint64_t reloads_failed = 0;
    std::uint64_t publishes = 0;  ///< direct publish() swaps
    std::string last_error;  ///< most recent failed reload's diagnosis
  };
  [[nodiscard]] Stats stats() const;

 private:
  /// The published engine. A reader copies the shared_ptr under a one-bit
  /// spin lock held only for that copy; a writer swaps under the same lock
  /// and frees the old engine after releasing it. This is what
  /// std::atomic<std::shared_ptr> does, except that libstdc++ 12 releases
  /// a load's lock with a relaxed RMW: the reader's copy is then not
  /// ordered before the next swap's write, a data race ThreadSanitizer
  /// reports under reload-under-load. Here the unlock is a release store.
  class EngineSlot {
   public:
    explicit EngineSlot(std::shared_ptr<const QueryEngine> engine)
        : engine_(std::move(engine)) {}

    [[nodiscard]] std::shared_ptr<const QueryEngine> load() const {
      lock();
      std::shared_ptr<const QueryEngine> engine = engine_;
      locked_.clear(std::memory_order_release);
      return engine;
    }

    /// Publishes `next`; returns the previous engine, so its destructor
    /// runs outside the lock.
    std::shared_ptr<const QueryEngine> exchange(
        std::shared_ptr<const QueryEngine> next) {
      lock();
      engine_.swap(next);
      locked_.clear(std::memory_order_release);
      return next;
    }

   private:
    void lock() const {
      while (locked_.test_and_set(std::memory_order_acquire)) {
        while (locked_.test(std::memory_order_relaxed)) {
        }
      }
    }

    mutable std::atomic_flag locked_;
    std::shared_ptr<const QueryEngine> engine_;
  };

  EngineSlot engine_;
  EngineLoader loader_;
  std::atomic<std::uint64_t> epoch_{1};
  std::atomic<bool> reload_requested_{false};

  mutable std::mutex reload_mutex_;  ///< serializes reload(); guards counters
  std::uint64_t reloads_ok_ = 0;
  std::uint64_t reloads_failed_ = 0;
  std::uint64_t publishes_ = 0;
  std::string last_error_;
};

/// The daemon's reload loader: re-maps the flat image at `path` with
/// structural checks only. The atomic-rename writer guarantees a whole
/// file and the first open verified its checksum, so a swap costs an mmap.
[[nodiscard]] EngineHub::EngineLoader flat_file_loader(std::string path);

}  // namespace asrel::serve
