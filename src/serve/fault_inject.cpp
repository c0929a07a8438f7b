#include "serve/fault_inject.hpp"

#include <sys/socket.h>
#include <sys/uio.h>

#include <array>
#include <cerrno>
#include <string>

#include "obs/metrics.hpp"

namespace asrel::serve::fault {

namespace {

/// SplitMix64 — the same generator src/testing uses; one full scramble of
/// a 64-bit state is enough to decorrelate (seed, site, n) triples.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

/// Mirrors each injected fault into the global registry so /metricsz can
/// show chaos activity per site without polling FaultStats.
namespace {

void note_injected(Site site) {
  static std::array<obs::Counter*, static_cast<std::size_t>(Site::kCount)>
      counters = [] {
        std::array<obs::Counter*, static_cast<std::size_t>(Site::kCount)> c{};
        for (std::size_t i = 0; i < c.size(); ++i) {
          c[i] = &obs::MetricsRegistry::global().counter(
              std::string{"asrel_fault_injected_total{site=\""} +
                  site_name(static_cast<Site>(i)) + "\"}",
              "Faults injected by the chaos layer, per syscall site");
        }
        return c;
      }();
  counters[static_cast<std::size_t>(site)]->inc();
}

}  // namespace

const char* site_name(Site site) {
  switch (site) {
    case Site::kAccept:
      return "accept";
    case Site::kRecv:
      return "recv";
    case Site::kSend:
      return "send";
    case Site::kSnapshotRead:
      return "snapshot_read";
    case Site::kSnapshotWrite:
      return "snapshot_write";
    case Site::kCheckpointRead:
      return "checkpoint_read";
    case Site::kCheckpointWrite:
      return "checkpoint_write";
    case Site::kStreamApply:
      return "stream_apply";
    case Site::kStreamDivergence:
      return "stream_divergence";
    case Site::kWritev:
      return "writev";
    case Site::kCount:
      break;
  }
  return "?";
}

FaultInjector& FaultInjector::instance() {
  static FaultInjector injector;
  return injector;
}

std::uint32_t FaultInjector::draw(std::uint64_t seed, Site site,
                                  std::uint64_t n) {
  // Two scramble rounds: the first mixes the site into the seed stream,
  // the second mixes the call index, so neighboring (site, n) pairs share
  // no low-bit structure.
  const std::uint64_t mixed =
      splitmix64(splitmix64(seed + static_cast<std::uint64_t>(site) *
                                       0x9e3779b97f4a7c15ull) +
                 n);
  return static_cast<std::uint32_t>(mixed % 1000);
}

std::uint32_t FaultInjector::next_draw(Site site) {
  const std::uint64_t n = calls_[static_cast<std::size_t>(site)].fetch_add(
      1, std::memory_order_relaxed);
  return draw(plan_.seed, site, n);
}

void FaultInjector::arm(const FaultPlan& plan) {
  disarm();  // quiesce wrappers while the plan is being replaced
  plan_ = plan;
  for (auto& counter : calls_) counter.store(0, std::memory_order_relaxed);
  accept_faults_.store(0, std::memory_order_relaxed);
  recv_faults_.store(0, std::memory_order_relaxed);
  send_faults_.store(0, std::memory_order_relaxed);
  snapshot_read_faults_.store(0, std::memory_order_relaxed);
  snapshot_write_faults_.store(0, std::memory_order_relaxed);
  checkpoint_read_faults_.store(0, std::memory_order_relaxed);
  checkpoint_write_faults_.store(0, std::memory_order_relaxed);
  stream_apply_faults_.store(0, std::memory_order_relaxed);
  stream_divergence_faults_.store(0, std::memory_order_relaxed);
  writev_faults_.store(0, std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_release);
}

void FaultInjector::disarm() {
  enabled_.store(false, std::memory_order_release);
}

FaultStats FaultInjector::stats() const {
  FaultStats stats;
  stats.accept_faults = accept_faults_.load(std::memory_order_relaxed);
  stats.recv_faults = recv_faults_.load(std::memory_order_relaxed);
  stats.send_faults = send_faults_.load(std::memory_order_relaxed);
  stats.snapshot_read_faults =
      snapshot_read_faults_.load(std::memory_order_relaxed);
  stats.snapshot_write_faults =
      snapshot_write_faults_.load(std::memory_order_relaxed);
  stats.checkpoint_read_faults =
      checkpoint_read_faults_.load(std::memory_order_relaxed);
  stats.checkpoint_write_faults =
      checkpoint_write_faults_.load(std::memory_order_relaxed);
  stats.stream_apply_faults =
      stream_apply_faults_.load(std::memory_order_relaxed);
  stats.stream_divergence_faults =
      stream_divergence_faults_.load(std::memory_order_relaxed);
  stats.writev_faults = writev_faults_.load(std::memory_order_relaxed);
  return stats;
}

ssize_t FaultInjector::recv(int fd, void* buf, std::size_t len, int flags) {
  if (!enabled()) return ::recv(fd, buf, len, flags);
  const std::uint32_t roll = next_draw(Site::kRecv);
  // Bands are stacked so one draw picks at most one fault; rates add up.
  std::uint32_t band = plan_.recv_eintr_permille;
  if (roll < band) {
    recv_faults_.fetch_add(1, std::memory_order_relaxed);
    note_injected(Site::kRecv);
    errno = EINTR;
    return -1;
  }
  band += plan_.recv_eagain_permille;
  if (roll < band) {
    recv_faults_.fetch_add(1, std::memory_order_relaxed);
    note_injected(Site::kRecv);
    errno = EAGAIN;
    return -1;
  }
  band += plan_.recv_short_permille;
  if (roll < band && len > 1) {
    recv_faults_.fetch_add(1, std::memory_order_relaxed);
    note_injected(Site::kRecv);
    return ::recv(fd, buf, 1, flags);  // short read: one byte at a time
  }
  return ::recv(fd, buf, len, flags);
}

ssize_t FaultInjector::send(int fd, const void* buf, std::size_t len,
                            int flags) {
  if (!enabled()) return ::send(fd, buf, len, flags);
  const std::uint32_t roll = next_draw(Site::kSend);
  std::uint32_t band = plan_.send_eintr_permille;
  if (roll < band) {
    send_faults_.fetch_add(1, std::memory_order_relaxed);
    note_injected(Site::kSend);
    errno = EINTR;
    return -1;
  }
  band += plan_.send_short_permille;
  if (roll < band && len > 1) {
    send_faults_.fetch_add(1, std::memory_order_relaxed);
    note_injected(Site::kSend);
    return ::send(fd, buf, 1, flags);  // short write
  }
  return ::send(fd, buf, len, flags);
}

namespace {

/// Gather-write via sendmsg so MSG_NOSIGNAL applies: a peer that died
/// mid-flush must surface as EPIPE, not SIGPIPE (plain writev has no
/// per-call signal suppression).
ssize_t raw_writev(int fd, const struct iovec* iov, int iovcnt) {
  msghdr message{};
  message.msg_iov = const_cast<struct iovec*>(iov);
  message.msg_iovlen = static_cast<std::size_t>(iovcnt);
  return ::sendmsg(fd, &message, MSG_NOSIGNAL);
}

}  // namespace

ssize_t FaultInjector::writev(int fd, const struct iovec* iov, int iovcnt) {
  if (!enabled()) return raw_writev(fd, iov, iovcnt);
  const std::uint32_t roll = next_draw(Site::kWritev);
  std::uint32_t band = plan_.writev_eintr_permille;
  if (roll < band) {
    writev_faults_.fetch_add(1, std::memory_order_relaxed);
    note_injected(Site::kWritev);
    errno = EINTR;
    return -1;
  }
  band += plan_.writev_short_permille;
  if (roll < band && iovcnt > 0 && iov[0].iov_len > 0) {
    // Torn flush: persist a single byte of the first fragment so the
    // caller must resume mid-iovec.
    writev_faults_.fetch_add(1, std::memory_order_relaxed);
    note_injected(Site::kWritev);
    struct iovec one = iov[0];
    one.iov_len = 1;
    return raw_writev(fd, &one, 1);
  }
  return raw_writev(fd, iov, iovcnt);
}

int FaultInjector::accept(int fd) {
  if (!enabled()) return ::accept(fd, nullptr, nullptr);
  const std::uint32_t roll = next_draw(Site::kAccept);
  std::uint32_t band = plan_.accept_eintr_permille;
  if (roll < band) {
    accept_faults_.fetch_add(1, std::memory_order_relaxed);
    note_injected(Site::kAccept);
    errno = EINTR;
    return -1;
  }
  band += plan_.accept_econnaborted_permille;
  if (roll < band) {
    accept_faults_.fetch_add(1, std::memory_order_relaxed);
    note_injected(Site::kAccept);
    errno = ECONNABORTED;
    return -1;
  }
  band += plan_.accept_emfile_permille;
  if (roll < band) {
    accept_faults_.fetch_add(1, std::memory_order_relaxed);
    note_injected(Site::kAccept);
    errno = EMFILE;
    return -1;
  }
  return ::accept(fd, nullptr, nullptr);
}

std::size_t FaultInjector::snapshot_read_cap() {
  if (!enabled()) return static_cast<std::size_t>(-1);
  if (plan_.snapshot_read_cap != static_cast<std::size_t>(-1)) {
    snapshot_read_faults_.fetch_add(1, std::memory_order_relaxed);
    note_injected(Site::kSnapshotRead);
  }
  return plan_.snapshot_read_cap;
}

std::size_t FaultInjector::snapshot_write_cap() {
  if (!enabled()) return static_cast<std::size_t>(-1);
  if (plan_.snapshot_write_cap != static_cast<std::size_t>(-1)) {
    snapshot_write_faults_.fetch_add(1, std::memory_order_relaxed);
    note_injected(Site::kSnapshotWrite);
  }
  return plan_.snapshot_write_cap;
}

std::size_t FaultInjector::checkpoint_read_cap() {
  if (!enabled()) return static_cast<std::size_t>(-1);
  if (plan_.checkpoint_read_cap != static_cast<std::size_t>(-1)) {
    checkpoint_read_faults_.fetch_add(1, std::memory_order_relaxed);
    note_injected(Site::kCheckpointRead);
  }
  return plan_.checkpoint_read_cap;
}

std::size_t FaultInjector::checkpoint_write_cap() {
  if (!enabled()) return static_cast<std::size_t>(-1);
  if (plan_.checkpoint_write_cap != static_cast<std::size_t>(-1)) {
    checkpoint_write_faults_.fetch_add(1, std::memory_order_relaxed);
    note_injected(Site::kCheckpointWrite);
  }
  return plan_.checkpoint_write_cap;
}

bool FaultInjector::stream_apply_should_fail() {
  if (!enabled() || plan_.stream_apply_fail_permille == 0) return false;
  if (next_draw(Site::kStreamApply) >= plan_.stream_apply_fail_permille) {
    return false;
  }
  stream_apply_faults_.fetch_add(1, std::memory_order_relaxed);
  note_injected(Site::kStreamApply);
  return true;
}

bool FaultInjector::stream_divergence_should_seed() {
  if (!enabled() || plan_.stream_divergence_permille == 0) return false;
  if (next_draw(Site::kStreamDivergence) >=
      plan_.stream_divergence_permille) {
    return false;
  }
  stream_divergence_faults_.fetch_add(1, std::memory_order_relaxed);
  note_injected(Site::kStreamDivergence);
  return true;
}

}  // namespace asrel::serve::fault
