// The event loops behind HttpServer: its only threads.
//
// Each loop owns an epoll fd, a wake eventfd, a timer wheel, and the
// connections it accepted itself. The shared listening socket sits in
// every loop's epoll set (level-triggered, no EPOLLEXCLUSIVE); a loop that
// sees it readable accepts at most one connection, admits it under the
// open-connection cap or sheds it with 503, and serves it inline.
// Handlers run inline on the loop thread; that is deliberate: a loop busy
// in a handler accepts nothing, so overload backs up into the kernel
// backlog, and the connection cap sheds whatever an idle loop accepts
// beyond it.
//
// The throughput story is batching. One readiness event pulls every
// available byte off the socket, the RequestAssembler slices the buffer
// into as many pipelined requests as arrived, each response is rendered
// into a shared output chunk, and one writev pushes the batch back out. A
// pipelined burst of N requests costs O(1) syscalls instead of O(N) recv +
// O(N) send — on loopback this is the difference between ~80k and ~1M
// requests per second on one core.
//
// Timeouts:
//  - total per-request deadline: checked lazily when data arrives, before
//    the new bytes are consumed. Never timer-fired: firing a 408 between
//    a trickler's sends would race the close against the client's next
//    write and an RST could discard the buffered 408.
//  - stall/idle timeout (request_timeout_ms): timer-wheel driven.
//    Mid-request stall answers 408; an idle keep-alive is closed
//    silently; a write-stalled connection is cut.
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <string>
#include <unordered_map>
#include <utility>

#include "obs/log.hpp"
#include "obs/trace.hpp"
#include "serve/fault_inject.hpp"
#include "serve/http_server.hpp"
#include "serve/request_assembler.hpp"
#include "serve/response_writer.hpp"
#include "serve/timer_wheel.hpp"

namespace asrel::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// Cap on bytes pulled off one socket per readiness event, so one
/// firehose connection cannot starve its loop-mates.
constexpr std::size_t kMaxReadPerEvent = 1 << 20;
/// Responses accumulate into the tail output chunk until it reaches this
/// size; then a new chunk starts. Bounds per-chunk realloc copying while
/// keeping the iovec count per writev small.
constexpr std::size_t kOutChunkTarget = 32 * 1024;
constexpr int kMaxIov = 16;
constexpr int kMaxEvents = 256;
/// Largest request (headers plus declared body) a connection may send.
constexpr std::size_t kMaxRequestBytes = 16 * 1024;

/// accept() through the fault injector, retrying EINTR/ECONNABORTED.
int accept_retrying(int listen_fd, obs::Counter& retried) {
  auto& faults = fault::FaultInjector::instance();
  for (;;) {
    const int fd = faults.accept(listen_fd);
    if (fd >= 0 || (errno != EINTR && errno != ECONNABORTED)) return fd;
    retried.inc();
  }
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

struct HttpServer::EpollLoop {
  struct Conn {
    Conn() : assembler(kMaxRequestBytes) {}

    RequestAssembler assembler;
    /// Rendered-but-unsent response bytes; front chunk partially sent up
    /// to out_off. A deque so a torn writev only advances offsets.
    std::deque<std::string> out;
    std::size_t out_off = 0;
    /// When the current request cycle began — the total-deadline anchor.
    /// Reset after each dispatched request.
    Clock::time_point cycle_start;
    Clock::time_point last_activity;
    bool want_write = false;       ///< EPOLLOUT currently armed
    bool close_after_flush = false;
    bool peer_closed = false;      ///< recv saw EOF; serve what's buffered
    /// Cumulative EAGAIN write stalls on this connection; stamped into
    /// /slowz entries so a slow request can be told apart from a slow
    /// *reader* (backpressure shows up here, handler time in latency_us).
    std::uint32_t flush_stalls = 0;
  };

  int epoll_fd = -1;
  int wake_fd = -1;
  int index = 0;  ///< loop ordinal, for lifecycle log events
  TimerWheel wheel;
  std::unordered_map<int, Conn> conns;

  ~EpollLoop() {
    // Connections are closed (with bookkeeping) by the loop's exit path;
    // only the loop's own fds remain.
    if (epoll_fd >= 0) ::close(epoll_fd);
    if (wake_fd >= 0) ::close(wake_fd);
  }

  [[nodiscard]] std::size_t out_bytes(const Conn& conn) const {
    std::size_t total = 0;
    for (const auto& chunk : conn.out) total += chunk.size();
    return total - conn.out_off;
  }

  void set_interest(int fd, bool want_write) {
    epoll_event event{};
    event.events = EPOLLIN | EPOLLRDHUP |
                   (want_write ? static_cast<std::uint32_t>(EPOLLOUT) : 0u);
    event.data.fd = fd;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, fd, &event);
  }

  /// Closes a connection, counting it drained or aborted when a drain or
  /// stop is under way.
  void close_conn(HttpServer& server, int fd) {
    wheel.cancel(static_cast<std::uint64_t>(fd));
    ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
    bool was_aborted = false;
    {
      std::lock_guard<std::mutex> lock{server.active_mutex_};
      server.active_fds_.erase(fd);
      was_aborted = server.aborted_fds_.erase(fd) > 0;
    }
    if (was_aborted) {
      server.aborted_->inc();
    } else if (server.draining_.load(std::memory_order_acquire)) {
      server.drained_->inc();
    }
    ::close(fd);
    conns.erase(fd);
  }

  /// Renders `response` into the connection's output queue.
  void queue_response(Conn& conn, const HttpResponse& response,
                      bool keep_alive) {
    if (conn.out.empty() || conn.out.back().size() >= kOutChunkTarget) {
      conn.out.emplace_back();
    }
    append_http_response(conn.out.back(), response, keep_alive);
  }

  /// Writes queued output with writev until done or EAGAIN. Returns false
  /// when the connection was closed (write error). On EAGAIN the flush
  /// resumes on EPOLLOUT, with a stall timer so a dead peer cannot pin
  /// the buffer forever.
  [[nodiscard]] bool flush(HttpServer& server, int fd, Conn& conn) {
    auto& faults = fault::FaultInjector::instance();
    while (!conn.out.empty()) {
      std::array<iovec, kMaxIov> iov;
      int count = 0;
      std::size_t offset = conn.out_off;
      for (const auto& chunk : conn.out) {
        if (count == kMaxIov) break;
        iov[static_cast<std::size_t>(count)].iov_base =
            const_cast<char*>(chunk.data()) + offset;
        iov[static_cast<std::size_t>(count)].iov_len = chunk.size() - offset;
        offset = 0;
        ++count;
      }
      const ssize_t n = faults.writev(fd, iov.data(), count);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          ++conn.flush_stalls;
          if (!conn.want_write) {
            conn.want_write = true;
            set_interest(fd, true);
          }
          wheel.arm(static_cast<std::uint64_t>(fd),
                    Clock::now() + std::chrono::milliseconds(
                                       server.options_.request_timeout_ms));
          return true;
        }
        close_conn(server, fd);
        return false;
      }
      server.bytes_written_->add(static_cast<std::uint64_t>(n));
      conn.last_activity = Clock::now();
      // Advance past what the kernel took, possibly mid-chunk.
      std::size_t taken = static_cast<std::size_t>(n);
      while (taken > 0) {
        std::string& front = conn.out.front();
        const std::size_t left = front.size() - conn.out_off;
        if (taken < left) {
          conn.out_off += taken;
          break;
        }
        taken -= left;
        conn.out.pop_front();
        conn.out_off = 0;
      }
    }
    if (conn.want_write) {
      conn.want_write = false;
      set_interest(fd, false);
    }
    return true;
  }

  /// Drains the assembler: dispatches every complete request, queues the
  /// responses, flushes once. Returns false when the connection is gone.
  [[nodiscard]] bool process(HttpServer& server, int fd, Conn& conn) {
    if (!conn.close_after_flush) {
      HttpRequest request;
      for (;;) {
        const AssemblerStatus status = conn.assembler.next(&request);
        if (status == AssemblerStatus::kNeedMore) break;
        if (status == AssemblerStatus::kMalformed) {
          server.malformed_->inc();
          server.responses_4xx_->inc();
          queue_response(
              conn,
              HttpResponse::json(400, R"({"error":"malformed request"})"),
              false);
          conn.close_after_flush = true;
          break;
        }
        if (status == AssemblerStatus::kTooLarge ||
            status == AssemblerStatus::kBodyTooLarge) {
          if (status == AssemblerStatus::kTooLarge) server.malformed_->inc();
          queue_response(
              conn,
              HttpResponse::json(413, R"({"error":"request too large"})"),
              false);
          conn.close_after_flush = true;
          break;
        }

        // ---- dispatch ----
        server.requests_->inc();
        const auto dispatch_started = Clock::now();
        const bool tracing = obs::Tracer::instance().enabled();
        const std::uint64_t trace_start_us =
            tracing
                ? obs::Tracer::instance().to_trace_us(
                      std::chrono::duration_cast<std::chrono::nanoseconds>(
                          dispatch_started.time_since_epoch())
                          .count())
                : 0;
        const HttpResponse response = server.dispatch(request);
        if (response.status >= 500) {
          server.responses_5xx_->inc();
        } else if (response.status >= 400) {
          server.responses_4xx_->inc();
        } else {
          server.responses_2xx_->inc();
        }
        const auto finished = Clock::now();
        if (finished >= conn.cycle_start + std::chrono::milliseconds(
                                               server.options_
                                                   .request_deadline_ms)) {
          server.note_deadline_exceeded(request.path, request.request_id);
        }
        const bool keep_alive =
            request.keep_alive &&
            !server.draining_.load(std::memory_order_acquire) &&
            !server.stopping_.load(std::memory_order_acquire);
        const std::size_t queued_before = out_bytes(conn);
        queue_response(conn, response, keep_alive);
        server.observe_request(
            request.path,
            static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::microseconds>(
                    finished - dispatch_started)
                    .count()),
            trace_start_us, tracing,
            RequestObservation{
                request.request_id,
                static_cast<std::uint64_t>(out_bytes(conn) - queued_before),
                conn.flush_stalls});
        conn.cycle_start = finished;  // next request's deadline anchor
        if (!keep_alive) {
          conn.close_after_flush = true;
          break;
        }
      }
    }
    if (!flush(server, fd, conn)) return false;
    if (conn.out.empty() && conn.close_after_flush) {
      close_conn(server, fd);
      return false;
    }
    return true;
  }

  void on_readable(HttpServer& server, int fd, Conn& conn) {
    // Lazy total-deadline check: before consuming newly arrived bytes,
    // only while a request is mid-flight.
    const auto now = Clock::now();
    if (conn.assembler.has_partial() &&
        now >= conn.cycle_start +
                   std::chrono::milliseconds(
                       server.options_.request_deadline_ms)) {
      server.timeouts_->inc();
      server.note_deadline_exceeded("(read)");
      queue_response(
          conn,
          HttpResponse::json(408, R"({"error":"request deadline exceeded"})"),
          false);
      conn.close_after_flush = true;
      if (flush(server, fd, conn) && conn.out.empty()) {
        close_conn(server, fd);
      }
      return;
    }

    auto& faults = fault::FaultInjector::instance();
    char buffer[64 * 1024];
    std::size_t total = 0;
    bool error_close = false;
    for (;;) {
      const ssize_t n = faults.recv(fd, buffer, sizeof(buffer), 0);
      if (n > 0) {
        server.bytes_read_->add(static_cast<std::uint64_t>(n));
        conn.assembler.feed(buffer, static_cast<std::size_t>(n));
        total += static_cast<std::size_t>(n);
        if (total >= kMaxReadPerEvent) break;
        continue;
      }
      if (n == 0) {
        conn.peer_closed = true;
        break;
      }
      if (errno == EINTR) continue;
      // An injected EAGAIN is indistinguishable from a real one; with
      // level-triggered epoll any bytes still in the kernel re-fire
      // EPOLLIN immediately, so a fake EAGAIN only delays, never hangs.
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      error_close = true;  // ECONNRESET and friends
      break;
    }
    if (total > 0) {
      conn.last_activity = Clock::now();
      wheel.arm(static_cast<std::uint64_t>(fd),
                conn.last_activity + std::chrono::milliseconds(
                                         server.options_.request_timeout_ms));
    }
    if (!process(server, fd, conn)) return;
    if (error_close) {
      close_conn(server, fd);
      return;
    }
    if (conn.peer_closed) {
      // Half-closed peer: everything it sent has been processed and the
      // responses queued. Close once the flush completes.
      if (conn.out.empty()) {
        close_conn(server, fd);
      } else {
        conn.close_after_flush = true;
      }
    }
  }

  void on_event(HttpServer& server, int fd, std::uint32_t events) {
    const auto it = conns.find(fd);
    if (it == conns.end()) return;  // closed earlier in this batch
    Conn& conn = it->second;
    if ((events & EPOLLOUT) != 0) {
      if (!flush(server, fd, conn)) return;
      if (conn.out.empty() && conn.close_after_flush) {
        close_conn(server, fd);
        return;
      }
    }
    if ((events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR)) != 0) {
      // EPOLLHUP/EPOLLERR funnel into the read path: recv reports the
      // truth (EOF or the real errno) and the close accounting is shared.
      on_readable(server, fd, conn);
    }
  }

  void on_timer(HttpServer& server, int fd, Clock::time_point now) {
    const auto it = conns.find(fd);
    if (it == conns.end()) return;
    Conn& conn = it->second;
    const auto stall_deadline =
        conn.last_activity +
        std::chrono::milliseconds(server.options_.request_timeout_ms);
    if (now < stall_deadline) {
      // Activity since the timer was set; push it out (lazy re-arm).
      wheel.arm(static_cast<std::uint64_t>(fd), stall_deadline);
      return;
    }
    if (!conn.out.empty()) {
      // Write-stalled: the peer stopped reading.
      close_conn(server, fd);
      return;
    }
    if (conn.assembler.has_partial()) {
      // Mid-request read stall: 408.
      server.timeouts_->inc();
      queue_response(conn,
                     HttpResponse::json(408, R"({"error":"request timeout"})"),
                     false);
      conn.close_after_flush = true;
      if (flush(server, fd, conn) && conn.out.empty()) {
        close_conn(server, fd);
      }
      return;
    }
    close_conn(server, fd);  // idle keep-alive, cut silently
  }

  /// fd exhaustion: frees the reserve, accepts the waiting connection with
  /// it, sheds it (503 is better than leaving it in SYN limbo), then
  /// restores the reserve. Without this, accept() fails in a hot loop
  /// while the backlog never shrinks. Another loop may have taken the
  /// connection meanwhile; then there is nothing to shed.
  static void recover_fd_exhaustion(HttpServer& server) {
    server.emfile_recoveries_->inc();
    static obs::LogSite emfile_site{"serve.accept", "emfile_recovery", 10};
    obs::log_event(emfile_site, obs::LogLevel::kError, 0);
    std::lock_guard<std::mutex> lock{server.reserve_mutex_};
    if (server.reserve_fd_ >= 0) ::close(server.reserve_fd_);
    const int victim = ::accept(server.listen_fd_, nullptr, nullptr);
    if (victim >= 0) server.shed_connection(victim);
    server.reserve_fd_ = ::open("/dev/null", O_RDONLY);
  }

  /// Accepts at most one connection off the shared listener, then admits
  /// and serves it, or sheds it when the open-connection cap is reached.
  /// EAGAIN means another loop won this connect.
  void accept_one(HttpServer& server) {
    const int fd = accept_retrying(server.listen_fd_, *server.accept_retried_);
    if (fd < 0) {
      if (errno == EMFILE || errno == ENFILE) recover_fd_exhaustion(server);
      return;
    }
    server.accepted_->inc();
    bool admitted = false;
    {
      std::lock_guard<std::mutex> lock{server.active_mutex_};
      admitted = server.active_fds_.size() < server.options_.max_connections;
      if (admitted) server.active_fds_.insert(fd);
    }
    if (!admitted) {
      server.shed_connection(fd);
      return;
    }
    set_nonblocking(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const auto now = Clock::now();
    Conn& conn = conns.try_emplace(fd).first->second;
    conn.assembler.seed_request_ids(server.connection_sequence_.fetch_add(1));
    conn.cycle_start = now;
    conn.last_activity = now;
    epoll_event event{};
    event.events = EPOLLIN | EPOLLRDHUP;
    event.data.fd = fd;
    if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &event) != 0) {
      close_conn(server, fd);
      return;
    }
    wheel.arm(static_cast<std::uint64_t>(fd),
              now + std::chrono::milliseconds(
                        server.options_.request_timeout_ms));
    // The socket may already hold a full pipelined burst; serve it now
    // rather than waiting for a (level-triggered, immediate) event.
    on_readable(server, fd, conn);
  }
};

bool HttpServer::epoll_start(std::string* error) {
  const int loop_count = std::max(1, options_.worker_threads);
  for (int i = 0; i < loop_count; ++i) {
    auto loop = std::make_shared<EpollLoop>();
    loop->index = i;
    loop->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    loop->wake_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (loop->epoll_fd < 0 || loop->wake_fd < 0) {
      if (error != nullptr) {
        *error = std::string{"epoll_create1()/eventfd(): "} +
                 std::strerror(errno);
      }
      return false;
    }
    for (const int fd : {loop->wake_fd, listen_fd_}) {
      epoll_event event{};
      event.events = EPOLLIN;
      event.data.fd = fd;
      ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, fd, &event);
    }
    loops_.push_back(std::move(loop));
  }
  workers_.reserve(loops_.size());
  for (const auto& loop : loops_) {
    workers_.emplace_back([this, loop] { epoll_loop(*loop); });
  }
  return true;
}

void HttpServer::wake_loops() {
  for (const auto& loop : loops_) {
    if (loop->wake_fd < 0) continue;
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n =
        ::write(loop->wake_fd, &one, sizeof(one));
  }
}

void HttpServer::close_listener() {
  for (const auto& loop : loops_) {
    ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_DEL, listen_fd_, nullptr);
  }
  // A loop that saw the listener readable just before the DEL may still
  // accept one more connection; it is admitted and drained like any
  // other. Everything else in the backlog was never served: it reads the
  // same 503 an admission shed sends, counted aborted.
  for (int fd; (fd = accept_retrying(listen_fd_, *accept_retried_)) >= 0;) {
    accepted_->inc();
    refuse(fd);
    aborted_->inc();
  }
  ::shutdown(listen_fd_, SHUT_RDWR);
}

void HttpServer::epoll_loop(EpollLoop& loop) {
  static obs::LogSite start_site{"serve.epoll", "loop_start", 0};
  static obs::LogSite exit_site{"serve.epoll", "loop_exit", 0};
  obs::log_event(start_site, obs::LogLevel::kInfo, 0,
                 {{"loop", static_cast<std::uint64_t>(loop.index)}});
  // Timer-wheel counters are flushed as deltas once per iteration: the
  // wheel is single-threaded, the registry counters are shared.
  TimerWheel::Stats flushed{};
  std::array<epoll_event, kMaxEvents> events;
  while (!stopping_.load(std::memory_order_acquire)) {
    const auto timeout = loop.wheel.poll_timeout(
        Clock::now(), std::chrono::milliseconds{100});
    const int ready =
        ::epoll_wait(loop.epoll_fd, events.data(), kMaxEvents,
                     static_cast<int>(timeout.count()));
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;  // loop fd gone; stop() owns cleanup
    }
    // Iteration latency covers the busy segment — event dispatch plus
    // timer expiry — not the epoll_wait sleep; the histogram answers "how
    // long can this loop go unresponsive once woken".
    const auto iteration_started = Clock::now();
    epoll_ready_fds_->observe(static_cast<double>(ready));
    bool listener_ready = false;
    for (int i = 0; i < ready; ++i) {
      const int fd = events[static_cast<std::size_t>(i)].data.fd;
      if (fd == listen_fd_) {
        listener_ready = true;
        continue;
      }
      if (fd == loop.wake_fd) {
        std::uint64_t drained = 0;
        [[maybe_unused]] const ssize_t n =
            ::read(loop.wake_fd, &drained, sizeof(drained));
        continue;
      }
      loop.on_event(*this, fd, events[static_cast<std::size_t>(i)].events);
    }
    // Accept after this batch's connections are served, so one that
    // closed in the batch frees its slot before the admission check.
    if (listener_ready) loop.accept_one(*this);
    const auto now = Clock::now();
    loop.wheel.expire(
        now, [&](std::uint64_t id) {
          loop.on_timer(*this, static_cast<int>(id), now);
        });
    const TimerWheel::Stats& wheel_stats = loop.wheel.stats();
    timer_arms_->add(wheel_stats.arms - flushed.arms);
    timer_lazy_cancels_->add(wheel_stats.lazy_cancels -
                             flushed.lazy_cancels);
    timer_fires_->add(wheel_stats.fires - flushed.fires);
    timer_cascades_->add(wheel_stats.cascades - flushed.cascades);
    timer_late_fires_->add(wheel_stats.late_fires - flushed.late_fires);
    flushed = wheel_stats;
    epoll_iteration_us_->observe(static_cast<double>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            Clock::now() - iteration_started)
            .count()));
  }
  // Exit: every remaining connection gets the bookkeeping close
  // (stop()/drain() have already marked them aborted).
  std::uint64_t closed_at_exit = 0;
  while (!loop.conns.empty()) {
    loop.close_conn(*this, loop.conns.begin()->first);
    ++closed_at_exit;
  }
  obs::log_event(exit_site, obs::LogLevel::kInfo, 0,
                 {{"loop", static_cast<std::uint64_t>(loop.index)},
                  {"conns_closed", closed_at_exit}});
}

}  // namespace asrel::serve
