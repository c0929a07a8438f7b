// Incremental HTTP/1.1 request assembly over a carried-over buffer.
//
// Each connection feeds raw recv bytes into one of these and pulls
// complete requests off the front; whatever is left after a request —
// pipelined followers, a partial next request — stays in the buffer for
// the next pull. The event loop drains next() after every readiness
// event, so request boundaries do not depend on how the bytes were
// segmented on the wire.
//
// The assembler owns only framing (header end, Content-Length body) and
// size limits; header semantics stay in parse_http_request. Bodies are
// read and discarded, mirroring the server's drain-and-ignore policy.
//
// The assembler is also where request identity is minted: the accepting
// event loop seeds each connection with a deterministic per-connection value, and
// every request pulled off the wire gets the next splitmix64 id from
// that stream (unless the client supplied a valid X-Request-Id, which
// wins). Ids are therefore a pure function of (server, accept order,
// request index) — the property that lets a golden transcript pin the
// echo header too.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "serve/http_parser.hpp"

namespace asrel::serve {

enum class AssemblerStatus {
  kNeedMore,      ///< no complete request at the front; feed more bytes
  kRequest,       ///< *out holds the next request; residual bytes retained
  kMalformed,     ///< unparseable header block at the front (400, close)
  kTooLarge,      ///< headers never ended within the limit (413, close)
  kBodyTooLarge,  ///< declared Content-Length over the limit (413, close)
};

class RequestAssembler {
 public:
  explicit RequestAssembler(std::size_t max_request_bytes)
      : max_request_bytes_(max_request_bytes) {}

  /// Appends raw bytes read from the socket.
  void feed(const char* data, std::size_t n) { buffer_.append(data, n); }

  /// Extracts the next complete request from the front of the buffer.
  /// On kRequest the request's bytes (header + body) are consumed and any
  /// pipelined residue is kept; on kNeedMore nothing is consumed; on
  /// kMalformed/kTooLarge the connection should be answered and closed.
  AssemblerStatus next(HttpRequest* out);

  /// True when the buffer holds bytes of an incomplete request — the
  /// state the deadline/timeout machinery cares about ("mid-request").
  [[nodiscard]] bool has_partial() const { return !buffer_.empty(); }

  [[nodiscard]] std::size_t buffered_bytes() const { return buffer_.size(); }

  /// Seeds this connection's request-id stream. The accepting loop passes
  /// the per-server connection sequence number, so ids are deterministic
  /// for a given accept order.
  void seed_request_ids(std::uint64_t connection_sequence) {
    id_state_ = connection_sequence;
  }

 private:
  std::size_t max_request_bytes_;
  std::string buffer_;
  std::uint64_t id_state_ = 0;
};

}  // namespace asrel::serve
