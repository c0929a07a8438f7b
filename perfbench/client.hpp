// Blocking HTTP/1.1 client connection for the load generators. It frames
// every response strictly (status line, header block, Content-Length
// body), so a read that returns a status has intact framing.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace perfbench {

class HttpConn {
 public:
  HttpConn() = default;
  ~HttpConn();
  HttpConn(const HttpConn&) = delete;
  HttpConn& operator=(const HttpConn&) = delete;

  /// Connects to 127.0.0.1:port with TCP_NODELAY.
  [[nodiscard]] bool open(std::uint16_t port);

  [[nodiscard]] bool send_all(std::string_view bytes);

  /// Reads the next response off the connection. Returns its status, or -1
  /// on a socket error or broken framing. When `wire` is set it receives
  /// the response's exact bytes. `bytes` receives the frame length.
  int read_response(std::string* wire = nullptr, std::size_t* bytes = nullptr);

 private:
  int fd_ = -1;
  std::string buffer_;  ///< received, not yet consumed
  std::size_t consumed_ = 0;
};

/// "GET <target> HTTP/1.1" with a Host header and, when `request_id` is
/// non-empty, a fixed X-Request-Id (which pins the echoed header).
[[nodiscard]] std::string make_get(std::string_view target,
                                   std::string_view request_id = {});

}  // namespace perfbench
