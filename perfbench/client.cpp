#include "client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace perfbench {

HttpConn::~HttpConn() {
  if (fd_ >= 0) ::close(fd_);
}

bool HttpConn::open(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&address),
                sizeof(address)) != 0) {
    ::close(fd_);
    fd_ = -1;
    return false;
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return true;
}

bool HttpConn::send_all(std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

int HttpConn::read_response(std::string* wire, std::size_t* bytes) {
  if (fd_ < 0) return -1;
  // Compact once the consumed prefix dominates, so pipelined trains do
  // not grow the buffer without bound.
  if (consumed_ > 0 && consumed_ * 2 >= buffer_.size()) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  char chunk[65536];
  const auto fill = [&]() {
    for (;;) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<std::size_t>(n));
      return true;
    }
  };
  std::size_t header_end;
  while ((header_end = buffer_.find("\r\n\r\n", consumed_)) ==
         std::string::npos) {
    if (!fill()) return -1;
  }
  const std::string_view head{buffer_.data() + consumed_,
                              header_end - consumed_};
  if (head.substr(0, 9) != "HTTP/1.1 " || head.size() < 12) return -1;
  const int status = std::atoi(std::string{head.substr(9, 3)}.c_str());
  const std::size_t cl = head.find("\r\nContent-Length: ");
  if (cl == std::string_view::npos) return -1;
  char* end = nullptr;
  const std::string digits{head.substr(cl + 18, 20)};
  const unsigned long long length = std::strtoull(digits.c_str(), &end, 10);
  if (end == digits.c_str()) return -1;
  const std::size_t frame_end = header_end + 4 + length;
  while (buffer_.size() < frame_end) {
    if (!fill()) return -1;
  }
  const std::size_t frame_len = frame_end - consumed_;
  if (wire != nullptr) wire->assign(buffer_, consumed_, frame_len);
  if (bytes != nullptr) *bytes = frame_len;
  consumed_ = frame_end;
  return status;
}

std::string make_get(std::string_view target, std::string_view request_id) {
  std::string request;
  request.reserve(64 + target.size());
  request += "GET ";
  request += target;
  request += " HTTP/1.1\r\nHost: bench\r\n";
  if (!request_id.empty()) {
    request += "X-Request-Id: ";
    request += request_id;
    request += "\r\n";
  }
  request += "\r\n";
  return request;
}

}  // namespace perfbench
