#include "service/socket.h"

#include "service/chaos.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

namespace sck::service {

namespace {

[[nodiscard]] std::string errno_text(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

/// Fill a sockaddr for `addr`. Returns the length, or 0 on failure.
[[nodiscard]] socklen_t fill_sockaddr(const Address& addr,
                                      sockaddr_storage& storage,
                                      std::string* error) {
  std::memset(&storage, 0, sizeof(storage));
  if (addr.is_unix) {
    auto* sun = reinterpret_cast<sockaddr_un*>(&storage);
    sun->sun_family = AF_UNIX;
    if (addr.host.size() + 1 > sizeof(sun->sun_path)) {
      if (error) *error = "unix socket path too long: " + addr.host;
      return 0;
    }
    std::memcpy(sun->sun_path, addr.host.c_str(), addr.host.size() + 1);
    return sizeof(sockaddr_un);
  }
  auto* sin = reinterpret_cast<sockaddr_in*>(&storage);
  sin->sin_family = AF_INET;
  sin->sin_port = htons(static_cast<std::uint16_t>(addr.port));
  if (inet_pton(AF_INET, addr.host.c_str(), &sin->sin_addr) != 1) {
    if (error) *error = "bad IPv4 address: " + addr.host;
    return 0;
  }
  return sizeof(sockaddr_in);
}

}  // namespace

std::string Address::text() const {
  if (is_unix) return "unix:" + host;
  return "tcp:" + host + ":" + std::to_string(port);
}

std::optional<Address> parse_address(const std::string& s) {
  Address a;
  if (s.rfind("unix:", 0) == 0) {
    a.is_unix = true;
    a.host = s.substr(5);
    if (a.host.empty()) return std::nullopt;
    return a;
  }
  if (s.rfind("tcp:", 0) != 0) return std::nullopt;
  const std::string rest = s.substr(4);
  const std::size_t colon = rest.rfind(':');
  if (colon == std::string::npos || colon == 0) return std::nullopt;
  a.host = rest.substr(0, colon);
  const std::string port = rest.substr(colon + 1);
  if (port.empty()) return std::nullopt;
  int value = 0;
  for (const char c : port) {
    if (c < '0' || c > '9') return std::nullopt;
    value = value * 10 + (c - '0');
    if (value > 65535) return std::nullopt;
  }
  a.port = value;
  return a;
}

int listen_on(const Address& addr, std::string* error) {
  sockaddr_storage storage{};
  const socklen_t len = fill_sockaddr(addr, storage, error);
  if (len == 0) return -1;
  const int fd =
      ::socket(addr.is_unix ? AF_UNIX : AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error) *error = errno_text("socket");
    return -1;
  }
  if (!addr.is_unix) {
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  } else {
    ::unlink(addr.host.c_str());  // stale socket file from a dead daemon
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&storage), len) != 0) {
    if (error) *error = errno_text("bind");
    ::close(fd);
    return -1;
  }
  if (::listen(fd, 64) != 0) {
    if (error) *error = errno_text("listen");
    ::close(fd);
    return -1;
  }
  return fd;
}

std::string local_address(int fd, const Address& requested) {
  if (requested.is_unix) return requested.text();
  sockaddr_in sin{};
  socklen_t len = sizeof(sin);
  Address resolved = requested;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&sin), &len) == 0) {
    resolved.port = ntohs(sin.sin_port);
  }
  return resolved.text();
}

int connect_to(const Address& addr, std::string* error) {
  sockaddr_storage storage{};
  const socklen_t len = fill_sockaddr(addr, storage, error);
  if (len == 0) return -1;
  const int fd =
      ::socket(addr.is_unix ? AF_UNIX : AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error) *error = errno_text("socket");
    return -1;
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&storage), len) != 0) {
    // EINTR leaves a blocking connect in flight with no portable way to
    // resume it: close the socket and report retryable — the
    // connect_with_retry loop (every caller) simply re-dials.
    if (error) {
      *error = errno == EINTR
                   ? "connect interrupted"
                   : errno_text(("connect " + addr.text()).c_str());
    }
    ::close(fd);
    return -1;
  }
  if (!addr.is_unix) set_nodelay(fd);
  return fd;
}

int connect_with_retry(const Address& addr, double timeout_seconds,
                       std::string* error) {
  const double deadline = now_seconds() + timeout_seconds;
  for (;;) {
    std::string attempt_error;
    const int fd = connect_to(addr, &attempt_error);
    if (fd >= 0) return fd;
    if (now_seconds() >= deadline) {
      if (error) *error = attempt_error;
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

bool send_all(int fd, std::span<const unsigned char> bytes) {
  std::size_t at = 0;
  while (at < bytes.size()) {
    // chaos_send retries EINTR and forces MSG_NOSIGNAL; with the chaos
    // shim installed this is also where transit faults are injected.
    const ssize_t n = chaos_send(fd, bytes.data() + at, bytes.size() - at,
                                 0);
    if (n < 0) return false;
    if (n == 0) return false;
    at += static_cast<std::size_t>(n);
  }
  return true;
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void set_nodelay(int fd) {
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void close_fd(int fd) {
  if (fd >= 0) ::close(fd);
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace sck::service
