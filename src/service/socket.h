// Minimal blocking/nonblocking socket plumbing for the campaign service.
//
// Addresses are strings so every binary and test speaks the same syntax:
//   tcp:<host>:<port>     loopback/LAN TCP (port 0 = kernel-assigned;
//                         read the bound port back with local_address)
//   unix:<path>           UNIX domain socket
//
// Everything here reports errors by return value + message — the service
// treats a failed socket like the store treats a failed disk: degrade or
// retry, never crash.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>

namespace sck::service {

struct Address {
  bool is_unix = false;
  std::string host;  ///< host (tcp) or filesystem path (unix)
  int port = 0;      ///< tcp only

  [[nodiscard]] std::string text() const;
};

/// Parse "tcp:host:port" / "unix:path". nullopt on malformed input.
[[nodiscard]] std::optional<Address> parse_address(const std::string& s);

/// Bind + listen. Returns the listening fd, or -1 with *error set.
[[nodiscard]] int listen_on(const Address& addr, std::string* error);

/// The actual bound address of a listening fd ("tcp:host:port" with the
/// kernel-assigned port resolved when the caller bound port 0).
[[nodiscard]] std::string local_address(int fd, const Address& requested);

/// Blocking connect. Returns the connected fd, or -1 with *error set.
[[nodiscard]] int connect_to(const Address& addr, std::string* error);

/// Blocking connect with retry (the worker/client may start before the
/// daemon finished binding). Retries ECONNREFUSED/ENOENT every 50 ms up to
/// `timeout_seconds`.
[[nodiscard]] int connect_with_retry(const Address& addr,
                                     double timeout_seconds,
                                     std::string* error);

/// Backoff between reconnect attempts, shared by the client's re-submission
/// loop and the worker's redial loop: 50 ms, doubling up to 2 s.
inline constexpr double kBackoffInitial = 0.05;
inline constexpr double kBackoffMax = 2.0;

/// Write the whole span to a BLOCKING fd (EINTR-safe). False on any error.
[[nodiscard]] bool send_all(int fd, std::span<const unsigned char> bytes);

void set_nonblocking(int fd);
/// Disable Nagle's algorithm on a TCP socket: the service's small frames
/// (shard requests, acks) must not wait for delayed ACKs.
void set_nodelay(int fd);
void close_fd(int fd);

/// Monotonic wall clock in seconds (steady_clock) — scheduler timeouts
/// and ShardStats timing.
[[nodiscard]] double now_seconds();

}  // namespace sck::service
