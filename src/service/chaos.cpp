#include "service/chaos.h"

#include <sys/socket.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/parse_number.h"

namespace sck::service {

namespace {

std::mutex g_mutex;
ChaosOptions g_options;                 // guarded by g_mutex
std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_op{0};     // process-wide operation counter

[[nodiscard]] std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// One fault decision per socket operation, drawn from the seeded stream.
struct Fault {
  bool corrupt = false;
  bool partial = false;
  bool delay = false;
  bool drop = false;
  bool reset = false;
  std::uint64_t roll = 0;  ///< extra entropy for offsets/lengths
};

[[nodiscard]] Fault draw(const ChaosOptions& opt) {
  const std::uint64_t op = g_op.fetch_add(1, std::memory_order_relaxed);
  Fault f;
  f.roll = splitmix64(opt.seed * 0x9E3779B97F4A7C15ULL + op);
  // Independent per-10k draws from disjoint bit slices of the roll.
  f.corrupt = static_cast<int>((f.roll >> 0) % 10000) < opt.corrupt_per_10k;
  f.partial = static_cast<int>((f.roll >> 13) % 10000) < opt.partial_per_10k;
  f.delay = static_cast<int>((f.roll >> 26) % 10000) < opt.delay_per_10k;
  f.drop = static_cast<int>((f.roll >> 39) % 10000) < opt.drop_per_10k;
  f.reset = static_cast<int>((f.roll >> 50) % 10000) < opt.reset_per_10k;
  return f;
}

[[nodiscard]] ChaosOptions snapshot() {
  const std::lock_guard<std::mutex> lock(g_mutex);
  return g_options;
}

void maybe_sleep(const Fault& f, const ChaosOptions& opt) {
  if (!f.delay || opt.max_delay_ms <= 0) return;
  const auto ms = 1 + (f.roll >> 8) % static_cast<std::uint64_t>(
                                          opt.max_delay_ms);
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<long>(ms)));
}

/// Sever the transport like a hostile middlebox: the peer observes a
/// reset/EOF, the caller an ECONNRESET.
[[nodiscard]] ssize_t inject_reset(int fd) {
  (void)::shutdown(fd, SHUT_RDWR);
  errno = ECONNRESET;
  return -1;
}

[[nodiscard]] ssize_t raw_send(int fd, const unsigned char* data,
                               std::size_t n, int flags) {
  for (;;) {
    const ssize_t r = ::send(fd, data, n, flags | MSG_NOSIGNAL);
    if (r < 0 && errno == EINTR) continue;
    return r;
  }
}

}  // namespace

ChaosOptions default_chaos(std::uint64_t seed) {
  ChaosOptions opt;
  opt.seed = seed;
  opt.corrupt_per_10k = 30;   // ~0.3% of sends carry one flipped bit
  opt.partial_per_10k = 600;  // ~6% of ops are cut short
  opt.delay_per_10k = 400;    // ~4% of ops sleep 1-2 ms
  opt.drop_per_10k = 12;      // ~0.12% of sends vanish wholesale
  opt.reset_per_10k = 6;      // ~0.06% of ops sever the connection
  opt.max_delay_ms = 2;
  return opt;
}

void set_chaos(const ChaosOptions& options) {
  {
    const std::lock_guard<std::mutex> lock(g_mutex);
    g_options = options;
  }
  g_enabled.store(true, std::memory_order_release);
}

void clear_chaos() {
  g_enabled.store(false, std::memory_order_release);
}

bool chaos_enabled() {
  return g_enabled.load(std::memory_order_acquire);
}

std::uint64_t chaos_seed() {
  if (!chaos_enabled()) return 0;
  return snapshot().seed;
}

namespace {

/// Warn-and-abort on malformed chaos env knobs: a typo'd rate silently
/// parsing to 0 (the old std::atoi behaviour) would run the chaos suite
/// with the injection OFF and report a clean pass — the one failure mode a
/// fault-injection harness must not have.
[[noreturn]] void chaos_env_abort(const char* var, const std::string& text,
                                  const char* why) {
  std::fprintf(stderr, "%s=\"%s\": %s\n", var, text.c_str(), why);
  std::abort();
}

[[nodiscard]] int parse_chaos_rate(const std::string& item,
                                   const std::string& value) {
  int parsed = 0;
  if (!parse_number(value, parsed) || parsed < 0) {
    chaos_env_abort("SCK_CHAOS", item,
                    "value must be a non-negative integer");
  }
  return parsed;
}

}  // namespace

bool install_chaos_from_env() {
  const char* spec = std::getenv("SCK_CHAOS");
  if (spec == nullptr || spec[0] == '\0') return false;
  std::uint64_t seed = 1;
  const char* s = std::getenv("SCK_CHAOS_SEED");
  if (s != nullptr && s[0] != '\0') {
    if (!parse_number(s, seed)) {
      chaos_env_abort("SCK_CHAOS_SEED", s,
                      "seed must be an unsigned decimal integer");
    }
    if (seed == 0) seed = 1;
  }
  ChaosOptions opt = default_chaos(seed);
  const std::string text(spec);
  if (text != "1" && text != "on") {
    // "key=per10k" comma list overrides individual rates. Unknown keys and
    // malformed items abort: they are operator typos, and the alternative
    // is a chaos run that silently exercises nothing.
    std::size_t at = 0;
    while (at < text.size()) {
      std::size_t comma = text.find(',', at);
      if (comma == std::string::npos) comma = text.size();
      const std::string item = text.substr(at, comma - at);
      const std::size_t eq = item.find('=');
      if (eq == std::string::npos) {
        chaos_env_abort("SCK_CHAOS", item,
                        "expected key=value (or the literal \"1\"/\"on\")");
      }
      const std::string key = item.substr(0, eq);
      const int value = parse_chaos_rate(item, item.substr(eq + 1));
      if (key == "corrupt") opt.corrupt_per_10k = value;
      else if (key == "partial") opt.partial_per_10k = value;
      else if (key == "delay") opt.delay_per_10k = value;
      else if (key == "drop") opt.drop_per_10k = value;
      else if (key == "reset") opt.reset_per_10k = value;
      else if (key == "max_delay_ms") opt.max_delay_ms = value;
      else {
        chaos_env_abort("SCK_CHAOS", item, "unknown chaos knob");
      }
      at = comma + 1;
    }
  }
  set_chaos(opt);
  return true;
}

ssize_t chaos_send(int fd, const unsigned char* data, std::size_t n,
                   int flags) {
  if (!chaos_enabled() || n == 0) return raw_send(fd, data, n, flags);
  const ChaosOptions opt = snapshot();
  const Fault f = draw(opt);
  maybe_sleep(f, opt);
  if (f.reset) return inject_reset(fd);
  if (f.drop) {
    // The bytes vanish in transit but the sender believes they left: the
    // receiver's stream desynchronizes and its frame checksums (or a
    // timeout) catch it — exactly what this shim exists to prove.
    return static_cast<ssize_t>(n);
  }
  std::size_t len = n;
  if (f.partial) len = 1 + static_cast<std::size_t>((f.roll >> 17) % n);
  if (f.corrupt) {
    std::vector<unsigned char> evil(data, data + len);
    const std::size_t at = static_cast<std::size_t>((f.roll >> 23) % len);
    evil[at] ^= static_cast<unsigned char>(
        1u << ((f.roll >> 47) % 8));
    return raw_send(fd, evil.data(), len, flags);
  }
  return raw_send(fd, data, len, flags);
}

ssize_t chaos_recv(int fd, unsigned char* data, std::size_t n, int flags) {
  if (!chaos_enabled() || n == 0) {
    for (;;) {
      const ssize_t r = ::recv(fd, data, n, flags);
      if (r < 0 && errno == EINTR) continue;
      return r;
    }
  }
  const ChaosOptions opt = snapshot();
  const Fault f = draw(opt);
  maybe_sleep(f, opt);
  if (f.reset) return inject_reset(fd);
  // Short read: hand the caller a sliver, the rest stays queued in the
  // kernel — every FrameBuffer/streaming path must cope with arbitrary
  // fragmentation. (Corruption and drops are send-side faults: bytes the
  // kernel already delivered intact are not rewritten here.)
  std::size_t len = n;
  if (f.partial) {
    len = 1 + static_cast<std::size_t>((f.roll >> 17) % (len < 16 ? len
                                                                  : 16));
  }
  for (;;) {
    const ssize_t r = ::recv(fd, data, len, flags);
    if (r < 0 && errno == EINTR) continue;
    return r;
  }
}

}  // namespace sck::service
