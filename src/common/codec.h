// The one canonical byte codec. Wire frames (service/wire.cpp), store
// entries (store/store.cpp), journal files (store/journal.cpp) and campaign
// fingerprints (store/fingerprint.cpp) all write and read the shared domain
// types through this header, and the fingerprint hashes exactly the bytes
// the wire ships.
//
// Each record spells its fields once, in an `io(a, record)` traversal that
// Writer and Reader both run: `a(field, ...)` writes or reads the fields in
// order, so an encoder and its decoder cannot disagree. A field's C++ type
// picks its encoding: integers are fixed-width little-endian, enums u32,
// booleans one byte (0 or 1), doubles their IEEE bits, strings and
// sequences a u64 count followed by their elements. A sealed image is a
// body followed by the u64 FNV-1a of that body.
//
// Decoding never trusts its input: Reader bounds-checks every read and
// latches the first failure, element counts are capped by the bytes left
// BEFORE anything is allocated, enums are capped by their `enum_last`, and
// each traversal's `a.check(...)` rejects what the engine would assert on,
// so malformed bytes yield a clean `false` — never UB, an abort, or a
// half-valid object.
#pragma once

#include <algorithm>
#include <bit>
#include <concepts>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/word.h"
#include "fault/stats.h"
#include "hls/dfg.h"
#include "hls/netlist.h"
#include "hls/netlist_campaign.h"

namespace sck::codec {

inline constexpr std::uint64_t kFnvOffsetBasis = 0xCBF29CE484222325ULL;

/// FNV-1a/64 of `bytes`, starting from basis `h`.
[[nodiscard]] inline std::uint64_t fnv1a(std::span<const unsigned char> bytes,
                                         std::uint64_t h = kFnvOffsetBasis) {
  for (const unsigned char b : bytes) h = (h ^ b) * 0x100000001B3ULL;
  return h;
}

/// Append-only little-endian encoder. Every write returns true, so one
/// traversal serves both directions.
class Writer {
 public:
  bool u8(std::uint8_t v) {
    out_.push_back(v);
    return true;
  }
  bool u32(std::uint32_t v) { return put(v); }
  bool u64(std::uint64_t v) { return put(v); }
  bool i32(std::int32_t v) { return u32(static_cast<std::uint32_t>(v)); }
  bool i64(std::int64_t v) { return u64(static_cast<std::uint64_t>(v)); }
  bool f64(double v) { return u64(std::bit_cast<std::uint64_t>(v)); }
  bool boolean(bool v) { return u8(v ? 1 : 0); }
  template <class E>
    requires std::is_enum_v<E>
  bool enumeration(E v) {
    return u32(static_cast<std::uint32_t>(v));
  }
  bool str(std::string_view s) {
    u64(s.size());
    out_.insert(out_.end(), s.begin(), s.end());
    return true;
  }
  void bytes(std::span<const unsigned char> b) {
    out_.insert(out_.end(), b.begin(), b.end());
  }
  /// Append the FNV-1a of everything written so far (see unseal).
  void seal() { u64(fnv1a(out_)); }

  /// Writes each field in order (see io below).
  template <class... T>
  bool operator()(const T&... fields) {
    return (io(*this, fields) && ...);
  }
  /// A decoder's semantic check: an encoder writes what it is given.
  bool check(bool) { return true; }

  void reserve(std::size_t n) { out_.reserve(n); }
  [[nodiscard]] std::size_t size() const { return out_.size(); }
  [[nodiscard]] std::span<const unsigned char> view() const { return out_; }
  [[nodiscard]] std::vector<unsigned char> take() && {
    return std::move(out_);
  }

 private:
  template <class U>
  bool put(U v) {
    unsigned char b[sizeof(U)];
    for (std::size_t i = 0; i < sizeof(U); ++i) {
      b[i] = static_cast<unsigned char>(v >> (8 * i));
    }
    out_.insert(out_.end(), b, b + sizeof(U));
    return true;
  }

  std::vector<unsigned char> out_;
};

/// Bounds-checked little-endian decoder over a span. Every accessor
/// reports failure by returning false and latching ok(): after the first
/// failure every later read fails too.
class Reader {
 public:
  explicit Reader(std::span<const unsigned char> bytes) : bytes_(bytes) {}

  [[nodiscard]] bool u8(std::uint8_t& v) {
    if (!ok_ || remaining() < 1) return fail();
    v = bytes_[at_++];
    return true;
  }
  [[nodiscard]] bool u32(std::uint32_t& v) { return get(v); }
  [[nodiscard]] bool u64(std::uint64_t& v) { return get(v); }
  [[nodiscard]] bool i32(std::int32_t& v) {
    std::uint32_t u = 0;
    if (!u32(u)) return false;
    v = static_cast<std::int32_t>(u);
    return true;
  }
  [[nodiscard]] bool i64(std::int64_t& v) {
    std::uint64_t u = 0;
    if (!u64(u)) return false;
    v = static_cast<std::int64_t>(u);
    return true;
  }
  [[nodiscard]] bool f64(double& v) {
    std::uint64_t u = 0;
    if (!u64(u)) return false;
    v = std::bit_cast<double>(u);
    return true;
  }
  /// Strict boolean: exactly 0 or 1 (any other byte is garbage, reject).
  [[nodiscard]] bool boolean(bool& v) {
    std::uint8_t b = 0;
    if (!u8(b)) return false;
    if (b > 1) return fail();
    v = b != 0;
    return true;
  }
  /// An enum no greater than the last enumerator its header names: the
  /// `enum_last(E)` found by argument-dependent lookup.
  template <class E>
    requires std::is_enum_v<E>
  [[nodiscard]] bool enumeration(E& v) {
    std::uint32_t raw = 0;
    if (!u32(raw)) return false;
    if (raw > static_cast<std::uint32_t>(enum_last(E{}))) return fail();
    v = static_cast<E>(raw);
    return true;
  }
  [[nodiscard]] bool str(std::string& s) {
    std::uint64_t len = 0;
    if (!u64(len)) return false;
    if (len > remaining()) return fail();
    s.assign(reinterpret_cast<const char*>(bytes_.data() + at_),
             static_cast<std::size_t>(len));
    at_ += static_cast<std::size_t>(len);
    return true;
  }
  /// Element count whose elements occupy at least `min_bytes` each: a
  /// count the remaining bytes cannot possibly hold is rejected BEFORE any
  /// allocation sized by it.
  [[nodiscard]] bool count(std::uint64_t& n, std::size_t min_bytes) {
    if (!u64(n)) return false;
    if (n > remaining() / std::max<std::size_t>(min_bytes, 1)) return fail();
    return true;
  }

  /// Reads each field in order (see io below); false at the first failure.
  template <class... T>
  [[nodiscard]] bool operator()(T&&... fields) {
    return (io(*this, fields) && ...);
  }
  /// A semantic check on fields already read: fails the read unless `ok`.
  [[nodiscard]] bool check(bool ok) { return ok || fail(); }

  [[nodiscard]] std::size_t remaining() const { return bytes_.size() - at_; }
  [[nodiscard]] bool ok() const { return ok_; }
  /// True iff every read succeeded AND consumed the input exactly.
  [[nodiscard]] bool done() const { return ok_ && at_ == bytes_.size(); }
  bool fail() {
    ok_ = false;
    return false;
  }

 private:
  template <class U>
  [[nodiscard]] bool get(U& v) {
    if (!ok_ || remaining() < sizeof(U)) return fail();
    // Assembled in a local: stores through `v` may alias the input bytes.
    U x = 0;
    for (std::size_t i = 0; i < sizeof(U); ++i) {
      x |= static_cast<U>(bytes_[at_ + i]) << (8 * i);
    }
    v = x;
    at_ += sizeof(U);
    return true;
  }

  std::span<const unsigned char> bytes_;
  std::size_t at_ = 0;
  bool ok_ = true;
};

/// Inverse of Writer::seal: the body of `image` when its trailing 8 bytes
/// are the FNV-1a of everything before them, else nullopt. Callers check
/// the seal FIRST, so no flipped or missing byte ever steers a parse.
[[nodiscard]] inline std::optional<std::span<const unsigned char>> unseal(
    std::span<const unsigned char> image) {
  if (image.size() < 8) return std::nullopt;
  const std::span<const unsigned char> body = image.first(image.size() - 8);
  Reader trailer(image.last(8));
  std::uint64_t sum = 0;
  if (!trailer.u64(sum) || sum != fnv1a(body)) return std::nullopt;
  return body;
}

// ---------------------------------------------------------------------------
// Traversals. `io(a, v)` writes v when `a` is a Writer (v const) and reads
// it when `a` is a Reader.

/// S is T, const or not: what a traversal of T accepts.
template <class S, class T>
concept Of = std::same_as<std::remove_const_t<S>, T>;

template <class T>
concept Leaf = std::is_arithmetic_v<T> || std::is_enum_v<T> ||
               std::same_as<T, std::string>;

/// A leaf field is encoded by its C++ type.
template <class A, class T>
  requires Leaf<std::remove_const_t<T>>
bool io(A& a, T& v) {
  using U = std::remove_const_t<T>;
  if constexpr (std::same_as<U, bool>) {
    return a.boolean(v);
  } else if constexpr (std::is_enum_v<U>) {
    return a.enumeration(v);
  } else if constexpr (std::same_as<U, std::string>) {
    return a.str(v);
  } else if constexpr (std::same_as<U, double>) {
    return a.f64(v);
  } else if constexpr (std::same_as<U, std::int32_t>) {
    return a.i32(v);
  } else if constexpr (std::same_as<U, std::int64_t>) {
    return a.i64(v);
  } else if constexpr (std::same_as<U, std::uint32_t>) {
    return a.u32(v);
  } else {
    static_assert(std::same_as<U, std::uint64_t>,
                  "no wire type for this field: wrap it in as<W>()");
    return a.u64(v);
  }
}

/// A field whose wire type W differs from its C++ type T: written as W,
/// and read back only when the value fits T.
template <class W, class T>
struct As {
  T& v;
};
template <class W, class T>
[[nodiscard]] constexpr As<W, T> as(T& v) {
  return {v};
}
template <class W, class T>
bool io(Writer& w, const As<W, T>& f) {
  return w(static_cast<W>(f.v));
}
template <class W, class T>
bool io(Reader& r, const As<W, T>& f) {
  W wide{};
  if (!r(wide)) return false;
  if (!std::in_range<T>(wide)) return r.fail();
  f.v = static_cast<T>(wide);
  return true;
}

/// A sequence: its count, then its elements.
template <class T>
bool io(Writer& w, std::span<const T> s) {
  w.u64(s.size());
  for (const T& e : s) w(e);
  return true;
}
template <class T>
bool io(Writer& w, const std::vector<T>& v) {
  return io(w, std::span<const T>(v));
}

/// Bytes a value-initialised T encodes to: the least any T takes, which
/// bounds a decoded count before the sequence is allocated.
template <class T>
[[nodiscard]] std::size_t min_encoded_size() {
  static const std::size_t size = [] {
    const T v{};
    Writer w;
    w(v);
    return w.size();
  }();
  return size;
}

template <class T>
bool io(Reader& r, std::vector<T>& v) {
  std::uint64_t n = 0;
  if (!r.count(n, min_encoded_size<T>())) return false;
  v.resize(static_cast<std::size_t>(n));
  for (T& e : v) {
    if (!r(e)) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Shared domain types.

template <class A, Of<fault::CampaignStats> S>
bool io(A& a, S& s) {
  return a(s.silent_correct, s.detected_correct, s.detected_erroneous,
           s.masked);
}

template <class A, Of<hls::UnitCoverage> U>
bool io(A& a, U& u) {
  // FU indices, then SEU pseudo-units after them: never negative.
  return a(as<std::int64_t>(u.fu_index), u.fu_name, u.faults, u.stats) &&
         a.check(u.fu_index >= 0);
}

/// The store entry payload.
template <class A, Of<hls::NetlistCampaignResult> R>
bool io(A& a, R& v) {
  return a(v.fault_universe_size, v.aggregate, v.per_unit);
}

template <class A, Of<hls::FaultJob> J>
bool io(A& a, J& job) {
  // kSeu: fu names a register index and seu_bit a bit within kMaxWidth;
  // kStuckAt keeps the sentinel, so job equality round-trips.
  return a(job.fu, job.site.cell, as<std::uint32_t>(job.site.line),
           job.site.stuck_value, job.kind, job.seu_bit) &&
         a.check(job.fu >= 0 && job.site.cell >= hw::kNoFault &&
                 (job.kind == hls::FaultKind::kSeu
                      ? job.seu_bit >= 0 && job.seu_bit < kMaxWidth
                      : job.seu_bit == -1));
}

/// The node array in id order; the decoder replays the builders, so the
/// port lists are reconstructed, and validates every op, width, arity and
/// operand reference before the builder that would assert on it runs.
bool io(Writer& w, const hls::Dfg& g);
[[nodiscard]] bool io(Reader& r, hls::Dfg& g);

bool io(Writer& w, const hls::Netlist& n);
[[nodiscard]] bool io(Reader& r, hls::Netlist& n);

/// Every option that shapes a campaign's result bits: exactly what the
/// store fingerprint hashes.
template <class A, Of<hls::NetlistCampaignOptions> O>
bool result_key(A& a, O& o) {
  return a(o.samples_per_fault, o.seed, o.fault_stride, o.fault_dropping,
           o.duration, o.transient_samples, o.duty_permille, o.seu_faults);
}

/// The result key, then the execution settings (threads, lanes, backend)
/// that the differential suites prove cannot change a bit. Decoding fails
/// unless hls::validate accepts the options.
template <class A, Of<hls::NetlistCampaignOptions> O>
bool io(A& a, O& o) {
  return result_key(a, o) && a(o.threads, o.lanes, o.backend) &&
         a.check(hls::validate(o).empty());
}

}  // namespace sck::codec
