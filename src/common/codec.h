// The one canonical byte codec. Wire frames (service/wire.cpp), store
// entries (store/store.cpp), journal files (store/journal.cpp) and campaign
// fingerprints (store/fingerprint.cpp) all write and read the shared domain
// types through this header, so a field added here reaches every format —
// and the fingerprint hashes exactly the bytes the wire ships.
//
// Encoding: integers are fixed-width little-endian, enums are u32,
// booleans one byte (0 or 1), strings and sequences a u64 count followed
// by their elements. A sealed image is a body followed by the u64 FNV-1a
// of that body.
//
// Decoding never trusts its input: Reader bounds-checks every read and
// latches the first failure, element counts are capped by the bytes left
// BEFORE anything is allocated, and the domain decoders validate every
// enum, index and arity, so malformed bytes yield a clean `false` — never
// UB, an abort, or a half-valid object the engine would assert on.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

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

/// Append-only little-endian encoder.
class Writer {
 public:
  void u8(std::uint8_t v) { out_.push_back(v); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  template <class E>
    requires std::is_enum_v<E>
  void enumeration(E v) {
    u32(static_cast<std::uint32_t>(v));
  }
  void str(std::string_view s) {
    u64(s.size());
    out_.insert(out_.end(), s.begin(), s.end());
  }
  void bytes(std::span<const unsigned char> b) {
    out_.insert(out_.end(), b.begin(), b.end());
  }
  /// Append the FNV-1a of everything written so far (see unseal).
  void seal() { u64(fnv1a(out_)); }

  void reserve(std::size_t n) { out_.reserve(n); }
  [[nodiscard]] std::size_t size() const { return out_.size(); }
  [[nodiscard]] std::span<const unsigned char> view() const { return out_; }
  [[nodiscard]] std::vector<unsigned char> take() && {
    return std::move(out_);
  }

 private:
  template <class U>
  void put(U v) {
    unsigned char b[sizeof(U)];
    for (std::size_t i = 0; i < sizeof(U); ++i) {
      b[i] = static_cast<unsigned char>(v >> (8 * i));
    }
    out_.insert(out_.end(), b, b + sizeof(U));
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
  /// An enum no greater than `last`. The default bound only requires the
  /// value to fit the enum's underlying type, for callers that range-check
  /// later (hls::validate does so for the campaign options).
  template <class E>
    requires std::is_enum_v<E>
  [[nodiscard]] bool enumeration(
      E& v, E last = static_cast<E>(
                std::numeric_limits<std::underlying_type_t<E>>::max())) {
    std::uint32_t raw = 0;
    if (!u32(raw)) return false;
    if (raw > static_cast<std::uint32_t>(last)) return fail();
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
    v = 0;
    for (std::size_t i = 0; i < sizeof(U); ++i) {
      v |= static_cast<U>(bytes_[at_ + i]) << (8 * i);
    }
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
// Shared domain types. Each get_* is the strict inverse of its put_*.

inline void put_stats(Writer& w, const fault::CampaignStats& s) {
  w.u64(s.silent_correct);
  w.u64(s.detected_correct);
  w.u64(s.detected_erroneous);
  w.u64(s.masked);
}
[[nodiscard]] inline bool get_stats(Reader& r, fault::CampaignStats& s) {
  return r.u64(s.silent_correct) && r.u64(s.detected_correct) &&
         r.u64(s.detected_erroneous) && r.u64(s.masked);
}

/// Layout of the store entry payload (fu_index as i64).
void put_result(Writer& w, const hls::NetlistCampaignResult& v);
[[nodiscard]] bool get_result(Reader& r, hls::NetlistCampaignResult& v);

/// The node array in id order; the decoder replays the builders, so the
/// port lists are reconstructed, and validates every op, width, arity and
/// operand reference before the builder that would assert on it runs.
void put_dfg(Writer& w, const hls::Dfg& g);
[[nodiscard]] bool get_dfg(Reader& r, hls::Dfg& g);

void put_netlist(Writer& w, const hls::Netlist& n);
[[nodiscard]] bool get_netlist(Reader& r, hls::Netlist& n);

/// Every option that shapes a campaign's result bits: exactly what the
/// store fingerprint hashes. The rest of the options (threads, lanes,
/// backend) are execution settings that the differential suites prove
/// cannot change a bit.
void put_result_key(Writer& w, const hls::NetlistCampaignOptions& o);

/// put_result_key followed by the execution settings.
void put_options(Writer& w, const hls::NetlistCampaignOptions& o);
/// Inverse of put_options; fails unless hls::validate accepts the result.
[[nodiscard]] bool get_options(Reader& r, hls::NetlistCampaignOptions& o);

}  // namespace sck::codec
