// Plane words: the lane dimension of the bit-plane substrate, templated.
//
// A *plane* is one bit per lane of a batch ("this lane's check failed",
// "bit i of lane L's operand", ...). Historically the plane word was
// hard-wired to uint64_t, so every batch carried exactly 64 trials — an
// accident of the machine word size. This header abstracts the plane word
// behind a small trait so the whole substrate (hw/batch.h and everything
// above it) is generic over the lane count:
//
//   Plane64            uint64_t — the bit-identity reference (64 lanes).
//   PlaneN<K>          K packed uint64_t words (64*K lanes). Plain loops
//                      over std::array, written so -O2 auto-vectorizes them
//                      with whatever ISA the build enables.
//
// The supported widths are exactly {64, 128, 256, 512}: Plane64, Plane128,
// Plane256, Plane512. Lane packing is block-wise: lane L lives in 64-bit
// word L/64 at bit L%64, so every width is a concatenation of 64-lane
// blocks and any per-lane computation is width-invariant by construction.
//
// Lane-count selection is a runtime decision made once per campaign:
// resolve_lanes() honours an explicit option, else takes kDefaultLanes.
// The width only changes how many faults share a batch — never a single
// result bit; the differential suites hold every width bit-identical to
// the 64-lane reference.
#pragma once

#include <array>
#include <bit>
#include <cstdint>

#include "common/assert.h"

namespace sck::hw {

/// Portable multi-word plane: K packed 64-bit blocks, 64*K lanes. All ops
/// are straight-line loops over the array so the optimizer can vectorize
/// them without any ISA-specific code.
template <int K>
struct PlaneN {
  static_assert(K >= 2, "use Plane64 (uint64_t) for the single-word case");
  std::array<std::uint64_t, K> w{};

  friend constexpr PlaneN operator~(const PlaneN& a) {
    PlaneN r;
    for (int i = 0; i < K; ++i) r.w[i] = ~a.w[i];
    return r;
  }
  friend constexpr PlaneN operator&(const PlaneN& a, const PlaneN& b) {
    PlaneN r;
    for (int i = 0; i < K; ++i) r.w[i] = a.w[i] & b.w[i];
    return r;
  }
  friend constexpr PlaneN operator|(const PlaneN& a, const PlaneN& b) {
    PlaneN r;
    for (int i = 0; i < K; ++i) r.w[i] = a.w[i] | b.w[i];
    return r;
  }
  friend constexpr PlaneN operator^(const PlaneN& a, const PlaneN& b) {
    PlaneN r;
    for (int i = 0; i < K; ++i) r.w[i] = a.w[i] ^ b.w[i];
    return r;
  }
  constexpr PlaneN& operator&=(const PlaneN& o) {
    for (int i = 0; i < K; ++i) w[i] &= o.w[i];
    return *this;
  }
  constexpr PlaneN& operator|=(const PlaneN& o) {
    for (int i = 0; i < K; ++i) w[i] |= o.w[i];
    return *this;
  }
  constexpr PlaneN& operator^=(const PlaneN& o) {
    for (int i = 0; i < K; ++i) w[i] ^= o.w[i];
    return *this;
  }
  friend constexpr bool operator==(const PlaneN& a, const PlaneN& b) {
    for (int i = 0; i < K; ++i) {
      if (a.w[i] != b.w[i]) return false;
    }
    return true;
  }
};

/// The supported plane aliases.
using Plane64 = std::uint64_t;
using Plane128 = PlaneN<2>;
using Plane256 = PlaneN<4>;
using Plane512 = PlaneN<8>;

/// Per-plane-type operations the generic substrate needs beyond the bitwise
/// operators. Block discipline: word i holds lanes [64*i, 64*i + 64).
template <typename P>
struct PlaneTraits;

template <>
struct PlaneTraits<std::uint64_t> {
  static constexpr int kWords = 1;
  static constexpr int kLanes = 64;

  [[nodiscard]] static constexpr std::uint64_t zero() { return 0; }
  [[nodiscard]] static constexpr std::uint64_t ones() { return ~0ULL; }
  [[nodiscard]] static constexpr bool any(std::uint64_t p) { return p != 0; }
  [[nodiscard]] static constexpr int popcount(std::uint64_t p) {
    return std::popcount(p);
  }
  [[nodiscard]] static constexpr std::uint64_t word(std::uint64_t p, int) {
    return p;
  }
  static constexpr void set_word(std::uint64_t& p, int, std::uint64_t v) {
    p = v;
  }
};

template <int K>
struct PlaneTraits<PlaneN<K>> {
  static constexpr int kWords = K;
  static constexpr int kLanes = 64 * K;

  [[nodiscard]] static constexpr PlaneN<K> zero() { return PlaneN<K>{}; }
  [[nodiscard]] static constexpr PlaneN<K> ones() {
    PlaneN<K> p;
    for (int i = 0; i < K; ++i) p.w[i] = ~0ULL;
    return p;
  }
  [[nodiscard]] static constexpr bool any(const PlaneN<K>& p) {
    std::uint64_t acc = 0;
    for (int i = 0; i < K; ++i) acc |= p.w[i];
    return acc != 0;
  }
  [[nodiscard]] static constexpr int popcount(const PlaneN<K>& p) {
    int n = 0;
    for (int i = 0; i < K; ++i) n += std::popcount(p.w[i]);
    return n;
  }
  [[nodiscard]] static constexpr std::uint64_t word(const PlaneN<K>& p,
                                                    int i) {
    return p.w[static_cast<std::size_t>(i)];
  }
  static constexpr void set_word(PlaneN<K>& p, int i, std::uint64_t v) {
    p.w[static_cast<std::size_t>(i)] = v;
  }
};

// ---- generic plane helpers -------------------------------------------------

template <typename P>
[[nodiscard]] constexpr P plane_zero() {
  return PlaneTraits<P>::zero();
}

template <typename P>
[[nodiscard]] constexpr P plane_ones() {
  return PlaneTraits<P>::ones();
}

/// Any lane set?
template <typename P>
[[nodiscard]] constexpr bool plane_any(const P& p) {
  return PlaneTraits<P>::any(p);
}

/// Number of set lanes.
template <typename P>
[[nodiscard]] constexpr int plane_popcount(const P& p) {
  return PlaneTraits<P>::popcount(p);
}

/// Bit of lane `lane`.
template <typename P>
[[nodiscard]] constexpr bool plane_test(const P& p, int lane) {
  return ((PlaneTraits<P>::word(p, lane / 64) >> (lane % 64)) & 1u) != 0;
}

/// Plane with exactly lane `lane` set.
template <typename P>
[[nodiscard]] constexpr P plane_bit(int lane) {
  P p = PlaneTraits<P>::zero();
  PlaneTraits<P>::set_word(p, lane / 64, std::uint64_t{1} << (lane % 64));
  return p;
}

/// Plane with the low `count` lanes set (count in [0, kLanes]).
template <typename P>
[[nodiscard]] constexpr P plane_prefix(int count) {
  P p = PlaneTraits<P>::zero();
  for (int i = 0; i < PlaneTraits<P>::kWords; ++i) {
    const int lo = 64 * i;
    if (count >= lo + 64) {
      PlaneTraits<P>::set_word(p, i, ~0ULL);
    } else if (count > lo) {
      PlaneTraits<P>::set_word(p, i,
                               (std::uint64_t{1} << (count - lo)) - 1);
    }
  }
  return p;
}

/// Broadcast a scalar bit to all lanes.
template <typename P>
[[nodiscard]] constexpr P plane_broadcast(unsigned bit_value) {
  return bit_value ? PlaneTraits<P>::ones() : PlaneTraits<P>::zero();
}

/// plane_index<P>(j) bit L == bit j of the lane index L — the planes of the
/// identity packing "lane L carries value L" at any width. For j < 6 every
/// 64-lane block repeats the same pattern; for j >= 6 the bit comes from
/// the block index, so word w broadcasts bit (j - 6) of w.
template <typename P>
[[nodiscard]] constexpr P plane_index(int j) {
  constexpr std::uint64_t kBlockPattern[6] = {
      0xAAAA'AAAA'AAAA'AAAAULL, 0xCCCC'CCCC'CCCC'CCCCULL,
      0xF0F0'F0F0'F0F0'F0F0ULL, 0xFF00'FF00'FF00'FF00ULL,
      0xFFFF'0000'FFFF'0000ULL, 0xFFFF'FFFF'0000'0000ULL};
  P p = PlaneTraits<P>::zero();
  for (int w = 0; w < PlaneTraits<P>::kWords; ++w) {
    const std::uint64_t word =
        j < 6 ? kBlockPattern[j]
              : (((static_cast<unsigned>(w) >> (j - 6)) & 1u) ? ~0ULL : 0ULL);
    PlaneTraits<P>::set_word(p, w, word);
  }
  return p;
}

// ---- runtime lane-count selection ------------------------------------------

/// True iff `lanes` is a plane width this build supports.
[[nodiscard]] constexpr bool lanes_supported(int lanes) {
  return lanes == 64 || lanes == 128 || lanes == 256 || lanes == 512;
}

/// Default lane count when a campaign does not request one. Every width
/// yields the same result bits; this only sets how many faults share a
/// batch.
inline constexpr int kDefaultLanes = 512;

/// Resolve a campaign's lane count, once per campaign: an explicit
/// `requested` wins, else kDefaultLanes. An explicit value must name a
/// supported width exactly — silently snapping 100 lanes to 128 would
/// misreport what was measured.
///
/// The netlist campaign engine treats the result as a maximum: a
/// multi-threaded call with fewer than 2 x threads x lanes jobs runs on
/// narrower planes so every thread gets two batches
/// (hls::CampaignSliceRunner::run_jobs).
[[nodiscard]] inline int resolve_lanes(int requested) {
  if (requested <= 0) return kDefaultLanes;
  SCK_EXPECTS(lanes_supported(requested));
  return requested;
}

}  // namespace sck::hw
