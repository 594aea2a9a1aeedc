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
//   Plane256Avx /      intrinsic-backed 256/512-lane planes, compiled only
//   Plane512Avx        where -mavx2 / -mavx512f are on (__AVX2__ /
//                      __AVX512F__); bit-for-bit interchangeable with the
//                      portable PlaneN of the same width.
//
// The supported widths are exactly {64, 128, 256, 512}: Plane64, Plane128,
// Plane256, Plane512 (the latter two resolve to the intrinsic types when
// the build enables them, else to PlaneN). Lane packing is block-wise: lane
// L lives in 64-bit word L/64 at bit L%64, so every width is a
// concatenation of 64-lane blocks and any per-lane computation is
// width-invariant by construction.
//
// Lane-count selection is a runtime decision made once per campaign:
// resolve_lanes() honours an explicit option, then the SCK_LANES
// environment variable, then picks a default from the CPU (wider planes on
// wider-vector machines). The width only changes how many faults share a
// batch — never a single result bit; the differential suites hold every
// width bit-identical to the 64-lane reference.
#pragma once

#include <array>
#include <bit>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/assert.h"

#if defined(__AVX2__) || defined(__AVX512F__)
#include <immintrin.h>
#endif

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

#if defined(__AVX2__)
/// 256-lane plane backed by one AVX2 register. The per-lane accessors spill
/// through memory — they sit on batch boundaries, not in the cell-eval hot
/// loop, where only the bitwise operators run.
struct Plane256Avx {
  __m256i v = _mm256_setzero_si256();

  Plane256Avx() = default;
  explicit Plane256Avx(__m256i x) : v(x) {}

  friend Plane256Avx operator~(const Plane256Avx& a) {
    return Plane256Avx{_mm256_xor_si256(a.v, _mm256_set1_epi64x(-1))};
  }
  friend Plane256Avx operator&(const Plane256Avx& a, const Plane256Avx& b) {
    return Plane256Avx{_mm256_and_si256(a.v, b.v)};
  }
  friend Plane256Avx operator|(const Plane256Avx& a, const Plane256Avx& b) {
    return Plane256Avx{_mm256_or_si256(a.v, b.v)};
  }
  friend Plane256Avx operator^(const Plane256Avx& a, const Plane256Avx& b) {
    return Plane256Avx{_mm256_xor_si256(a.v, b.v)};
  }
  Plane256Avx& operator&=(const Plane256Avx& o) {
    v = _mm256_and_si256(v, o.v);
    return *this;
  }
  Plane256Avx& operator|=(const Plane256Avx& o) {
    v = _mm256_or_si256(v, o.v);
    return *this;
  }
  Plane256Avx& operator^=(const Plane256Avx& o) {
    v = _mm256_xor_si256(v, o.v);
    return *this;
  }
  friend bool operator==(const Plane256Avx& a, const Plane256Avx& b) {
    const __m256i diff = _mm256_xor_si256(a.v, b.v);
    return _mm256_testz_si256(diff, diff) != 0;
  }
};
#endif  // __AVX2__

#if defined(__AVX512F__)
/// 512-lane plane backed by one AVX-512 register.
struct Plane512Avx {
  __m512i v = _mm512_setzero_si512();

  Plane512Avx() = default;
  explicit Plane512Avx(__m512i x) : v(x) {}

  friend Plane512Avx operator~(const Plane512Avx& a) {
    return Plane512Avx{_mm512_xor_si512(a.v, _mm512_set1_epi64(-1))};
  }
  friend Plane512Avx operator&(const Plane512Avx& a, const Plane512Avx& b) {
    return Plane512Avx{_mm512_and_si512(a.v, b.v)};
  }
  friend Plane512Avx operator|(const Plane512Avx& a, const Plane512Avx& b) {
    return Plane512Avx{_mm512_or_si512(a.v, b.v)};
  }
  friend Plane512Avx operator^(const Plane512Avx& a, const Plane512Avx& b) {
    return Plane512Avx{_mm512_xor_si512(a.v, b.v)};
  }
  Plane512Avx& operator&=(const Plane512Avx& o) {
    v = _mm512_and_si512(v, o.v);
    return *this;
  }
  Plane512Avx& operator|=(const Plane512Avx& o) {
    v = _mm512_or_si512(v, o.v);
    return *this;
  }
  Plane512Avx& operator^=(const Plane512Avx& o) {
    v = _mm512_xor_si512(v, o.v);
    return *this;
  }
  friend bool operator==(const Plane512Avx& a, const Plane512Avx& b) {
    return _mm512_test_epi64_mask(_mm512_xor_si512(a.v, b.v),
                                  _mm512_xor_si512(a.v, b.v)) == 0;
  }
};
#endif  // __AVX512F__

/// The supported plane aliases. Plane256/Plane512 pick the intrinsic
/// backing when the build enables it; either backing produces identical
/// bits, so the choice is invisible to everything above the trait.
using Plane64 = std::uint64_t;
using Plane128 = PlaneN<2>;
#if defined(__AVX2__)
using Plane256 = Plane256Avx;
#else
using Plane256 = PlaneN<4>;
#endif
#if defined(__AVX512F__)
using Plane512 = Plane512Avx;
#else
using Plane512 = PlaneN<8>;
#endif

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

#if defined(__AVX2__)
template <>
struct PlaneTraits<Plane256Avx> {
  static constexpr int kWords = 4;
  static constexpr int kLanes = 256;

  [[nodiscard]] static Plane256Avx zero() { return Plane256Avx{}; }
  [[nodiscard]] static Plane256Avx ones() {
    return Plane256Avx{_mm256_set1_epi64x(-1)};
  }
  [[nodiscard]] static bool any(const Plane256Avx& p) {
    return _mm256_testz_si256(p.v, p.v) == 0;
  }
  [[nodiscard]] static int popcount(const Plane256Avx& p) {
    alignas(32) std::uint64_t w[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(w), p.v);
    return std::popcount(w[0]) + std::popcount(w[1]) + std::popcount(w[2]) +
           std::popcount(w[3]);
  }
  [[nodiscard]] static std::uint64_t word(const Plane256Avx& p, int i) {
    alignas(32) std::uint64_t w[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(w), p.v);
    return w[i];
  }
  static void set_word(Plane256Avx& p, int i, std::uint64_t v) {
    alignas(32) std::uint64_t w[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(w), p.v);
    w[i] = v;
    p.v = _mm256_load_si256(reinterpret_cast<const __m256i*>(w));
  }
};
#endif  // __AVX2__

#if defined(__AVX512F__)
template <>
struct PlaneTraits<Plane512Avx> {
  static constexpr int kWords = 8;
  static constexpr int kLanes = 512;

  [[nodiscard]] static Plane512Avx zero() { return Plane512Avx{}; }
  [[nodiscard]] static Plane512Avx ones() {
    return Plane512Avx{_mm512_set1_epi64(-1)};
  }
  [[nodiscard]] static bool any(const Plane512Avx& p) {
    return _mm512_test_epi64_mask(p.v, p.v) != 0;
  }
  [[nodiscard]] static int popcount(const Plane512Avx& p) {
    alignas(64) std::uint64_t w[8];
    _mm512_store_si512(reinterpret_cast<__m512i*>(w), p.v);
    int n = 0;
    for (int i = 0; i < 8; ++i) n += std::popcount(w[i]);
    return n;
  }
  [[nodiscard]] static std::uint64_t word(const Plane512Avx& p, int i) {
    alignas(64) std::uint64_t w[8];
    _mm512_store_si512(reinterpret_cast<__m512i*>(w), p.v);
    return w[i];
  }
  static void set_word(Plane512Avx& p, int i, std::uint64_t v) {
    alignas(64) std::uint64_t w[8];
    _mm512_store_si512(reinterpret_cast<__m512i*>(w), p.v);
    w[i] = v;
    p.v = _mm512_load_si512(reinterpret_cast<const __m512i*>(w));
  }
};
#endif  // __AVX512F__

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

/// CPU-derived default lane count: wider planes on wider-vector machines.
/// Portable PlaneN serves every width on every CPU — the probe only picks
/// how much work one batch should carry, it never changes a result bit.
[[nodiscard]] inline int default_lanes() {
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx512f")) return 512;
  if (__builtin_cpu_supports("avx2")) return 256;
#endif
  return 128;
}

/// Resolve a campaign's lane count, once per campaign: an explicit
/// `requested` wins, then the SCK_LANES environment variable, then the CPU
/// default. Explicit values (option or environment) must name a supported
/// width exactly — silently snapping 100 lanes to 128 would misreport what
/// was measured, and a typo'd SCK_LANES silently parsing to 0 (the old
/// std::atoi behaviour) would misreport it as "CPU default, on purpose".
/// Malformed values therefore abort with the offending text.
///
/// The netlist campaign engine treats the result as a maximum: a call with
/// fewer than threads x lanes jobs runs on narrower planes so every thread
/// gets a batch (hls::CampaignSliceRunner::run_jobs).
[[nodiscard]] inline int resolve_lanes(int requested) {
  int lanes = requested;
  if (lanes <= 0) {
    const char* env = std::getenv("SCK_LANES");
    if (env != nullptr && env[0] != '\0') {
      int parsed = 0;
      const char* end = env + std::char_traits<char>::length(env);
      const auto [ptr, ec] = std::from_chars(env, end, parsed);
      if (ec != std::errc{} || ptr != end || !lanes_supported(parsed)) {
        std::fprintf(stderr,
                     "SCK_LANES=\"%s\" is not a supported lane count "
                     "(expected 64, 128, 256 or 512)\n",
                     env);
        std::abort();
      }
      lanes = parsed;
    }
  }
  if (lanes <= 0) return default_lanes();
  SCK_EXPECTS(lanes_supported(lanes));
  return lanes;
}

}  // namespace sck::hw
