// n-bit machine words for the functional hardware models.
//
// All data-path units in src/hw operate on two's-complement ring values of a
// configurable width n (1..kMaxWidth), carried in the low bits of a uint64_t.
// Addition, subtraction and multiplication are ring operations, so the same
// model serves signed and unsigned interpretations; helpers below convert
// between the ring representation and host int64_t when a signed reading is
// needed (e.g. for division and for printing).
#pragma once

#include <cstdint>

#include "common/assert.h"

namespace sck {

/// Raw n-bit word; only the low `width` bits are meaningful.
using Word = std::uint64_t;

/// Widest word the functional models accept. 32 keeps double-width products
/// (needed by the array multiplier) inside uint64_t.
inline constexpr int kMaxWidth = 32;

/// Bit mask with the low `width` bits set.
[[nodiscard]] constexpr Word mask(int width) {
  SCK_EXPECTS(width >= 1 && width <= kMaxWidth);
  return (width == 64) ? ~Word{0} : ((Word{1} << width) - 1);
}

/// Truncate a value to the n-bit ring.
[[nodiscard]] constexpr Word trunc(Word v, int width) { return v & mask(width); }

/// Bit `i` of `v` as 0/1.
[[nodiscard]] constexpr unsigned bit(Word v, int i) {
  return static_cast<unsigned>((v >> i) & 1u);
}

/// Two's-complement negation in the n-bit ring.
[[nodiscard]] constexpr Word neg(Word v, int width) {
  return trunc(~v + 1, width);
}

/// Ring addition / subtraction (reference semantics for the hw models).
[[nodiscard]] constexpr Word add(Word a, Word b, int width) {
  return trunc(a + b, width);
}
[[nodiscard]] constexpr Word sub(Word a, Word b, int width) {
  return trunc(a - b, width);
}
[[nodiscard]] constexpr Word mul(Word a, Word b, int width) {
  return trunc(a * b, width);
}

/// Interpret an n-bit ring value as a signed integer in [-2^(n-1), 2^(n-1)).
[[nodiscard]] constexpr std::int64_t to_signed(Word v, int width) {
  const Word m = mask(width);
  v &= m;
  const Word sign_bit = Word{1} << (width - 1);
  if (v & sign_bit) {
    return static_cast<std::int64_t>(v | ~m);
  }
  return static_cast<std::int64_t>(v);
}

/// Encode a host signed integer into the n-bit ring (truncating).
[[nodiscard]] constexpr Word from_signed(std::int64_t v, int width) {
  return trunc(static_cast<Word>(v), width);
}

}  // namespace sck
