// Checker-side comparators.
//
// The comparison that closes every self-checking operator (`op2 == op2'`,
// `0 == ris + ris'`, ...) belongs to the *checker*, not to the data path.
// Classical self-checking design builds checkers as totally self-checking
// (TSC) two-rail structures whose own faults are detected by construction;
// that literature is orthogonal to this paper, whose fault model places the
// failure in one arithmetic functional unit. We therefore model comparators
// as fault-free, and document the assumption here.
#pragma once

#include "common/word.h"
#include "hw/batch.h"

namespace sck::hw {

/// Equality checker over n-bit words (fault-free by assumption).
[[nodiscard]] constexpr bool equal(Word a, Word b, int width) {
  return trunc(a, width) == trunc(b, width);
}

/// Zero checker over n-bit words (fault-free by assumption).
[[nodiscard]] constexpr bool is_zero(Word a, int width) {
  return trunc(a, width) == 0;
}

/// Lane-wise equality over lane-packed words (fault-free by assumption).
template <typename P>
[[nodiscard]] inline P equal_batch(const BatchWordT<P>& a,
                                   const BatchWordT<P>& b, int width) {
  P diff{};
  for (int i = 0; i < width; ++i) diff |= a[i] ^ b[i];
  return ~diff;
}

/// Lane-wise zero test over a lane-packed word (fault-free by assumption).
template <typename P>
[[nodiscard]] inline P is_zero_batch(const BatchWordT<P>& a, int width) {
  P any{};
  for (int i = 0; i < width; ++i) any |= a[i];
  return ~any;
}

}  // namespace sck::hw
