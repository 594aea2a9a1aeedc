// Ripple-carry adder/subtractor unit built from full-adder cells.
//
// This is the unit analysed in the paper's §4.1: n chained full adders; the
// subtraction path applies the g-function (one's complement of the second
// operand) and feeds a 1 on the carry-in so the same chain works in two's
// complement — exactly the arrangement the paper describes for the (+, -)
// operation pair. Negation is subtraction from zero, so it, too, exercises
// the (possibly faulty) chain.
//
// Cell indexing: cell i (0-based) is the full adder at bit position i, so
// the fault universe has 32*n entries and the number of faulty situations
// for an exhaustive input sweep is 32 * n * 2^(2n), matching Table 2.
#pragma once

#include "common/word.h"
#include "hw/unit.h"

namespace sck::hw {

/// n-bit two's-complement ripple-carry adder with an injectable cell fault.
class RippleCarryAdder : public FaultableUnit,
      public AdderOps<RippleCarryAdder> {
 public:
  explicit RippleCarryAdder(int width) : FaultableUnit(width) {}

  [[nodiscard]] int cell_count() const override { return width(); }
  [[nodiscard]] CellKind cell_kind(int) const override {
    return CellKind::kFullAdder;
  }

  /// Sum with explicit carry-in, truncated to the unit width, and the
  /// final carry-out (used by the divider's restore decision and by
  /// overflow analyses).
  [[nodiscard]] Word add_c_out(Word a, Word b, bool carry_in,
                               bool& carry_out) const {
    unsigned carry = carry_in ? 1u : 0u;
    Word sum = 0;
    const int n = width();
    for (int i = 0; i < n; ++i) {
      const unsigned row = bit(a, i) | (bit(b, i) << 1) | (carry << 2);
      const unsigned out = eval_cell(i, kFullAdderLut, row);
      sum |= static_cast<Word>(out & 1u) << i;
      carry = (out >> 1) & 1u;
    }
    carry_out = carry != 0;
    return sum;
  }

  // ---- wide bit-parallel API (lane-exact twin of the scalar path) --------

  /// Sum of W lane-packed operand pairs; returns the carry-out plane.
  template <typename P>
  P add_c_batch(const BatchWordT<P>& a, const BatchWordT<P>& b,
                const P& carry_in, BatchWordT<P>& sum) const {
    P carry = carry_in;
    const int n = width();
    for (int i = 0; i < n; ++i) {
      const LaneDuoT<P> out = fa_batch(i, a[i], b[i], carry);
      sum[i] = out.out0;
      carry = out.out1;
    }
    return carry;
  }
};

}  // namespace sck::hw
