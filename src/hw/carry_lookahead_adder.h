// Carry-lookahead adder unit with genuinely flattened carry cones.
//
// The paper claims (§4.1) that its test methodology is independent of the
// adder implementation ("a carry look-ahead implementation ... as well as a
// ripple carry implementation"). This unit provides the lookahead
// counterpart for that ablation — and, unlike a factored
// c_{i+1} = g_i | p_i c_i recurrence (which is just a re-bracketed ripple
// chain with an isomorphic fault universe), it implements the *flattened*
// two-level form
//
//   c_t = g_{t-1} | p_{t-1} g_{t-2} | ... | p_{t-1}..p_1 g_0 | p_{t-1}..p_0 c_in
//
// where every product term is its own chain of AND gates and the terms are
// OR-reduced — so the structure exposes O(n^3) independent fault sites that
// have no ripple counterpart.
//
// Cell indexing:
//   [0, n)    PG cells  (a_i, b_i -> p_i, g_i)               16 faults each
//   [n, 2n)   sum cells (p_i, c_i -> s_i)                     6 faults each
//   [2n, ...) carry cones, for carry targets t = 1..n-1, in t order:
//             AND chains of every product term (g-sourced terms from
//             j = t-1 down to 0, then the carry-in term), followed by the
//             OR reduction chain of the t+1 terms.
#pragma once

#include <vector>

#include "common/word.h"
#include "hw/unit.h"

namespace sck::hw {

/// n-bit flattened carry-lookahead adder with an injectable cell fault.
class CarryLookaheadAdder : public FaultableUnit,
      public AdderOps<CarryLookaheadAdder> {
 public:
  explicit CarryLookaheadAdder(int width) : FaultableUnit(width) {
    // Precompute the cell kinds after the fixed PG/sum prefix.
    const int n = width;
    int idx = 2 * n;
    for (int t = 1; t < n; ++t) {
      // g-sourced terms: j = t-1 .. 0, chain length (t-1-j) ANDs.
      for (int j = t - 1; j >= 0; --j) {
        for (int k = 0; k < t - 1 - j; ++k) kinds_.push_back(CellKind::kAnd);
      }
      // carry-in term: t ANDs.
      for (int k = 0; k < t; ++k) kinds_.push_back(CellKind::kAnd);
      // OR reduction of t+1 terms: t OR cells.
      for (int k = 0; k < t; ++k) kinds_.push_back(CellKind::kOr);
    }
    total_cells_ = idx + static_cast<int>(kinds_.size());
  }

  [[nodiscard]] int cell_count() const override { return total_cells_; }

  [[nodiscard]] CellKind cell_kind(int cell) const override {
    SCK_EXPECTS(cell >= 0 && cell < total_cells_);
    const int n = width();
    if (cell < n) return CellKind::kPg;
    if (cell < 2 * n) return CellKind::kXor;
    return kinds_[static_cast<std::size_t>(cell - 2 * n)];
  }

  [[nodiscard]] Word add_c_out(Word a, Word b, bool carry_in,
                               bool& carry_out) const {
    const int n = width();
    const unsigned cin = carry_in ? 1u : 0u;

    // Propagate/generate per bit.
    unsigned p[kMaxWidth];
    unsigned g[kMaxWidth];
    for (int i = 0; i < n; ++i) {
      const unsigned row = bit(a, i) | (bit(b, i) << 1);
      const unsigned pg = eval_cell(i, kPgLut, row);
      p[i] = pg & 1u;
      g[i] = (pg >> 1) & 1u;
    }

    // Flattened carry cones.
    unsigned carry[kMaxWidth + 1];
    carry[0] = cin;
    int cell = 2 * n;
    for (int t = 1; t < n; ++t) {
      unsigned terms[kMaxWidth + 1];
      int term_count = 0;
      for (int j = t - 1; j >= 0; --j) {
        unsigned acc = g[j];
        for (int k = j + 1; k <= t - 1; ++k) {
          acc = eval_cell(cell++, kAndLut, acc | (p[k] << 1)) & 1u;
        }
        terms[term_count++] = acc;
      }
      unsigned acc = cin;
      for (int k = 0; k <= t - 1; ++k) {
        acc = eval_cell(cell++, kAndLut, acc | (p[k] << 1)) & 1u;
      }
      terms[term_count++] = acc;
      unsigned c = terms[0];
      for (int m = 1; m < term_count; ++m) {
        c = eval_cell(cell++, kOrLut, c | (terms[m] << 1)) & 1u;
      }
      carry[t] = c;
    }
    SCK_ASSERT(cell == total_cells_);

    // Sums.
    Word sum = 0;
    for (int i = 0; i < n; ++i) {
      const unsigned row = p[i] | (carry[i] << 1);
      sum |= static_cast<Word>(eval_cell(n + i, kXorLut, row) & 1u) << i;
    }
    // The flattened unit does not build the (discarded) c_n cone; derive
    // the reference carry-out arithmetically from the healthy inputs for
    // callers that need it (residue checks). A fault cannot corrupt it.
    carry_out = ((a + b + cin) >> n) != 0;
    return sum;
  }

  // ---- wide bit-parallel API (lane-exact twin of the scalar path) --------

  template <typename P>
  P add_c_batch(const BatchWordT<P>& a, const BatchWordT<P>& b,
                const P& carry_in, BatchWordT<P>& sum) const {
    const int n = width();
    const P cin = carry_in;

    P p[kMaxWidth];
    P g[kMaxWidth];
    for (int i = 0; i < n; ++i) {
      const LaneDuoT<P> pg = pg_batch(i, a[i], b[i]);
      p[i] = pg.out0;
      g[i] = pg.out1;
    }

    P carry[kMaxWidth + 1];
    carry[0] = cin;
    int cell = 2 * n;
    for (int t = 1; t < n; ++t) {
      P terms[kMaxWidth + 1];
      int term_count = 0;
      for (int j = t - 1; j >= 0; --j) {
        P acc = g[j];
        for (int k = j + 1; k <= t - 1; ++k) {
          acc = and_batch(cell++, acc, p[k]);
        }
        terms[term_count++] = acc;
      }
      P acc = cin;
      for (int k = 0; k <= t - 1; ++k) {
        acc = and_batch(cell++, acc, p[k]);
      }
      terms[term_count++] = acc;
      P c = terms[0];
      for (int m = 1; m < term_count; ++m) {
        c = or_batch(cell++, c, terms[m]);
      }
      carry[t] = c;
    }
    SCK_ASSERT(cell == total_cells_);

    for (int i = 0; i < n; ++i) {
      sum[i] = xor_batch(n + i, p[i], carry[i]);
    }
    // As in the scalar path, the discarded c_n cone is not built; the
    // reference carry-out is derived from the healthy inputs (golden ripple
    // recurrence — arithmetically identical to ((a + b + cin) >> n) & 1).
    P c = cin;
    for (int i = 0; i < n; ++i) c = (a[i] & b[i]) | ((a[i] ^ b[i]) & c);
    return c;
  }

 private:
  std::vector<CellKind> kinds_;
  int total_cells_ = 0;
};

}  // namespace sck::hw
