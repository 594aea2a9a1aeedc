// Carry-select adder unit (third architecture for the §4.1 ablation).
//
// The adder is split into blocks of `kBlockBits` bits. Every block except
// the first computes its sums twice with ripple chains — once assuming
// carry-in 0 and once assuming carry-in 1 — and selects the right copy with
// multiplexers once the real block carry arrives. Faults can sit in either
// ripple copy (in which case they only matter when that copy is selected)
// or in a selection mux.
//
// Cell indexing, per block b covering bits [lo, lo+k):
//   k cells:  ripple chain for carry-in 0   (full adders)
//   k cells:  ripple chain for carry-in 1   (full adders)
//   k cells:  per-bit sum multiplexers      (mux cells)
//   1 cell:   block carry multiplexer       (mux cell)
// The first block has a known carry-in, so it instantiates a single chain
// (k full adders, no muxes).
#pragma once

#include <vector>

#include "common/word.h"
#include "hw/unit.h"

namespace sck::hw {

/// n-bit carry-select adder with an injectable cell fault.
class CarrySelectAdder : public FaultableUnit,
      public AdderOps<CarrySelectAdder> {
 public:
  static constexpr int kBlockBits = 4;

  /// Structural description of one block (introspection for analyses and
  /// tests). Cells of a duplicated block, starting at first_cell: `bits`
  /// full adders of the carry-0 chain, `bits` of the carry-1 chain, `bits`
  /// sum muxes, then the block carry mux. A non-duplicated block is just
  /// `bits` full adders.
  struct Block {
    int lo = 0;
    int bits = 0;
    int first_cell = 0;
    bool duplicated = false;
  };

  explicit CarrySelectAdder(int width) : FaultableUnit(width) {
    int lo = 0;
    bool first = true;
    while (lo < width) {
      Block blk;
      blk.lo = lo;
      blk.bits = (width - lo < kBlockBits) ? (width - lo) : kBlockBits;
      blk.duplicated = !first;
      blk.first_cell = total_cells_;
      total_cells_ += blk.duplicated ? (3 * blk.bits + 1) : blk.bits;
      blocks_.push_back(blk);
      lo += blk.bits;
      first = false;
    }
  }

  [[nodiscard]] int cell_count() const override { return total_cells_; }

  [[nodiscard]] CellKind cell_kind(int cell) const override {
    SCK_EXPECTS(cell >= 0 && cell < total_cells_);
    const Block& blk = block_of(cell);
    const int local = cell - blk.first_cell;
    if (!blk.duplicated) return CellKind::kFullAdder;
    if (local < 2 * blk.bits) return CellKind::kFullAdder;
    return CellKind::kMux;
  }

  [[nodiscard]] Word add_c_out(Word a, Word b, bool carry_in,
                               bool& carry_out) const {
    unsigned carry = carry_in ? 1u : 0u;
    Word sum = 0;
    for (const Block& blk : blocks_) {
      if (!blk.duplicated) {
        carry = ripple(blk, /*chain=*/0, a, b, carry, sum);
        continue;
      }
      // Evaluate both speculative chains, then select via the mux cells.
      Word sum0 = 0;
      Word sum1 = 0;
      const unsigned cout0 = ripple(blk, /*chain=*/0, a, b, 0u, sum0);
      const unsigned cout1 = ripple(blk, /*chain=*/1, a, b, 1u, sum1);
      const int mux_base = blk.first_cell + 2 * blk.bits;
      for (int i = 0; i < blk.bits; ++i) {
        const unsigned d0 = bit(sum0, blk.lo + i);
        const unsigned d1 = bit(sum1, blk.lo + i);
        const unsigned row = d0 | (d1 << 1) | (carry << 2);
        const unsigned s = eval_cell(mux_base + i, kMuxLut, row) & 1u;
        sum |= static_cast<Word>(s) << (blk.lo + i);
      }
      const unsigned carry_row = cout0 | (cout1 << 1) | (carry << 2);
      carry = eval_cell(mux_base + blk.bits, kMuxLut, carry_row) & 1u;
    }
    carry_out = carry != 0;
    return sum;
  }

  // ---- wide bit-parallel API (lane-exact twin of the scalar path) --------

  template <typename P>
  P add_c_batch(const BatchWordT<P>& a, const BatchWordT<P>& b,
                const P& carry_in, BatchWordT<P>& sum) const {
    P carry = carry_in;
    for (const Block& blk : blocks_) {
      if (!blk.duplicated) {
        carry = ripple_batch(blk, /*chain=*/0, a, b, carry, sum);
        continue;
      }
      BatchWordT<P> sum0;
      BatchWordT<P> sum1;
      const P cout0 = ripple_batch(blk, 0, a, b, P{}, sum0);
      const P cout1 = ripple_batch(blk, 1, a, b, plane_ones<P>(), sum1);
      const int mux_base = blk.first_cell + 2 * blk.bits;
      for (int i = 0; i < blk.bits; ++i) {
        const int pos = blk.lo + i;
        sum[pos] = mux_batch(mux_base + i, sum0[pos], sum1[pos], carry);
      }
      carry = mux_batch(mux_base + blk.bits, cout0, cout1, carry);
    }
    return carry;
  }

  [[nodiscard]] const std::vector<Block>& blocks() const { return blocks_; }

 private:
  [[nodiscard]] const Block& block_of(int cell) const {
    for (std::size_t i = blocks_.size(); i-- > 0;) {
      if (cell >= blocks_[i].first_cell) return blocks_[i];
    }
    return blocks_.front();
  }

  /// Batch twin of ripple(): one chain of a block over lane planes.
  template <typename P>
  P ripple_batch(const Block& blk, int chain, const BatchWordT<P>& a,
                 const BatchWordT<P>& b, P carry, BatchWordT<P>& sum) const {
    const int base = blk.first_cell + chain * blk.bits;
    for (int i = 0; i < blk.bits; ++i) {
      const int pos = blk.lo + i;
      const LaneDuoT<P> out = fa_batch(base + i, a[pos], b[pos], carry);
      sum[pos] = out.out0;
      carry = out.out1;
    }
    return carry;
  }

  /// Run one ripple chain of a block; accumulates sum bits into `sum` and
  /// returns the chain's carry-out.
  unsigned ripple(const Block& blk, int chain, Word a, Word b, unsigned carry,
                  Word& sum) const {
    const int base = blk.first_cell + chain * blk.bits;
    for (int i = 0; i < blk.bits; ++i) {
      const int pos = blk.lo + i;
      const unsigned row = bit(a, pos) | (bit(b, pos) << 1) | (carry << 2);
      const unsigned out = eval_cell(base + i, kFullAdderLut, row);
      sum |= static_cast<Word>(out & 1u) << pos;
      carry = (out >> 1) & 1u;
    }
    return carry;
  }

  std::vector<Block> blocks_;
  int total_cells_ = 0;
};

}  // namespace sck::hw
