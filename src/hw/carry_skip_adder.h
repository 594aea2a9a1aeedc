// Carry-skip adder (fourth adder architecture for the §4.1 ablation).
//
// Blocks of kBlockBits full adders ripple internally; per block, dedicated
// propagate logic (one XOR cell per bit, AND-reduced) lets the incoming
// carry skip the whole block through a multiplexer when every bit
// propagates. The skip network adds fault sites with long-range effects —
// a stuck skip mux teleports wrong carries across a block boundary — which
// neither the plain ripple chain nor the flattened lookahead exposes.
//
// Cell indexing, per block of k bits, blocks in LSB order:
//   k    full adders (the ripple chain)
//   k    XOR cells   (per-bit propagate)
//   k-1  AND cells   (block-propagate reduction; absent for k == 1)
//   1    MUX cell    (skip: selects chain carry-out vs incoming carry)
#pragma once

#include <vector>

#include "common/word.h"
#include "hw/unit.h"

namespace sck::hw {

/// n-bit carry-skip adder with an injectable cell fault.
class CarrySkipAdder : public FaultableUnit,
      public AdderOps<CarrySkipAdder> {
 public:
  static constexpr int kBlockBits = 4;

  struct Block {
    int lo = 0;
    int bits = 0;
    int first_cell = 0;
  };

  explicit CarrySkipAdder(int width) : FaultableUnit(width) {
    int lo = 0;
    while (lo < width) {
      Block blk;
      blk.lo = lo;
      blk.bits = (width - lo < kBlockBits) ? (width - lo) : kBlockBits;
      blk.first_cell = total_cells_;
      total_cells_ += blk.bits /*FA*/ + blk.bits /*XOR*/ +
                      (blk.bits - 1) /*AND*/ + 1 /*MUX*/;
      blocks_.push_back(blk);
      lo += blk.bits;
    }
  }

  [[nodiscard]] int cell_count() const override { return total_cells_; }

  [[nodiscard]] CellKind cell_kind(int cell) const override {
    SCK_EXPECTS(cell >= 0 && cell < total_cells_);
    const Block& blk = block_of(cell);
    const int local = cell - blk.first_cell;
    if (local < blk.bits) return CellKind::kFullAdder;
    if (local < 2 * blk.bits) return CellKind::kXor;
    if (local < 3 * blk.bits - 1) return CellKind::kAnd;
    return CellKind::kMux;
  }

  [[nodiscard]] const std::vector<Block>& blocks() const { return blocks_; }

  [[nodiscard]] Word add_c_out(Word a, Word b, bool carry_in,
                               bool& carry_out) const {
    unsigned carry = carry_in ? 1u : 0u;
    Word sum = 0;
    for (const Block& blk : blocks_) {
      // Ripple chain with the real incoming carry.
      unsigned chain_carry = carry;
      for (int i = 0; i < blk.bits; ++i) {
        const int pos = blk.lo + i;
        const unsigned row =
            bit(a, pos) | (bit(b, pos) << 1) | (chain_carry << 2);
        const unsigned out =
            eval_cell(blk.first_cell + i, kFullAdderLut, row);
        sum |= static_cast<Word>(out & 1u) << pos;
        chain_carry = (out >> 1) & 1u;
      }
      // Block propagate: AND of per-bit propagate signals.
      unsigned block_p = 1;
      for (int i = 0; i < blk.bits; ++i) {
        const int pos = blk.lo + i;
        const unsigned p =
            eval_cell(blk.first_cell + blk.bits + i, kXorLut,
                      bit(a, pos) | (bit(b, pos) << 1)) &
            1u;
        if (i == 0) {
          block_p = p;
        } else {
          block_p = eval_cell(blk.first_cell + 2 * blk.bits + (i - 1),
                              kAndLut, block_p | (p << 1)) &
                    1u;
        }
      }
      // Skip mux: when the block propagates, the incoming carry bypasses
      // the chain.
      const int mux_cell = blk.first_cell + 3 * blk.bits - 1;
      const unsigned row = chain_carry | (carry << 1) | (block_p << 2);
      carry = eval_cell(mux_cell, kMuxLut, row) & 1u;
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
      P chain_carry = carry;
      for (int i = 0; i < blk.bits; ++i) {
        const int pos = blk.lo + i;
        const LaneDuoT<P> out =
            fa_batch(blk.first_cell + i, a[pos], b[pos], chain_carry);
        sum[pos] = out.out0;
        chain_carry = out.out1;
      }
      P block_p = plane_ones<P>();
      for (int i = 0; i < blk.bits; ++i) {
        const int pos = blk.lo + i;
        const P p =
            xor_batch(blk.first_cell + blk.bits + i, a[pos], b[pos]);
        if (i == 0) {
          block_p = p;
        } else {
          block_p =
              and_batch(blk.first_cell + 2 * blk.bits + (i - 1), block_p, p);
        }
      }
      const int mux_cell = blk.first_cell + 3 * blk.bits - 1;
      carry = mux_batch(mux_cell, chain_carry, carry, block_p);
    }
    return carry;
  }

 private:
  [[nodiscard]] const Block& block_of(int cell) const {
    for (std::size_t i = blocks_.size(); i-- > 0;) {
      if (cell >= blocks_[i].first_cell) return blocks_[i];
    }
    return blocks_.front();
  }

  std::vector<Block> blocks_;
  int total_cells_ = 0;
};

}  // namespace sck::hw
