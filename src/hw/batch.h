// Wide bit-parallel (PPSFP-style) evaluation substrate.
//
// The campaign drivers spend their whole budget evaluating the same small
// cell netlists over millions of input rows. Classic parallel-pattern
// single-fault-propagation (PPSFP) fault simulation packs independent
// patterns into machine words; we do the same with a *bit-plane* layout:
//
//   A BatchWordT<P> carries W independent n-bit trial operands, where W is
//   the lane count of the plane word P (hw/plane.h: 64/128/256/512). Plane
//   i is a P whose bit L is bit i of lane L's word ("lane" = trial index
//   inside the batch). One bitwise op on a plane therefore advances all W
//   trials at once.
//
// The plane word is a template parameter everywhere; `BatchWord` (and the
// other unsuffixed aliases below) remain the 64-lane uint64_t reference —
// the substrate every wider width must match bit for bit.
//
// Cells evaluate in this layout in one way: every cell runs its golden
// boolean bit-plane expression (s = a^b^c, co = ab | (a^b)c, ...),
// hand-compiled and inlined by FaultableUnit's *_batch helpers, and a cell
// that an installed LaneFaultSetT corrupts then has its faulty lanes'
// outputs picked from that table's truth-table row planes. A campaign that
// faults one unit for a whole sweep puts that fault on every lane; the
// netlist backends give each lane its own fault.
//
// The batch path is lane-for-lane identical to the scalar LUT path by
// construction: both read the same CellLut rows; the differential tests in
// tests/test_batch.cpp verify this for every unit, width and fault, and
// tests/test_plane.cpp holds every wide plane equal to a 64-lane-composed
// reference.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "common/assert.h"
#include "common/word.h"
#include "hw/cell.h"
#include "hw/plane.h"

namespace sck::hw {

/// Number of independent trials per bitwise op in the 64-lane reference
/// substrate (generic code uses PlaneTraits<P>::kLanes).
inline constexpr int kLanes = 64;

/// One bit per lane (e.g. "this lane's check failed") — 64-lane reference.
using LaneMask = std::uint64_t;

inline constexpr LaneMask kAllLanes = ~LaneMask{0};

/// kLaneIndexPlane[j] bit L == bit j of the lane index L. These are the
/// planes of the identity packing "lane L carries value L", which makes
/// packing consecutive integers free (see ExhaustivePlan in fault/batch.h).
/// plane_index<P>(j) in hw/plane.h is the any-width generalisation.
inline constexpr std::array<LaneMask, 6> kLaneIndexPlane = {
    0xAAAA'AAAA'AAAA'AAAAULL, 0xCCCC'CCCC'CCCC'CCCCULL,
    0xF0F0'F0F0'F0F0'F0F0ULL, 0xFF00'FF00'FF00'FF00ULL,
    0xFFFF'0000'FFFF'0000ULL, 0xFFFF'FFFF'0000'0000ULL};

/// Lane-packed n-bit ring words over plane word P. Planes at or above the
/// word's width must be zero (pack() and all unit batch APIs maintain this
/// invariant). kMaxWidth + 2 planes cover the dividers' widest internal
/// chains.
template <typename P>
struct BatchWordT {
  std::array<P, kMaxWidth + 2> p{};

  [[nodiscard]] P& operator[](int i) {
    return p[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] const P& operator[](int i) const {
    return p[static_cast<std::size_t>(i)];
  }
};

/// The 64-lane reference batch word.
using BatchWord = BatchWordT<LaneMask>;

/// Invoke `fn(std::type_identity<P>{})` with the plane type for a resolved
/// lane count. This is the one place a runtime lane count becomes a plane
/// type; campaign drivers dispatch through it once per campaign.
template <typename Fn>
decltype(auto) dispatch_plane(int lanes, Fn&& fn) {
  switch (lanes) {
    case 64:
      return fn(std::type_identity<Plane64>{});
    case 128:
      return fn(std::type_identity<Plane128>{});
    case 256:
      return fn(std::type_identity<Plane256>{});
    case 512:
      return fn(std::type_identity<Plane512>{});
    default:
      break;
  }
  SCK_UNREACHABLE();
}

/// In-place transpose of a 64x64 bit matrix (Hacker's Delight 7-3 delta-swap
/// network). Under LSB-first indexing this flips about the anti-diagonal:
/// after the call, m[i] bit L == original m[63-L] bit (63-i). pack()
/// compensates by reversing the row and plane indices, which costs nothing.
inline void transpose64(std::uint64_t m[kLanes]) {
  std::uint64_t mask = 0x0000'0000'FFFF'FFFFULL;
  for (int j = 32; j != 0; j >>= 1, mask ^= mask << j) {
    for (int k = 0; k < kLanes; k = (k + j + 1) & ~j) {
      const std::uint64_t t = (m[k] ^ (m[k + j] >> j)) & mask;
      m[k] ^= t;
      m[k + j] ^= t << j;
    }
  }
}

/// Pack up to W scalar words into bit-plane layout, one transpose64 per
/// 64-lane block. Lanes beyond values.size() are zero.
template <typename P = LaneMask>
[[nodiscard]] BatchWordT<P> pack(std::span<const Word> values, int width) {
  constexpr int kWidthLanes = PlaneTraits<P>::kLanes;
  SCK_EXPECTS(static_cast<int>(values.size()) <= kWidthLanes);
  SCK_EXPECTS(width >= 1 && width <= kMaxWidth);
  BatchWordT<P> out;
  for (int blk = 0; blk < PlaneTraits<P>::kWords; ++blk) {
    const std::size_t base = static_cast<std::size_t>(blk) * 64;
    if (base >= values.size()) break;
    std::uint64_t rows[kLanes] = {};
    const std::size_t count =
        values.size() - base < 64 ? values.size() - base : 64;
    for (std::size_t lane = 0; lane < count; ++lane) {
      rows[kLanes - 1 - lane] = trunc(values[base + lane], width);
    }
    transpose64(rows);
    for (int i = 0; i < width; ++i) {
      PlaneTraits<P>::set_word(out[i], blk, rows[kLanes - 1 - i]);
    }
  }
  return out;
}

/// Read lane `lane` of a batch word back as a scalar.
template <typename P>
[[nodiscard]] Word lane_value(const BatchWordT<P>& w, int lane, int width) {
  SCK_EXPECTS(lane >= 0 && lane < PlaneTraits<P>::kLanes);
  Word v = 0;
  for (int i = 0; i < width; ++i) {
    v |= static_cast<Word>(plane_test(w[i], lane)) << i;
  }
  return v;
}

// ---- glue-op plane expressions (netlist execution backend) -----------------
//
// The compiled netlist backend evaluates the synthesized datapath's glue —
// constant ROM reads and the campaign drivers' full-word comparisons — in
// plane space. These helpers are the plane twins of the scalar glue.

/// Broadcast one scalar n-bit word to all lanes (constant-ROM plane).
template <typename P = LaneMask>
[[nodiscard]] BatchWordT<P> broadcast_word(Word v, int width) {
  SCK_EXPECTS(width >= 1 && width <= kMaxWidth);
  BatchWordT<P> out;
  for (int i = 0; i < width; ++i) out[i] = plane_broadcast<P>(bit(v, i));
  return out;
}

/// Lanes whose value has any bit set in ANY plane — the plane twin of a
/// full-word `v != 0` test (comparator glue; see also hw/comparator.h for
/// the width-bounded checker-side planes).
template <typename P>
[[nodiscard]] P nonzero_lanes(const BatchWordT<P>& v) {
  P any{};
  for (int i = 0; i < kMaxWidth + 2; ++i) any |= v[i];
  return any;
}

/// Lanes on which two batch words differ in ANY plane — the plane twin of a
/// full-word `a != b` comparison.
template <typename P>
[[nodiscard]] P differing_lanes(const BatchWordT<P>& a,
                                const BatchWordT<P>& b) {
  P diff{};
  for (int i = 0; i < kMaxWidth + 2; ++i) diff |= a[i] ^ b[i];
  return diff;
}

/// Per-lane fault assignment for one unit: the only way a plane evaluation
/// sees a fault (hw::install_lane_fault in hw/unit.h installs one). The
/// netlist backends give lane L of a batch its own injected fault (lane =
/// fault), so different lanes may corrupt different cells with different
/// truth tables; the operator-level drivers put one fault on every lane
/// (lane = input pattern).
///
/// The table is kept per corrupted cell, not per fault: a cell's faults are
/// merged into row planes, rows[o][r] = the lanes whose faulty LUT outputs
/// 1 on output o for truth-table row r. A unit evaluates the golden plane
/// expression for every cell; on a corrupted cell it picks each lane's row
/// plane with a mux tree over the cell's input planes and merges it under
/// the cell's lanes (see FaultableUnit::set_lane_faults). The cost of a
/// corrupted cell is therefore the same whether one fault or W land on it.
///
/// An `armed` plane (all lanes after construction and clear()) gates every
/// fault: lanes outside it run golden cells, which is how transient and
/// intermittent duty toggles faults per sample without rebuilding rows.
///
/// Lane discipline: a lane hosts at most one fault across the whole design,
/// so faults targeting the same cell must carry disjoint lane masks.
template <typename P>
class LaneFaultSetT {
 public:
  /// One corrupted cell: the union of its faults' lanes and their merged
  /// faulty truth tables as row planes (rows of 2-input cells stop at 4).
  struct CellRows {
    int cell = -1;
    P lanes{};
    std::array<std::array<P, 8>, 2> rows{};
  };

  /// Size the per-cell slot index once (cells never change).
  explicit LaneFaultSetT(int cell_count)
      : slot_(static_cast<std::size_t>(cell_count), -1),
        armed_(plane_ones<P>()) {}

  /// Drop all faults and re-arm every lane (cheap: only previously
  /// corrupted cells are touched).
  void clear() {
    for (const CellRows& c : cells_) {
      slot_[static_cast<std::size_t>(c.cell)] = -1;
    }
    cells_.clear();
    armed_ = plane_ones<P>();
  }

  /// Corrupt `cell` on `lanes` with the faulty truth table.
  void add(int cell, const CellLut& faulty_lut, const P& lanes) {
    SCK_EXPECTS(cell >= 0 && static_cast<std::size_t>(cell) < slot_.size());
    std::int32_t& slot = slot_[static_cast<std::size_t>(cell)];
    if (slot < 0) {
      slot = static_cast<std::int32_t>(cells_.size());
      cells_.push_back(CellRows{cell, P{}, {}});
    }
    CellRows& c = cells_[static_cast<std::size_t>(slot)];
    SCK_EXPECTS(!plane_any(c.lanes & lanes) &&
                "a lane hosts at most one fault per cell");
    c.lanes |= lanes;
    for (std::size_t row = 0; row < 8; ++row) {
      const unsigned entry = faulty_lut[row];
      if (entry & 1u) c.rows[0][row] |= lanes;
      if (entry & 2u) c.rows[1][row] |= lanes;
    }
  }

  /// Gate every fault, present and later added, by `armed` until the next
  /// arm() or clear().
  void arm(const P& armed) { armed_ = armed; }

  [[nodiscard]] bool empty() const { return cells_.empty(); }

  /// Hot-path occupancy probe: does any lane corrupt this cell?
  [[nodiscard]] bool cell_faulty(int cell) const {
    return slot_[static_cast<std::size_t>(cell)] >= 0;
  }

  /// The merged faults of a corrupted cell (requires cell_faulty(cell)).
  [[nodiscard]] const CellRows& rows_of(int cell) const {
    return cells_[static_cast<std::size_t>(
        slot_[static_cast<std::size_t>(cell)])];
  }

  [[nodiscard]] const P& armed() const { return armed_; }

 private:
  std::vector<std::int32_t> slot_;  ///< per cell: index into cells_, or -1
  std::vector<CellRows> cells_;     ///< corrupted cells, in first-add order
  P armed_;
};

/// The 64-lane reference lane-fault table.
using LaneFaultSet = LaneFaultSetT<LaneMask>;

/// Derived ops shared by every adder architecture. An adder implements the
/// scalar and batch primitives
///   Word add_c_out(Word a, Word b, bool carry_in, bool& carry_out) const;
///   P add_c_batch(const BatchWordT<P>& a, const BatchWordT<P>& b,
///                 const P& carry_in, BatchWordT<P>& sum) const;
/// and inherits add/sub/negate on top of them (sub is the g-function path:
/// one's complement of b, carry-in 1; negate is 0 - x on the same chain) —
/// one definition instead of one copy per architecture.
template <typename Adder>
class AdderOps {
 public:
  /// Sum with explicit carry-in; result truncated to the unit width.
  [[nodiscard]] Word add_c(Word a, Word b, bool carry_in) const {
    bool ignored = false;
    return self().add_c_out(a, b, carry_in, ignored);
  }
  [[nodiscard]] Word add(Word a, Word b) const { return add_c(a, b, false); }
  [[nodiscard]] Word sub(Word a, Word b) const {
    return add_c(a, trunc(~b, self().width()), true);
  }
  [[nodiscard]] Word negate(Word x) const { return sub(0, x); }

  template <typename P>
  [[nodiscard]] BatchWordT<P> add_batch(const BatchWordT<P>& a,
                                        const BatchWordT<P>& b) const {
    BatchWordT<P> sum;
    self().add_c_batch(a, b, P{}, sum);
    return sum;
  }

  template <typename P>
  [[nodiscard]] BatchWordT<P> sub_batch(const BatchWordT<P>& a,
                                        const BatchWordT<P>& b) const {
    BatchWordT<P> nb;
    const int n = self().width();
    for (int i = 0; i < n; ++i) nb[i] = ~b[i];
    BatchWordT<P> diff;
    self().add_c_batch(a, nb, plane_ones<P>(), diff);
    return diff;
  }

  template <typename P>
  [[nodiscard]] BatchWordT<P> negate_batch(const BatchWordT<P>& x) const {
    return sub_batch(BatchWordT<P>{}, x);
  }

 private:
  [[nodiscard]] const Adder& self() const {
    return static_cast<const Adder&>(*this);
  }
};

// ---- golden (fault-free) bit-plane reference arithmetic --------------------
//
// The batched trials need fault-free golden results per lane; computing them
// in plane space keeps the hot loop free of per-lane scalar work. These
// helpers implement the same ring semantics as common/word.h.

/// sum = a + b + cin in the n-bit ring; returns the carry-out plane.
template <typename P>
P golden_add(const BatchWordT<P>& a, const BatchWordT<P>& b,
             const P& carry_in, int width, BatchWordT<P>& sum) {
  P carry = carry_in;
  for (int i = 0; i < width; ++i) {
    const P x = a[i] ^ b[i];
    sum[i] = x ^ carry;
    carry = (a[i] & b[i]) | (x & carry);
  }
  return carry;
}

/// a - b in the n-bit ring (one's complement of b, carry-in 1).
template <typename P>
[[nodiscard]] BatchWordT<P> golden_sub(const BatchWordT<P>& a,
                                       const BatchWordT<P>& b, int width) {
  BatchWordT<P> nb;
  for (int i = 0; i < width; ++i) nb[i] = ~b[i];
  BatchWordT<P> diff;
  golden_add(a, nb, plane_ones<P>(), width, diff);
  return diff;
}

/// a * b (low word) in the n-bit ring: shift-and-add with each partial
/// product gated by the multiplier-bit plane.
template <typename P>
[[nodiscard]] BatchWordT<P> golden_mul(const BatchWordT<P>& a,
                                       const BatchWordT<P>& b, int width) {
  BatchWordT<P> acc;
  for (int i = 0; i < width; ++i) {
    BatchWordT<P> partial;
    for (int j = 0; i + j < width; ++j) partial[i + j] = a[j] & b[i];
    BatchWordT<P> next;
    golden_add(acc, partial, P{}, width, next);
    acc = next;
  }
  return acc;
}

/// Unsigned a / b and a % b per lane (restoring recurrence in plane space).
/// Lanes whose divisor is zero produce q = all-ones, r = a — callers mask
/// such lanes out of the statistics exactly like the scalar drivers skip
/// b == 0.
template <typename P>
void golden_divmod(const BatchWordT<P>& a, const BatchWordT<P>& b, int width,
                   BatchWordT<P>& q, BatchWordT<P>& r) {
  const int m = width + 1;
  q = BatchWordT<P>{};
  r = BatchWordT<P>{};
  BatchWordT<P> nb;
  for (int k = 0; k < m; ++k) nb[k] = ~b[k];
  for (int i = width - 1; i >= 0; --i) {
    for (int k = m - 1; k > 0; --k) r[k] = r[k - 1];
    r[0] = a[i];
    // diff = r - b on m planes; no_borrow = carry-out.
    BatchWordT<P> diff;
    const P no_borrow = golden_add(r, nb, plane_ones<P>(), m, diff);
    for (int k = 0; k < m; ++k) {
      r[k] = (no_borrow & diff[k]) | (~no_borrow & r[k]);
    }
    q[i] = no_borrow;
  }
}

// ---- lane-wise mod-3 residues (for the Residue3 technique) ----------------

/// A lane-packed residue in {0, 1, 2}: value = lo + 2*hi (hi & lo never
/// both set).
template <typename P>
struct LaneResidueT {
  P lo{};
  P hi{};
};

/// The 64-lane reference residue.
using LaneResidue = LaneResidueT<LaneMask>;

/// (x + y) mod 3, lane-wise.
template <typename P>
[[nodiscard]] LaneResidueT<P> residue3_add(const LaneResidueT<P>& x,
                                           const LaneResidueT<P>& y) {
  LaneResidueT<P> z;
  z.lo = (x.lo & ~y.lo & ~y.hi) | (~x.lo & ~x.hi & y.lo) | (x.hi & y.hi);
  z.hi = (x.hi & ~y.lo & ~y.hi) | (~x.lo & ~x.hi & y.hi) | (x.lo & y.lo);
  return z;
}

/// (x - y) mod 3, lane-wise: subtracting y is adding its mod-3 complement
/// (swap the 1 and 2 encodings).
template <typename P>
[[nodiscard]] LaneResidueT<P> residue3_sub(const LaneResidueT<P>& x,
                                           const LaneResidueT<P>& y) {
  return residue3_add(x, LaneResidueT<P>{y.hi, y.lo});
}

/// Lane-wise equality of two residues.
template <typename P>
[[nodiscard]] P residue3_eq(const LaneResidueT<P>& x,
                            const LaneResidueT<P>& y) {
  return ~((x.lo ^ y.lo) | (x.hi ^ y.hi));
}

/// v mod 3 per lane: fold in each bit plane with weight 2^i mod 3.
template <typename P>
[[nodiscard]] LaneResidueT<P> residue3_planes(const BatchWordT<P>& v,
                                              int width) {
  LaneResidueT<P> r;
  for (int i = 0; i < width; ++i) {
    const P b = v[i];
    LaneResidueT<P> next;
    if (i % 2 == 0) {  // weight 1: 0->1, 1->2, 2->0 where the bit is set
      next.lo = (~b & r.lo) | (b & ~r.lo & ~r.hi);
      next.hi = (~b & r.hi) | (b & r.lo);
    } else {  // weight 2: 0->2, 1->0, 2->1 where the bit is set
      next.lo = (~b & r.lo) | (b & r.hi);
      next.hi = (~b & r.hi) | (b & ~r.lo & ~r.hi);
    }
    r = next;
  }
  return r;
}

/// Broadcast residue of a scalar constant (e.g. residue3_pow2(n)).
template <typename P = LaneMask>
[[nodiscard]] constexpr LaneResidueT<P> residue3_const(unsigned value) {
  LaneResidueT<P> r;
  r.lo = plane_broadcast<P>(value % 3 == 1);
  r.hi = plane_broadcast<P>(value % 3 == 2);
  return r;
}

/// Gate a residue by a lane mask (residue where set, 0 elsewhere).
template <typename P>
[[nodiscard]] constexpr LaneResidueT<P> residue3_select(
    const LaneResidueT<P>& r, const P& m) {
  return LaneResidueT<P>{r.lo & m, r.hi & m};
}

}  // namespace sck::hw
