// Base class for word-level functional units with a single injectable fault.
//
// Concrete units (adders, multiplier, divider) derive from FaultableUnit and
// interpret the FaultSite's unit-local cell index. The base class keeps the
// fault plumbing uniform so the campaign framework (src/fault) can drive any
// unit generically.
#pragma once

#include <cstddef>
#include <vector>

#include "common/word.h"
#include "hw/batch.h"
#include "hw/cell.h"
#include "hw/fault_site.h"

namespace sck::hw {

/// Records which truth-table rows each cell of a unit actually sees during
/// simulation. Used for fault collapsing: a fault on a row a cell never
/// receives (e.g. carry-in=1 on the first adder of a chain) is provably
/// silent.
class CellUsageRecorder {
 public:
  explicit CellUsageRecorder(int cell_count)
      : seen_(static_cast<std::size_t>(cell_count), 0u) {}

  void note(int cell, unsigned row) {
    seen_[static_cast<std::size_t>(cell)] |= 1u << row;
  }

  [[nodiscard]] bool seen(int cell, unsigned row) const {
    return (seen_[static_cast<std::size_t>(cell)] >> row) & 1u;
  }

 private:
  std::vector<unsigned> seen_;
};

/// Two output planes of a dual-output cell (full adder, PG).
template <typename P>
struct LaneDuoT {
  P out0{};
  P out1{};
};

/// A functional unit that can host at most one cell fault (the paper's
/// single-functional-unit-failure model).
class FaultableUnit {
 public:
  explicit FaultableUnit(int width) : width_(width) {
    SCK_EXPECTS(width >= 1 && width <= kMaxWidth);
  }
  virtual ~FaultableUnit() = default;

  FaultableUnit(const FaultableUnit&) = default;
  FaultableUnit& operator=(const FaultableUnit&) = default;

  /// Operand width in bits.
  [[nodiscard]] int width() const { return width_; }

  /// Number of addressable cells inside the unit.
  [[nodiscard]] virtual int cell_count() const = 0;

  /// Kind of cell at unit-local index `cell`.
  [[nodiscard]] virtual CellKind cell_kind(int cell) const = 0;

  /// Every fault the unit can host (the campaign denominator).
  [[nodiscard]] std::vector<FaultSite> fault_universe() const {
    std::vector<FaultSite> out;
    for (int c = 0; c < cell_count(); ++c) {
      const CellKind kind = cell_kind(c);
      auto faults = enumerate_cell_faults(kind, c, 1);
      out.insert(out.end(), faults.begin(), faults.end());
    }
    return out;
  }

  /// Inject `f` into the scalar cell path (replacing any previous fault).
  /// `FaultSite{}` restores the fault-free unit. Scalar only: plane
  /// (*_batch) evaluations see faults through an installed lane-fault table
  /// (install_lane_fault below), never through set_fault.
  void set_fault(const FaultSite& f) {
    if (f.active()) faulty_lut_ = checked_faulty_lut(f);
    fault_ = f;
  }

  void clear_fault() { fault_ = FaultSite{}; }

  [[nodiscard]] const FaultSite& fault() const { return fault_; }

  /// Install (or remove, with nullptr) a usage recorder. Not owned. The
  /// recorder must outlive its installation and must be sized to
  /// cell_count(). Intended for fault-collapsing analyses and tests; the
  /// hot campaign loops run without one.
  void set_recorder(CellUsageRecorder* recorder) { recorder_ = recorder; }

  /// Install a per-lane fault table for the *_batch cell helpers: lane L of
  /// every batch evaluation then sees the faults the table assigns to lane
  /// L. Not owned; must outlive its installation and must be sized for at
  /// least this unit's cell_count() cells. The table's plane type is erased
  /// here and re-bound by the *_batch helpers, which must be invoked with
  /// the same plane type (checked). This is the only fault a plane
  /// evaluation sees: the scalar fault of set_fault never reaches the
  /// *_batch helpers.
  template <typename P>
  void set_lane_faults(const LaneFaultSetT<P>* lane_faults) {
    lane_faults_ = lane_faults;
    lane_fault_words_ = PlaneTraits<P>::kWords;
  }

  /// Remove any installed per-lane fault table.
  void set_lane_faults(std::nullptr_t) {
    lane_faults_ = nullptr;
    lane_fault_words_ = 0;
  }

  /// The faulty truth table of `f`'s cell, with `f` checked against this
  /// unit: active, cell and line in range.
  [[nodiscard]] CellLut checked_faulty_lut(const FaultSite& f) const {
    SCK_EXPECTS(f.active());
    SCK_EXPECTS(f.cell >= 0 && f.cell < cell_count());
    const CellKind kind = cell_kind(f.cell);
    SCK_EXPECTS(f.line < cell_line_count(kind));
    return faulty_cell_lut(kind, f.line, f.stuck_value);
  }

  /// True when the fault can change this unit's behaviour at all: the
  /// faulty truth table must differ from the golden one in some row
  /// (redundant stuck-at faults — e.g. an OR input stuck at 0 on a line
  /// that is 0 whenever the other is 0 — are unexcitable).
  [[nodiscard]] bool fault_excitable(const FaultSite& f) const {
    SCK_EXPECTS(f.cell >= 0 && f.cell < cell_count());
    const CellKind kind = cell_kind(f.cell);
    return faulty_cell_lut(kind, f.line, f.stuck_value) != golden_lut(kind);
  }

 protected:
  /// Evaluate the cell at unit-local index `cell` of kind `kind` on packed
  /// inputs `row`, honouring the injected fault. Hot path: predictable
  /// branches against the (usually unique) faulty cell index and the
  /// (usually absent) recorder.
  [[nodiscard]] unsigned eval_cell(int cell, const CellLut& golden,
                                   unsigned row) const {
    if (recorder_ != nullptr) recorder_->note(cell, row);
    if (cell == fault_.cell) return faulty_lut_[row];
    return golden[row];
  }

  // ---- wide bit-parallel cell evaluation (see hw/batch.h) -----------------
  //
  // Same contract as eval_cell, but over lane planes of any width: each
  // helper advances all W trials with the hand-compiled golden expression
  // and routes the cells of an installed lane-fault table through
  // blend_lane_faults. The batch path does not feed CellUsageRecorder —
  // usage recording is a scalar-path analysis (the hot campaign loops run
  // without one).

  template <typename P>
  [[nodiscard]] LaneDuoT<P> fa_batch(int cell, const P& a, const P& b,
                                     const P& c) const {
    const P x = a ^ b;
    LaneDuoT<P> out{x ^ c, (a & b) | (x & c)};
    if (lane_faults_ != nullptr && lane_fault_table<P>()->cell_faulty(cell))
        [[unlikely]] {
      out = blend_lane_faults<3, 2>(cell, a, b, c, out);
    }
    return out;
  }

  template <typename P>
  [[nodiscard]] P and_batch(int cell, const P& a, const P& b) const {
    P out = a & b;
    if (lane_faults_ != nullptr && lane_fault_table<P>()->cell_faulty(cell))
        [[unlikely]] {
      out = blend_lane_faults<2, 1>(cell, a, b, b, LaneDuoT<P>{out, P{}})
                .out0;
    }
    return out;
  }

  template <typename P>
  [[nodiscard]] P xor_batch(int cell, const P& a, const P& b) const {
    P out = a ^ b;
    if (lane_faults_ != nullptr && lane_fault_table<P>()->cell_faulty(cell))
        [[unlikely]] {
      out = blend_lane_faults<2, 1>(cell, a, b, b, LaneDuoT<P>{out, P{}})
                .out0;
    }
    return out;
  }

  template <typename P>
  [[nodiscard]] P or_batch(int cell, const P& a, const P& b) const {
    P out = a | b;
    if (lane_faults_ != nullptr && lane_fault_table<P>()->cell_faulty(cell))
        [[unlikely]] {
      out = blend_lane_faults<2, 1>(cell, a, b, b, LaneDuoT<P>{out, P{}})
                .out0;
    }
    return out;
  }

  template <typename P>
  [[nodiscard]] LaneDuoT<P> pg_batch(int cell, const P& a, const P& b) const {
    LaneDuoT<P> out{a ^ b, a & b};
    if (lane_faults_ != nullptr && lane_fault_table<P>()->cell_faulty(cell))
        [[unlikely]] {
      out = blend_lane_faults<2, 2>(cell, a, b, b, out);
    }
    return out;
  }

  template <typename P>
  [[nodiscard]] P mux_batch(int cell, const P& d0, const P& d1,
                            const P& sel) const {
    P out = (d0 & ~sel) | (d1 & sel);
    if (lane_faults_ != nullptr && lane_fault_table<P>()->cell_faulty(cell))
        [[unlikely]] {
      out = blend_lane_faults<3, 1>(cell, d0, d1, sel,
                                    LaneDuoT<P>{out, P{}})
                .out0;
    }
    return out;
  }

 private:
  /// Re-bind the type-erased lane-fault table to its plane type. The word
  /// tag pins the invariant that a backend drives every *_batch call with
  /// the plane type it installed.
  template <typename P>
  [[nodiscard]] const LaneFaultSetT<P>* lane_fault_table() const {
    SCK_ASSERT(lane_fault_words_ == PlaneTraits<P>::kWords);
    return static_cast<const LaneFaultSetT<P>*>(lane_faults_);
  }

  /// Replace the golden outputs of a corrupted cell on every armed lane
  /// the table corrupts there. Per 64-bit word holding any such lane, each
  /// output's row plane is picked with a mux tree over the input bits (row
  /// = a | b<<1 | c<<2: two levels for 2-input cells, three for 3-input)
  /// and merged under that word's mask. The cost is one tree per output
  /// per touched word, however many faults the cell hosts. `c` is ignored
  /// for 2-input cells.
  template <int kInputs, int kOutputs, typename P>
  [[nodiscard]] LaneDuoT<P> blend_lane_faults(int cell, const P& a,
                                              const P& b, const P& c,
                                              LaneDuoT<P> golden) const {
    static_assert(kInputs == 2 || kInputs == 3);
    static_assert(kOutputs == 1 || kOutputs == 2);
    using T = PlaneTraits<P>;
    const LaneFaultSetT<P>& table = *lane_fault_table<P>();
    const typename LaneFaultSetT<P>::CellRows& rows = table.rows_of(cell);
    const auto mux = [](std::uint64_t sel, std::uint64_t x0,
                        std::uint64_t x1) { return x0 ^ ((x0 ^ x1) & sel); };
    for (int w = 0; w < T::kWords; ++w) {
      const std::uint64_t lanes =
          T::word(rows.lanes, w) & T::word(table.armed(), w);
      if (lanes == 0) continue;
      const std::uint64_t aw = T::word(a, w);
      const std::uint64_t bw = T::word(b, w);
      for (int o = 0; o < kOutputs; ++o) {
        const std::array<P, 8>& r = rows.rows[static_cast<std::size_t>(o)];
        std::uint64_t v =
            mux(bw, mux(aw, T::word(r[0], w), T::word(r[1], w)),
                mux(aw, T::word(r[2], w), T::word(r[3], w)));
        if constexpr (kInputs == 3) {
          const std::uint64_t hi =
              mux(bw, mux(aw, T::word(r[4], w), T::word(r[5], w)),
                  mux(aw, T::word(r[6], w), T::word(r[7], w)));
          v = mux(T::word(c, w), v, hi);
        }
        P& out = o == 0 ? golden.out0 : golden.out1;
        T::set_word(out, w, mux(lanes, T::word(out, w), v));
      }
    }
    return golden;
  }

  int width_;
  FaultSite fault_{};
  CellLut faulty_lut_{};
  CellUsageRecorder* recorder_ = nullptr;
  const void* lane_faults_ = nullptr;  ///< type-erased LaneFaultSetT<P>
  int lane_fault_words_ = 0;           ///< PlaneTraits<P>::kWords tag
};

/// Add fault `f` of `unit` to `table` on `lanes` and install the table on
/// the unit: the one way a plane (*_batch) evaluation sees a fault. The
/// operator-level drivers pass every lane (one fault per sweep); the
/// netlist plane backends pass one lane per fault. `table` must be sized
/// for at least unit.cell_count() cells and outlive its installation;
/// uninstall it with unit.set_lane_faults(nullptr).
template <typename P>
void install_lane_fault(FaultableUnit& unit, LaneFaultSetT<P>& table,
                        const FaultSite& f, const P& lanes) {
  table.add(f.cell, unit.checked_faulty_lut(f), lanes);
  unit.set_lane_faults(&table);
}

}  // namespace sck::hw
