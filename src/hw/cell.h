// Functional-level cell models with gate-level stuck-at faults.
//
// The paper's fault model (§4.1) counts num_faults_1bit = 32 for the single
// full adder in the ripple chain. That constant is the classic single
// stuck-at fault universe of the standard five-gate full adder
//
//        x1 = a XOR b          a1 = a AND b
//        s  = x1 XOR cin       a2 = x1 AND cin
//                              co = a1 OR a2
//
// which has 16 fault sites (3 primary-input stems + 6 fanout branches +
// the x1 stem + its 2 branches + a1 + a2 + the two outputs), each stuck-at
// 0 or 1. We model every primitive cell the same way: a fault pins one
// line of the cell's gate netlist, which corrupts the cell's truth table
// in possibly *many* rows at once — this is what makes error compensation
// between an operation and its inverse-operation check possible at all
// (a single-row corruption is always caught, as our early experiments
// showed).
//
// For speed, a faulty cell is materialised as a truth-table LUT: the gate
// netlist is simulated once per input row when the fault is injected, and
// the hot campaign loops then run on LUT lookups exactly like the golden
// path.
#pragma once

#include <array>
#include <cstdint>

#include "common/assert.h"

namespace sck::hw {

/// The primitive cell kinds used by the word-level units.
enum class CellKind : std::uint8_t {
  kFullAdder,  ///< 3 inputs (a, b, cin) -> 2 outputs (sum, cout)
  kAnd,        ///< 2 inputs -> 1 output
  kPg,         ///< 2 inputs (a, b) -> 2 outputs (p = a^b, g = a&b)
  kXor,        ///< 2 inputs -> 1 output
  kOr,         ///< 2 inputs -> 1 output
  kMux,        ///< 3 inputs (d0, d1, sel) -> 1 output
};

/// Number of truth-table rows (input combinations) of a cell kind.
[[nodiscard]] constexpr int cell_rows(CellKind kind) {
  switch (kind) {
    case CellKind::kFullAdder:
    case CellKind::kMux:
      return 8;
    case CellKind::kAnd:
    case CellKind::kPg:
    case CellKind::kXor:
    case CellKind::kOr:
      return 4;
  }
  return 0;
}

/// Number of outputs of a cell kind.
[[nodiscard]] constexpr int cell_outputs(CellKind kind) {
  switch (kind) {
    case CellKind::kFullAdder:
    case CellKind::kPg:
      return 2;
    case CellKind::kAnd:
    case CellKind::kXor:
    case CellKind::kOr:
    case CellKind::kMux:
      return 1;
  }
  return 0;
}

/// Number of stuck-at fault sites (lines) in the cell's gate netlist.
[[nodiscard]] constexpr int cell_line_count(CellKind kind) {
  switch (kind) {
    case CellKind::kFullAdder:
      return 16;  // 3 PI stems + 6 branches + x1 stem + 2 branches + a1 +
                  // a2 + s + co
    case CellKind::kAnd:
      return 3;  // a, b, out
    case CellKind::kPg:
      return 8;  // a stem + 2 branches, b stem + 2 branches, p, g
    case CellKind::kXor:
      return 3;  // a, b, out
    case CellKind::kOr:
      return 3;  // a, b, out
    case CellKind::kMux:
      return 9;  // d0, d1, sel stem + 2 branches, ~sel, t0, t1, y
  }
  return 0;
}

/// Stuck-at faults per cell: every line stuck-at-0 and stuck-at-1.
/// Full adder: 32 — the paper's num_faults_1bit.
[[nodiscard]] constexpr int cell_fault_count(CellKind kind) {
  return 2 * cell_line_count(kind);
}

/// A cell truth table: entry[row] packs the output bits (bit 0 = output 0).
using CellLut = std::array<std::uint8_t, 8>;

namespace detail {

/// line == kGoldenLine simulates the fault-free netlist.
inline constexpr int kGoldenLine = -1;

constexpr unsigned force(unsigned v, int this_line, int faulty_line,
                         bool stuck) {
  return this_line == faulty_line ? (stuck ? 1u : 0u) : v;
}

/// Five-gate full adder. Line map:
///  0 a stem   1 a->xor1   2 a->and1
///  3 b stem   4 b->xor1   5 b->and1
///  6 c stem   7 c->xor2   8 c->and2
///  9 x1 stem 10 x1->xor2 11 x1->and2
/// 12 a1      13 a2       14 s        15 co
constexpr std::uint8_t eval_full_adder(unsigned row, int line, bool stuck) {
  const auto f = [&](unsigned v, int l) { return force(v, l, line, stuck); };
  const unsigned a = f(row & 1u, 0);
  const unsigned b = f((row >> 1) & 1u, 3);
  const unsigned c = f((row >> 2) & 1u, 6);
  const unsigned ax = f(a, 1);
  const unsigned aa = f(a, 2);
  const unsigned bx = f(b, 4);
  const unsigned ba = f(b, 5);
  const unsigned cx = f(c, 7);
  const unsigned ca = f(c, 8);
  const unsigned x1 = f(ax ^ bx, 9);
  const unsigned x1x = f(x1, 10);
  const unsigned x1a = f(x1, 11);
  const unsigned s = f(x1x ^ cx, 14);
  const unsigned a1 = f(aa & ba, 12);
  const unsigned a2 = f(x1a & ca, 13);
  const unsigned co = f(a1 | a2, 15);
  return static_cast<std::uint8_t>(s | (co << 1));
}

/// AND gate. Lines: 0 a, 1 b, 2 out.
constexpr std::uint8_t eval_and(unsigned row, int line, bool stuck) {
  const auto f = [&](unsigned v, int l) { return force(v, l, line, stuck); };
  return static_cast<std::uint8_t>(
      f(f(row & 1u, 0) & f((row >> 1) & 1u, 1), 2));
}

/// XOR gate. Lines: 0 a, 1 b, 2 out.
constexpr std::uint8_t eval_xor(unsigned row, int line, bool stuck) {
  const auto f = [&](unsigned v, int l) { return force(v, l, line, stuck); };
  return static_cast<std::uint8_t>(
      f(f(row & 1u, 0) ^ f((row >> 1) & 1u, 1), 2));
}

/// OR gate. Lines: 0 a, 1 b, 2 out.
constexpr std::uint8_t eval_or(unsigned row, int line, bool stuck) {
  const auto f = [&](unsigned v, int l) { return force(v, l, line, stuck); };
  return static_cast<std::uint8_t>(
      f(f(row & 1u, 0) | f((row >> 1) & 1u, 1), 2));
}

/// Propagate/generate cell. Lines: 0 a stem, 1 a->xor, 2 a->and, 3 b stem,
/// 4 b->xor, 5 b->and, 6 p, 7 g.
constexpr std::uint8_t eval_pg(unsigned row, int line, bool stuck) {
  const auto f = [&](unsigned v, int l) { return force(v, l, line, stuck); };
  const unsigned a = f(row & 1u, 0);
  const unsigned b = f((row >> 1) & 1u, 3);
  const unsigned p = f(f(a, 1) ^ f(b, 4), 6);
  const unsigned g = f(f(a, 2) & f(b, 5), 7);
  return static_cast<std::uint8_t>(p | (g << 1));
}

/// 2:1 multiplexer: y = (d0 & ~sel) | (d1 & sel). Lines: 0 d0, 1 d1,
/// 2 sel stem, 3 sel->inv, 4 sel->and, 5 ~sel, 6 t0, 7 t1, 8 y.
constexpr std::uint8_t eval_mux(unsigned row, int line, bool stuck) {
  const auto f = [&](unsigned v, int l) { return force(v, l, line, stuck); };
  const unsigned d0 = f(row & 1u, 0);
  const unsigned d1 = f((row >> 1) & 1u, 1);
  const unsigned sel = f((row >> 2) & 1u, 2);
  const unsigned ns = f(~f(sel, 3) & 1u, 5);
  const unsigned t0 = f(d0 & ns, 6);
  const unsigned t1 = f(d1 & f(sel, 4), 7);
  return static_cast<std::uint8_t>(f(t0 | t1, 8));
}

constexpr std::uint8_t eval_cell(CellKind kind, unsigned row, int line,
                                 bool stuck) {
  switch (kind) {
    case CellKind::kFullAdder:
      return eval_full_adder(row, line, stuck);
    case CellKind::kAnd:
      return eval_and(row, line, stuck);
    case CellKind::kPg:
      return eval_pg(row, line, stuck);
    case CellKind::kXor:
      return eval_xor(row, line, stuck);
    case CellKind::kOr:
      return eval_or(row, line, stuck);
    case CellKind::kMux:
      return eval_mux(row, line, stuck);
  }
  return 0;
}

}  // namespace detail

/// Fault-free truth table for a cell kind.
[[nodiscard]] constexpr CellLut golden_lut(CellKind kind) {
  CellLut lut{};
  for (int row = 0; row < cell_rows(kind); ++row) {
    lut[static_cast<std::size_t>(row)] = detail::eval_cell(
        kind, static_cast<unsigned>(row), detail::kGoldenLine, false);
  }
  return lut;
}

inline constexpr CellLut kFullAdderLut = golden_lut(CellKind::kFullAdder);
inline constexpr CellLut kAndLut = golden_lut(CellKind::kAnd);
inline constexpr CellLut kPgLut = golden_lut(CellKind::kPg);
inline constexpr CellLut kXorLut = golden_lut(CellKind::kXor);
inline constexpr CellLut kOrLut = golden_lut(CellKind::kOr);
inline constexpr CellLut kMuxLut = golden_lut(CellKind::kMux);

/// Truth table of `kind` with `line` stuck at `stuck` — the whole-row view
/// of a single gate-level stuck-at fault.
[[nodiscard]] constexpr CellLut faulty_cell_lut(CellKind kind, int line,
                                                bool stuck) {
  SCK_EXPECTS(line >= 0 && line < cell_line_count(kind));
  CellLut lut{};
  for (int row = 0; row < cell_rows(kind); ++row) {
    lut[static_cast<std::size_t>(row)] =
        detail::eval_cell(kind, static_cast<unsigned>(row), line, stuck);
  }
  return lut;
}

}  // namespace sck::hw
