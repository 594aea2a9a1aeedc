// Unit tests for the primitive cell models (hw/cell.h): golden truth tables,
// gate-level stuck-at fault application, and the fault-count arithmetic that
// underpins the paper's fault-situation formula.
#include <gtest/gtest.h>

#include "hw/cell.h"
#include "hw/fault_site.h"

namespace sck::hw {
namespace {

TEST(CellLut, FullAdderTruthTable) {
  for (unsigned row = 0; row < 8; ++row) {
    const unsigned a = row & 1u;
    const unsigned b = (row >> 1) & 1u;
    const unsigned c = (row >> 2) & 1u;
    const unsigned expected_sum = (a + b + c) & 1u;
    const unsigned expected_carry = (a + b + c) >> 1;
    EXPECT_EQ(kFullAdderLut[row] & 1u, expected_sum) << "row " << row;
    EXPECT_EQ((kFullAdderLut[row] >> 1) & 1u, expected_carry) << "row " << row;
  }
}

TEST(CellLut, AndGateTruthTable) {
  for (unsigned row = 0; row < 4; ++row) {
    const unsigned a = row & 1u;
    const unsigned b = (row >> 1) & 1u;
    EXPECT_EQ(kAndLut[row], a & b) << "row " << row;
  }
}

TEST(CellLut, PropagateGenerateTruthTable) {
  for (unsigned row = 0; row < 4; ++row) {
    const unsigned a = row & 1u;
    const unsigned b = (row >> 1) & 1u;
    EXPECT_EQ(kPgLut[row] & 1u, a ^ b) << "p, row " << row;
    EXPECT_EQ((kPgLut[row] >> 1) & 1u, a & b) << "g, row " << row;
  }
}

TEST(CellLut, XorCellTruthTable) {
  for (unsigned row = 0; row < 4; ++row) {
    EXPECT_EQ(kXorLut[row], (row & 1u) ^ ((row >> 1) & 1u)) << "row " << row;
  }
}

TEST(CellLut, MuxCellTruthTable) {
  for (unsigned row = 0; row < 8; ++row) {
    const unsigned d0 = row & 1u;
    const unsigned d1 = (row >> 1) & 1u;
    const unsigned sel = (row >> 2) & 1u;
    EXPECT_EQ(kMuxLut[row], sel ? d1 : d0) << "row " << row;
  }
}

TEST(CellFaultCount, FullAdderHasThePaperConstant32) {
  // Table 2's num_faults_1bit = 32: the five-gate full adder has 16 lines.
  EXPECT_EQ(cell_line_count(CellKind::kFullAdder), 16);
  EXPECT_EQ(cell_fault_count(CellKind::kFullAdder), 32);
}

TEST(CellFaultCount, MatchesNetlistLineCounts) {
  EXPECT_EQ(cell_fault_count(CellKind::kAnd), 6);
  EXPECT_EQ(cell_fault_count(CellKind::kPg), 16);
  EXPECT_EQ(cell_fault_count(CellKind::kXor), 6);
  EXPECT_EQ(cell_fault_count(CellKind::kMux), 18);
}

TEST(FaultyCellLut, OutputLineStuckForcesWholeColumn) {
  // Full-adder line 14 is the sum output: stuck-at-1 forces sum = 1 in
  // every row while leaving the carry column intact.
  const CellLut lut = faulty_cell_lut(CellKind::kFullAdder, 14, true);
  for (unsigned row = 0; row < 8; ++row) {
    EXPECT_EQ(lut[row] & 1u, 1u) << "row " << row;
    EXPECT_EQ(lut[row] >> 1, kFullAdderLut[row] >> 1) << "row " << row;
  }
  // Line 15 is the carry output.
  const CellLut lut2 = faulty_cell_lut(CellKind::kFullAdder, 15, false);
  for (unsigned row = 0; row < 8; ++row) {
    EXPECT_EQ(lut2[row] >> 1, 0u) << "row " << row;
    EXPECT_EQ(lut2[row] & 1u, kFullAdderLut[row] & 1u) << "row " << row;
  }
}

TEST(FaultyCellLut, InputStemStuckBehavesLikeForcedOperand) {
  // Full-adder line 0 is the a input stem: stuck-at-v makes the cell behave
  // exactly as if a == v.
  for (const bool v : {false, true}) {
    const CellLut lut = faulty_cell_lut(CellKind::kFullAdder, 0, v);
    for (unsigned row = 0; row < 8; ++row) {
      const unsigned forced_row = (row & ~1u) | (v ? 1u : 0u);
      EXPECT_EQ(lut[row], kFullAdderLut[forced_row]) << "row " << row;
    }
  }
}

TEST(FaultyCellLut, FanoutBranchStuckIsNotAStemStuck) {
  // Line 1 (a -> xor1 branch) stuck-at-0 corrupts only the sum path: for
  // a=1, b=0, c=0 the sum reads 0 but the carry chain still sees a=1.
  const CellLut lut = faulty_cell_lut(CellKind::kFullAdder, 1, false);
  const unsigned row = 1;  // a=1, b=0, c=0
  EXPECT_EQ(lut[row] & 1u, 0u);                          // sum corrupted
  EXPECT_EQ(lut[row] >> 1, kFullAdderLut[row] >> 1);     // carry intact
  // With a=1, b=1: carry comes from a AND b, still correct.
  EXPECT_EQ(lut[3] >> 1, 1u);
}

TEST(FaultyCellLut, StuckAtFaultsCorruptMultipleRows) {
  // The gate-level model matters because one fault perturbs several rows
  // (single-row faults are always caught by the inverse-operation check).
  const CellLut lut = faulty_cell_lut(CellKind::kFullAdder, 6, true);  // c stem
  int differing = 0;
  for (unsigned row = 0; row < 8; ++row) {
    if (lut[row] != kFullAdderLut[row]) ++differing;
  }
  EXPECT_EQ(differing, 4);  // all rows with c == 0 now misbehave
}

TEST(FaultyCellLut, MuxSelectStuckSelectsOneInput) {
  const CellLut lut = faulty_cell_lut(CellKind::kMux, 2, true);  // sel stem @1
  for (unsigned row = 0; row < 8; ++row) {
    EXPECT_EQ(lut[row], (row >> 1) & 1u) << "always d1, row " << row;
  }
}

TEST(FaultyCellLut, RejectsOutOfRangeLine) {
  EXPECT_DEATH((void)faulty_cell_lut(CellKind::kAnd, 3, true), "Precondition");
}

TEST(EnumerateCellFaults, ProducesFullUniverse) {
  const auto faults = enumerate_cell_faults(CellKind::kFullAdder, 5, 3);
  EXPECT_EQ(faults.size(), 3u * 32u);
  for (const auto& f : faults) {
    EXPECT_GE(f.cell, 5);
    EXPECT_LT(f.cell, 8);
  }
  for (std::size_t i = 0; i < faults.size(); ++i) {
    for (std::size_t j = i + 1; j < faults.size(); ++j) {
      EXPECT_FALSE(faults[i] == faults[j]) << "duplicate at " << i << "," << j;
    }
  }
}

TEST(FaultSite, ToStringIsReadable) {
  EXPECT_EQ(to_string(FaultSite{}), "fault-free");
  const FaultSite f{3, 5, true};
  EXPECT_EQ(to_string(f), "cell 3 line 5 stuck-at-1");
}

}  // namespace
}  // namespace sck::hw
