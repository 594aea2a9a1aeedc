// Tests for the Table-1 trial functors (fault/trials.h): fault-free
// silence, coverage orderings, the division q/r trade-off, and the residue
// check's exactness on single-cell adder faults.
#include <gtest/gtest.h>

#include <vector>

#include "fault/campaign.h"
#include "fault/trials.h"
#include "hw/array_multiplier.h"
#include "hw/restoring_divider.h"
#include "hw/ripple_carry_adder.h"

namespace sck::fault {
namespace {

using hw::ArrayMultiplier;
using hw::FaultableUnit;
using hw::RestoringDivider;
using hw::RippleCarryAdder;

TEST(MulTrial, FaultFreeIsSilentForAllTechniques) {
  const int n = 4;
  ArrayMultiplier mult(n);
  RippleCarryAdder adder(n);
  for (const Technique t :
       {Technique::kTech1, Technique::kTech2, Technique::kBoth}) {
    const MulTrial<RippleCarryAdder> trial{mult, adder, t};
    for (Word a = 0; a < 16; ++a) {
      for (Word b = 0; b < 16; ++b) {
        ASSERT_EQ(trial(a, b), Outcome::kSilentCorrect)
            << "t=" << to_string(t) << " a=" << a << " b=" << b;
      }
    }
  }
}

TEST(DivTrial, FaultFreeIsSilentForAllTechniques) {
  const int n = 4;
  RestoringDivider divider(n);
  ArrayMultiplier mult(n);
  RippleCarryAdder adder(n);
  for (const Technique t :
       {Technique::kTech1, Technique::kTech2, Technique::kBoth}) {
    const DivTrial<RippleCarryAdder> trial{divider, mult, adder, t};
    for (Word a = 0; a < 16; ++a) {
      for (Word b = 1; b < 16; ++b) {
        ASSERT_EQ(trial(a, b), Outcome::kSilentCorrect)
            << "t=" << to_string(t) << " a=" << a << " b=" << b;
      }
    }
  }
}

TEST(MulTrial, CombinedTechniqueDominates) {
  const int n = 4;
  ArrayMultiplier mult(n);
  RippleCarryAdder adder(n);
  std::vector<FaultableUnit*> units{&mult};
  const auto coverage = [&](Technique t) {
    const MulTrial<RippleCarryAdder> trial{mult, adder, t};
    return run_exhaustive(std::span<FaultableUnit* const>(units), n, trial)
        .aggregate.coverage();
  };
  const double t1 = coverage(Technique::kTech1);
  const double t2 = coverage(Technique::kTech2);
  const double both = coverage(Technique::kBoth);
  EXPECT_GE(both, t1);
  EXPECT_GE(both, t2);
  EXPECT_GT(t1, 0.85);
  EXPECT_LT(t1, 1.0);  // masking must exist in the worst case
}

TEST(DivTrial, MaskingComesFromQrTradeoffOnly) {
  // Only divider faults can mask: under a faulty multiplier or adder the
  // nominal result is correct, so the outcome is at worst a false alarm.
  const int n = 4;
  RestoringDivider divider(n);
  ArrayMultiplier mult(n);
  RippleCarryAdder adder(n);
  const DivTrial<RippleCarryAdder> trial{divider, mult, adder,
                                         Technique::kTech1};
  CampaignOptions opt;
  opt.skip_b_zero = true;

  {
    std::vector<FaultableUnit*> units{&mult, &adder};
    const auto r =
        run_exhaustive(std::span<FaultableUnit* const>(units), n, trial, opt);
    EXPECT_EQ(r.aggregate.masked, 0u);
    EXPECT_DOUBLE_EQ(r.aggregate.coverage(), 1.0);
  }
  {
    std::vector<FaultableUnit*> units{&divider};
    const auto r =
        run_exhaustive(std::span<FaultableUnit* const>(units), n, trial, opt);
    EXPECT_GT(r.aggregate.masked, 0u);  // the q/r trade-off
    EXPECT_LT(r.aggregate.coverage(), 1.0);
  }
}

TEST(DivTrial, Tech1AndTech2MaskIdentically) {
  // Both controls test the same identity a == q*b + r, so the masked sets
  // coincide in our model.
  const int n = 4;
  RestoringDivider divider(n);
  ArrayMultiplier mult(n);
  RippleCarryAdder adder(n);
  std::vector<FaultableUnit*> units{&divider};
  CampaignOptions opt;
  opt.skip_b_zero = true;
  const auto masked = [&](Technique t) {
    const DivTrial<RippleCarryAdder> trial{divider, mult, adder, t};
    return run_exhaustive(std::span<FaultableUnit* const>(units), n, trial,
                          opt)
        .aggregate.masked;
  };
  const auto m1 = masked(Technique::kTech1);
  EXPECT_EQ(m1, masked(Technique::kTech2));
  EXPECT_EQ(m1, masked(Technique::kBoth));
}

TEST(AddTrial, Residue3IsExactOnSingleCellFaults) {
  // A single faulty full adder perturbs the (n+1)-bit result by +/- 2^i,
  // never by a multiple of 3, so the mod-3 residue check with carry
  // correction catches every observable error — the classic residue-code
  // guarantee, here verified exhaustively.
  for (const int n : {2, 3, 4, 5, 6}) {
    RippleCarryAdder adder(n);
    std::vector<FaultableUnit*> units{&adder};
    const AddTrial<RippleCarryAdder> trial{adder, Technique::kResidue3};
    const auto r =
        run_exhaustive(std::span<FaultableUnit* const>(units), n, trial);
    EXPECT_EQ(r.aggregate.masked, 0u) << "n=" << n;
    EXPECT_GT(r.aggregate.observable_errors(), 0u) << "n=" << n;
  }
}

TEST(SubTrial, Residue3IsExactOnSingleCellFaults) {
  for (const int n : {3, 4, 5}) {
    RippleCarryAdder adder(n);
    std::vector<FaultableUnit*> units{&adder};
    const SubTrial<RippleCarryAdder> trial{adder, Technique::kResidue3};
    const auto r =
        run_exhaustive(std::span<FaultableUnit* const>(units), n, trial);
    EXPECT_EQ(r.aggregate.masked, 0u) << "n=" << n;
    EXPECT_GT(r.aggregate.observable_errors(), 0u) << "n=" << n;
  }
}

TEST(AddTrial, DetectsFaultsEvenWhenResultCorrect) {
  // The paper's §4 side-claim: the technique can flag a latent fault while
  // the visible result is still correct (classical SC designs cannot).
  const int n = 3;
  RippleCarryAdder adder(n);
  std::vector<FaultableUnit*> units{&adder};
  for (const Technique t :
       {Technique::kTech1, Technique::kTech2, Technique::kBoth}) {
    const AddTrial<RippleCarryAdder> trial{adder, t};
    const auto r =
        run_exhaustive(std::span<FaultableUnit* const>(units), n, trial);
    EXPECT_GT(r.aggregate.detected_correct, 0u) << to_string(t);
  }
}

TEST(Trials, WiderOperandsImproveCoverage) {
  // Table 2's monotone trend, checked on the trial level.
  double prev = 0.0;
  for (const int n : {1, 2, 3, 4, 5, 6}) {
    RippleCarryAdder adder(n);
    std::vector<FaultableUnit*> units{&adder};
    const AddTrial<RippleCarryAdder> trial{adder, Technique::kTech1};
    const double c =
        run_exhaustive(std::span<FaultableUnit* const>(units), n, trial)
            .aggregate.coverage();
    EXPECT_GE(c, prev) << "n=" << n;
    prev = c;
  }
}

}  // namespace
}  // namespace sck::fault
