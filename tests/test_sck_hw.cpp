// Tests for SCK<T> on the hardware backend (HwOps + AluPool): functional
// equivalence with native semantics when fault-free, fault detection with
// the worst-case shared unit, and the §2.1 allocation-policy property
// (distinct units => 100% coverage), verified exhaustively.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/sck.h"
#include "core/sck_trials.h"
#include "fault/campaign.h"

namespace sck {
namespace {

using fault::CampaignOptions;
using fault::Technique;
using HwInt = SCK<int, kDefaultProfile, HwOps<int>>;

TEST(SckHwBackend, FaultFreeMatchesNativeSemantics) {
  AluPool pool(8, AllocationPolicy::kSharedSingle);
  ScopedAluPool guard(pool);
  Xoshiro256 rng(0x8e);
  for (int i = 0; i < 2000; ++i) {
    const int a = static_cast<int>(rng.bounded(256)) - 128;
    const int b = static_cast<int>(rng.bounded(256)) - 128;
    const HwInt x = a;
    const HwInt y = b;
    const SCK<int> nx = a;
    const SCK<int> ny = b;
    // 8-bit ring semantics: compare after ring truncation.
    EXPECT_EQ(from_signed((x + y).GetID(), 8), from_signed((nx + ny).GetID(), 8));
    EXPECT_EQ(from_signed((x - y).GetID(), 8), from_signed((nx - ny).GetID(), 8));
    EXPECT_EQ(from_signed((x * y).GetID(), 8), from_signed((nx * ny).GetID(), 8));
    EXPECT_FALSE((x + y).GetError());
    EXPECT_FALSE((x - y).GetError());
    EXPECT_FALSE((x * y).GetError());
    if (b != 0) {
      EXPECT_EQ((x / y).GetID(), a / b) << a << "/" << b;
      EXPECT_EQ((x % y).GetID(), a % b) << a << "%" << b;
      EXPECT_FALSE((x / y).GetError());
    }
  }
}

TEST(SckHwBackend, SignedDivisionTruncatesTowardZero) {
  AluPool pool(8, AllocationPolicy::kSharedSingle);
  ScopedAluPool guard(pool);
  EXPECT_EQ((HwInt(-7) / HwInt(2)).GetID(), -3);
  EXPECT_EQ((HwInt(-7) % HwInt(2)).GetID(), -1);
  EXPECT_EQ((HwInt(7) / HwInt(-2)).GetID(), -3);
  EXPECT_EQ((HwInt(7) % HwInt(-2)).GetID(), 1);
  EXPECT_TRUE((HwInt(7) / HwInt(0)).GetError());
}

TEST(SckHwBackend, InjectedAdderFaultRaisesErrors) {
  AluPool pool(6, AllocationPolicy::kSharedSingle);
  pool.inject(UnitKind::kAdder, hw::FaultSite{1, 14, true});  // sum stuck-at-1
  ScopedAluPool guard(pool);
  int flagged = 0;
  int wrong = 0;
  for (int a = 0; a < 32; ++a) {
    const HwInt r = HwInt(a) + HwInt(5);
    wrong += from_signed(r.GetID(), 6) != trunc(static_cast<Word>(a) + 5, 6);
    flagged += r.GetError();
  }
  EXPECT_GT(wrong, 0);
  EXPECT_GT(flagged, 0);
}

TEST(SckHwBackend, RequiresInstalledPool) {
  // Using the hardware backend without a ScopedAluPool is a precondition
  // violation, not UB.
  const HwInt x = 1;
  const HwInt y = 2;
  EXPECT_DEATH((void)(x + y), "Precondition");
}

TEST(SckHwBackend, ScopedPoolsNest) {
  AluPool outer(4, AllocationPolicy::kSharedSingle);
  AluPool inner(8, AllocationPolicy::kSharedSingle);
  ScopedAluPool g1(outer);
  EXPECT_EQ(ScopedAluPool::current().width(), 4);
  {
    ScopedAluPool g2(inner);
    EXPECT_EQ(ScopedAluPool::current().width(), 8);
  }
  EXPECT_EQ(ScopedAluPool::current().width(), 4);
}

TEST(SckHwBackend, InstalledPoolIsPerThread) {
  // The installed pool is thread_local: a pool installed on this thread is
  // invisible to another, which starts with none.
  AluPool pool(8, AllocationPolicy::kSharedSingle);
  ScopedAluPool guard(pool);
  ASSERT_TRUE(ScopedAluPool::installed());
  bool installed_elsewhere = true;
  std::thread other([&] { installed_elsewhere = ScopedAluPool::installed(); });
  other.join();
  EXPECT_FALSE(installed_elsewhere);
  EXPECT_EQ(&ScopedAluPool::current(), &pool);
}

// ---- the §2.1 allocation-policy property, exhaustively ---------------------

constexpr TechniqueProfile kT2Profile{Technique::kTech2, Technique::kTech2,
                                      Technique::kTech2, Technique::kTech2,
                                      true, true};
constexpr TechniqueProfile kBothProfile{Technique::kBoth, Technique::kBoth,
                                        Technique::kBoth, Technique::kBoth,
                                        true, true};

struct PolicyCase {
  AllocationPolicy policy;
  bool expect_full_coverage;
};

class AllocationPolicyTest : public ::testing::TestWithParam<PolicyCase> {};

TEST_P(AllocationPolicyTest, AddCoverageMatchesPaperClaim) {
  const auto [policy, expect_full] = GetParam();
  const int n = 4;
  AluPool pool(n, policy);
  std::vector<hw::FaultableUnit*> units{&pool.primary(UnitKind::kAdder)};

  const auto run = [&](auto trial) {
    return run_exhaustive(std::span<hw::FaultableUnit* const>(units), n, trial,
                          CampaignOptions{})
        .aggregate.coverage();
  };
  const double c1 = run(SckAddTrial<kDefaultProfile>{pool});
  const double c2 = run(SckAddTrial<kT2Profile>{pool});
  const double cb = run(SckAddTrial<kBothProfile>{pool});

  if (expect_full) {
    EXPECT_DOUBLE_EQ(c1, 1.0);
    EXPECT_DOUBLE_EQ(c2, 1.0);
    EXPECT_DOUBLE_EQ(cb, 1.0);
  } else {
    EXPECT_LT(c1, 1.0);
    EXPECT_GT(c1, 0.85);
    EXPECT_GE(cb, c1);
    EXPECT_GE(cb, c2);
  }
}

TEST_P(AllocationPolicyTest, MulCoverageMatchesPaperClaim) {
  const auto [policy, expect_full] = GetParam();
  const int n = 4;
  AluPool pool(n, policy);
  std::vector<hw::FaultableUnit*> units{&pool.primary(UnitKind::kMultiplier)};
  const double c =
      run_exhaustive(std::span<hw::FaultableUnit* const>(units), n,
                     SckMulTrial<kDefaultProfile>{pool}, CampaignOptions{})
          .aggregate.coverage();
  if (expect_full) {
    EXPECT_DOUBLE_EQ(c, 1.0);
  } else {
    EXPECT_LT(c, 1.0);
    EXPECT_GT(c, 0.8);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, AllocationPolicyTest,
    ::testing::Values(
        PolicyCase{AllocationPolicy::kSharedSingle, false},
        PolicyCase{AllocationPolicy::kDistinct, true},
        // Round-robin separates the two operations of every checked
        // operator whenever the op count per trial is even, which holds for
        // the add/mul trials here.
        PolicyCase{AllocationPolicy::kRoundRobin, true}),
    [](const auto& info) {
      switch (info.param.policy) {
        case AllocationPolicy::kSharedSingle:
          return "SharedSingle";
        case AllocationPolicy::kDistinct:
          return "Distinct";
        case AllocationPolicy::kRoundRobin:
          return "RoundRobin";
      }
      return "Unknown";
    });

TEST(SckHwBackend, DivisionCampaignShowsQrTradeoff) {
  const int n = 4;
  AluPool pool(n, AllocationPolicy::kSharedSingle);
  std::vector<hw::FaultableUnit*> units{&pool.primary(UnitKind::kDivider)};
  CampaignOptions opt;
  opt.skip_b_zero = true;
  const auto r =
      run_exhaustive(std::span<hw::FaultableUnit* const>(units), n,
                     SckDivTrial<kDefaultProfile>{pool}, opt);
  EXPECT_GT(r.aggregate.masked, 0u);
  // Division is the weakest operator, and more so at tiny widths where the
  // signed magnitudes leave few distinct quotients (Table 1's story).
  EXPECT_GT(r.aggregate.coverage(), 0.7);
  EXPECT_LT(r.aggregate.coverage(), 1.0);
}

}  // namespace
}  // namespace sck
