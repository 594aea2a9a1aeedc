// Differential tests for the 64-lane bit-parallel engine: every unit kind,
// widths 4 / 8 / 16, the complete fault universe — the batch path must be
// lane-for-lane identical to the scalar LUT path, and the batched campaign
// drivers must produce bit-identical CampaignResults.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/sck_batch_trials.h"
#include "core/sck_trials.h"
#include "fault/batch_trials.h"
#include "fault/campaign.h"
#include "fault/trials.h"
#include "hw/array_multiplier.h"
#include "hw/carry_lookahead_adder.h"
#include "hw/carry_save_multiplier.h"
#include "hw/carry_select_adder.h"
#include "hw/carry_skip_adder.h"
#include "hw/non_restoring_divider.h"
#include "hw/restoring_divider.h"
#include "hw/ripple_carry_adder.h"
#include "hw/two_rail_checker.h"

namespace sck::fault {
namespace {

// Input pairs per fault: exhaustive at width 4, deterministic samples above
// (the *fault* universe is always swept completely).
std::vector<std::pair<Word, Word>> input_pairs(int width, bool skip_b_zero) {
  std::vector<std::pair<Word, Word>> pairs;
  const Word limit = Word{1} << width;
  if (width <= 4) {
    for (Word a = 0; a < limit; ++a) {
      for (Word b = skip_b_zero ? 1 : 0; b < limit; ++b) {
        pairs.emplace_back(a, b);
      }
    }
    return pairs;
  }
  Xoshiro256 rng(0xD1FFu + static_cast<std::uint64_t>(width));
  const int count = width <= 8 ? 128 : 64;
  for (int i = 0; i < count; ++i) {
    const Word a = rng.bounded(limit);
    const Word b =
        skip_b_zero ? 1 + rng.bounded(limit - 1) : rng.bounded(limit);
    pairs.emplace_back(a, b);
  }
  return pairs;
}

/// Sweep the unit's complete fault universe (plus fault-free); for every
/// fault and every input batch, compare `batch_op` lane by lane against
/// `scalar_op`. The scalar side takes the fault through set_fault, the
/// batch side through a lane-fault table that puts it on every lane.
template <typename Unit, typename ScalarOp, typename BatchOp>
void expect_lane_exact(Unit& unit, int width, bool skip_b_zero,
                       const ScalarOp& scalar_op, const BatchOp& batch_op) {
  const auto pairs = input_pairs(width, skip_b_zero);
  std::vector<hw::FaultSite> sites{hw::FaultSite{}};  // fault-free first
  for (const hw::FaultSite& site : unit.fault_universe()) {
    sites.push_back(site);
  }
  for (const hw::FaultSite& site : sites) {
    unit.set_fault(site);
    hw::LaneFaultSet table(unit.cell_count());
    if (site.active()) {
      hw::install_lane_fault(unit, table, site, hw::kAllLanes);
    }
    for (std::size_t base = 0; base < pairs.size(); base += hw::kLanes) {
      const int count = static_cast<int>(
          std::min<std::size_t>(hw::kLanes, pairs.size() - base));
      std::vector<Word> av(static_cast<std::size_t>(count));
      std::vector<Word> bv(static_cast<std::size_t>(count));
      for (int lane = 0; lane < count; ++lane) {
        av[static_cast<std::size_t>(lane)] = pairs[base + lane].first;
        bv[static_cast<std::size_t>(lane)] = pairs[base + lane].second;
      }
      const hw::BatchWord a = hw::pack(av, width);
      const hw::BatchWord b = hw::pack(bv, width);
      const auto batched = batch_op(unit, a, b);
      for (int lane = 0; lane < count; ++lane) {
        const auto scalar =
            scalar_op(unit, av[static_cast<std::size_t>(lane)],
                      bv[static_cast<std::size_t>(lane)]);
        ASSERT_EQ(scalar, batched(lane))
            << "width=" << width << " fault=" << to_string(site)
            << " a=" << av[static_cast<std::size_t>(lane)]
            << " b=" << bv[static_cast<std::size_t>(lane)];
      }
    }
    unit.set_lane_faults(nullptr);
    unit.clear_fault();
  }
}

constexpr int kWidths[] = {4, 8, 16};

// ---- packing ---------------------------------------------------------------

TEST(Batch, PackRoundTripAndLaneIndexPlanes) {
  std::vector<Word> vals;
  for (int i = 0; i < hw::kLanes; ++i) {
    vals.push_back(static_cast<Word>(i * 2654435761u));
  }
  const hw::BatchWord w = hw::pack(vals, 16);
  for (int lane = 0; lane < hw::kLanes; ++lane) {
    EXPECT_EQ(hw::lane_value(w, lane, 16),
              trunc(vals[static_cast<std::size_t>(lane)], 16));
  }
  // Packing consecutive integers reproduces the identity planes the
  // exhaustive generator relies on.
  std::vector<Word> seq;
  for (int i = 0; i < hw::kLanes; ++i) seq.push_back(static_cast<Word>(i));
  const hw::BatchWord s = hw::pack(seq, 8);
  for (int j = 0; j < 6; ++j) {
    EXPECT_EQ(s[j], hw::kLaneIndexPlane[static_cast<std::size_t>(j)]);
  }
  EXPECT_EQ(s[6], 0u);
  EXPECT_EQ(s[7], 0u);
}

TEST(Batch, PackPairsMatchesSeparatePacks) {
  Xoshiro256 rng(7);
  std::uint64_t rows[hw::kLanes];
  std::vector<Word> av;
  std::vector<Word> bv;
  for (int i = 0; i < hw::kLanes; ++i) {
    const Word a = rng.bounded(Word{1} << 16);
    const Word b = rng.bounded(Word{1} << 16);
    av.push_back(a);
    bv.push_back(b);
    rows[i] = a | (b << 32);
  }
  hw::BatchWord a;
  hw::BatchWord b;
  pack_pairs(rows, hw::kLanes, 16, a, b);
  for (int lane = 0; lane < hw::kLanes; ++lane) {
    EXPECT_EQ(hw::lane_value(a, lane, 16), av[static_cast<std::size_t>(lane)]);
    EXPECT_EQ(hw::lane_value(b, lane, 16), bv[static_cast<std::size_t>(lane)]);
  }
}

// ---- golden plane arithmetic ----------------------------------------------

TEST(Batch, GoldenPlaneArithmeticMatchesHost) {
  const int n = 11;
  Xoshiro256 rng(42);
  std::vector<Word> av;
  std::vector<Word> bv;
  for (int i = 0; i < hw::kLanes; ++i) {
    av.push_back(rng.bounded(Word{1} << n));
    bv.push_back(1 + rng.bounded((Word{1} << n) - 1));
  }
  const hw::BatchWord a = hw::pack(av, n);
  const hw::BatchWord b = hw::pack(bv, n);
  hw::BatchWord sum;
  const hw::LaneMask carry = hw::golden_add(a, b, hw::LaneMask{0}, n, sum);
  const hw::BatchWord diff = hw::golden_sub(a, b, n);
  const hw::BatchWord prod = hw::golden_mul(a, b, n);
  hw::BatchWord q;
  hw::BatchWord r;
  hw::golden_divmod(a, b, n, q, r);
  const hw::LaneResidue res = hw::residue3_planes(a, n);
  for (int lane = 0; lane < hw::kLanes; ++lane) {
    const Word x = av[static_cast<std::size_t>(lane)];
    const Word y = bv[static_cast<std::size_t>(lane)];
    EXPECT_EQ(hw::lane_value(sum, lane, n), add(x, y, n));
    EXPECT_EQ((carry >> lane) & 1u, (x + y) >> n);
    EXPECT_EQ(hw::lane_value(diff, lane, n), sub(x, y, n));
    EXPECT_EQ(hw::lane_value(prod, lane, n), mul(x, y, n));
    EXPECT_EQ(hw::lane_value(q, lane, n), x / y);
    EXPECT_EQ(hw::lane_value(r, lane, n + 1), x % y);
    const unsigned got = static_cast<unsigned>(((res.lo >> lane) & 1u) +
                                               2 * ((res.hi >> lane) & 1u));
    EXPECT_EQ(got, static_cast<unsigned>(x % 3));
  }
}

// ---- adders (4 architectures) ---------------------------------------------

template <typename Adder>
void adder_lane_exact() {
  for (const int n : kWidths) {
    Adder adder(n);
    // add with carry-out
    expect_lane_exact(
        adder, n, false,
        [n](const Adder& u, Word a, Word b) {
          bool cout = false;
          const Word s = u.add_c_out(a, b, false, cout);
          return s | (Word{cout} << n);
        },
        [n](const Adder& u, const hw::BatchWord& a, const hw::BatchWord& b) {
          hw::BatchWord sum;
          const hw::LaneMask cout = u.add_c_batch(a, b, hw::LaneMask{0}, sum);
          return [sum, cout, n](int lane) {
            return hw::lane_value(sum, lane, n) |
                   (Word{(cout >> lane) & 1u} << n);
          };
        });
    // sub (g-function path with carry-in 1)
    expect_lane_exact(
        adder, n, false,
        [](const Adder& u, Word a, Word b) { return u.sub(a, b); },
        [n](const Adder& u, const hw::BatchWord& a, const hw::BatchWord& b) {
          const hw::BatchWord d = u.sub_batch(a, b);
          return [d, n](int lane) { return hw::lane_value(d, lane, n); };
        });
  }
}

TEST(BatchUnits, RippleCarryAdderLaneExact) {
  adder_lane_exact<hw::RippleCarryAdder>();
}
TEST(BatchUnits, CarryLookaheadAdderLaneExact) {
  adder_lane_exact<hw::CarryLookaheadAdder>();
}
TEST(BatchUnits, CarrySelectAdderLaneExact) {
  adder_lane_exact<hw::CarrySelectAdder>();
}
TEST(BatchUnits, CarrySkipAdderLaneExact) {
  adder_lane_exact<hw::CarrySkipAdder>();
}

// ---- multipliers ----------------------------------------------------------

template <typename Mult>
void multiplier_lane_exact() {
  for (const int n : kWidths) {
    Mult mult(n);
    expect_lane_exact(
        mult, n, false,
        [](const Mult& u, Word a, Word b) { return u.mul(a, b); },
        [n](const Mult& u, const hw::BatchWord& a, const hw::BatchWord& b) {
          const hw::BatchWord p = u.mul_batch(a, b);
          return [p, n](int lane) { return hw::lane_value(p, lane, n); };
        });
  }
}

TEST(BatchUnits, ArrayMultiplierLaneExact) {
  multiplier_lane_exact<hw::ArrayMultiplier>();
}
TEST(BatchUnits, CarrySaveMultiplierLaneExact) {
  multiplier_lane_exact<hw::CarrySaveMultiplier>();
}

// ---- dividers -------------------------------------------------------------

template <typename Div>
void divider_lane_exact() {
  for (const int n : kWidths) {
    Div divider(n);
    expect_lane_exact(
        divider, n, /*skip_b_zero=*/true,
        [n](const Div& u, Word a, Word b) {
          const hw::DivResult d = u.divide(a, b);
          return d.quotient | (d.remainder << n);  // remainder is n+1 bits
        },
        [n](const Div& u, const hw::BatchWord& a, const hw::BatchWord& b) {
          const hw::BatchDivResult d = u.divide_batch(a, b);
          return [d, n](int lane) {
            return hw::lane_value(d.quotient, lane, n) |
                   (hw::lane_value(d.remainder, lane, n + 1) << n);
          };
        });
  }
}

TEST(BatchUnits, RestoringDividerLaneExact) {
  divider_lane_exact<hw::RestoringDivider>();
}
TEST(BatchUnits, NonRestoringDividerLaneExact) {
  divider_lane_exact<hw::NonRestoringDivider>();
}

// ---- per-lane fault tables -------------------------------------------------

/// One unit at plane width P with a lane-fault table: several faults per
/// cell on disjoint lanes scattered over the plane's 64-bit words (one lane
/// in eight stays fault-free), random operands per lane. Every lane must
/// equal the scalar unit carrying that lane's fault, first with every lane
/// armed, then with a random armed subset, where disarmed lanes must be
/// golden. Adds the row counts of the corrupted cells to `rows` (4:
/// 2-input cells, 8: 3-input cells).
template <typename P, typename Unit, typename ScalarOp, typename BatchOp>
void expect_lane_faults_exact(Unit& unit, bool skip_b_zero,
                              const ScalarOp& scalar_op,
                              const BatchOp& batch_op, std::set<int>& rows) {
  constexpr int kW = hw::PlaneTraits<P>::kLanes;
  const int n = unit.width();
  const Word limit = Word{1} << n;
  const std::vector<hw::FaultSite> universe = unit.fault_universe();
  Xoshiro256 rng(0x1A4Eu + static_cast<std::uint64_t>(kW));

  std::vector<int> order(kW);
  std::iota(order.begin(), order.end(), 0);
  for (int i = kW - 1; i > 0; --i) {
    std::swap(order[static_cast<std::size_t>(i)],
              order[rng.bounded(static_cast<std::uint64_t>(i) + 1)]);
  }
  std::vector<std::vector<hw::FaultSite>> by_cell(
      static_cast<std::size_t>(unit.cell_count()));
  for (const hw::FaultSite& f : universe) {
    by_cell[static_cast<std::size_t>(f.cell)].push_back(f);
  }
  // Groups of kPerCell lanes share a random cell; each lane of a group
  // takes the next of that cell's faults.
  constexpr int kPerCell = 6;
  std::vector<hw::FaultSite> lane_fault(kW);
  hw::LaneFaultSetT<P> table(unit.cell_count());
  std::size_t cell = 0;
  for (int i = 0; i < kW - kW / 8; ++i) {
    if (i % kPerCell == 0) cell = rng.bounded(by_cell.size());
    const std::vector<hw::FaultSite>& faults = by_cell[cell];
    const hw::FaultSite& f =
        faults[static_cast<std::size_t>(i % kPerCell) % faults.size()];
    const int lane = order[static_cast<std::size_t>(i)];
    lane_fault[static_cast<std::size_t>(lane)] = f;
    const hw::CellKind kind = unit.cell_kind(f.cell);
    table.add(f.cell, hw::faulty_cell_lut(kind, f.line, f.stuck_value),
              hw::plane_bit<P>(lane));
    rows.insert(hw::cell_rows(kind));
  }

  for (int round = 0; round < 6; ++round) {
    P armed = hw::plane_ones<P>();
    if (round >= 3) {
      for (int w = 0; w < hw::PlaneTraits<P>::kWords; ++w) {
        hw::PlaneTraits<P>::set_word(armed, w, rng.next());
      }
      table.arm(armed);
    }
    std::vector<Word> av(kW);
    std::vector<Word> bv(kW);
    for (int lane = 0; lane < kW; ++lane) {
      av[static_cast<std::size_t>(lane)] = rng.bounded(limit);
      bv[static_cast<std::size_t>(lane)] =
          skip_b_zero ? 1 + rng.bounded(limit - 1) : rng.bounded(limit);
    }
    unit.set_lane_faults(&table);
    const auto batched =
        batch_op(unit, hw::pack<P>(av, n), hw::pack<P>(bv, n));
    unit.set_lane_faults(nullptr);
    for (int lane = 0; lane < kW; ++lane) {
      const bool is_armed = hw::plane_test(armed, lane);
      const hw::FaultSite site =
          is_armed ? lane_fault[static_cast<std::size_t>(lane)]
                   : hw::FaultSite{};
      unit.set_fault(site);
      ASSERT_EQ(scalar_op(unit, av[static_cast<std::size_t>(lane)],
                          bv[static_cast<std::size_t>(lane)]),
                batched(lane))
          << "lanes=" << kW << " lane=" << lane << " fault=" << to_string(site)
          << " armed=" << is_armed;
    }
    unit.clear_fault();
  }
}

template <typename Unit, typename ScalarOp, typename BatchOp>
std::set<int> lane_faults_exact_64_and_512(Unit& unit, bool skip_b_zero,
                                           const ScalarOp& scalar_op,
                                           const BatchOp& batch_op) {
  std::set<int> rows;
  expect_lane_faults_exact<hw::Plane64>(unit, skip_b_zero, scalar_op,
                                        batch_op, rows);
  expect_lane_faults_exact<hw::Plane512>(unit, skip_b_zero, scalar_op,
                                         batch_op, rows);
  return rows;
}

/// Add with carry-out and subtract, packed into one value per lane.
template <typename Adder>
std::set<int> adder_lane_faults_exact() {
  Adder adder(4);
  return lane_faults_exact_64_and_512(
      adder, false,
      [](const Adder& u, Word a, Word b) {
        bool cout = false;
        const Word s = u.add_c_out(a, b, false, cout);
        return s | (Word{cout} << 4) | (u.sub(a, b) << 5);
      },
      [](const Adder& u, const auto& a, const auto& b) {
        using P = std::decay_t<decltype(a[0])>;
        hw::BatchWordT<P> sum;
        const P cout = u.add_c_batch(a, b, P{}, sum);
        const hw::BatchWordT<P> diff = u.sub_batch(a, b);
        return [sum, cout, diff](int lane) {
          return hw::lane_value(sum, lane, 4) |
                 (Word{hw::plane_test(cout, lane)} << 4) |
                 (hw::lane_value(diff, lane, 4) << 5);
        };
      });
}

template <typename Mult>
std::set<int> multiplier_lane_faults_exact() {
  Mult mult(4);
  return lane_faults_exact_64_and_512(
      mult, false, [](const Mult& u, Word a, Word b) { return u.mul(a, b); },
      [](const Mult& u, const auto& a, const auto& b) {
        const auto p = u.mul_batch(a, b);
        return [p](int lane) { return hw::lane_value(p, lane, 4); };
      });
}

template <typename Div>
std::set<int> divider_lane_faults_exact() {
  Div divider(4);
  return lane_faults_exact_64_and_512(
      divider, /*skip_b_zero=*/true,
      [](const Div& u, Word a, Word b) {
        const hw::DivResult d = u.divide(a, b);
        return d.quotient | (d.remainder << 4);
      },
      [](const Div& u, const auto& a, const auto& b) {
        const auto d = u.divide_batch(a, b);
        return [d](int lane) {
          return hw::lane_value(d.quotient, lane, 4) |
                 (hw::lane_value(d.remainder, lane, 5) << 4);
        };
      });
}

const std::set<int> kTwoAndThreeInputCells = {4, 8};

TEST(LaneFaultTables, RippleCarryAdderLaneExact) {
  EXPECT_EQ(adder_lane_faults_exact<hw::RippleCarryAdder>(),
            std::set<int>{8});
}
TEST(LaneFaultTables, CarryLookaheadAdderLaneExact) {
  EXPECT_EQ(adder_lane_faults_exact<hw::CarryLookaheadAdder>(),
            std::set<int>{4});  // PG, sum, AND and OR cells only
}
TEST(LaneFaultTables, CarrySelectAdderLaneExact) {
  EXPECT_EQ(adder_lane_faults_exact<hw::CarrySelectAdder>().count(8), 1u);
}
TEST(LaneFaultTables, CarrySkipAdderLaneExact) {
  EXPECT_EQ(adder_lane_faults_exact<hw::CarrySkipAdder>().count(8), 1u);
}
TEST(LaneFaultTables, ArrayMultiplierLaneExact) {
  EXPECT_EQ(multiplier_lane_faults_exact<hw::ArrayMultiplier>(),
            kTwoAndThreeInputCells);
}
TEST(LaneFaultTables, CarrySaveMultiplierLaneExact) {
  EXPECT_EQ(multiplier_lane_faults_exact<hw::CarrySaveMultiplier>(),
            kTwoAndThreeInputCells);
}
TEST(LaneFaultTables, RestoringDividerLaneExact) {
  EXPECT_EQ(divider_lane_faults_exact<hw::RestoringDivider>().count(8), 1u);
}
TEST(LaneFaultTables, NonRestoringDividerLaneExact) {
  EXPECT_EQ(divider_lane_faults_exact<hw::NonRestoringDivider>().count(8),
            1u);
}

TEST(LaneFaultTables, ClearDropsEveryFaultAndRearmsEveryLane) {
  hw::LaneFaultSetT<hw::Plane512> table(4);
  table.add(2, hw::faulty_cell_lut(hw::CellKind::kAnd, 0, 1),
            hw::plane_bit<hw::Plane512>(300));
  table.arm(hw::plane_bit<hw::Plane512>(7));
  EXPECT_TRUE(table.cell_faulty(2));
  EXPECT_FALSE(table.cell_faulty(1));
  table.clear();
  EXPECT_TRUE(table.empty());
  EXPECT_FALSE(table.cell_faulty(2));
  EXPECT_EQ(table.armed(), hw::plane_ones<hw::Plane512>());
}

// ---- two-rail checker ------------------------------------------------------

TEST(BatchUnits, TwoRailCheckerLaneExact) {
  for (const int n : kWidths) {
    hw::TwoRailChecker checker(n);
    // Half the pairs equal (code inputs), half arbitrary: the TSC property
    // matters on code inputs, the masking behaviour on non-code inputs.
    expect_lane_exact(
        checker, n, false,
        [](const hw::TwoRailChecker& u, Word a, Word b) {
          const hw::RailPair p = u.compare(a, b % 2 == 0 ? a : b);
          return static_cast<Word>(p.f | (p.g << 1));
        },
        [](const hw::TwoRailChecker& u, const hw::BatchWord& a,
           const hw::BatchWord& b) {
          // Lane-wise "b even -> compare(a, a)" selection, in plane space.
          hw::BatchWord rhs;
          const hw::LaneMask even = ~b[0];
          for (int i = 0; i < kMaxWidth; ++i) {
            rhs[i] = (even & a[i]) | (~even & b[i]);
          }
          const auto p = u.compare_batch(a, rhs);
          return [p](int lane) {
            return static_cast<Word>(((p.f >> lane) & 1u) |
                                     (((p.g >> lane) & 1u) << 1));
          };
        });
  }
}

// ---- trial functors: lane outcomes == scalar outcomes ----------------------

TEST(BatchTrials, AddSubLaneOutcomesMatchScalar) {
  const int n = 4;
  for (const Technique t : {Technique::kTech1, Technique::kTech2,
                            Technique::kBoth, Technique::kResidue3}) {
    hw::RippleCarryAdder adder(n);
    const AddTrial<hw::RippleCarryAdder> add_s{adder, t};
    const AddBatchTrial<hw::RippleCarryAdder> add_b{adder, t};
    const SubTrial<hw::RippleCarryAdder> sub_s{adder, t};
    const SubBatchTrial<hw::RippleCarryAdder> sub_b{adder, t};
    const auto pairs = input_pairs(n, false);
    std::vector<hw::FaultSite> sites{hw::FaultSite{}};
    for (const auto& site : adder.fault_universe()) sites.push_back(site);
    for (const auto& site : sites) {
      adder.set_fault(site);
      hw::LaneFaultSet table(adder.cell_count());
      if (site.active()) {
        hw::install_lane_fault(adder, table, site, hw::kAllLanes);
      }
      for (std::size_t base = 0; base < pairs.size(); base += hw::kLanes) {
        const int count = static_cast<int>(
            std::min<std::size_t>(hw::kLanes, pairs.size() - base));
        std::vector<Word> av;
        std::vector<Word> bv;
        for (int lane = 0; lane < count; ++lane) {
          av.push_back(pairs[base + lane].first);
          bv.push_back(pairs[base + lane].second);
        }
        const hw::BatchWord a = hw::pack(av, n);
        const hw::BatchWord b = hw::pack(bv, n);
        const LaneVerdict va = add_b(a, b);
        const LaneVerdict vs = sub_b(a, b);
        for (int lane = 0; lane < count; ++lane) {
          ASSERT_EQ(add_s(av[static_cast<std::size_t>(lane)],
                          bv[static_cast<std::size_t>(lane)]),
                    lane_outcome(va, lane))
              << "add tech=" << to_string(t) << " fault=" << to_string(site);
          ASSERT_EQ(sub_s(av[static_cast<std::size_t>(lane)],
                          bv[static_cast<std::size_t>(lane)]),
                    lane_outcome(vs, lane))
              << "sub tech=" << to_string(t) << " fault=" << to_string(site);
        }
      }
      adder.set_lane_faults(nullptr);
      adder.clear_fault();
    }
  }
}

// ---- drivers: bit-identical CampaignResult ---------------------------------

void expect_identical(const CampaignResult& x, const CampaignResult& y) {
  EXPECT_EQ(x.aggregate.silent_correct, y.aggregate.silent_correct);
  EXPECT_EQ(x.aggregate.detected_correct, y.aggregate.detected_correct);
  EXPECT_EQ(x.aggregate.detected_erroneous, y.aggregate.detected_erroneous);
  EXPECT_EQ(x.aggregate.masked, y.aggregate.masked);
  EXPECT_EQ(x.fault_universe_size, y.fault_universe_size);
  EXPECT_EQ(x.has_observable_fault, y.has_observable_fault);
  EXPECT_EQ(x.min_fault_coverage, y.min_fault_coverage);  // bit-identical
  EXPECT_EQ(x.max_fault_coverage, y.max_fault_coverage);
  ASSERT_EQ(x.per_fault.size(), y.per_fault.size());
  for (std::size_t i = 0; i < x.per_fault.size(); ++i) {
    EXPECT_EQ(x.per_fault[i].unit_index, y.per_fault[i].unit_index);
    EXPECT_TRUE(x.per_fault[i].site == y.per_fault[i].site);
    EXPECT_EQ(x.per_fault[i].stats.silent_correct,
              y.per_fault[i].stats.silent_correct);
    EXPECT_EQ(x.per_fault[i].stats.detected_correct,
              y.per_fault[i].stats.detected_correct);
    EXPECT_EQ(x.per_fault[i].stats.detected_erroneous,
              y.per_fault[i].stats.detected_erroneous);
    EXPECT_EQ(x.per_fault[i].stats.masked, y.per_fault[i].stats.masked);
  }
}

TEST(BatchDrivers, ExhaustiveBitIdenticalToScalar) {
  const int n = 4;
  hw::RippleCarryAdder adder(n);
  std::vector<hw::FaultableUnit*> units{&adder};
  CampaignOptions opt;
  opt.keep_per_fault = true;
  for (const Technique t : {Technique::kTech1, Technique::kBoth}) {
    const AddTrial<hw::RippleCarryAdder> st{adder, t};
    const AddBatchTrial<hw::RippleCarryAdder> bt{adder, t};
    expect_identical(run_exhaustive(units, n, st, opt),
                     run_exhaustive_batched(units, n, bt, opt));
  }
}

TEST(BatchDrivers, ExhaustiveDivisionWithSkipBZero) {
  const int n = 4;
  hw::RestoringDivider divider(n);
  hw::ArrayMultiplier mult(n);
  hw::RippleCarryAdder adder(n);
  // Multi-unit campaign: the faulty unit rotates over all three.
  std::vector<hw::FaultableUnit*> units{&divider, &mult, &adder};
  CampaignOptions opt;
  opt.skip_b_zero = true;
  opt.keep_per_fault = true;
  const DivTrial<hw::RippleCarryAdder> st{divider, mult, adder,
                                          Technique::kBoth};
  const DivBatchTrial<hw::RestoringDivider, hw::ArrayMultiplier,
                      hw::RippleCarryAdder>
      bt{divider, mult, adder, Technique::kBoth};
  expect_identical(run_exhaustive(units, n, st, opt),
                   run_exhaustive_batched(units, n, bt, opt));
}

TEST(BatchDrivers, SampledBitIdenticalToScalar) {
  for (const int n : {6, 16}) {
    hw::RippleCarryAdder adder(n);
    std::vector<hw::FaultableUnit*> units{&adder};
    CampaignOptions opt;
    opt.keep_per_fault = true;
    const AddTrial<hw::RippleCarryAdder> st{adder, Technique::kBoth};
    const AddBatchTrial<hw::RippleCarryAdder> bt{adder, Technique::kBoth};
    expect_identical(
        run_sampled(units, n, st, 50'000, 0xDA7E2005, opt),
        run_sampled_batched(units, n, bt, 50'000, 0xDA7E2005, opt));
  }
}

TEST(BatchDrivers, SampledDivisionBitIdenticalToScalar) {
  const int n = 6;
  hw::RestoringDivider divider(n);
  hw::ArrayMultiplier mult(n);
  hw::RippleCarryAdder adder(n);
  std::vector<hw::FaultableUnit*> units{&divider};
  CampaignOptions opt;
  opt.skip_b_zero = true;
  opt.keep_per_fault = true;
  const DivTrial<hw::RippleCarryAdder> st{divider, mult, adder,
                                          Technique::kTech1};
  const DivBatchTrial<hw::RestoringDivider, hw::ArrayMultiplier,
                      hw::RippleCarryAdder>
      bt{divider, mult, adder, Technique::kTech1};
  expect_identical(run_sampled(units, n, st, 30'000, 0x51C0, opt),
                   run_sampled_batched(units, n, bt, 30'000, 0x51C0, opt));
}

TEST(BatchDrivers, LeaveNoLaneFaultTableInstalled) {
  const int n = 4;
  hw::RestoringDivider divider(n);
  hw::ArrayMultiplier mult(n);
  hw::RippleCarryAdder adder(n);
  std::vector<hw::FaultableUnit*> units{&divider, &mult, &adder};
  CampaignOptions opt;
  opt.skip_b_zero = true;
  const DivBatchTrial<hw::RestoringDivider, hw::ArrayMultiplier,
                      hw::RippleCarryAdder>
      bt{divider, mult, adder, Technique::kBoth};
  const hw::RestoringDivider golden_div(n);
  const hw::ArrayMultiplier golden_mult(n);
  const hw::RippleCarryAdder golden_adder(n);

  // Every unit must evaluate every input pair's planes like a fresh,
  // fault-free twin.
  const auto expect_golden = [&](const char* campaign) {
    const auto pairs = input_pairs(n, /*skip_b_zero=*/true);
    for (std::size_t base = 0; base < pairs.size(); base += hw::kLanes) {
      std::vector<Word> av;
      std::vector<Word> bv;
      for (std::size_t i = base;
           i < std::min(pairs.size(), base + hw::kLanes); ++i) {
        av.push_back(pairs[i].first);
        bv.push_back(pairs[i].second);
      }
      const hw::BatchWord a = hw::pack(av, n);
      const hw::BatchWord b = hw::pack(bv, n);
      const hw::BatchDivResult d = divider.divide_batch(a, b);
      const hw::BatchDivResult gd = golden_div.divide_batch(a, b);
      EXPECT_EQ(d.quotient.p, gd.quotient.p) << "divider after " << campaign;
      EXPECT_EQ(d.remainder.p, gd.remainder.p) << "divider after " << campaign;
      EXPECT_EQ(mult.mul_batch(a, b).p, golden_mult.mul_batch(a, b).p)
          << "multiplier after " << campaign;
      EXPECT_EQ(adder.add_batch(a, b).p, golden_adder.add_batch(a, b).p)
          << "adder after " << campaign;
    }
  };
  (void)run_exhaustive_batched(units, n, bt, opt);
  expect_golden("run_exhaustive_batched");
  (void)run_sampled_batched(units, n, bt, 20'000, 0x7AB1E, opt);
  expect_golden("run_sampled_batched");
}

// ---- whole-mechanism (core) batched trials ---------------------------------

TEST(SckBatchTrials, MatchScalarMechanismPerPolicy) {
  const int n = 4;
  for (const AllocationPolicy policy :
       {AllocationPolicy::kSharedSingle, AllocationPolicy::kDistinct}) {
    CampaignOptions opt;
    opt.keep_per_fault = true;
    {
      AluPool pool(n, policy);
      std::vector<hw::FaultableUnit*> units{&pool.primary(UnitKind::kAdder)};
      const SckAddTrial<> st{pool};
      const SckAddBatchTrial bt{pool, Technique::kTech1};
      expect_identical(run_exhaustive(units, n, st, opt),
                       run_exhaustive_batched(units, n, bt, opt));
    }
    {
      AluPool pool(n, policy);
      std::vector<hw::FaultableUnit*> units{&pool.primary(UnitKind::kAdder)};
      const SckSubTrial<> st{pool};
      const SckSubBatchTrial bt{pool, Technique::kTech1};
      expect_identical(run_exhaustive(units, n, st, opt),
                       run_exhaustive_batched(units, n, bt, opt));
    }
    {
      AluPool pool(n, policy);
      std::vector<hw::FaultableUnit*> units{
          &pool.primary(UnitKind::kMultiplier)};
      const SckMulTrial<> st{pool};
      const SckMulBatchTrial bt{pool, Technique::kTech1};
      expect_identical(run_exhaustive(units, n, st, opt),
                       run_exhaustive_batched(units, n, bt, opt));
    }
  }
}

}  // namespace
}  // namespace sck::fault
