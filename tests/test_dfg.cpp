// Tests for the DFG IR and the kernel builders: structure, validation,
// and reference evaluation against hand-computed golden models.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/word.h"
#include "hls/builder.h"
#include "hls/dfg.h"

namespace sck::hls {
namespace {

using InputMap = std::unordered_map<std::string, std::uint64_t>;

TEST(Dfg, BuildAndTopoOrder) {
  Dfg g;
  const NodeId a = g.input("a", 8);
  const NodeId b = g.input("b", 8);
  const NodeId s = g.add(a, b);
  const NodeId p = g.mul(s, a);
  (void)g.output("out", p);
  g.validate();

  const auto order = g.topo_order();
  ASSERT_EQ(order.size(), g.size());
  std::vector<int> pos(g.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    pos[static_cast<std::size_t>(order[i])] = static_cast<int>(i);
  }
  for (NodeId id = 0; id < static_cast<NodeId>(g.size()); ++id) {
    if (g.node(id).op == Op::kReg) continue;
    for (const NodeId in : g.node(id).ins) {
      EXPECT_LT(pos[static_cast<std::size_t>(in)],
                pos[static_cast<std::size_t>(id)]);
    }
  }
}

TEST(Dfg, RegisterCycleIsSequentialNotCombinational) {
  Dfg g;
  const NodeId x = g.input("x", 8);
  const NodeId acc = g.state_reg("acc", 8);
  const NodeId s = g.add(acc, x);  // acc feeds an op that feeds acc: legal
  g.set_reg_next(acc, s);
  (void)g.output("acc_out", s);
  g.validate();

  std::vector<std::uint64_t> state{0};
  EXPECT_EQ(g.eval(InputMap{{"x", 5}}, state).outputs.at("acc_out"), 5u);
  EXPECT_EQ(state[0], 5u);
  EXPECT_EQ(g.eval(InputMap{{"x", 7}}, state).outputs.at("acc_out"), 12u);
  EXPECT_EQ(state[0], 12u);
}

TEST(Dfg, UnwiredRegisterDies) {
  Dfg g;
  (void)g.input("x", 8);
  (void)g.state_reg("d", 8);
  EXPECT_DEATH(g.validate(), "unwired");
}

TEST(Dfg, ArityViolationDies) {
  Dfg g;
  const NodeId a = g.input("a", 8);
  EXPECT_DEATH((void)g.op(Op::kAdd, {a}, 8), "Precondition");
}

TEST(Dfg, ConstantsAreSignExtendedIntoTheRing) {
  Dfg g;
  const NodeId a = g.input("a", 8);
  const NodeId c = g.constant(-3, 8);
  (void)g.output("y", g.mul(c, a));
  g.validate();
  std::vector<std::uint64_t> state;
  // -3 * 5 = -15 = 0xF1 in the 8-bit ring.
  EXPECT_EQ(g.eval(InputMap{{"a", 5}}, state).outputs.at("y"), 0xF1u);
}

TEST(Dfg, TopoOrderCacheInvalidatesOnMutation) {
  // topo_order() is cached on the graph (hoisted out of eval's hot loop);
  // any mutation must invalidate it.
  Dfg g;
  const NodeId a = g.input("a", 8);
  const NodeId b = g.input("b", 8);
  (void)g.output("s", g.add(a, b));
  const std::size_t before = g.topo_order().size();
  EXPECT_EQ(before, g.size());

  const NodeId p = g.mul(a, b);  // append after the cache was filled
  (void)g.output("p", p);
  EXPECT_EQ(g.topo_order().size(), g.size());
  EXPECT_GT(g.size(), before);

  // set_reg_next rewires an edge: the refreshed order must still be a
  // valid topological order (validate() recomputes and checks it).
  const NodeId acc = g.state_reg("acc", 8);
  (void)g.topo_order();
  g.set_reg_next(acc, g.add(acc, p));
  g.validate();
}

TEST(BuildFir, StructureMatchesSpec) {
  const FirSpec spec{{1, 2, 3, 4, 5, 6, 7, 8}, 16};
  const Dfg g = build_fir(spec);
  const auto hist = g.op_histogram();
  EXPECT_EQ(hist.at(Op::kMul), 8);
  EXPECT_EQ(hist.at(Op::kAdd), 7);
  EXPECT_EQ(hist.at(Op::kReg), 7);
  EXPECT_EQ(hist.at(Op::kInput), 1);
  EXPECT_EQ(hist.at(Op::kOutput), 1);
  EXPECT_EQ(hist.at(Op::kConst), 8);
}

/// Golden FIR: direct convolution with the same ring semantics.
std::vector<Word> golden_fir(const std::vector<long long>& coeffs,
                             const std::vector<Word>& xs, int width) {
  std::vector<Word> ys;
  std::deque<Word> delay(coeffs.size(), 0);
  for (const Word x : xs) {
    delay.push_front(trunc(x, width));
    delay.pop_back();
    Word acc = 0;
    for (std::size_t i = 0; i < coeffs.size(); ++i) {
      acc = add(acc, mul(from_signed(coeffs[i], width), delay[i], width),
                width);
    }
    ys.push_back(acc);
  }
  return ys;
}

TEST(BuildFir, MatchesDirectConvolution) {
  for (const int taps : {1, 2, 3, 5, 8, 16}) {
    std::vector<long long> coeffs;
    for (int i = 0; i < taps; ++i) coeffs.push_back(3 * i - taps);
    const FirSpec spec{coeffs, 16};
    const Dfg g = build_fir(spec);

    Xoshiro256 rng(0xF1A + static_cast<std::uint64_t>(taps));
    std::vector<Word> xs;
    for (int i = 0; i < 64; ++i) xs.push_back(rng.bounded(1u << 16));
    const std::vector<Word> want = golden_fir(coeffs, xs, 16);

    std::vector<std::uint64_t> state(g.state_regs().size(), 0);
    for (std::size_t k = 0; k < xs.size(); ++k) {
      const auto out = g.eval(InputMap{{"x", xs[k]}}, state);
      ASSERT_EQ(out.outputs.at("y"), want[k]) << "taps=" << taps << " k=" << k;
    }
  }
}

TEST(BuildIir, MatchesDifferenceEquation) {
  const IirBiquadSpec spec{3, -2, 1, 1, -1, 12};
  const Dfg g = build_iir_biquad(spec);

  Xoshiro256 rng(0x11B);
  std::vector<std::uint64_t> state(g.state_regs().size(), 0);
  Word x1 = 0, x2 = 0, y1 = 0, y2 = 0;
  for (int k = 0; k < 100; ++k) {
    const Word x = rng.bounded(1u << 12);
    const int w = 12;
    const Word ff =
        add(add(mul(from_signed(3, w), x, w), mul(from_signed(-2, w), x1, w), w),
            mul(from_signed(1, w), x2, w), w);
    const Word fb =
        add(mul(from_signed(1, w), y1, w), mul(from_signed(-1, w), y2, w), w);
    const Word want = sub(ff, fb, w);

    const auto out = g.eval(InputMap{{"x", x}}, state);
    ASSERT_EQ(out.outputs.at("y"), want) << "k=" << k;
    x2 = x1;
    x1 = x;
    y2 = y1;
    y1 = want;
  }
}

TEST(BuildDot, MatchesInnerProduct) {
  const Dfg g = build_dot(5, 16);
  InputMap in;
  Word want = 0;
  for (int i = 0; i < 5; ++i) {
    const Word a = static_cast<Word>(10 + i);
    const Word b = static_cast<Word>(3 * i + 1);
    in["a" + std::to_string(i)] = a;
    in["b" + std::to_string(i)] = b;
    want = add(want, mul(a, b, 16), 16);
  }
  std::vector<std::uint64_t> state;
  EXPECT_EQ(g.eval(in, state).outputs.at("dot"), want);
}

TEST(BuildMatvec, MatchesMatrixVectorProduct) {
  const std::vector<std::vector<long long>> m{{1, 2, 3}, {-1, 0, 5}};
  const Dfg g = build_matvec(m, 16);
  const InputMap in{{"v0", 7}, {"v1", 9}, {"v2", 2}};
  std::vector<std::uint64_t> state;
  const auto out = g.eval(in, state);
  EXPECT_EQ(to_signed(out.outputs.at("y0"), 16), 7 + 18 + 6);
  EXPECT_EQ(to_signed(out.outputs.at("y1"), 16), -7 + 0 + 10);
}

TEST(BuildMovingSum, MatchesWindowRecomputation) {
  // The incremental y[k] = y[k-1] + x[k] - x[k-window] update must equal a
  // from-scratch sum of the last `window` inputs in the 2^w ring — for
  // every prefix, across window depths (the state: window delay registers
  // plus the running-sum register).
  for (const int window : {1, 2, 4, 7}) {
    const int w = 12;
    const Dfg g = build_moving_sum(window, w);
    ASSERT_EQ(g.state_regs().size(), static_cast<std::size_t>(window) + 1);

    Xoshiro256 rng(0x3053 + static_cast<std::uint64_t>(window));
    std::vector<std::uint64_t> state(g.state_regs().size(), 0);
    std::vector<Word> history;
    for (int k = 0; k < 64; ++k) {
      const Word x = rng.bounded(Word{1} << w);
      history.push_back(x);
      Word want = 0;
      for (int i = 0; i < window; ++i) {
        const int idx = k - i;
        if (idx < 0) break;
        want = add(want, history[static_cast<std::size_t>(idx)], w);
      }
      const auto out = g.eval(InputMap{{"x", x}}, state);
      ASSERT_EQ(out.outputs.at("y"), want)
          << "window=" << window << " k=" << k;
    }
  }
}

}  // namespace
}  // namespace sck::hls
