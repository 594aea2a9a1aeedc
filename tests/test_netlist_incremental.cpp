// Differential suites for the golden-trace incremental backend: every
// backend must produce bit-identical NetlistCampaignResults on the shared
// input stream, and kIncremental — which replays only the union fault cone
// of each batch and splices everything else from the golden trace — must
// match kBatched over the FULL FU fault universes of the synthesized
// netlists at any thread count, including partial final batches. These
// tests are the contract that lets coverage campaigns run on the
// incremental engine.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "hls/builder.h"
#include "hls/expand_sck.h"
#include "hls/netlist.h"
#include "hls/netlist_campaign.h"
#include "hls/netlist_exec.h"
#include "hls/schedule.h"
#include "netlist_test_util.h"

namespace sck::hls {
namespace {

/// The incremental contract on one design: under a shared stream, the
/// FULL FU fault universe swept by kIncremental must be bit-identical to
/// kBatched (and both cover real work) at thread counts 1/2/8 — the lane
/// packing of a full universe always ends in a partial final batch here,
/// so the prefix-mask path is exercised on every design.
void expect_incremental_identical(const Dfg& g, const Netlist& nl,
                                  int samples, std::uint64_t seed) {
  NetlistCampaignOptions opt;
  opt.samples_per_fault = samples;
  opt.seed = seed;

  opt.backend = NetlistBackend::kBatched;
  opt.threads = 1;
  const auto batched_r = run_netlist_campaign(g, nl, opt);
  EXPECT_GT(batched_r.aggregate.total(), 0u);

  opt.backend = NetlistBackend::kIncremental;
  for (const int threads : {1, 2, 8}) {
    opt.threads = threads;
    const auto inc_r = run_netlist_campaign(g, nl, opt);
    EXPECT_TRUE(same_campaign_result(batched_r, inc_r))
        << nl.name << ": incremental diverged at " << threads << " thread(s)";
  }
}

TEST(NetlistIncremental, FirClassBasedWidth4) {
  const Dfg g = ced(build_fir(FirSpec{{3, -5, 7}, 4}), CedStyle::kClassBased);
  expect_incremental_identical(
      g, synthesize(g, ResourceConstraints::min_area(), "fir4"), 8, 0xA1);
}

TEST(NetlistIncremental, FirClassBasedWidth8) {
  const Dfg g =
      ced(build_fir(FirSpec{{3, -5, 7, -5, 3}, 8}), CedStyle::kClassBased);
  expect_incremental_identical(
      g, synthesize(g, ResourceConstraints::min_area(), "fir8"), 6, 0xA2);
}

TEST(NetlistIncremental, FirEmbeddedWidth8) {
  const Dfg g = ced(build_fir(FirSpec{{2, 3, -5, 7}, 8}), CedStyle::kEmbedded);
  expect_incremental_identical(
      g, synthesize(g, ResourceConstraints::min_area(), "fire8"), 6, 0xA3);
}

TEST(NetlistIncremental, PlainFirNoErrorOutputWidth8) {
  // Plain netlists exercise the no-error-output path (nothing ever
  // detects; every erroneous sample is masked).
  const Dfg g = build_fir(FirSpec{{1, -2, 3}, 8});
  expect_incremental_identical(
      g, synthesize(g, ResourceConstraints::min_area(), "firp"), 6, 0xA4);
}

TEST(NetlistIncremental, IirWidth4) {
  const Dfg g = ced(build_iir_biquad(IirBiquadSpec{3, -2, 1, 1, -1, 4}),
                    CedStyle::kClassBased);
  expect_incremental_identical(
      g, synthesize(g, ResourceConstraints::min_area(), "iir4"), 8, 0xA5);
}

TEST(NetlistIncremental, IirWidth8) {
  // The IIR's feedback registers stress the cross-sample cone fixpoint: a
  // perturbed state register re-taints every later sample.
  const Dfg g = ced(build_iir_biquad(IirBiquadSpec{3, -2, 1, 1, -1, 8}),
                    CedStyle::kClassBased);
  expect_incremental_identical(
      g, synthesize(g, ResourceConstraints::min_area(), "iir8"), 6, 0xA6);
}

TEST(NetlistIncremental, DivmodWidth4) {
  // Covers the divider's batch path plus the Eq/IsZero comparator glue.
  const Dfg g = ced(build_divmod(4), CedStyle::kClassBased);
  expect_incremental_identical(
      g, synthesize(g, ResourceConstraints::min_area(), "dm4"), 8, 0xA7);
}

TEST(NetlistIncremental, DivmodWidth8) {
  const Dfg g = ced(build_divmod(8), CedStyle::kClassBased);
  expect_incremental_identical(
      g, synthesize(g, ResourceConstraints::min_area(), "dm8"), 4, 0xA8);
}

TEST(NetlistIncremental, MatvecClassBasedWidth4) {
  // First multi-output (non-divmod) workload: per-output check cones and
  // multi-output cone fencing, 2 data outputs + error.
  const Dfg g = ced(build_matvec({{2, -3, 1}, {-1, 4, 2}}, 4),
                    CedStyle::kClassBased);
  expect_incremental_identical(
      g, synthesize(g, ResourceConstraints::min_area(), "mv4"), 8, 0xB1);
}

TEST(NetlistIncremental, MatvecClassBasedWidth8) {
  const Dfg g = ced(build_matvec({{2, -3, 1}, {-1, 4, 2}}, 8),
                    CedStyle::kClassBased);
  expect_incremental_identical(
      g, synthesize(g, ResourceConstraints::min_area(), "mv8"), 4, 0xB2);
}

TEST(NetlistIncremental, MatvecPlainMultiOutputWidth8) {
  // Plain multi-output: every erroneous sample on any of the three
  // outputs must classify as masked identically across backends.
  const Dfg g = build_matvec({{1, 2}, {3, -1}, {-2, 5}}, 8);
  expect_incremental_identical(
      g, synthesize(g, ResourceConstraints::min_area(), "mvp"), 6, 0xB3);
}

TEST(NetlistIncremental, MovingSumClassBasedWidth4) {
  // The most state-heavy netlist in the set: a 4-deep window + running-sum
  // register against two data ops — faults persist in state across many
  // samples, stressing the cross-sample cone fixpoint and the golden
  // register timeline.
  const Dfg g = ced(build_moving_sum(4, 4), CedStyle::kClassBased);
  expect_incremental_identical(
      g, synthesize(g, ResourceConstraints::min_area(), "ms4"), 12, 0xB4);
}

TEST(NetlistIncremental, MovingSumClassBasedWidth8) {
  const Dfg g = ced(build_moving_sum(6, 8), CedStyle::kClassBased);
  expect_incremental_identical(
      g, synthesize(g, ResourceConstraints::min_area(), "ms8"), 10, 0xB5);
}

TEST(NetlistIncremental, MovingSumEmbeddedWidth8) {
  const Dfg g = ced(build_moving_sum(4, 8), CedStyle::kEmbedded);
  expect_incremental_identical(
      g, synthesize(g, ResourceConstraints::min_area(), "mse8"), 10, 0xB6);
}

// ---- shared-stream mode across all three backends -------------------------

TEST(NetlistIncremental, SharedStreamIdenticalAcrossAllBackends) {
  // The scalar interpreter anchors the shared-stream semantics: batched
  // and incremental must reproduce it bit for bit (full universe incl.
  // the partial final batch; multi-threaded on the batched leg).
  const Dfg g =
      ced(build_fir(FirSpec{{2, 3, -5, 7}, 8}), CedStyle::kClassBased);
  const Netlist nl = synthesize(g, ResourceConstraints::min_area(), "shr");

  NetlistCampaignOptions opt;
  opt.samples_per_fault = 8;
  opt.fault_stride = 3;  // subsample for the scalar anchor's sake
  opt.seed = 0x5A5A;

  opt.backend = NetlistBackend::kScalar;
  opt.threads = 1;
  const auto scalar_r = run_netlist_campaign(g, nl, opt);
  EXPECT_GT(scalar_r.aggregate.observable_errors(), 0u);

  opt.backend = NetlistBackend::kBatched;
  opt.threads = 3;
  const auto batched_r = run_netlist_campaign(g, nl, opt);
  EXPECT_TRUE(same_campaign_result(scalar_r, batched_r));

  opt.backend = NetlistBackend::kIncremental;
  opt.threads = 2;
  const auto inc_r = run_netlist_campaign(g, nl, opt);
  EXPECT_TRUE(same_campaign_result(scalar_r, inc_r));
}

// ---- fault dropping -------------------------------------------------------

/// The drop-mode contract on one design: dropping retires a lane after
/// its FIRST detected sample. Until that sample the simulation is
/// identical to the full run, so per unit:
///  - a unit detects in the drop run iff it detects in the full run;
///  - units that never detect are untouched by dropping (bit-identical);
///  - dropped lanes only ever remove samples (totals shrink, never grow).
/// Checked at thread counts 1/2/8 (the full universes here end in partial
/// final batches, so the prefix-mask retire path is always exercised).
void expect_drop_consistent(const Dfg& g, const Netlist& nl, int samples,
                            std::uint64_t seed, int fault_stride = 1) {
  NetlistCampaignOptions opt;
  opt.samples_per_fault = samples;
  opt.seed = seed;
  opt.fault_stride = fault_stride;
  opt.backend = NetlistBackend::kIncremental;

  const auto full_r = run_netlist_campaign(g, nl, opt);
  opt.fault_dropping = true;
  for (const int threads : {1, 2, 8}) {
    opt.threads = threads;
    const auto drop_r = run_netlist_campaign(g, nl, opt);
    ASSERT_EQ(drop_r.per_unit.size(), full_r.per_unit.size()) << nl.name;
    EXPECT_EQ(drop_r.fault_universe_size, full_r.fault_universe_size);
    EXPECT_LE(drop_r.aggregate.total(), full_r.aggregate.total());
    EXPECT_LT(drop_r.aggregate.total(), full_r.aggregate.total())
        << nl.name << ": a self-checking design that never detects anything?";
    for (std::size_t u = 0; u < full_r.per_unit.size(); ++u) {
      const fault::CampaignStats& full = full_r.per_unit[u].stats;
      const fault::CampaignStats& drop = drop_r.per_unit[u].stats;
      EXPECT_EQ(drop.detections() > 0, full.detections() > 0)
          << nl.name << ": " << full_r.per_unit[u].fu_name;
      EXPECT_LE(drop.total(), full.total());
      if (full.detections() == 0) {
        EXPECT_EQ(drop.silent_correct, full.silent_correct);
        EXPECT_EQ(drop.masked, full.masked);
      }
    }
  }
}

TEST(NetlistIncremental, FaultDroppingPreservesTheDetectionSet) {
  const Dfg g =
      ced(build_fir(FirSpec{{3, -5, 7, -5, 3}, 8}), CedStyle::kClassBased);
  expect_drop_consistent(
      g, synthesize(g, ResourceConstraints::min_area(), "drop"), 12, 0xD0);
}

TEST(NetlistIncremental, FaultDroppingOnMatvec) {
  // Multi-output drop semantics: a lane retires on the shared error flag,
  // which aggregates the per-output check cones — consistency must hold
  // for faults observable on either data output.
  const Dfg g = ced(build_matvec({{2, -3, 1}, {-1, 4, 2}}, 8),
                    CedStyle::kClassBased);
  expect_drop_consistent(
      g, synthesize(g, ResourceConstraints::min_area(), "dropmv"), 10, 0xD1);
}

TEST(NetlistIncremental, FaultDroppingOnMatvecStridedPartialBatch) {
  // fault_stride shrinks the job list to a single partial batch, so the
  // retire mask and the batch prefix mask interact on the same word.
  const Dfg g = ced(build_matvec({{2, -3, 1}, {-1, 4, 2}}, 4),
                    CedStyle::kClassBased);
  expect_drop_consistent(g,
                         synthesize(g, ResourceConstraints::min_area(), "dsmv"),
                         10, 0xD2, /*fault_stride=*/9);
}

TEST(NetlistIncremental, FaultDroppingOnMovingSum) {
  // State-heavy drop semantics: window faults often detect only several
  // samples after injection (the corrupt value must reach the running
  // sum), so retire points spread across the whole sample axis.
  const Dfg g = ced(build_moving_sum(4, 8), CedStyle::kClassBased);
  expect_drop_consistent(
      g, synthesize(g, ResourceConstraints::min_area(), "dropms"), 14, 0xD3);
}

TEST(NetlistIncremental, FaultDroppingOnMovingSumStridedPartialBatch) {
  const Dfg g = ced(build_moving_sum(6, 4), CedStyle::kClassBased);
  expect_drop_consistent(g,
                         synthesize(g, ResourceConstraints::min_area(), "dsms"),
                         12, 0xD4, /*fault_stride=*/5);
}

// ---- cone analysis --------------------------------------------------------

TEST(NetlistIncremental, FaultConesCoverEveryFusOwnOps) {
  // Minimal structural sanity on the cone masks themselves: every FU's
  // cone contains at least all ops executing on that FU, and no cone
  // exceeds the plan.
  const Dfg g =
      ced(build_fir(FirSpec{{3, -5, 7}, 8}), CedStyle::kClassBased);
  const Netlist nl = synthesize(g, ResourceConstraints::min_area(), "cone");
  const ExecPlan plan = compile_execution_plan(nl);
  const FaultCones cones(plan);
  ASSERT_EQ(cones.num_fus(), static_cast<int>(nl.fus.size()));
  for (int f = 0; f < cones.num_fus(); ++f) {
    const auto mask = cones.op_cone(f);
    for (std::size_t i = 0; i < plan.ops.size(); ++i) {
      if (plan.ops[i].fu != f) continue;
      EXPECT_TRUE((mask[i >> 6] >> (i & 63)) & 1)
          << "op " << i << " runs on FU " << f << " but is not in its cone";
    }
    EXPECT_LE(cones.cone_op_count(f), plan.ops.size());
  }
}

}  // namespace
}  // namespace sck::hls
