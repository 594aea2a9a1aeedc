// Duration-model and sampled-campaign suite for the netlist engine.
//
// Four battlegrounds:
//
//  1. REGRESSION: the permanent-fault campaign must be byte-identical to
//     the pre-duration engine. The pinned aggregates below were captured
//     from the flagship FIR design BEFORE the duration/SEU work landed —
//     a failure here means the refactor changed history, not just added
//     to it.
//  2. SEMANTICS: the duration models must mean what they claim — full
//     intermittent duty collapses to permanent, zero duty to fault-free,
//     transient windows produce golden samples outside the window, SEU
//     jobs extend the universe by exactly the architectural register
//     bits — and all of it deterministically (same options, same bytes).
//  3. SAMPLING: confidence-interval campaigns must stop at a seed-stable
//     block boundary regardless of thread count, report a sane Wilson
//     interval, and reduce to EXACTLY the exhaustive result when the
//     whole universe is evaluated.
//  4. NARROWING: a run_jobs call too small to give every thread two
//     batches runs on narrower planes, and a permuted call is batched in
//     ascending job id; per-job stats and the sampled results pinned
//     before either existed must not move.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "codesign/explorer.h"
#include "common/rng.h"
#include "fault/duration.h"
#include "fault/stats.h"
#include "hls/builder.h"
#include "hls/expand_sck.h"
#include "hls/netlist_campaign.h"
#include "netlist_test_util.h"

namespace sck::hls {
namespace {

// ---- fixtures --------------------------------------------------------------

/// The repository's end-to-end flagship (examples/campaign_daemon.cpp):
/// self-checking FIR, class-based CED, min-area binding — 9232 fault jobs.
struct FlagshipDesign {
  Dfg graph;
  Netlist netlist;

  FlagshipDesign() {
    codesign::KernelRegistry registry;
    registry.add(codesign::make_fir_kernel({3, -5, 7, -5, 3}));
    codesign::ExplorerOptions hw_only;
    hw_only.coverage = false;
    codesign::Explorer explorer(registry, hw_only);
    const codesign::DesignPoint point{"fir", codesign::Variant::kSck,
                                      /*min_area=*/true, 8};
    graph = explorer.reference_graph(point);
    netlist = explorer.synthesize(point).netlist;
  }
};

/// Small fixture for the semantic and sampling tests (same recipe as the
/// service suites): fast enough to sweep backends and thread counts.
struct SmallDesign {
  Dfg graph;
  Netlist netlist;

  SmallDesign() {
    graph = ced(build_fir(FirSpec{{1, 2, 3}, 4}), CedStyle::kClassBased);
    netlist = synthesize(graph, ResourceConstraints::min_area(),
                         "duration_fixture");
  }
};

[[nodiscard]] NetlistCampaignOptions incremental_options(int samples,
                                                         std::uint64_t seed) {
  NetlistCampaignOptions opt;
  opt.samples_per_fault = samples;
  opt.seed = seed;
  opt.backend = NetlistBackend::kIncremental;
  return opt;
}

// ---- 1. permanent-fault byte-identity with the pre-duration engine ---------

TEST(DurationRegression, PermanentSharedIncrementalPinsPreDurationEngine) {
  // Captured from the engine at the previous PR's head: flagship FIR,
  // shared stream, incremental backend, 8 samples, seed 0x2005. Every
  // backend classifies against the same reference, so all three must hit
  // the same four numbers.
  const FlagshipDesign d;
  for (const NetlistBackend backend :
       {NetlistBackend::kScalar, NetlistBackend::kBatched,
        NetlistBackend::kIncremental}) {
    NetlistCampaignOptions opt = incremental_options(/*samples=*/8, 0x2005);
    opt.backend = backend;
    const NetlistCampaignResult r =
        run_netlist_campaign(d.graph, d.netlist, opt);
    SCOPED_TRACE(static_cast<int>(backend));
    EXPECT_EQ(r.fault_universe_size, 9232u);
    EXPECT_EQ(r.per_unit.size(), 16u);
    EXPECT_EQ(r.aggregate.silent_correct, 41711u);
    EXPECT_EQ(r.aggregate.detected_correct, 25827u);
    EXPECT_EQ(r.aggregate.detected_erroneous, 6318u);
    EXPECT_EQ(r.aggregate.masked, 0u);
  }
}

// ---- 2. duration-model semantics -------------------------------------------

TEST(DurationSemantics, FullDutyIntermittentEqualsPermanent) {
  // duty = 1000‰ arms the fault at every sample — indistinguishable from
  // kPermanent, bit for bit, on every backend.
  const SmallDesign d;
  for (const NetlistBackend backend :
       {NetlistBackend::kScalar, NetlistBackend::kBatched,
        NetlistBackend::kIncremental}) {
    NetlistCampaignOptions opt = incremental_options(/*samples=*/5, 0xD0);
    opt.backend = backend;
    const NetlistCampaignResult permanent =
        run_netlist_campaign(d.graph, d.netlist, opt);
    opt.duration = fault::FaultDuration::kIntermittent;
    opt.duty_permille = 1000;
    const NetlistCampaignResult full_duty =
        run_netlist_campaign(d.graph, d.netlist, opt);
    EXPECT_TRUE(same_campaign_result(permanent, full_duty))
        << "backend " << static_cast<int>(backend);
  }
}

TEST(DurationSemantics, ZeroDutyIntermittentIsFaultFree) {
  // duty = 0‰ never arms the fault: every sample of every job runs golden
  // hardware, so the whole campaign is silent-correct.
  const SmallDesign d;
  NetlistCampaignOptions opt = incremental_options(/*samples=*/4, 0xD1);
  opt.duration = fault::FaultDuration::kIntermittent;
  opt.duty_permille = 0;
  const NetlistCampaignResult r = run_netlist_campaign(d.graph, d.netlist, opt);
  EXPECT_EQ(r.aggregate.silent_correct,
            r.fault_universe_size * 4u);
  EXPECT_EQ(r.aggregate.detected_correct, 0u);
  EXPECT_EQ(r.aggregate.detected_erroneous, 0u);
  EXPECT_EQ(r.aggregate.masked, 0u);
}

TEST(DurationSemantics, TransientWindowsLieStrictlyInsidePermanentActivity) {
  // A transient fault is a permanent fault masked to a window, so its
  // campaign can only move detections toward silent-correct — and with
  // window length == stream length it must still differ from zero
  // activity. Sanity-bound the monotone direction rather than pinning
  // arbitrary constants.
  const SmallDesign d;
  NetlistCampaignOptions opt = incremental_options(/*samples=*/6, 0xD2);
  const NetlistCampaignResult permanent =
      run_netlist_campaign(d.graph, d.netlist, opt);
  opt.duration = fault::FaultDuration::kTransient;
  opt.transient_samples = 2;
  const NetlistCampaignResult transient =
      run_netlist_campaign(d.graph, d.netlist, opt);
  EXPECT_EQ(transient.fault_universe_size, permanent.fault_universe_size);
  EXPECT_GE(transient.aggregate.silent_correct,
            permanent.aggregate.silent_correct);
  EXPECT_GT(transient.aggregate.detections(), 0u);
  EXPECT_LE(transient.aggregate.detections(),
            permanent.aggregate.detections());
}

TEST(DurationSemantics, DeterministicAcrossRunsAndThreads) {
  const SmallDesign d;
  NetlistCampaignOptions opt = incremental_options(/*samples=*/5, 0xD3);
  opt.duration = fault::FaultDuration::kIntermittent;
  opt.duty_permille = 400;
  opt.seu_faults = true;
  const NetlistCampaignResult anchor =
      run_netlist_campaign(d.graph, d.netlist, opt);
  for (const int threads : {1, 2, 8}) {
    opt.threads = threads;
    EXPECT_TRUE(same_campaign_result(
        anchor, run_netlist_campaign(d.graph, d.netlist, opt)))
        << threads << " threads";
  }
}

TEST(DurationSemantics, SeuJobsExtendTheUniverseByRegisterBits) {
  // options.seu_faults appends one job per (architectural register, bit):
  // the universe grows by exactly sum(reg widths) and each register shows
  // up as its own pseudo-unit in the per-unit breakdown.
  const SmallDesign d;
  NetlistCampaignOptions opt = incremental_options(/*samples=*/5, 0xD4);
  const NetlistCampaignResult base =
      run_netlist_campaign(d.graph, d.netlist, opt);
  opt.seu_faults = true;
  const NetlistCampaignResult with_seu =
      run_netlist_campaign(d.graph, d.netlist, opt);

  std::uint64_t reg_bits = 0;
  for (const RegisterInfo& reg : d.netlist.regs) {
    reg_bits += static_cast<std::uint64_t>(reg.width);
  }
  ASSERT_GT(reg_bits, 0u);
  EXPECT_EQ(with_seu.fault_universe_size,
            base.fault_universe_size + reg_bits);
  EXPECT_EQ(with_seu.per_unit.size(),
            base.per_unit.size() + d.netlist.regs.size());
  // The stuck-at prefix of the reduction is untouched by the SEU suffix.
  for (std::size_t u = 0; u < base.per_unit.size(); ++u) {
    EXPECT_EQ(with_seu.per_unit[u], base.per_unit[u]) << "unit " << u;
  }
  // An SEU is a one-shot state corruption on otherwise golden hardware:
  // nothing is erroneous before the flip, so some strikes must be visible
  // (detected or erroneous) for the dimension to be meaningful.
  std::uint64_t seu_total = 0;
  for (std::size_t u = base.per_unit.size(); u < with_seu.per_unit.size();
       ++u) {
    seu_total += with_seu.per_unit[u].stats.total();
  }
  EXPECT_EQ(seu_total, reg_bits * 5u);
}

// ---- 3. confidence-interval sampled campaigns ------------------------------

TEST(SampledCampaign, FullUniverseEqualsExhaustive) {
  // An unreachable target makes the sampler evaluate every job; the
  // job-index-ordered reduction must then be bit-identical to
  // run_netlist_campaign.
  const SmallDesign d;
  const NetlistCampaignOptions opt = incremental_options(/*samples=*/4, 0xE0);
  const NetlistCampaignResult exhaustive =
      run_netlist_campaign(d.graph, d.netlist, opt);
  SampledCampaignOptions sampling;
  sampling.target_half_width = 1e-12;
  const SampledNetlistCampaignResult sampled =
      run_sampled_netlist_campaign(d.graph, d.netlist, opt, sampling);
  EXPECT_EQ(sampled.sampled_jobs, sampled.universe_jobs);
  EXPECT_FALSE(sampled.converged);
  EXPECT_TRUE(same_campaign_result(exhaustive, sampled.result));
}

TEST(SampledCampaign, EarlyStopIsDeterministicAcrossThreadsAndBackends) {
  // A loose target stops after a prefix of blocks. The evaluated prefix,
  // the Wilson interval and the reduced result must be byte-identical at
  // every thread count and across backends — threads only parallelize
  // WITHIN a block, the stop decision is sequential by construction.
  const SmallDesign d;
  NetlistCampaignOptions opt = incremental_options(/*samples=*/4, 0xE1);
  SampledCampaignOptions sampling;
  sampling.block = 128;
  sampling.target_half_width = 0.08;
  const SampledNetlistCampaignResult anchor =
      run_sampled_netlist_campaign(d.graph, d.netlist, opt, sampling);
  EXPECT_TRUE(anchor.converged);
  EXPECT_LT(anchor.sampled_jobs, anchor.universe_jobs);
  EXPECT_EQ(anchor.sampled_jobs % sampling.block, 0u);

  for (const int threads : {2, 8}) {
    opt.threads = threads;
    const SampledNetlistCampaignResult r =
        run_sampled_netlist_campaign(d.graph, d.netlist, opt, sampling);
    EXPECT_EQ(r.sampled_jobs, anchor.sampled_jobs) << threads << " threads";
    EXPECT_EQ(r.detection_coverage.point, anchor.detection_coverage.point);
    EXPECT_EQ(r.detection_coverage.lo, anchor.detection_coverage.lo);
    EXPECT_EQ(r.detection_coverage.hi, anchor.detection_coverage.hi);
    EXPECT_TRUE(same_campaign_result(anchor.result, r.result))
        << threads << " threads";
  }
  opt.threads = 0;
  opt.backend = NetlistBackend::kScalar;
  const SampledNetlistCampaignResult scalar =
      run_sampled_netlist_campaign(d.graph, d.netlist, opt, sampling);
  EXPECT_EQ(scalar.sampled_jobs, anchor.sampled_jobs);
  EXPECT_TRUE(same_campaign_result(anchor.result, scalar.result));
}

TEST(SampledCampaign, WilsonIntervalIsSaneAndCoversTheTruth) {
  const SmallDesign d;
  const NetlistCampaignOptions opt = incremental_options(/*samples=*/4, 0xE2);
  // Ground truth: fraction of jobs with at least one detection.
  const CampaignSliceRunner runner(d.graph, d.netlist, opt);
  std::vector<fault::CampaignStats> per_job(runner.jobs().size());
  runner.run_slice(0, per_job.size(), per_job);
  std::uint64_t detected = 0;
  for (const fault::CampaignStats& s : per_job) {
    if (s.detections() > 0) ++detected;
  }
  const double truth =
      static_cast<double>(detected) / static_cast<double>(per_job.size());

  SampledCampaignOptions sampling;
  sampling.block = 96;
  sampling.target_half_width = 0.06;
  const SampledNetlistCampaignResult r =
      run_sampled_netlist_campaign(d.graph, d.netlist, opt, sampling);
  ASSERT_TRUE(r.converged);
  const fault::WilsonInterval& ci = r.detection_coverage;
  EXPECT_GE(ci.lo, 0.0);
  EXPECT_LE(ci.hi, 1.0);
  EXPECT_LE(ci.lo, ci.point);
  EXPECT_LE(ci.point, ci.hi);
  EXPECT_LE(ci.half_width(), sampling.target_half_width);
  // z = 1.96 → the interval should cover the exhaustive truth here (a
  // deterministic fixture, not a probabilistic assertion: these seeds are
  // pinned, so this either always passes or the estimator is wrong).
  EXPECT_GE(truth, ci.lo);
  EXPECT_LE(truth, ci.hi);
}

TEST(SampledCampaign, MaxJobsCapsTheSample) {
  const SmallDesign d;
  const NetlistCampaignOptions opt = incremental_options(/*samples=*/4, 0xE3);
  SampledCampaignOptions sampling;
  sampling.block = 64;
  sampling.target_half_width = 1e-12;  // never converges on its own
  sampling.max_jobs = 192;
  const SampledNetlistCampaignResult r =
      run_sampled_netlist_campaign(d.graph, d.netlist, opt, sampling);
  EXPECT_EQ(r.sampled_jobs, 192u);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.result.fault_universe_size, 192u);
}

TEST(SampledCampaign, SampleSeedSelectsTheSubset) {
  // Different sample seeds evaluate different prefixes of different
  // permutations; the per-campaign stimuli stay fixed, so the reduced
  // totals differ while each remains internally deterministic.
  const SmallDesign d;
  const NetlistCampaignOptions opt = incremental_options(/*samples=*/4, 0xE4);
  SampledCampaignOptions a;
  a.block = 64;
  a.max_jobs = 256;
  a.target_half_width = 1e-12;
  SampledCampaignOptions b = a;
  b.sample_seed = a.sample_seed + 1;
  const SampledNetlistCampaignResult ra =
      run_sampled_netlist_campaign(d.graph, d.netlist, opt, a);
  const SampledNetlistCampaignResult rb =
      run_sampled_netlist_campaign(d.graph, d.netlist, opt, b);
  const SampledNetlistCampaignResult ra2 =
      run_sampled_netlist_campaign(d.graph, d.netlist, opt, a);
  EXPECT_TRUE(same_campaign_result(ra.result, ra2.result));
  EXPECT_FALSE(same_campaign_result(ra.result, rb.result));
}

// ---- 4. per-call plane narrowing -------------------------------------------

/// Fixture for the narrowing grid: more jobs than the largest id list, so
/// permuted lists never repeat an id.
struct NarrowingDesign {
  Dfg graph;
  Netlist netlist;

  NarrowingDesign() {
    graph = ced(build_fir(FirSpec{{3, -5, 7}, 8}), CedStyle::kClassBased);
    netlist = synthesize(graph, ResourceConstraints::min_area(),
                         "narrowing_fixture");
  }
};

/// The plane backends with permanent stuck-ats, and with intermittent
/// stuck-ats plus register SEUs.
[[nodiscard]] std::vector<NetlistCampaignOptions> narrowing_configs() {
  std::vector<NetlistCampaignOptions> configs;
  for (const NetlistBackend backend :
       {NetlistBackend::kIncremental, NetlistBackend::kBatched}) {
    for (const bool intermittent : {false, true}) {
      NetlistCampaignOptions opt = incremental_options(/*samples=*/4, 0xF0);
      opt.backend = backend;
      if (intermittent) {
        opt.duration = fault::FaultDuration::kIntermittent;
        opt.duty_permille = 300;
        opt.seu_faults = true;
      }
      configs.push_back(opt);
    }
  }
  return configs;
}

TEST(PlaneNarrowing, RunJobsMatchesOneThreadAtEverySizeWidthAndThreadCount) {
  // A call with fewer jobs than 2 x threads x lanes runs on narrower planes;
  // per-job stats must not move. threads = 1 never narrows, so it is the
  // wide-plane reference at each explicit width.
  const NarrowingDesign d;
  for (NetlistCampaignOptions opt : narrowing_configs()) {
    for (const int lanes : {64, 128, 256, 512}) {
      opt.lanes = lanes;
      opt.threads = 1;
      const CampaignSliceRunner reference(d.graph, d.netlist, opt);
      const std::size_t universe = reference.jobs().size();
      ASSERT_GT(universe, 1000u + 7u);
      std::vector<std::uint64_t> perm(universe);
      std::iota(perm.begin(), perm.end(), std::uint64_t{0});
      Xoshiro256 rng(0x5EED);
      for (std::size_t i = universe; i > 1; --i) {
        std::swap(perm[i - 1], perm[static_cast<std::size_t>(rng.bounded(i))]);
      }
      std::vector<std::unique_ptr<CampaignSliceRunner>> runners;
      for (const int threads : {2, 3, 4, 8}) {
        opt.threads = threads;
        runners.push_back(
            std::make_unique<CampaignSliceRunner>(d.graph, d.netlist, opt));
      }

      for (const std::size_t n :
           {1u, 63u, 64u, 65u, 200u, 511u, 512u, 513u, 1000u}) {
        for (const bool permuted : {true, false}) {
          std::vector<std::uint64_t> ids(n);
          if (permuted) {
            std::copy_n(perm.begin(), n, ids.begin());
          } else {
            std::iota(ids.begin(), ids.end(), std::uint64_t{7});
          }
          std::vector<fault::CampaignStats> want(n);
          reference.run_jobs(ids, want);
          for (const auto& runner : runners) {
            std::vector<fault::CampaignStats> got(n);
            runner->run_jobs(ids, got);
            EXPECT_EQ(got, want)
                << "backend " << static_cast<int>(opt.backend) << " seu "
                << opt.seu_faults << " lanes " << lanes << " threads "
                << runner->options().threads << " jobs " << n
                << (permuted ? " permuted" : " contiguous");
          }
        }
      }
    }
  }
}

TEST(PlaneNarrowing, ShuffledRunJobsMatchesTheWholeSliceAtEachJobsId) {
  // A permuted call is batched in ascending job id and its stats are
  // scattered back to the caller's slots. The reference is one contiguous
  // run_slice over the universe, which batches as given, so a wrong
  // scatter shows as a slot holding another job's stats. The list mixes a
  // shuffled prefix, duplicate ids and a descending run.
  const NarrowingDesign d;
  std::vector<NetlistCampaignOptions> configs = narrowing_configs();
  NetlistCampaignOptions dropping = incremental_options(/*samples=*/4, 0xF0);
  dropping.fault_dropping = true;
  configs.push_back(dropping);
  for (NetlistCampaignOptions opt : configs) {
    opt.lanes = 64;
    opt.threads = 1;
    const CampaignSliceRunner whole(d.graph, d.netlist, opt);
    const std::size_t universe = whole.jobs().size();
    ASSERT_GT(universe, 700u);
    std::vector<fault::CampaignStats> want(universe);
    whole.run_slice(0, universe, want);

    std::vector<std::uint64_t> perm(universe);
    std::iota(perm.begin(), perm.end(), std::uint64_t{0});
    Xoshiro256 rng(0x5CA7);
    for (std::size_t i = universe; i > 1; --i) {
      std::swap(perm[i - 1], perm[static_cast<std::size_t>(rng.bounded(i))]);
    }
    std::vector<std::uint64_t> ids(perm.begin(), perm.begin() + 600);
    ids.insert(ids.end(), perm.begin(), perm.begin() + 40);
    for (std::uint64_t id = 500; id > 300; --id) ids.push_back(id);
    ASSERT_FALSE(std::is_sorted(ids.begin(), ids.end()));

    for (const int lanes : {64, 512}) {
      for (const int threads : {1, 4}) {
        opt.lanes = lanes;
        opt.threads = threads;
        const CampaignSliceRunner runner(d.graph, d.netlist, opt);
        std::vector<fault::CampaignStats> got(ids.size());
        runner.run_jobs(ids, got);
        for (std::size_t i = 0; i < ids.size(); ++i) {
          ASSERT_EQ(got[i], want[ids[i]])
              << "backend " << static_cast<int>(opt.backend) << " duration "
              << static_cast<int>(opt.duration) << " dropping "
              << opt.fault_dropping << " lanes " << lanes << " threads "
              << threads << " slot " << i << " job " << ids[i];
        }
      }
    }
  }
}

TEST(PlaneNarrowing, SampledCampaignMatchesPinsAtEveryBlockAndThreadCount) {
  // Captured before plane narrowing landed: intermittent stuck-ats plus
  // SEUs at an explicit 512 lanes. At 4 threads every block below narrows
  // (64, 256 and 512 jobs to 64 lanes, 1000 to 128); the sampled prefix
  // and its reduction must not move.
  struct Pin {
    std::size_t block;
    std::uint64_t sampled_jobs;
    std::uint64_t silent_correct;
    std::uint64_t detected_correct;
    std::uint64_t detected_erroneous;
    std::uint64_t masked;
  };
  const Pin pins[] = {
      {64, 2368, 11117, 2222, 859, 10},
      {256, 2560, 11990, 2421, 937, 12},
      {512, 2560, 11990, 2421, 937, 12},
      {1000, 3000, 14101, 2809, 1078, 12},
  };
  const NarrowingDesign d;
  NetlistCampaignOptions opt = incremental_options(/*samples=*/6, 0xF1);
  opt.lanes = 512;
  opt.duration = fault::FaultDuration::kIntermittent;
  opt.duty_permille = 500;
  opt.seu_faults = true;
  for (const Pin& pin : pins) {
    SampledCampaignOptions sampling;
    sampling.block = pin.block;
    sampling.target_half_width = 0.02;
    for (const NetlistBackend backend :
         {NetlistBackend::kIncremental, NetlistBackend::kBatched}) {
      for (const int threads : {1, 4}) {
        opt.backend = backend;
        opt.threads = threads;
        const SampledNetlistCampaignResult r =
            run_sampled_netlist_campaign(d.graph, d.netlist, opt, sampling);
        const fault::CampaignStats& a = r.result.aggregate;
        EXPECT_EQ(r.sampled_jobs, pin.sampled_jobs);
        EXPECT_EQ(a.silent_correct, pin.silent_correct);
        EXPECT_EQ(a.detected_correct, pin.detected_correct);
        EXPECT_EQ(a.detected_erroneous, pin.detected_erroneous);
        EXPECT_EQ(a.masked, pin.masked)
            << "block " << pin.block << " backend "
            << static_cast<int>(backend) << " threads " << threads;
      }
    }
  }
}

}  // namespace
}  // namespace sck::hls
