// Randomized cross-backend differential harness — the reusable fuzz
// oracle for every netlist execution backend.
//
// A seeded generator builds small random DFGs (random add/sub/mul/div/rem
// mix, widths 4/8, 1-3 outputs, 0-4 state registers), optionally wraps
// them in class-based CED, synthesizes each under BOTH objectives
// (min-area list schedule / min-latency ASAP), and then asserts that the
// three execution backends agree under shared input streams:
//
//  * per (fault, sample): every output value of every lane of
//    NetlistBatchSimT and NetlistIncrementalSimT equals the scalar
//    NetlistSim run of that fault — the strongest oracle, data values
//    compared before any campaign-level aggregation — at every plane
//    width (64/128/256/512 lanes);
//  * per campaign: kScalar == kBatched == kIncremental
//    NetlistCampaignResults (aggregate + per-unit) at lanes
//    64/128/256/512 x threads 1/2/8, including the partial final batch
//    every full universe ends in (the small fuzz universes leave a
//    partial tail at every width).
//
// Seeds: a fixed seed always runs (reproducible baseline); CI adds one
// rotating seed via the SCK_FUZZ_SEED environment variable (derived from
// the run number and echoed into the log so failures are reproducible —
// see .github/workflows/ci.yml).
#include <gtest/gtest.h>

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/word.h"
#include "hls/dfg.h"
#include "hls/expand_sck.h"
#include "hls/netlist.h"
#include "hls/netlist_campaign.h"
#include "hls/netlist_exec.h"
#include "hls/netlist_sim.h"
#include "hls/schedule.h"
#include "hw/batch.h"
#include "netlist_test_util.h"
#include "seed_env.h"

namespace sck::hls {
namespace {

// ---- random DFG generation -------------------------------------------------

/// Small random DFG: 1-3 inputs, 0-4 state registers, 1-3 outputs, a
/// random mix of data-path operations. Registers and outputs are wired to
/// random already-built nodes, so the generator covers register chains,
/// shared subexpressions, dead ops and multi-output fan-out by
/// construction.
Dfg random_dfg(Xoshiro256& rng, int width) {
  Dfg g;
  const int num_inputs = 1 + static_cast<int>(rng.bounded(3));
  const int num_regs = static_cast<int>(rng.bounded(5));
  const int num_outputs = 1 + static_cast<int>(rng.bounded(3));
  const int num_ops = 3 + static_cast<int>(rng.bounded(6));

  std::vector<NodeId> pool;
  for (int i = 0; i < num_inputs; ++i) {
    pool.push_back(g.input("i" + std::to_string(i), width));
  }
  std::vector<NodeId> regs;
  for (int r = 0; r < num_regs; ++r) {
    const NodeId reg = g.state_reg("r" + std::to_string(r), width);
    regs.push_back(reg);
    pool.push_back(reg);
  }
  const int num_consts = 1 + static_cast<int>(rng.bounded(2));
  for (int c = 0; c < num_consts; ++c) {
    pool.push_back(g.constant(
        static_cast<long long>(rng.bounded(Word{1} << width)), width));
  }

  const auto pick = [&] {
    return pool[static_cast<std::size_t>(rng.bounded(pool.size()))];
  };
  std::vector<NodeId> op_results;
  for (int o = 0; o < num_ops; ++o) {
    // Weighted op mix: adders dominate (as in real data paths), with
    // enough multiplier/divider draws to keep their FU classes covered.
    static constexpr Op kMix[] = {Op::kAdd, Op::kAdd, Op::kAdd, Op::kSub,
                                  Op::kSub, Op::kMul, Op::kMul, Op::kDiv,
                                  Op::kRem};
    const Op op = kMix[rng.bounded(std::size(kMix))];
    op_results.push_back(g.op(op, {pick(), pick()}, width));
    pool.push_back(op_results.back());
  }

  for (const NodeId reg : regs) {
    g.set_reg_next(reg, pick());
  }
  for (int o = 0; o < num_outputs; ++o) {
    (void)g.output("o" + std::to_string(o),
                   op_results[static_cast<std::size_t>(
                       rng.bounded(op_results.size()))]);
  }
  g.validate();
  return g;
}

// ---- oracle 1: per-(fault, sample) output equality -------------------------

/// One entry of the flattened fault universe.
struct FaultJob {
  int fu = 0;
  hw::FaultSite site;
};

std::vector<FaultJob> full_universe(const Netlist& nl) {
  const FuBank probe(nl);
  std::vector<FaultJob> jobs;
  for (std::size_t f = 0; f < nl.fus.size(); ++f) {
    for (const hw::FaultSite& site :
         probe.fault_universe(static_cast<int>(f))) {
      jobs.push_back(FaultJob{static_cast<int>(f), site});
    }
  }
  return jobs;
}

/// Drives the complete FU fault universe through all three backends over
/// one shared input stream and compares every output value per (fault,
/// sample) — batch lane L and incremental lane L must equal the scalar
/// run of job L's fault, sample by sample. Instantiated per plane width;
/// the scalar reference is width-independent by construction.
template <typename P>
void expect_outputs_identical_per_fault_and_sample(const Dfg& g,
                                                   const Netlist& nl,
                                                   int samples,
                                                   std::uint64_t seed) {
  constexpr std::size_t kW = hw::PlaneTraits<P>::kLanes;
  const ExecPlan plan = compile_execution_plan(nl);
  const FaultCones cones(plan);
  const std::size_t num_inputs = nl.input_names.size();
  const std::size_t num_outputs = nl.outputs.size();
  const int data_width = nl.data_width;

  // The shared stream, bounded per input width like the campaign driver's.
  std::vector<Word> stream(static_cast<std::size_t>(samples) * num_inputs);
  Xoshiro256 rng(seed);
  for (int k = 0; k < samples; ++k) {
    for (std::size_t i = 0; i < num_inputs; ++i) {
      const Node& n = g.node(g.inputs()[i]);
      stream[static_cast<std::size_t>(k) * num_inputs + i] =
          rng.bounded(Word{1} << n.width);
    }
  }
  const GoldenTrace trace = record_golden_trace(plan, stream, samples);

  const std::vector<FaultJob> jobs = full_universe(nl);
  ASSERT_FALSE(jobs.empty()) << nl.name;

  NetlistSim ssim(plan);
  NetlistBatchSimT<P> bsim(plan);
  NetlistIncrementalSimT<P> isim(plan, cones);

  std::vector<Word> sin(num_inputs);
  std::vector<Word> sout(num_outputs);
  std::vector<hw::BatchWordT<P>> bin(num_inputs);
  std::vector<hw::BatchWordT<P>> bout(num_outputs);
  std::vector<hw::BatchWordT<P>> iout(num_outputs);

  for (std::size_t base = 0; base < jobs.size(); base += kW) {
    const int lanes =
        static_cast<int>(std::min<std::size_t>(kW, jobs.size() - base));

    // Scalar reference: outputs per (lane, sample, output).
    std::vector<Word> want(static_cast<std::size_t>(lanes) *
                           static_cast<std::size_t>(samples) * num_outputs);
    for (int lane = 0; lane < lanes; ++lane) {
      const FaultJob& job = jobs[base + static_cast<std::size_t>(lane)];
      ssim.set_fu_fault(job.fu, job.site);
      ssim.reset();
      for (int k = 0; k < samples; ++k) {
        for (std::size_t i = 0; i < num_inputs; ++i) {
          sin[i] = stream[static_cast<std::size_t>(k) * num_inputs + i];
        }
        ssim.step_sample_indexed(sin, sout);
        for (std::size_t o = 0; o < num_outputs; ++o) {
          want[(static_cast<std::size_t>(lane) *
                    static_cast<std::size_t>(samples) +
                static_cast<std::size_t>(k)) *
                   num_outputs +
               o] = sout[o];
        }
      }
      ssim.set_fu_fault(job.fu, hw::FaultSite{});
    }

    bsim.clear_lane_faults();
    isim.clear_lane_faults();
    for (int lane = 0; lane < lanes; ++lane) {
      const FaultJob& job = jobs[base + static_cast<std::size_t>(lane)];
      bsim.add_lane_fault(job.fu, job.site, hw::plane_bit<P>(lane));
      isim.add_lane_fault(job.fu, job.site, hw::plane_bit<P>(lane));
    }
    bsim.reset();
    isim.reset();

    for (int k = 0; k < samples; ++k) {
      for (std::size_t i = 0; i < num_inputs; ++i) {
        const Node& n = g.node(g.inputs()[i]);
        bin[i] = hw::broadcast_word<P>(
            stream[static_cast<std::size_t>(k) * num_inputs + i], n.width);
      }
      bsim.step_sample_batch(bin, bout);
      isim.replay_sample(trace, k, iout);

      for (std::size_t o = 0; o < num_outputs; ++o) {
        const int w = nl.outputs[o].name == "error" ? 1 : data_width;
        for (int lane = 0; lane < lanes; ++lane) {
          const Word expect =
              want[(static_cast<std::size_t>(lane) *
                        static_cast<std::size_t>(samples) +
                    static_cast<std::size_t>(k)) *
                       num_outputs +
                   o];
          ASSERT_EQ(hw::lane_value(bout[o], lane, w), expect)
              << nl.name << ": batched lane " << lane << "/" << kW
              << " diverged at sample " << k << ", output "
              << nl.outputs[o].name << " (fault batch " << base / kW << ")";
          ASSERT_EQ(hw::lane_value(iout[o], lane, w), expect)
              << nl.name << ": incremental lane " << lane << "/" << kW
              << " diverged at sample " << k << ", output "
              << nl.outputs[o].name << " (fault batch " << base / kW << ")";
        }
      }
    }
  }
}

/// Oracle 1 at every plane width: the wide widths re-run the full
/// per-(fault, sample) comparison against a fresh scalar reference.
void expect_outputs_identical_all_widths(const Dfg& g, const Netlist& nl,
                                         int samples, std::uint64_t seed) {
  expect_outputs_identical_per_fault_and_sample<hw::Plane64>(g, nl, samples,
                                                             seed);
  expect_outputs_identical_per_fault_and_sample<hw::Plane128>(g, nl, samples,
                                                              seed);
  expect_outputs_identical_per_fault_and_sample<hw::Plane256>(g, nl, samples,
                                                              seed);
  expect_outputs_identical_per_fault_and_sample<hw::Plane512>(g, nl, samples,
                                                              seed);
}

// ---- oracle 2: campaign-level identity across backends and threads ---------

void expect_campaigns_identical_for(NetlistCampaignOptions opt, const Dfg& g,
                                    const Netlist& nl) {
  opt.backend = NetlistBackend::kScalar;
  opt.threads = 1;
  const NetlistCampaignResult anchor = run_netlist_campaign(g, nl, opt);
  EXPECT_GT(anchor.aggregate.total(), 0u) << nl.name;

  // Scalar at the remaining thread counts (lane width is irrelevant
  // there), then the wide backends at every lane width x thread count.
  opt.backend = NetlistBackend::kScalar;
  for (const int threads : {2, 8}) {
    opt.threads = threads;
    const NetlistCampaignResult r = run_netlist_campaign(g, nl, opt);
    EXPECT_TRUE(same_campaign_result(anchor, r))
        << nl.name << ": scalar backend diverged from the anchor at "
        << threads << " thread(s)";
  }
  for (const NetlistBackend backend :
       {NetlistBackend::kBatched, NetlistBackend::kIncremental}) {
    opt.backend = backend;
    for (const int lanes : {64, 128, 256, 512}) {
      opt.lanes = lanes;
      for (const int threads : {1, 2, 8}) {
        opt.threads = threads;
        const NetlistCampaignResult r = run_netlist_campaign(g, nl, opt);
        EXPECT_TRUE(same_campaign_result(anchor, r))
            << nl.name << ": backend " << static_cast<int>(backend)
            << " diverged from the scalar anchor at " << lanes
            << " lanes, " << threads << " thread(s)";
      }
    }
  }
}

void expect_campaigns_identical(const Dfg& g, const Netlist& nl, int samples,
                                std::uint64_t seed) {
  NetlistCampaignOptions opt;
  opt.samples_per_fault = samples;
  opt.seed = seed;
  expect_campaigns_identical_for(opt, g, nl);
}

/// Oracle 2 with a randomly drawn fault-duration model, duty cycle and the
/// SEU job dimension: the three backends must stay bit-identical at every
/// lane width x thread count under transient windows, intermittent duty
/// streams and register-bit upsets, exactly as they do for permanent
/// stuck-ats.
void expect_duration_campaigns_identical(Xoshiro256& rng, const Dfg& g,
                                         const Netlist& nl, int samples,
                                         std::uint64_t seed) {
  NetlistCampaignOptions opt;
  opt.samples_per_fault = samples;
  opt.seed = seed;
  switch (rng.bounded(3)) {
    case 0:
      opt.duration = fault::FaultDuration::kPermanent;
      break;
    case 1:
      opt.duration = fault::FaultDuration::kTransient;
      opt.transient_samples = 1 + static_cast<int>(rng.bounded(
                                      static_cast<std::uint64_t>(samples)));
      break;
    default:
      opt.duration = fault::FaultDuration::kIntermittent;
      opt.duty_permille = static_cast<std::uint32_t>(rng.bounded(1001));
      break;
  }
  opt.seu_faults = rng.bounded(2) == 0;
  SCOPED_TRACE(std::string("duration=") +
               std::string(to_string(opt.duration)) + " transient_samples=" +
               std::to_string(opt.transient_samples) + " duty=" +
               std::to_string(opt.duty_permille) +
               " seu=" + std::to_string(opt.seu_faults));
  expect_campaigns_identical_for(opt, g, nl);
}

// ---- the harness -----------------------------------------------------------

/// One full fuzz pass: per width, a few random graphs (alternating plain /
/// class-based CED), each synthesized under both objectives and held to
/// both oracles.
void run_differential_fuzz(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  int case_index = 0;
  for (const int width : {4, 8}) {
    for (int rep = 0; rep < 3; ++rep) {
      const Dfg plain = random_dfg(rng, width);
      const bool with_ced = rep % 2 == 0;
      const Dfg g = with_ced ? ced(plain, CedStyle::kClassBased) : plain;
      for (const bool min_area : {true, false}) {
        const std::string name = "fuzz" + std::to_string(case_index) + "_w" +
                                 std::to_string(width) +
                                 (with_ced ? "_ced" : "_plain") +
                                 (min_area ? "_area" : "_lat");
        const Netlist nl =
            synthesize(g,
                       min_area ? ResourceConstraints::min_area()
                                : ResourceConstraints::min_latency(),
                       name);
        SCOPED_TRACE(name);
        expect_outputs_identical_all_widths(g, nl, /*samples=*/4,
                                            seed ^ (0xF00DULL + case_index));
        expect_campaigns_identical(g, nl, /*samples=*/5,
                                   seed ^ (0xBEEFULL + case_index));
        expect_duration_campaigns_identical(rng, g, nl, /*samples=*/5,
                                            seed ^ (0xD00DULL + case_index));
      }
      ++case_index;
    }
  }
}

TEST(BackendDifferential, FixedSeed) { run_differential_fuzz(0x5EED2026ULL); }

TEST(BackendDifferential, RotatingSeedFromEnvironment) {
  // CI exports SCK_FUZZ_SEED=<run number>; locally the variable is
  // usually unset and this test collapses to a second fixed seed. The
  // effective seed is echoed so any failure is reproducible with
  // SCK_FUZZ_SEED=<value> ctest -R test_backend_differential.
  const std::uint64_t seed =
      testing_env::seed_from_env("SCK_FUZZ_SEED", 0xD1FFULL);
  const std::uint64_t mixed = seed * 0x9E3779B97F4A7C15ULL + 0x2026ULL;
  std::cout << "[ SEED     ] SCK_FUZZ_SEED=" << seed << " (mixed: " << mixed
            << ")\n";
  run_differential_fuzz(mixed);
}

}  // namespace
}  // namespace sck::hls
