// Running a fault-injection campaign with the library API.
//
// Demonstrates the §4.1 methodology end to end on a small adder: enumerate
// the stuck-at fault universe, sweep all inputs under each fault, classify
// every trial, and read coverage and observability metrics — including the
// per-fault breakdown and the "detected although the result was correct"
// class the paper highlights.
//
// Build & run:  ./build/examples/fault_campaign [--lanes=N]
// (--lanes pins the bit-plane batch width of the W-lane rerun at the end;
// 0/omitted = hw::kDefaultLanes. Results are identical at every width —
// the flag only changes how many faults share a batch.)
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "common/parse_number.h"
#include "fault/batch_trials.h"
#include "fault/campaign.h"
#include "fault/trials.h"
#include "hw/plane.h"
#include "hw/ripple_carry_adder.h"

using sck::fault::AddTrial;
using sck::fault::CampaignOptions;
using sck::fault::CampaignResult;
using sck::fault::Technique;
using sck::hw::RippleCarryAdder;

constexpr const char* kUsage = "usage: fault_campaign [--lanes=N]\n";

int main(int argc, char** argv) {
  int lanes = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    bool bad = false;
    if (!sck::numeric_flag(arg, "--lanes=", lanes, bad)) {
      std::cerr << "unknown option: " << arg << "\n" << kUsage;
      return 2;
    }
    if (bad || (lanes != 0 && !sck::hw::lanes_supported(lanes))) {
      std::cerr << "invalid value: " << arg
                << " (lanes must be 0, 64, 128, 256 or 512)\n"
                << kUsage;
      return 2;
    }
  }
  const int width = 4;
  RippleCarryAdder adder(width);
  std::vector<sck::hw::FaultableUnit*> units{&adder};

  std::cout << "4-bit ripple-carry adder, checked operator + (Tech1)\n";
  std::cout << "fault universe: " << adder.fault_universe().size()
            << " stuck-at faults (32 per full adder, the paper's "
               "num_faults_1bit)\n\n";

  const AddTrial<RippleCarryAdder> trial{adder, Technique::kTech1};
  CampaignOptions opt;
  opt.keep_per_fault = true;
  const CampaignResult result =
      run_exhaustive(std::span<sck::hw::FaultableUnit* const>(units), width,
                     trial, opt);

  const auto& agg = result.aggregate;
  std::cout << "fault situations:    " << agg.total() << " (= 32 * " << width
            << " * 2^" << 2 * width << ")\n";
  std::cout << "silent correct:      " << agg.silent_correct << "\n";
  std::cout << "detected, correct:   " << agg.detected_correct
            << "   <- early warnings (no classical SC design reports these)\n";
  std::cout << "detected, erroneous: " << agg.detected_erroneous << "\n";
  std::cout << "masked (undetected): " << agg.masked << "\n";
  std::cout << "fault coverage:      " << 100.0 * agg.coverage() << "%\n\n";

  // Per-fault view: the nastiest and the most benign faults.
  std::vector<const sck::fault::PerFaultStats*> by_coverage;
  for (const auto& pf : result.per_fault) {
    if (pf.stats.observable_errors() > 0) by_coverage.push_back(&pf);
  }
  std::sort(by_coverage.begin(), by_coverage.end(),
            [](const auto* a, const auto* b) {
              return a->stats.coverage() < b->stats.coverage();
            });
  std::cout << "hardest faults (lowest per-fault coverage):\n";
  for (std::size_t i = 0; i < 3 && i < by_coverage.size(); ++i) {
    const auto* pf = by_coverage[i];
    std::cout << "  " << to_string(pf->site) << "  coverage "
              << 100.0 * pf->stats.coverage() << "%  (" << pf->stats.masked
              << " masked situations)\n";
  }
  std::cout << "\nper-fault coverage range over observable faults: ["
            << 100.0 * result.min_fault_coverage << "%, "
            << 100.0 * result.max_fault_coverage << "%]\n";

  // Technique upgrade: rerun with both controls.
  const AddTrial<RippleCarryAdder> both{adder, Technique::kBoth};
  const CampaignResult r2 =
      run_exhaustive(std::span<sck::hw::FaultableUnit* const>(units), width,
                     both, CampaignOptions{});
  std::cout << "\nupgrading Tech1 -> Tech1&2 raises coverage from "
            << 100.0 * agg.coverage() << "% to "
            << 100.0 * r2.aggregate.coverage() << "%\n";

  // The same Tech1 campaign on the W-lane bit-plane engine (lane = fault):
  // identical aggregate counters at any width, just fewer evaluations.
  const int resolved_lanes = sck::hw::resolve_lanes(lanes);
  const sck::fault::AddBatchTrial<RippleCarryAdder> batch_trial{
      adder, Technique::kTech1};
  CampaignOptions batch_opt;
  batch_opt.lanes = lanes;
  const CampaignResult batched = run_exhaustive_batched(
      std::span<sck::hw::FaultableUnit* const>(units), width, batch_trial,
      batch_opt);
  std::cout << "\nbit-plane rerun at " << resolved_lanes
            << " lanes: aggregate counters "
            << (batched.aggregate.silent_correct == agg.silent_correct &&
                        batched.aggregate.detected_correct ==
                            agg.detected_correct &&
                        batched.aggregate.detected_erroneous ==
                            agg.detected_erroneous &&
                        batched.aggregate.masked == agg.masked
                    ? "identical to the scalar sweep"
                    : "DIVERGED from the scalar sweep")
            << "\n";
  return 0;
}
