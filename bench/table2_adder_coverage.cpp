// Reproduces paper Table 2: "Experimental results for different overloadings
// for operator +" — fault coverage of the checked addition on an n-bit
// ripple-carry adder when the nominal operation and its hidden control run
// on the same (faulty) unit, for widths 1, 2, 3, 4, 8 and 16 under the
// Tech1, Tech2 and Tech1&2 overloading strategies.
//
// Also reproduces the section-4 side results the paper derives from the
// same experiment:
//   - the number of observable errors and of "detected even though the
//     produced result is correct" situations for the 2-bit adder
//     (paper: 216 observable; detections 352 / 384 / 428);
//   - the per-fault coverage range (paper: input combinations bypassing the
//     checks vary in [81.90%, 99.87%]).
//
// Widths 1..8 are exhaustive (the fault-situation count then equals the
// paper's formula 32 * n * 2^(2n) exactly); width 16 is Monte-Carlo with a
// fixed seed (the paper, too, departs from the formula at n = 16 — it
// reports 6*2^30 situations where the formula gives 2^41).
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "common/table.h"
#include "fault/batch_trials.h"
#include "fault/campaign.h"
#include "fault/trials.h"
#include "hw/ripple_carry_adder.h"

namespace {

using sck::TextTable;
using sck::fault::AddBatchTrial;
using sck::fault::CampaignResult;
using sck::fault::Technique;

constexpr std::uint64_t kSamples16 = 6'000'000;
constexpr std::uint64_t kSeed = 0xDA7E2005;

struct RowResult {
  int width = 0;
  std::uint64_t situations = 0;
  bool exhaustive = true;
  double coverage[3] = {0, 0, 0};  // Tech1, Tech2, Both
  CampaignResult detail[3];
};

RowResult run_width(int n) {
  RowResult row;
  row.width = n;
  row.exhaustive = n <= 8;
  const Technique techs[3] = {Technique::kTech1, Technique::kTech2,
                              Technique::kBoth};
  // Runs on the 64-lane bit-parallel engine; bit-identical to the scalar
  // drivers (tests/test_batch.cpp), which makes the 16-bit Monte-Carlo row
  // and the 8-bit exhaustive row (536M faulty situations) routine.
  sck::hw::RippleCarryAdder adder(n);
  std::vector<sck::hw::FaultableUnit*> units{&adder};
  for (int t = 0; t < 3; ++t) {
    const AddBatchTrial<sck::hw::RippleCarryAdder> trial{adder, techs[t]};
    sck::fault::CampaignOptions opt;
    opt.keep_per_fault = false;
    row.detail[t] =
        row.exhaustive
            ? sck::fault::run_exhaustive_batched(units, n, trial, opt)
            : sck::fault::run_sampled_batched(units, n, trial, kSamples16,
                                              kSeed, opt);
    row.coverage[t] = row.detail[t].aggregate.coverage();
  }
  row.situations = row.detail[0].aggregate.total();
  return row;
}

}  // namespace

int main() {
  std::cout << "Reproduction of Bolchini et al. (DATE 2005), Table 2\n"
            << "Checked operator +, ripple-carry adder, worst case (nominal\n"
            << "and control operation on the same faulty unit).\n\n";

  TextTable table("Table 2 — fault coverage per overloading strategy");
  table.set_header({"# bits", "# fault situations", "mode", "Tech1", "Tech2",
                    "Tech 1&2"});

  std::vector<RowResult> rows;
  for (const int n : {1, 2, 3, 4, 8, 16}) {
    rows.push_back(run_width(n));
    const RowResult& r = rows.back();
    table.add_row({std::to_string(r.width), sck::format_count(r.situations),
                   r.exhaustive ? "exhaustive" : "sampled",
                   sck::format_percent(r.coverage[0]),
                   sck::format_percent(r.coverage[1]),
                   sck::format_percent(r.coverage[2])});
  }
  table.print(std::cout);

  std::cout << "\nPaper reference values:\n"
            << "  n=1: 95.31 / 96.88 / 97.66   n=2: 96.88 / 98.44 / 98.83\n"
            << "  n=3: 97.40 / 98.96 / 99.22   n=4: 97.66 / 99.22 / 99.41\n"
            << "  n=8: 98.05 / 99.61 / 99.71   n=16: 98.18 / 99.74 / 99.80\n";

  // ---- §4 side results on the 2-bit adder --------------------------------
  const RowResult& r2 = rows[1];
  std::cout << "\n2-bit adder side results (paper §4: 216 observable errors;"
            << "\ndetections incl. correct results: 352 / 384 / 428):\n";
  TextTable side("2-bit adder observability");
  side.set_header({"metric", "Tech1", "Tech2", "Tech 1&2"});
  side.add_row({"observable errors",
                std::to_string(r2.detail[0].aggregate.observable_errors()),
                std::to_string(r2.detail[1].aggregate.observable_errors()),
                std::to_string(r2.detail[2].aggregate.observable_errors())});
  side.add_row({"checks fired (detections)",
                std::to_string(r2.detail[0].aggregate.detections()),
                std::to_string(r2.detail[1].aggregate.detections()),
                std::to_string(r2.detail[2].aggregate.detections())});
  side.add_row({"  of which result correct",
                std::to_string(r2.detail[0].aggregate.detected_correct),
                std::to_string(r2.detail[1].aggregate.detected_correct),
                std::to_string(r2.detail[2].aggregate.detected_correct)});
  side.add_row({"undetected erroneous (masked)",
                std::to_string(r2.detail[0].aggregate.masked),
                std::to_string(r2.detail[1].aggregate.masked),
                std::to_string(r2.detail[2].aggregate.masked)});
  side.print(std::cout);

  // ---- per-fault coverage range (paper: [81.90%, 99.87%]) ----------------
  std::cout << "\nPer-fault coverage range across strategies (paper reports"
            << "\nthe bypass range [81.90%, 99.87%] for the ripple adder):\n";
  TextTable range("per-fault coverage over observable faults, 8-bit adder");
  range.set_header({"strategy", "min fault coverage", "max fault coverage"});
  {
    const int n = 8;
    sck::hw::RippleCarryAdder adder(n);
    std::vector<sck::hw::FaultableUnit*> units{&adder};
    for (const Technique t :
         {Technique::kTech1, Technique::kTech2, Technique::kBoth}) {
      const AddBatchTrial<sck::hw::RippleCarryAdder> trial{adder, t};
      const CampaignResult res =
          sck::fault::run_exhaustive_batched(units, n, trial);
      range.add_row({std::string(to_string(t)),
                     sck::format_percent(res.min_fault_coverage),
                     sck::format_percent(res.max_fault_coverage)});
    }
  }
  range.print(std::cout);

  std::cout << "\nNote: the paper's n=4 fault-situation count (7,808) and"
            << "\nn=16 count (6*2^30) deviate from its own formula"
            << "\n32*n*2^(2n); we follow the formula for exhaustive widths"
            << "\nand report the sampled trial count for n=16.\n";
  return 0;
}
