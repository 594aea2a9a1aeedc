// Reproduces paper Table 1: "Overloading techniques and fault coverage" —
// the worst-case fault coverage of the checked operators +, -, x, / under
// the Tech1 / Tech2 / Both controls.
//
// Faults are drawn from the unit executing the *nominal* operation (the
// convention §4.1 uses for Table 2), and the hidden control shares that
// unit instance wherever it uses the same operation class — the §4 worst
// case:
//   +, -   : nominal and inverse operations on one faulty adder;
//   x      : both products on one faulty multiplier (negation and the
//            closing addition on the healthy adder);
//   /      : quotient+remainder on one faulty divider (the rebuild check
//            on the healthy multiplier and adder) — faults in the *check*
//            units cannot mask (the nominal result is then correct), so
//            including them would only dilute the masked fraction.
//
// 6-bit operands are swept exhaustively; the 8-bit column is seeded
// Monte-Carlo. As an extension (§3.2 invites alternative trade-offs) the
// mod-3 residue control is characterised for + and -, and the combined
// control for / that the paper leaves blank is measured as well.
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "common/table.h"
#include "fault/batch_trials.h"
#include "fault/campaign.h"
#include "fault/trials.h"
#include "hw/array_multiplier.h"
#include "hw/restoring_divider.h"
#include "hw/ripple_carry_adder.h"

namespace {

using sck::TextTable;
using sck::fault::CampaignOptions;
using sck::fault::OpKind;
using sck::fault::Technique;
using sck::hw::ArrayMultiplier;
using sck::hw::FaultableUnit;
using sck::hw::RestoringDivider;
using sck::hw::RippleCarryAdder;

constexpr std::uint64_t kSamples8 = 3'000'000;
constexpr std::uint64_t kSeed = 0xDA7E2005;

struct OperatorBench {
  OpKind op;
  std::vector<Technique> techniques;
  const char* paper_row;
};

double run_one(OpKind op, Technique tech, int width, bool exhaustive) {
  RippleCarryAdder adder(width);
  ArrayMultiplier mult(width);
  RestoringDivider divider(width);

  // All four operators run through the 64-lane bit-parallel engine
  // (fault/batch_trials.h); results are bit-identical to the scalar
  // trials, ~20-60x faster (see BENCH_fault_throughput.json).
  std::vector<FaultableUnit*> units;
  CampaignOptions opt;
  sck::fault::CampaignResult result;
  switch (op) {
    case OpKind::kAdd: {
      units = {&adder};
      const sck::fault::AddBatchTrial<RippleCarryAdder> trial{adder, tech};
      result = exhaustive
                   ? run_exhaustive_batched(
                         std::span<FaultableUnit* const>(units), width, trial,
                         opt)
                   : run_sampled_batched(std::span<FaultableUnit* const>(units),
                                         width, trial, kSamples8, kSeed, opt);
      break;
    }
    case OpKind::kSub: {
      units = {&adder};
      const sck::fault::SubBatchTrial<RippleCarryAdder> trial{adder, tech};
      result = exhaustive
                   ? run_exhaustive_batched(
                         std::span<FaultableUnit* const>(units), width, trial,
                         opt)
                   : run_sampled_batched(std::span<FaultableUnit* const>(units),
                                         width, trial, kSamples8, kSeed, opt);
      break;
    }
    case OpKind::kMul: {
      units = {&mult};
      const sck::fault::MulBatchTrial<ArrayMultiplier, RippleCarryAdder> trial{
          mult, adder, tech};
      result = exhaustive
                   ? run_exhaustive_batched(
                         std::span<FaultableUnit* const>(units), width, trial,
                         opt)
                   : run_sampled_batched(std::span<FaultableUnit* const>(units),
                                         width, trial, kSamples8, kSeed, opt);
      break;
    }
    case OpKind::kDiv: {
      units = {&divider};
      opt.skip_b_zero = true;
      const sck::fault::DivBatchTrial<RestoringDivider, ArrayMultiplier,
                                      RippleCarryAdder>
          trial{divider, mult, adder, tech};
      result = exhaustive
                   ? run_exhaustive_batched(
                         std::span<FaultableUnit* const>(units), width, trial,
                         opt)
                   : run_sampled_batched(std::span<FaultableUnit* const>(units),
                                         width, trial, kSamples8, kSeed, opt);
      break;
    }
  }
  return result.aggregate.coverage();
}

}  // namespace

int main() {
  std::cout << "Reproduction of Bolchini et al. (DATE 2005), Table 1\n"
            << "Overloading techniques and worst-case fault coverage per "
               "operator.\n\n";

  const std::vector<OperatorBench> benches{
      {OpKind::kAdd,
       {Technique::kTech1, Technique::kTech2, Technique::kBoth,
        Technique::kResidue3},
       "97.25 / 98.81 / 99.11"},
      {OpKind::kSub,
       {Technique::kTech1, Technique::kTech2, Technique::kBoth,
        Technique::kResidue3},
       "96.85 / 94.01 / 99.58"},
      {OpKind::kMul,
       {Technique::kTech1, Technique::kTech2, Technique::kBoth},
       "96.22 / 96.38 / 97.43"},
      {OpKind::kDiv,
       {Technique::kTech1, Technique::kTech2, Technique::kBoth},
       "94.33 / 97.16 /   -  "},
  };

  TextTable table("Table 1 — worst-case fault coverage per operator");
  table.set_header({"Operator", "Technique", "6-bit exhaustive",
                    "8-bit sampled", "paper (T1/T2/Both)"});
  for (const OperatorBench& bench : benches) {
    bool first = true;
    for (const Technique t : bench.techniques) {
      const double c6 = run_one(bench.op, t, 6, /*exhaustive=*/true);
      const double c8 = run_one(bench.op, t, 8, /*exhaustive=*/false);
      table.add_row({first ? std::string(to_string(bench.op)) : std::string(),
                     std::string(to_string(t)), sck::format_percent(c6),
                     sck::format_percent(c8),
                     first ? bench.paper_row : std::string()});
      first = false;
    }
    table.add_separator();
  }
  table.print(std::cout);

  std::cout
      << "\nNotes:\n"
      << " * Residue3 rows and the Div 'Tech1&2' row are extensions the\n"
      << "   paper does not report (its Div row shows '-').\n"
      << " * Shapes to compare with the paper: division is the weakest\n"
      << "   operator (q/r trade-off masking), combining both controls\n"
      << "   dominates either alone, and every technique sits in the\n"
      << "   90s. Absolute percentages depend on the gate-level netlist\n"
      << "   of the cells (see src/hw/cell.h).\n"
      << " * In our model Div Tech1 and Tech2 coincide exactly: both test\n"
      << "   the same identity a == q*b + r, and only divider faults can\n"
      << "   mask it, so the masked sets are identical.\n"
      << " * Residue3 catching 100% on + and - is the classic residue-code\n"
      << "   result: a single faulty cell perturbs the sum by +/-2^i, which\n"
      << "   is never divisible by 3.\n";
  return 0;
}
