// Tests for the co-design flow (Fig. 3): the six hardware designs and
// three software measurements of the Table 3 experiment, their orderings,
// and the correctness of every synthesized netlist.
#include <gtest/gtest.h>

#include <unordered_map>

#include "codesign/explorer.h"
#include "common/rng.h"
#include "hls/builder.h"
#include "hls/expand_sck.h"
#include "hls/netlist_sim.h"

namespace sck::codesign {
namespace {

const hls::FirSpec kSpec{{3, -5, 7, -5, 3}, 16};

KernelRegistry fir_registry() {
  KernelRegistry registry;
  registry.add(make_fir_kernel(kSpec.coeffs));
  return registry;
}

ExplorerOptions hw_only(std::size_t sw_samples = 0) {
  ExplorerOptions opt;
  opt.coverage = false;
  opt.sw_samples = sw_samples;
  return opt;
}

/// The Table 3 designs of the paper's FIR, synthesized by the explorer.
class Table3Designs {
 public:
  const SynthesizedPoint& get(Variant v, bool min_area) {
    return explorer_.synthesize(DesignPoint{"fir", v, min_area, kSpec.width});
  }

 private:
  const KernelRegistry registry_ = fir_registry();
  Explorer explorer_{registry_, hw_only()};
};

TEST(CodesignFlow, ProducesAllSixHardwareDesigns) {
  const KernelRegistry registry = fir_registry();
  Explorer explorer(registry, hw_only(/*sw_samples=*/100'000));
  DesignGrid grid;
  grid.kernels = {"fir"};
  grid.widths = {kSpec.width};
  const ExplorationReport report = explorer.run(grid.points());
  ASSERT_EQ(report.points.size(), 6u);
  ASSERT_EQ(report.software.size(), 1u);
  ASSERT_EQ(report.software[0].reports.size(), 3u);
  for (const PointResult& r : report.points) {
    EXPECT_GT(r.hw.slices, 0.0);
    EXPECT_GT(r.hw.fmax_mhz, 0.0);
    EXPECT_GT(r.hw.steps, 0);
    EXPECT_FALSE(explorer.synthesize(r.point).netlist.micro.empty());
  }
}

TEST(CodesignFlow, Table3AreaOrderingHolds) {
  Table3Designs designs;
  const auto slices = [&](Variant v, bool min_area) {
    return designs.get(v, min_area).report.slices;
  };
  // Min-area rows: plain < embedded << class-based (paper: 412/634/1926).
  EXPECT_LT(slices(Variant::kPlain, true), slices(Variant::kEmbedded, true));
  EXPECT_LT(slices(Variant::kEmbedded, true), slices(Variant::kSck, true));
  EXPECT_GT(slices(Variant::kSck, true), 2.5 * slices(Variant::kPlain, true));
  // Min-latency rows keep the plain < embedded < class ordering too.
  EXPECT_LT(slices(Variant::kPlain, false), slices(Variant::kEmbedded, false));
  EXPECT_LT(slices(Variant::kEmbedded, false), slices(Variant::kSck, false));
}

TEST(CodesignFlow, Table3LatencyShapeHolds) {
  Table3Designs designs;
  const auto report = [&](Variant v, bool min_area) {
    return designs.get(v, min_area).report;
  };
  // The paper's 5-tap FIR: min-area plain = 2+7n, with-SCK data ready 2+10n.
  EXPECT_EQ(report(Variant::kPlain, true).steps, 7);
  EXPECT_EQ(report(Variant::kSck, true).data_ready_step, 10);
  // CED never makes the data path faster.
  EXPECT_GE(report(Variant::kSck, true).data_ready_step,
            report(Variant::kPlain, true).data_ready_step);
  EXPECT_GE(report(Variant::kEmbedded, true).steps,
            report(Variant::kPlain, true).steps);
  // Min-latency data-ready is identical for plain and embedded (checks are
  // off the critical path) and never better than plain for class-based.
  EXPECT_EQ(report(Variant::kEmbedded, false).data_ready_step,
            report(Variant::kPlain, false).data_ready_step);
  EXPECT_GE(report(Variant::kSck, false).data_ready_step,
            report(Variant::kPlain, false).data_ready_step);
  // Clock: CED variants are never faster than plain at equal objective.
  EXPECT_LE(report(Variant::kSck, true).fmax_mhz,
            report(Variant::kPlain, true).fmax_mhz + 1e-9);
  EXPECT_LE(report(Variant::kEmbedded, true).fmax_mhz,
            report(Variant::kPlain, true).fmax_mhz + 1e-9);
}

TEST(CodesignFlow, SoftwareMeasurementsHavePaperShape) {
  const auto sw = measure_fir_sw({3, -5, 7, -5, 3}, 3'000'000);
  ASSERT_EQ(sw.size(), 3u);
  EXPECT_EQ(sw[0].variant, Variant::kPlain);
  EXPECT_EQ(sw[1].variant, Variant::kSck);
  EXPECT_EQ(sw[2].variant, Variant::kEmbedded);
  // All three compute the same stream (checksums are asserted inside, but
  // verify the exposed values too).
  EXPECT_EQ(sw[0].checksum, sw[1].checksum);
  EXPECT_EQ(sw[0].checksum, sw[2].checksum);
  // The paper's overhead shape, plain < embedded < class-based (paper:
  // 1.00/1.16/1.47), gated on the static data-path operation count per
  // sample, which is deterministic. The wall-time ratios depend on machine
  // load, so CI's Table 3 step asserts them, with the bench running alone.
  EXPECT_LT(sw[0].ops_per_sample, sw[2].ops_per_sample);
  EXPECT_LT(sw[2].ops_per_sample, sw[1].ops_per_sample);
}

TEST(CodesignFlow, EverySynthesizedNetlistSimulatesCorrectly) {
  Table3Designs designs;
  DesignGrid grid;
  grid.kernels = {"fir"};
  grid.widths = {kSpec.width};
  for (const DesignPoint& p : grid.points()) {
    // Rebuild the matching reference graph.
    hls::Dfg graph = hls::build_fir(kSpec);
    if (p.variant != Variant::kPlain) {
      hls::CedOptions opt;
      opt.style = p.variant == Variant::kSck ? hls::CedStyle::kClassBased
                                             : hls::CedStyle::kEmbedded;
      graph = hls::insert_ced(graph, opt);
    }
    hls::NetlistSim sim(designs.get(p.variant, p.min_area).netlist);
    std::vector<std::uint64_t> state(graph.state_regs().size(), 0);
    Xoshiro256 rng(0xC0DE51);
    for (int k = 0; k < 50; ++k) {
      const std::unordered_map<std::string, std::uint64_t> in{
          {"x", rng.bounded(1u << 16)}};
      const auto want = graph.eval(in, state);
      const auto got = sim.step_sample(in);
      for (const auto& [name, value] : want.outputs) {
        ASSERT_EQ(got.at(name), value) << to_string(p) << " output " << name;
      }
    }
  }
}

TEST(CodesignFlow, VariantNamesMatchPaperRows) {
  EXPECT_EQ(to_string(Variant::kPlain), "FIR");
  EXPECT_EQ(to_string(Variant::kSck), "FIR with SCK");
  EXPECT_EQ(to_string(Variant::kEmbedded), "FIR embedded SCK");
}

}  // namespace
}  // namespace sck::codesign
