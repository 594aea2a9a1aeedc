// Tests for the kernel-generic co-design explorer:
//  (a) the explorer reproduces the pre-refactor FIR-only flow's designs
//      and coverage bit for bit (held against an inline replica of the
//      legacy FIR-only synthesis path),
//  (b) Pareto-frontier extraction on hand-built point sets,
//  (c) explorer results are invariant under the campaign thread count and
//      the point evaluation order,
// plus registry behaviour, the synthesis cache and the widened SW legs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "codesign/explorer.h"
#include "common/codec.h"
#include "hls/bind.h"
#include "hls/builder.h"
#include "hls/expand_sck.h"
#include "hls/schedule.h"

namespace sck::codesign {
namespace {

const hls::FirSpec kSpec{{3, -5, 7, -5, 3}, 8};

// ---- legacy replica --------------------------------------------------------
// The pre-refactor FIR-only flow (before the explorer rebase), kept
// verbatim as the bit-identity reference for the explorer.

struct HwDesign {
  hls::Netlist netlist;
  hls::HwReport report;
};

hls::Dfg legacy_variant_graph(const hls::FirSpec& spec, Variant variant) {
  const hls::Dfg plain = hls::build_fir(spec);
  if (variant == Variant::kPlain) return plain;
  hls::CedOptions opt;
  opt.style = variant == Variant::kSck ? hls::CedStyle::kClassBased
                                       : hls::CedStyle::kEmbedded;
  return hls::insert_ced(plain, opt);
}

HwDesign legacy_fir_design(const hls::FirSpec& spec, Variant variant,
                           bool min_area) {
  const hls::Dfg g = legacy_variant_graph(spec, variant);
  const hls::ResourceConstraints rc =
      min_area ? hls::ResourceConstraints::min_area()
               : hls::ResourceConstraints::min_latency();
  const hls::Schedule s =
      min_area ? hls::schedule_list(g, rc) : hls::schedule_asap(g);
  hls::validate_schedule(g, s, rc);
  const hls::Binding b = hls::bind(g, s, rc);
  hls::validate_binding(g, s, b);

  HwDesign design;
  std::string name = "fir";
  if (variant == Variant::kSck) name += "_sck";
  if (variant == Variant::kEmbedded) name += "_embedded";
  name += min_area ? "_min_area" : "_min_latency";
  design.netlist = hls::generate_netlist(g, s, b, name);
  design.report = hls::evaluate_netlist(design.netlist);
  return design;
}

void expect_netlist_identical(const hls::Netlist& got,
                              const hls::Netlist& want) {
  EXPECT_EQ(got.name, want.name);
  EXPECT_EQ(got.data_width, want.data_width);
  EXPECT_EQ(got.num_steps, want.num_steps);
  EXPECT_EQ(got.fus, want.fus);
  EXPECT_EQ(got.regs, want.regs);
  EXPECT_EQ(got.input_names, want.input_names);
  EXPECT_EQ(got.outputs, want.outputs);
  EXPECT_EQ(got.state_loads, want.state_loads);
  EXPECT_EQ(got.micro, want.micro);
}

void expect_report_identical(const hls::HwReport& got,
                             const hls::HwReport& want) {
  EXPECT_EQ(got.steps, want.steps);
  EXPECT_EQ(got.data_ready_step, want.data_ready_step);
  EXPECT_EQ(got.slices, want.slices);  // exact: same deterministic model
  EXPECT_EQ(got.fmax_mhz, want.fmax_mhz);
  EXPECT_EQ(got.slices_fu, want.slices_fu);
  EXPECT_EQ(got.slices_reg, want.slices_reg);
  EXPECT_EQ(got.slices_mux, want.slices_mux);
  EXPECT_EQ(got.slices_ctrl, want.slices_ctrl);
  EXPECT_EQ(got.latency_formula, want.latency_formula);
}

void expect_stats_identical(const fault::CampaignStats& got,
                            const fault::CampaignStats& want) {
  EXPECT_EQ(got.silent_correct, want.silent_correct);
  EXPECT_EQ(got.detected_correct, want.detected_correct);
  EXPECT_EQ(got.detected_erroneous, want.detected_erroneous);
  EXPECT_EQ(got.masked, want.masked);
}

hls::NetlistCampaignOptions small_campaign() {
  hls::NetlistCampaignOptions opt;
  opt.samples_per_fault = 6;
  opt.fault_stride = 5;
  opt.threads = 2;
  return opt;
}

// ---- (a) legacy-flow bit-identity ------------------------------------------

/// The FIR's six Table 3 points (three variants x two objectives).
std::vector<DesignPoint> fir_points() {
  DesignGrid grid;
  grid.kernels = {"fir"};
  grid.widths = {kSpec.width};
  return grid.points();
}

KernelRegistry fir_registry() {
  KernelRegistry reg;
  reg.add(make_fir_kernel(kSpec.coeffs));
  return reg;
}

TEST(ExplorerWrappers, FirFlowReproducesLegacyFlowBitForBit) {
  const KernelRegistry reg = fir_registry();
  ExplorerOptions eopt;
  eopt.coverage = false;
  Explorer explorer(reg, eopt);
  const ExplorationReport report = explorer.run(fir_points());
  ASSERT_EQ(report.points.size(), 6u);
  std::size_t i = 0;
  for (const Variant v : kAllVariants) {
    for (const bool min_area : {true, false}) {
      const HwDesign legacy = legacy_fir_design(kSpec, v, min_area);
      const PointResult& r = report.points[i];
      EXPECT_EQ(r.point.variant, v);
      EXPECT_EQ(r.point.min_area, min_area);
      expect_netlist_identical(explorer.synthesize(r.point).netlist,
                               legacy.netlist);
      expect_report_identical(r.hw, legacy.report);
      ++i;
    }
  }
}

TEST(ExplorerWrappers, SynthesizeFirMatchesLegacyPath) {
  const KernelRegistry reg = fir_registry();
  ExplorerOptions eopt;
  eopt.coverage = false;
  Explorer explorer(reg, eopt);
  const SynthesizedPoint& got = explorer.synthesize(
      DesignPoint{"fir", Variant::kEmbedded, false, kSpec.width});
  const HwDesign want =
      legacy_fir_design(kSpec, Variant::kEmbedded, false);
  expect_netlist_identical(got.netlist, want.netlist);
  expect_report_identical(got.report, want.report);
}

TEST(ExplorerWrappers, CoverageReproducesLegacyCampaignBitForBit) {
  const hls::NetlistCampaignOptions opt = small_campaign();
  const KernelRegistry reg = fir_registry();
  ExplorerOptions eopt;
  eopt.campaign = opt;
  Explorer explorer(reg, eopt);
  const ExplorationReport report = explorer.run(fir_points());
  ASSERT_EQ(report.points.size(), 6u);
  EXPECT_EQ(report.report_version, kSharedStreamReportVersion);
  // Legacy loop: per-design campaign against a per-variant rebuilt graph.
  for (const PointResult& r : report.points) {
    const HwDesign design =
        legacy_fir_design(kSpec, r.point.variant, r.point.min_area);
    const hls::Dfg graph = legacy_variant_graph(kSpec, r.point.variant);
    const hls::NetlistCampaignResult want =
        hls::run_netlist_campaign(graph, design.netlist, opt);
    EXPECT_EQ(r.faults, want.fault_universe_size) << to_string(r.point);
    expect_stats_identical(r.stats, want.aggregate);
  }
}

TEST(ExplorerWrappers, CoverageLegRunsCampaignOptionsAsGiven) {
  // The explorer changes no campaign field but the thread budget: a
  // scalar-backend campaign stays on the scalar backend, and the per-point
  // stats match a manual campaign with the same options bit for bit.
  hls::NetlistCampaignOptions opt = small_campaign();
  opt.backend = hls::NetlistBackend::kScalar;

  const KernelRegistry reg = fir_registry();
  ExplorerOptions eopt;
  eopt.campaign = opt;
  Explorer explorer(reg, eopt);
  const ExplorationReport report = explorer.run(fir_points());
  EXPECT_EQ(report.report_version, kSharedStreamReportVersion);

  ASSERT_EQ(report.points.size(), 6u);
  for (const PointResult& r : report.points) {
    const hls::NetlistCampaignResult want = hls::run_netlist_campaign(
        explorer.reference_graph(r.point), explorer.synthesize(r.point).netlist,
        opt);
    EXPECT_EQ(r.faults, want.fault_universe_size) << to_string(r.point);
    expect_stats_identical(r.stats, want.aggregate);
  }
}

// ---- (b) Pareto frontier ---------------------------------------------------

TEST(ParetoFrontier, HandBuiltPointSet) {
  //               area  latency  coverage
  const std::vector<ParetoMetrics> pts{
      {10.0, 5.0, 0.90},   // 0: dominated by 2 (same cost, more coverage)
      {12.0, 5.0, 0.90},   // 1: dominated by 0 and 2
      {10.0, 5.0, 0.95},   // 2: efficient
      {8.0, 7.0, 0.50},    // 3: efficient (cheapest area)
      {10.0, 5.0, 0.95},   // 4: duplicate of 2 — both kept
      {11.0, 4.0, 0.95},   // 5: efficient (fastest at top coverage)
      {11.0, 6.0, 0.94}};  // 6: dominated by 2
  EXPECT_EQ(pareto_frontier(pts), (std::vector<std::size_t>{2, 3, 4, 5}));
}

TEST(ParetoFrontier, EdgeCases) {
  EXPECT_TRUE(pareto_frontier({}).empty());
  EXPECT_EQ(pareto_frontier({{1.0, 1.0, 1.0}}),
            (std::vector<std::size_t>{0}));
  // A single point dominating everything.
  const std::vector<ParetoMetrics> pts{
      {1.0, 1.0, 1.0}, {2.0, 2.0, 0.5}, {3.0, 1.0, 0.2}};
  EXPECT_EQ(pareto_frontier(pts), (std::vector<std::size_t>{0}));
}

// ---- (c) thread-count and evaluation-order invariance ---------------------

void expect_reports_identical(const ExplorationReport& got,
                              const ExplorationReport& want) {
  ASSERT_EQ(got.points.size(), want.points.size());
  for (std::size_t i = 0; i < got.points.size(); ++i) {
    EXPECT_EQ(got.points[i].point, want.points[i].point);
    expect_report_identical(got.points[i].hw, want.points[i].hw);
    EXPECT_EQ(got.points[i].faults, want.points[i].faults);
    EXPECT_EQ(got.points[i].on_frontier, want.points[i].on_frontier);
    expect_stats_identical(got.points[i].stats, want.points[i].stats);
  }
  EXPECT_EQ(got.frontier, want.frontier);
}

TEST(Explorer, ResultsInvariantUnderThreadsAndEvaluationOrder) {
  const KernelRegistry registry = builtin_registry();
  DesignGrid grid;
  grid.kernels = {"fir", "iir", "dot"};
  grid.variants = {Variant::kPlain, Variant::kEmbedded};
  grid.widths = {5};
  const std::vector<DesignPoint> points = grid.points();
  ASSERT_EQ(points.size(), 12u);

  const auto run_with = [&](int threads,
                            std::vector<std::size_t> order) {
    ExplorerOptions opt;
    opt.campaign = small_campaign();
    opt.campaign.threads = threads;
    opt.evaluation_order = std::move(order);
    Explorer explorer(registry, opt);
    return explorer.run(points);
  };

  const ExplorationReport baseline = run_with(1, {});

  // Thread-count invariance (campaign sharding).
  expect_reports_identical(run_with(3, {}), baseline);
  expect_reports_identical(run_with(0, {}), baseline);

  // Evaluation-order invariance (results land in grid-index slots).
  std::vector<std::size_t> reversed(points.size());
  for (std::size_t i = 0; i < reversed.size(); ++i) {
    reversed[i] = points.size() - 1 - i;
  }
  expect_reports_identical(run_with(2, reversed), baseline);
  std::vector<std::size_t> interleaved;
  for (std::size_t i = 0; i < points.size(); i += 2) interleaved.push_back(i);
  for (std::size_t i = 1; i < points.size(); i += 2) interleaved.push_back(i);
  expect_reports_identical(run_with(2, interleaved), baseline);
}

TEST(Explorer, ResultsInvariantUnderPointSharding) {
  // Whole-point sharding (point_threads) must leave the report
  // byte-for-byte identical to the sequential evaluation: campaigns are
  // thread-invariant and results land in grid-index slots, so any pool
  // size — including one larger than the grid, and combined with an inner
  // campaign thread budget — is a pure wall-clock knob.
  const KernelRegistry registry = builtin_registry();
  DesignGrid grid;
  grid.kernels = {"fir", "iir", "divmod"};
  grid.variants = {Variant::kPlain, Variant::kSck};
  grid.widths = {5};
  const std::vector<DesignPoint> points = grid.points();
  ASSERT_EQ(points.size(), 12u);

  const auto run_with = [&](int point_threads, int campaign_threads) {
    ExplorerOptions opt;
    opt.campaign = small_campaign();
    opt.campaign.threads = campaign_threads;
    opt.point_threads = point_threads;
    Explorer explorer(registry, opt);
    return explorer.run(points);
  };

  const ExplorationReport baseline = run_with(1, 1);
  expect_reports_identical(run_with(2, 1), baseline);
  expect_reports_identical(run_with(8, 1), baseline);
  expect_reports_identical(run_with(0, 0), baseline);  // all-hardware pools
  expect_reports_identical(run_with(64, 4), baseline);  // pool > grid
}

// ---- cross-kernel grid -----------------------------------------------------

TEST(Explorer, CrossKernelGridEvaluatesEveryPoint) {
  // All six built-in kernels x >= 2 variants x 2 objectives in one run,
  // every point synthesized and coverage-swept (multi-output matvec and
  // state-heavy moving_sum included, under the shared-stream incremental
  // default).
  const KernelRegistry registry = builtin_registry();
  ExplorerOptions opt;
  opt.campaign = small_campaign();
  Explorer explorer(registry, opt);
  DesignGrid grid;
  grid.kernels = {"fir", "iir", "dot", "divmod", "matvec", "moving_sum"};
  grid.variants = {Variant::kPlain, Variant::kSck};
  grid.widths = {5};
  const std::vector<DesignPoint> points = grid.points();
  ASSERT_EQ(points.size(), 24u);

  const ExplorationReport report = explorer.run(points);
  ASSERT_EQ(report.points.size(), 24u);
  EXPECT_EQ(report.report_version, kSharedStreamReportVersion);
  for (const PointResult& r : report.points) {
    EXPECT_GT(r.hw.slices, 0.0) << to_string(r.point);
    EXPECT_GT(r.hw.steps, 0) << to_string(r.point);
    EXPECT_GT(r.faults, 0u) << to_string(r.point);
    EXPECT_GT(r.stats.total(), 0u) << to_string(r.point);
  }
  // Class-based CED buys coverage: for every kernel x objective, the SCK
  // realization covers at least as much as the matching plain one.
  for (std::size_t i = 0; i + 2 < report.points.size(); ++i) {
    const PointResult& r = report.points[i];
    if (r.point.variant != Variant::kPlain) continue;
    const PointResult& sck = report.points[i + 2];  // same kernel, kSck row
    ASSERT_EQ(sck.point.kernel, r.point.kernel);
    ASSERT_EQ(sck.point.variant, Variant::kSck);
    ASSERT_EQ(sck.point.min_area, r.point.min_area);
    EXPECT_GE(sck.coverage(), r.coverage()) << to_string(r.point);
  }
  // The frontier is non-empty and mutually non-dominated.
  ASSERT_FALSE(report.frontier.empty());
  for (const std::size_t i : report.frontier) {
    EXPECT_TRUE(report.points[i].on_frontier);
    for (const std::size_t j : report.frontier) {
      if (i == j) continue;
      const PointResult& a = report.points[j];
      const PointResult& b = report.points[i];
      const bool dominates =
          a.hw.slices <= b.hw.slices && a.hw.steps <= b.hw.steps &&
          a.coverage() >= b.coverage() &&
          (a.hw.slices < b.hw.slices || a.hw.steps < b.hw.steps ||
           a.coverage() > b.coverage());
      EXPECT_FALSE(dominates);
    }
  }
  // One synthesized design per point in the cache.
  EXPECT_EQ(explorer.cache_size(), 24u);
}

TEST(Explorer, NewKernelsReachTheParetoFrontier) {
  // matvec + moving_sum as a standalone grid: both kernels flow through
  // synthesis, shared-stream incremental coverage and frontier extraction
  // end to end, and the (non-empty) frontier is drawn from their points.
  const KernelRegistry registry = builtin_registry();
  ExplorerOptions opt;
  opt.campaign = small_campaign();
  opt.sw_samples = 10'000;
  Explorer explorer(registry, opt);
  DesignGrid grid;
  grid.kernels = {"matvec", "moving_sum"};
  grid.widths = {5};
  const ExplorationReport report = explorer.run(grid.points());
  ASSERT_EQ(report.points.size(), 12u);
  EXPECT_EQ(report.report_version, kSharedStreamReportVersion);
  for (const PointResult& r : report.points) {
    EXPECT_GT(r.hw.slices, 0.0) << to_string(r.point);
    EXPECT_GT(r.faults, 0u) << to_string(r.point);
    EXPECT_GT(r.stats.total(), 0u) << to_string(r.point);
  }
  ASSERT_FALSE(report.frontier.empty());
  // Both kernels must individually survive frontier extraction: matvec's
  // class-based points anchor the max-coverage end, moving_sum's tiny
  // plain design the min-area end — neither kernel dominates the other
  // everywhere.
  bool matvec_on_frontier = false;
  bool moving_sum_on_frontier = false;
  for (const std::size_t i : report.frontier) {
    matvec_on_frontier =
        matvec_on_frontier || report.points[i].point.kernel == "matvec";
    moving_sum_on_frontier =
        moving_sum_on_frontier ||
        report.points[i].point.kernel == "moving_sum";
  }
  EXPECT_TRUE(matvec_on_frontier);
  EXPECT_TRUE(moving_sum_on_frontier);
  // Both kernels measured their SW legs (all three variants each).
  ASSERT_EQ(report.software.size(), 2u);
  EXPECT_EQ(report.software[0].kernel, "matvec");
  EXPECT_EQ(report.software[1].kernel, "moving_sum");
  for (const KernelSwLeg& leg : report.software) {
    ASSERT_EQ(leg.reports.size(), 3u) << leg.kernel;
  }
}

TEST(Explorer, FaultDroppingCoverageOnlySweep) {
  // The coverage-only knob: fault dropping preserves each point's
  // detection behaviour but shrinks totals vs the full-taxonomy default.
  const KernelRegistry registry = builtin_registry();
  DesignGrid grid;
  grid.kernels = {"moving_sum"};
  grid.variants = {Variant::kSck};
  grid.widths = {5};

  ExplorerOptions opt;
  opt.campaign = small_campaign();
  Explorer full(registry, opt);
  const ExplorationReport full_r = full.run(grid.points());

  opt.campaign.fault_dropping = true;
  Explorer drop(registry, opt);
  const ExplorationReport drop_r = drop.run(grid.points());

  ASSERT_EQ(drop_r.points.size(), full_r.points.size());
  EXPECT_EQ(drop_r.report_version, kSharedStreamReportVersion);
  for (std::size_t i = 0; i < full_r.points.size(); ++i) {
    EXPECT_EQ(drop_r.points[i].faults, full_r.points[i].faults);
    EXPECT_LT(drop_r.points[i].stats.total(), full_r.points[i].stats.total())
        << to_string(full_r.points[i].point);
    EXPECT_EQ(drop_r.points[i].stats.detections() > 0,
              full_r.points[i].stats.detections() > 0);
  }
}

TEST(Explorer, BuiltinGridReportPinned) {
  // Every built-in kernel x variant x objective at widths 8 and 12 (72
  // points). The pin was captured before the per-fault stream mode was
  // removed: each point's fault count and stats, plus the frontier, must
  // keep their exact bytes.
  const KernelRegistry registry = builtin_registry();
  ExplorerOptions opt;
  opt.campaign.samples_per_fault = 4;
  opt.campaign.seed = 0x5EED17;
  opt.point_threads = 2;
  Explorer explorer(registry, opt);
  DesignGrid grid;
  grid.kernels = registry.names();
  grid.widths = {8, 12};
  const ExplorationReport report = explorer.run(grid.points());
  ASSERT_EQ(report.points.size(), 72u);
  codec::Writer w;
  for (const PointResult& r : report.points) {
    w.u64(r.faults);
    w(r.stats);
  }
  for (const std::size_t i : report.frontier) w.u64(i);
  EXPECT_EQ(codec::fnv1a(w.view()), 0xECDEA5E8DEF95325ULL);
}

TEST(Explorer, SynthesisCacheReturnsSameDesign) {
  const KernelRegistry registry = builtin_registry();
  ExplorerOptions opt;
  opt.coverage = false;
  Explorer explorer(registry, opt);
  const DesignPoint p{"iir", Variant::kSck, true, 6};
  const SynthesizedPoint& a = explorer.synthesize(p);
  const SynthesizedPoint& b = explorer.synthesize(p);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(explorer.cache_size(), 1u);
  EXPECT_EQ(a.netlist.name, "iir_sck_min_area");
}

// ---- registry --------------------------------------------------------------

TEST(KernelRegistry, BuiltinSetAndLookup) {
  const KernelRegistry reg = builtin_registry();
  EXPECT_EQ(reg.names(),
            (std::vector<std::string>{"fir", "iir", "dot", "divmod", "matvec",
                                      "moving_sum"}));
  EXPECT_NE(reg.find("fir"), nullptr);
  EXPECT_EQ(reg.find("fft"), nullptr);
  EXPECT_EQ(reg.at("dot").display, "dot product (4)");
  EXPECT_EQ(reg.at("matvec").display, "matvec (2x3)");
  EXPECT_EQ(reg.at("moving_sum").display, "moving sum (4)");
  // Every built-in kernel builds a valid graph at a non-default width.
  for (const std::string& name : reg.names()) {
    const hls::Dfg g = reg.at(name).build(6);
    EXPECT_FALSE(g.outputs().empty()) << name;
  }
  // The new netlist shapes: matvec is multi-output, moving_sum is the
  // state-heaviest (window + running-sum registers).
  EXPECT_EQ(reg.at("matvec").build(6).outputs().size(), 2u);
  EXPECT_EQ(reg.at("moving_sum").build(6).state_regs().size(), 5u);
}

TEST(KernelRegistry, DuplicateNameFailsLoudly) {
  // Registering the same name twice must abort (SCK_EXPECTS), not
  // silently shadow the first spec in name-driven grids and caches.
  KernelRegistry reg = builtin_registry();
  EXPECT_DEATH(reg.add(make_dot_kernel(8)), "duplicate kernel name");
  // A distinctly named spec still registers fine afterwards.
  KernelSpec renamed = make_dot_kernel(8);
  renamed.name = "dot8";
  reg.add(std::move(renamed));
  EXPECT_NE(reg.find("dot8"), nullptr);
  EXPECT_EQ(reg.size(), 7u);
}

TEST(KernelRegistry, UnknownNameFailsWithRegisteredListing) {
  // A typo'd kernel name (CLI flag, grid config) must abort with a
  // message that names the miss AND lists what is actually registered —
  // not a bare assertion the user has to gdb into.
  KernelRegistry reg;
  reg.add(make_fir_kernel({1, 2, 3}));
  reg.add(make_moving_sum_kernel(4));
  EXPECT_DEATH((void)reg.at("fir_typo"),
               "unknown kernel \"fir_typo\"; registered kernels: fir "
               "moving_sum");
  // An empty registry says so instead of listing nothing.
  const KernelRegistry empty;
  EXPECT_DEATH((void)empty.at("fir"), "registered kernels: \\(none\\)");
}

// ---- SW legs (widened accumulation, satellite UB audit) -------------------

TEST(SwLeg, WidenedKernelsAgreeAcrossVariants) {
  // Every measuring kernel now reports all three variants (the embedded
  // running difference is generalized beyond the FIR); the SW legs run on
  // long long so campaign-scale sample counts cannot push feedback
  // random-walks into signed-overflow UB. Checksum equality across
  // variants and the clean-error invariant are asserted inside the
  // measurement itself (measure_variant / finish_ratios) — a divergence
  // aborts rather than failing softly.
  const KernelRegistry reg = builtin_registry();
  for (const std::string& name :
       {std::string("fir"), std::string("iir"), std::string("dot"),
        std::string("matvec"), std::string("moving_sum")}) {
    const auto reports = reg.at(name).measure_sw(20'000);
    ASSERT_EQ(reports.size(), 3u) << name;
    EXPECT_EQ(reports[0].variant, Variant::kPlain);
    EXPECT_EQ(reports[1].variant, Variant::kSck);
    EXPECT_EQ(reports[2].variant, Variant::kEmbedded);
    EXPECT_EQ(reports[0].checksum, reports[1].checksum) << name;
    EXPECT_EQ(reports[0].checksum, reports[2].checksum) << name;
    // Instrumentation cost ordering: class-based > embedded > plain.
    EXPECT_LT(reports[0].ops_per_sample, reports[2].ops_per_sample) << name;
    EXPECT_LT(reports[2].ops_per_sample, reports[1].ops_per_sample) << name;
  }
}

TEST(SwLeg, EmbeddedHostsSurviveCampaignScaleSampleCounts) {
  // Overflow-safety satellite: the widened embedded hosts run a
  // campaign-scale workload (millions of samples) without tripping the
  // clean-error invariant or diverging from the plain checksum — under
  // ASan/UBSan in CI this is also the signed-overflow audit.
  const KernelRegistry reg = builtin_registry();
  for (const std::string& name :
       {std::string("iir"), std::string("moving_sum")}) {
    const auto reports = reg.at(name).measure_sw(2'000'000);
    ASSERT_EQ(reports.size(), 3u) << name;
    EXPECT_EQ(reports[0].checksum, reports[2].checksum) << name;
  }
}

}  // namespace
}  // namespace sck::codesign
