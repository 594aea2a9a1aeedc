// Reproduces paper Table 3: "Application of the proposed methodology to the
// FIR" — the cost of the three FIR variants (plain / with SCK / embedded
// SCK) in hardware (latency formula, clock, CLB slices via our synthesis
// substrate and area model) and in software (execution time and a static
// code-size proxy on this host), plus the reliability leg the paper could
// not measure and the resulting (area, latency, coverage) Pareto verdict.
//
// The paper's testbed was OFFIS SystemC-Plus -> Synopsys CoCentric -> a
// Xilinx device, and a 2005-era g++ host; we regenerate the table's *shape*
// (who costs what relative to whom) — see EXPERIMENTS.md for the mapping.
//
// Usage: ./table3_fir_codesign [json_path] [sw_samples]
#include <iostream>
#include <string>
#include <vector>

#include "bench_args.h"
#include "codesign/explorer.h"
#include "codesign/flow.h"
#include "common/table.h"

namespace {

using sck::TextTable;
using sck::codesign::FlowReport;
using sck::codesign::HwDesign;
using sck::codesign::SwReport;

}  // namespace

int main(int argc, char** argv) {
  const sck::bench::BenchArgs args = sck::bench::parse_args(
      argc, argv, "BENCH_table3_fir_codesign.json",
      /*default_iterations=*/40'000'000);

  std::cout << "Reproduction of Bolchini et al. (DATE 2005), Table 3\n"
            << "FIR case study: 5 taps, 16-bit data path.\n\n";

  const sck::hls::FirSpec spec{{3, -5, 7, -5, 3}, 16};
  const FlowReport flow = sck::codesign::run_fir_flow(spec, args.iterations);

  TextTable hw("Table 3 (hardware): latency and area");
  hw.set_header({"Implementation", "objective", "latency (cycles)",
                 "data-ready", "clock (MHz)", "CLB slices"});
  for (const HwDesign& d : flow.hardware) {
    hw.add_row({std::string(to_string(d.variant)),
                d.min_area ? "min area" : "min latency",
                d.report.latency_formula,
                "2 + " + std::to_string(d.report.data_ready_step) + "n",
                sck::format_fixed(d.report.fmax_mhz, 2),
                sck::format_fixed(d.report.slices, 0)});
  }
  hw.print(std::cout);
  std::cout
      << "\nPaper reference (hardware):\n"
      << "  FIR              min area 2+7n  @20.00MHz   412 slices\n"
      << "                   min lat. 2+5n  @20.00MHz   477 slices\n"
      << "  FIR with SCK     min area 2+10n @16.67MHz  1926 slices\n"
      << "                   min lat. 2+5n  @20.00MHz  1593 slices\n"
      << "  FIR embedded SCK min area 2+9n  @15.38MHz   634 slices\n"
      << "                   min lat. 2+5n  @20.00MHz   861 slices\n"
      << "  (our 'latency' counts the full FSM iteration including the\n"
      << "   error-bit tail; 'data-ready' counts until y is valid, which\n"
      << "   is what the paper's latency formula tracks)\n\n";

  TextTable sw("Table 3 (software): execution time and size");
  sw.set_header({"Implementation", "exe time (s)", "ratio vs plain",
                 "ops/sample (size proxy)"});
  for (const SwReport& r : flow.software) {
    sw.add_row({std::string(to_string(r.variant)),
                sck::format_fixed(r.seconds, 2),
                sck::format_fixed(r.ratio_vs_plain, 2) + "x",
                std::to_string(r.ops_per_sample)});
  }
  sw.print(std::cout);
  std::cout
      << "\nPaper reference (software):\n"
      << "  FIR               6.83 s (1.00x)   889 KB\n"
      << "  FIR with SCK     10.02 s (1.47x)   893 KB\n"
      << "  FIR embedded SCK  7.90 s (1.16x)   889 KB\n"
      << "  (absolute seconds depend on the host and workload size; the\n"
      << "   ratios are the comparable quantity. Binary sizes in the paper\n"
      << "   are runtime-dominated and nearly equal; our static op counts\n"
      << "   proxy the data-path code growth.)\n\n";

  std::cout << "Area ordering check: plain < embedded << class-based "
            << "(min-area rows): "
            << flow.hardware[0].report.slices << " < "
            << flow.hardware[4].report.slices << " < "
            << flow.hardware[2].report.slices << "\n\n";

  // Reliability leg of the DSE (beyond the paper's Table 3): what each
  // variant's cost actually buys in realization-level coverage, measured
  // by the batched system-level campaign engine (up to W faults per
  // bit-plane sweep through the compiled netlist plan, sharded across the
  // pool).
  sck::hls::NetlistCampaignOptions cov_opt;
  cov_opt.samples_per_fault = 24;
  cov_opt.fault_stride = 3;
  cov_opt.threads = 0;  // all hardware threads; result is thread-invariant
  cov_opt.backend = sck::hls::NetlistBackend::kBatched;
  const auto coverage =
      sck::codesign::evaluate_flow_coverage(spec, flow, cov_opt);
  TextTable cov("DSE reliability leg: realization-level fault coverage");
  cov.set_header({"Implementation", "objective", "faults swept",
                  "erroneous samples", "detected", "coverage"});
  for (const auto& c : coverage) {
    cov.add_row({std::string(to_string(c.variant)),
                 c.min_area ? "min area" : "min latency",
                 std::to_string(c.faults),
                 std::to_string(c.stats.observable_errors()),
                 std::to_string(c.stats.detected_erroneous),
                 sck::format_percent(c.coverage())});
  }
  cov.print(std::cout);

  // Pareto verdict over (area, latency, coverage) — the explorer's
  // trade-off extraction applied to the six designs above.
  std::vector<sck::codesign::ParetoMetrics> metrics;
  for (std::size_t i = 0; i < flow.hardware.size(); ++i) {
    metrics.push_back(sck::codesign::ParetoMetrics{
        flow.hardware[i].report.slices,
        static_cast<double>(flow.hardware[i].report.steps),
        coverage[i].coverage()});
  }
  const std::vector<std::size_t> frontier =
      sck::codesign::pareto_frontier(metrics);
  std::cout << "\nPareto-efficient designs (area, latency, coverage):\n";
  for (const std::size_t i : frontier) {
    std::cout << "  * " << to_string(flow.hardware[i].variant) << ", "
              << (flow.hardware[i].min_area ? "min area" : "min latency")
              << "\n";
  }

  sck::bench::JsonValue hardware;
  for (std::size_t i = 0; i < flow.hardware.size(); ++i) {
    const HwDesign& d = flow.hardware[i];
    sck::bench::JsonValue r;
    r.set("variant",
          std::string(sck::codesign::variant_name(d.variant)))
        .set("objective", d.min_area ? "min_area" : "min_latency")
        .set("steps", d.report.steps)
        .set("data_ready_step", d.report.data_ready_step)
        .set("slices", d.report.slices)
        .set("fmax_mhz", d.report.fmax_mhz)
        .set("faults", coverage[i].faults)
        .set("detected_erroneous", coverage[i].stats.detected_erroneous)
        .set("masked", coverage[i].stats.masked)
        .set("coverage", coverage[i].coverage());
    bool on_frontier = false;
    for (const std::size_t f : frontier) on_frontier = on_frontier || f == i;
    r.set("on_frontier", on_frontier);
    hardware.push(std::move(r));
  }
  sck::bench::JsonValue software;
  for (const SwReport& r : flow.software) {
    sck::bench::JsonValue s;
    s.set("variant", std::string(sck::codesign::variant_name(r.variant)))
        .set("seconds", r.seconds)
        .set("ratio_vs_plain", r.ratio_vs_plain)
        .set("ops_per_sample", r.ops_per_sample);
    software.push(std::move(s));
  }
  sck::bench::JsonValue doc;
  doc.set("bench", "table3_fir_codesign")
      // The FIR flow wrapper is pinned to the pre-bump coverage semantics
      // (per-fault streams; see codesign/flow.h), so this artifact stays
      // byte-comparable with every earlier revision.
      .set("report_version", flow.report_version)
      .set("taps", 5)
      .set("width", spec.width)
      .set("sw_samples", static_cast<std::uint64_t>(args.iterations))
      .set("samples_per_fault", cov_opt.samples_per_fault)
      .set("fault_stride", cov_opt.fault_stride)
      .set("hardware", std::move(hardware))
      .set("software", std::move(software));
  return sck::bench::save_json(doc, args.json_path);
}
