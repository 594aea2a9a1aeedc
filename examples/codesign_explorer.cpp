// Exploring the reliable co-design space across every registered kernel.
//
// The paper's flow (Fig. 3) feeds one specification into both synthesis
// legs and leaves the trade-off decision to the designer. This example
// runs that loop in bulk with the kernel-generic explorer: the built-in
// kernel registry (FIR, IIR biquad, dot product, divider, multi-output
// matvec, state-heavy moving sum) x protection variants (plain /
// class-based SCK / embedded checks) x synthesis objectives (min area /
// min latency), each point synthesized to a netlist, swept through an
// incremental fault campaign on one shared stimulus stream, and the
// (area, latency, coverage) Pareto frontier extracted — the map a
// designer would use to pick an implementation.
//
// Build & run:  ./build/codesign_explorer [width] [samples_per_fault] [sw_samples]
#include <iostream>
#include <string>

#include "codesign/explorer.h"
#include "common/parse_number.h"
#include "common/table.h"
#include "common/word.h"

using namespace sck::codesign;

namespace {

constexpr const char* kUsage =
    "usage: codesign_explorer [width] [samples_per_fault] [sw_samples]\n";

}  // namespace

int main(int argc, char** argv) {
  int width = 8;
  int samples_per_fault = 12;
  std::size_t sw_samples = 1'000'000;
  if (argc > 4 ||
      (argc > 1 && !sck::parse_number(argv[1], width)) ||
      (argc > 2 && !sck::parse_number(argv[2], samples_per_fault)) ||
      (argc > 3 && !sck::parse_number(argv[3], sw_samples))) {
    std::cerr << "invalid arguments\n" << kUsage;
    return 2;
  }
  if (width < 1 || width > sck::kMaxWidth) {
    std::cerr << "width must be in 1.." << sck::kMaxWidth << "\n" << kUsage;
    return 2;
  }

  const KernelRegistry registry = builtin_registry();

  ExplorerOptions opt;
  opt.campaign.samples_per_fault = samples_per_fault;
  opt.campaign.fault_stride = 2;
  opt.campaign.threads = 0;  // all hardware threads; result thread-invariant
  opt.sw_samples = sw_samples;
  if (const std::string why = sck::hls::validate(opt.campaign); !why.empty()) {
    std::cerr << "invalid campaign options: " << why << "\n" << kUsage;
    return 2;
  }
  // Opt-in persistent result store: export SCK_STORE_DIR=<dir> and
  // re-runs of the same grid serve their campaigns from verified cache
  // entries (bit-identical to recomputing; see src/store/store.h).
  opt.store_dir = sck::store::store_dir_from_env();
  Explorer explorer(registry, opt);

  DesignGrid grid;
  grid.kernels = registry.names();
  grid.widths = {width};
  const std::vector<DesignPoint> points = grid.points();

  std::cout << "Kernel-generic co-design exploration: " << points.size()
            << " design points (" << grid.kernels.size() << " kernels x "
            << grid.variants.size() << " variants x " << grid.objectives.size()
            << " objectives, " << width << "-bit, " << samples_per_fault
            << " samples/fault)\n\n";

  const ExplorationReport report = explorer.run(points);

  sck::TextTable table("design space: area / latency / coverage");
  table.set_header({"design point", "slices", "II", "data-ready",
                    "fmax (MHz)", "faults", "coverage", "Pareto"});
  std::string last_kernel;
  for (const PointResult& r : report.points) {
    if (!last_kernel.empty() && r.point.kernel != last_kernel) {
      table.add_separator();
    }
    last_kernel = r.point.kernel;
    table.add_row({to_string(r.point), sck::format_fixed(r.hw.slices, 0),
                   std::to_string(r.hw.steps),
                   std::to_string(r.hw.data_ready_step),
                   sck::format_fixed(r.hw.fmax_mhz, 1),
                   std::to_string(r.faults),
                   sck::format_percent(r.coverage()),
                   r.on_frontier ? "*" : ""});
  }
  table.print(std::cout);
  if (report.store_enabled) {
    std::cout << "\nresult store (" << opt.store_dir << "): "
              << report.store_stats.hits << " hits, "
              << report.store_stats.misses << " misses, "
              << report.store_stats.corrupt << " quarantined, "
              << report.store_stats.evicted << " evicted"
              << (report.store_stats.degraded ? " [DEGRADED: uncached]" : "")
              << "\n";
  }
  std::cout << "\n" << report.frontier.size()
            << " Pareto-efficient points (no other design is at least as\n"
            << "good on area, latency AND coverage, and better on one).\n";

  std::cout << "\nSoftware leg (same specifications, this host, "
            << sw_samples << " samples):\n";
  for (const KernelSwLeg& leg : report.software) {
    std::cout << "  " << registry.at(leg.kernel).display << ":\n";
    for (const SwReport& r : leg.reports) {
      std::cout << "    " << variant_name(r.variant) << ": "
                << sck::format_fixed(r.seconds, 3) << " s ("
                << sck::format_fixed(r.ratio_vs_plain, 2) << "x), "
                << r.ops_per_sample << " ops/sample\n";
    }
  }

  std::cout
      << "\nReading the map: the class-based variants buy near-complete\n"
      << "realization-level coverage at a large area cost (private check\n"
      << "clusters), the embedded variants cover the accumulation only,\n"
      << "and the plain designs anchor the frontier's cheap/uncovered end\n"
      << "— Table 3's trade-off, reproduced per kernel by one registry-\n"
      << "driven pipeline.\n";
  return 0;
}
