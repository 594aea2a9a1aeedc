// Width / duration-model Pareto frontier of the self-checking FIR.
//
// The co-design question behind the paper's Table 3, extended along the
// fault-duration axis this repository now models: for each data width of
// the flagship FIR (class-based CED, min-area binding), what do area and
// latency cost, and what detection coverage does the self-checking
// realization buy against permanent, transient and intermittent faults —
// plus the register-SEU dimension?
//
// Coverage is measured two ways per point:
//   * exhaustively, on the incremental backend — and re-run on the batched
//     and scalar backends so every row carries a results_identical gate (a
//     coverage number from backends that disagree is worthless);
//   * by the confidence-interval sampler (fault/stats.h Wilson score),
//     reporting point estimate, [lo, hi], convergence and the sampled
//     fraction — sampled_matches_exhaustive holds the sampler to the
//     bit-exact exhaustive reduction when driven through the whole
//     universe.
//
// Emits BENCH_width_frontier.json; CI asserts every *_identical field and
// the CI-bound sanity flags. Usage:
//   ./width_frontier [json_path] [samples_per_fault] [--threads=...]
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_args.h"
#include "bench_json.h"
#include "codesign/explorer.h"
#include "common/table.h"
#include "fault/duration.h"
#include "fault/stats.h"
#include "hls/netlist_campaign.h"

namespace {

using sck::fault::FaultDuration;
using sck::hls::NetlistBackend;
using sck::hls::NetlistCampaignOptions;
using sck::hls::NetlistCampaignResult;
using sck::hls::SampledCampaignOptions;
using sck::hls::SampledNetlistCampaignResult;

struct FrontierDesign {
  int width = 0;
  sck::hls::Dfg graph;
  sck::hls::Netlist netlist;
  sck::hls::HwReport report;
};

FrontierDesign make_design(int width) {
  sck::codesign::KernelRegistry registry;
  registry.add(sck::codesign::make_fir_kernel({3, -5, 7, -5, 3}));
  sck::codesign::ExplorerOptions hw_only;
  hw_only.coverage = false;
  sck::codesign::Explorer explorer(registry, hw_only);
  const sck::codesign::DesignPoint point{"fir", sck::codesign::Variant::kSck,
                                         /*min_area=*/true, width};
  const sck::codesign::SynthesizedPoint& design = explorer.synthesize(point);
  return FrontierDesign{width, explorer.reference_graph(point),
                        design.netlist, design.report};
}

struct ModelPoint {
  std::string model;
  NetlistCampaignOptions options;
};

/// The duration-model axis of one design point. Seeds are fixed so the
/// artifact is reproducible run to run.
std::vector<ModelPoint> model_axis(int samples) {
  NetlistCampaignOptions base;
  base.samples_per_fault = samples;
  base.seed = 0x2005;
  base.backend = NetlistBackend::kIncremental;
  base.threads = 1;

  std::vector<ModelPoint> axis;
  axis.push_back({"permanent", base});

  NetlistCampaignOptions transient = base;
  transient.duration = FaultDuration::kTransient;
  transient.transient_samples = std::max(1, samples / 3);
  axis.push_back({"transient", transient});

  NetlistCampaignOptions intermittent = base;
  intermittent.duration = FaultDuration::kIntermittent;
  intermittent.duty_permille = 500;
  axis.push_back({"intermittent", intermittent});

  NetlistCampaignOptions seu = base;
  seu.seu_faults = true;
  axis.push_back({"permanent+seu", seu});
  return axis;
}

/// Fraction of fault jobs with at least one detection — the frontier's
/// coverage figure (matches the sampler's detection_coverage semantics).
double detection_fraction(const sck::hls::CampaignSliceRunner& runner) {
  std::vector<sck::fault::CampaignStats> per_job(runner.jobs().size());
  runner.run_slice(0, per_job.size(), per_job);
  std::uint64_t detected = 0;
  for (const sck::fault::CampaignStats& s : per_job) {
    if (s.detections() > 0) ++detected;
  }
  return per_job.empty() ? 0.0
                         : static_cast<double>(detected) /
                               static_cast<double>(per_job.size());
}

}  // namespace

int main(int argc, char** argv) {
  const sck::bench::BenchArgs args = sck::bench::parse_args(
      argc, argv, "BENCH_width_frontier.json", /*default_iterations=*/6);
  const int samples = static_cast<int>(args.iterations);

  std::cout << "Width x duration-model frontier: self-checking FIR, "
            << "class-based CED, min-area, " << samples
            << " samples/fault\n\n";

  sck::bench::JsonValue doc;
  doc.set("bench", "width_frontier");
  doc.set("samples_per_fault", samples);
  sck::bench::JsonValue rows;

  sck::TextTable table("width x duration-model frontier");
  table.set_header({"width", "model", "slices", "steps", "universe",
                    "coverage", "CI [lo, hi]", "sampled", "identical"});

  bool all_identical = true;
  for (const int width : {4, 6, 8}) {
    const FrontierDesign d = make_design(width);
    for (const ModelPoint& point : model_axis(samples)) {
      // Exhaustive coverage on all three backends: the identity gate.
      NetlistCampaignOptions opt = point.options;
      const NetlistCampaignResult anchor =
          run_netlist_campaign(d.graph, d.netlist, opt);
      opt.backend = NetlistBackend::kBatched;
      const bool batched_identical =
          run_netlist_campaign(d.graph, d.netlist, opt) == anchor;
      opt.backend = NetlistBackend::kScalar;
      const bool scalar_identical =
          run_netlist_campaign(d.graph, d.netlist, opt) == anchor;

      // Wilson-interval sampled campaign (deterministic early stop).
      SampledCampaignOptions sampling;
      sampling.target_half_width = 0.02;
      const SampledNetlistCampaignResult sampled = run_sampled_netlist_campaign(
          d.graph, d.netlist, point.options, sampling);
      const sck::fault::WilsonInterval& ci = sampled.detection_coverage;
      const bool ci_sane = 0.0 <= ci.lo && ci.lo <= ci.point &&
                           ci.point <= ci.hi && ci.hi <= 1.0 &&
                           (!sampled.converged ||
                            ci.half_width() <= sampling.target_half_width);

      // Sampler-vs-exhaustive bit-identity through the full universe.
      SampledCampaignOptions full;
      full.target_half_width = 1e-12;  // never converges: evaluates all jobs
      const bool sampled_matches_exhaustive =
          run_sampled_netlist_campaign(d.graph, d.netlist, point.options, full)
              .result == anchor;

      const sck::hls::CampaignSliceRunner runner(d.graph, d.netlist,
                                                 point.options);
      const double coverage = detection_fraction(runner);
      const bool identical =
          batched_identical && scalar_identical && sampled_matches_exhaustive;
      all_identical = all_identical && identical && ci_sane;

      table.add_row(
          {std::to_string(width), point.model,
           sck::format_fixed(d.report.slices, 1),
           std::to_string(d.report.steps),
           std::to_string(anchor.fault_universe_size),
           sck::format_percent(coverage),
           "[" + sck::format_fixed(ci.lo, 4) + ", " +
               sck::format_fixed(ci.hi, 4) + "]",
           std::to_string(sampled.sampled_jobs) + "/" +
               std::to_string(sampled.universe_jobs),
           identical ? "yes" : "NO"});

      sck::bench::JsonValue row;
      row.set("width", width)
          .set("model", point.model)
          .set("slices", d.report.slices)
          .set("steps", d.report.steps)
          .set("fmax_mhz", d.report.fmax_mhz)
          .set("fault_universe", anchor.fault_universe_size)
          .set("detection_coverage", coverage)
          .set("ci_point", ci.point)
          .set("ci_lo", ci.lo)
          .set("ci_hi", ci.hi)
          .set("ci_half_width", ci.half_width())
          .set("ci_sane", ci_sane)
          .set("sampled_jobs", sampled.sampled_jobs)
          .set("universe_jobs", sampled.universe_jobs)
          .set("sampler_converged", sampled.converged)
          .set("batched_results_identical", batched_identical)
          .set("scalar_results_identical", scalar_identical)
          .set("sampled_results_identical", sampled_matches_exhaustive);
      rows.push(std::move(row));
    }
  }

  doc.set("rows", std::move(rows));
  doc.set("all_results_identical", all_identical);
  table.print(std::cout);
  std::cout << "\nEvery row's coverage is gated on backend bit-identity "
               "(batched/scalar vs incremental) and on the sampler reducing "
               "to the exhaustive bytes over the full universe.\n";
  if (!all_identical) {
    std::cerr << "IDENTITY GATE FAILED: at least one row diverged\n";
    (void)sck::bench::save_json(doc, args.json_path);
    return 1;
  }
  return sck::bench::save_json(doc, args.json_path);
}
