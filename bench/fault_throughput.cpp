// Fault-simulation throughput, operator-level AND system-level.
//
// Operator level: scalar vs W-lane batched on the paper's flagship
// campaign (checked addition on the 8-bit
// ripple-carry adder, exhaustive: 256 faults x 2^16 input pairs = 16.7M
// faulty situations).
//
// System level: the netlist-campaign engines on the complete FU stuck-at
// sweep of a synthesized self-checking FIR through the compiled execution
// plan (hls/netlist_exec.h), all on one shared stimulus stream — the
// scalar interpreter, then the W-lane bit-plane backend (lane = fault) vs
// the golden-trace incremental backend (fault-cone replay) plain and with
// fault dropping, swept over --threads pool sizes, and the lane-width
// sweep: the same campaign at W = 64/128/256/512 plane lanes (hw/plane.h)
// on one thread, reporting speedup_wide_vs_64.
//
// This is the repository's perf trajectory file: it emits
// machine-readable BENCH_fault_throughput.json so future sessions and CI
// can diff trials/sec mechanically. Every engine pair is verified to
// produce bit-identical results before any timing is reported — a perf
// number for a wrong result is worthless. (The fault-dropping row is the
// one exception by design: it answers the cheaper "is every fault ever
// detected?" query, so it is checked for detection-set consistency
// instead.)
//
// Usage: ./fault_throughput [json_path] [system_samples_per_fault]
//                           [--threads=a,b,c] [--lanes=N]
// --lanes pins the plane width of every non-sweep engine row (the
// lane-width sweep section still covers 64..512 explicitly); each JSON
// row records the RESOLVED width it actually ran at.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_args.h"
#include "bench_json.h"
#include "codesign/explorer.h"
#include "common/table.h"
#include "fault/batch_trials.h"
#include "fault/campaign.h"
#include "fault/parallel.h"
#include "fault/trials.h"
#include "hls/bind.h"
#include "hls/builder.h"
#include "hls/expand_sck.h"
#include "hls/netlist_campaign.h"
#include "hls/netlist_exec.h"
#include "hls/schedule.h"
#include "hw/plane.h"
#include "hw/ripple_carry_adder.h"
#include "service/client.h"
#include "service/daemon.h"
#include "service/worker.h"

namespace {

using sck::fault::CampaignResult;
using sck::fault::Technique;

constexpr int kWidth = 8;

/// Best-of-3 wall time: the minimum is the least noise-contaminated
/// estimate of an engine's capability on a shared machine.
double seconds(auto&& body) {
  double best = 0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    body();
    const auto stop = std::chrono::steady_clock::now();
    const double s = std::chrono::duration<double>(stop - start).count();
    if (rep == 0 || s < best) best = s;
  }
  return best;
}

bool same_result(const CampaignResult& x, const CampaignResult& y) {
  return x.aggregate.silent_correct == y.aggregate.silent_correct &&
         x.aggregate.detected_correct == y.aggregate.detected_correct &&
         x.aggregate.detected_erroneous == y.aggregate.detected_erroneous &&
         x.aggregate.masked == y.aggregate.masked &&
         x.fault_universe_size == y.fault_universe_size &&
         x.min_fault_coverage == y.min_fault_coverage &&
         x.max_fault_coverage == y.max_fault_coverage;
}

/// Bit identity via the library's member-wise operator==
/// (hls/netlist_campaign.h) — the single definition the *_results_identical
/// gates and the differential test suites share.
bool same_netlist_result(const sck::hls::NetlistCampaignResult& x,
                         const sck::hls::NetlistCampaignResult& y) {
  return x == y;
}

}  // namespace

int main(int argc, char** argv) {
  const sck::bench::BenchArgs args = sck::bench::parse_args(
      argc, argv, "BENCH_fault_throughput.json", /*default_iterations=*/24);
  const int hw_threads = sck::fault::resolve_threads(0);
  // Lane width the batched engines run at: --lanes if given, else
  // hw::kDefaultLanes — recorded per row below.
  const int native_lanes = sck::hw::resolve_lanes(args.lanes);

  sck::hw::RippleCarryAdder adder(kWidth);
  std::vector<sck::hw::FaultableUnit*> units{&adder};
  const sck::fault::AddTrial<sck::hw::RippleCarryAdder> scalar_trial{
      adder, Technique::kTech1};
  const sck::fault::AddBatchTrial<sck::hw::RippleCarryAdder> batch_trial{
      adder, Technique::kTech1};

  std::cout << "Fault-simulation throughput, checked + on the " << kWidth
            << "-bit ripple-carry adder\n"
            << "(exhaustive campaign; " << hw_threads
            << " hardware thread(s) available)\n\n";

  sck::fault::CampaignOptions op_opt;
  op_opt.lanes = args.lanes;
  CampaignResult scalar_r;
  CampaignResult batched_r;
  const double scalar_s =
      seconds([&] { scalar_r = run_exhaustive(units, kWidth, scalar_trial); });
  const double batched_s = seconds([&] {
    batched_r = run_exhaustive_batched(units, kWidth, batch_trial, op_opt);
  });

  if (!same_result(scalar_r, batched_r)) {
    std::cerr << "ENGINE MISMATCH: batched results differ from scalar — "
                 "refusing to report timings\n";
    return 1;
  }

  const auto trials = static_cast<double>(scalar_r.aggregate.total());
  const double scalar_tps = trials / scalar_s;
  const double batched_tps = trials / batched_s;

  sck::TextTable table("engine throughput (identical CampaignResults)");
  table.set_header(
      {"engine", "seconds", "trials/sec", "speedup vs scalar"});
  table.add_row({"scalar, 1 thread", sck::format_fixed(scalar_s, 3),
                 sck::format_fixed(scalar_tps, 0), "1.00x"});
  table.add_row({"batched (" + std::to_string(native_lanes) +
                     " lanes), 1 thread",
                 sck::format_fixed(batched_s, 3),
                 sck::format_fixed(batched_tps, 0),
                 sck::format_fixed(scalar_s / batched_s, 2) + "x"});
  table.print(std::cout);

  // ---- system level: netlist campaign on the synthesized FIR ------------
  // Class-based CED FIR (the end-to-end Fig. 3 artifact): full FU stuck-at
  // universe of the min-area netlist under one shared stimulus stream. The
  // scalar interpreter anchors every identity check below; the bit-plane
  // and golden-trace incremental backends (fault-cone replay, plain and
  // with fault dropping) are swept over the --threads pool sizes so the
  // JSON records scaling. Thread count 1 runs first (it is the speedup
  // baseline); the rest of the requested sweep follows in order,
  // deduplicated.
  sck::codesign::KernelRegistry fir_registry;
  fir_registry.add(sck::codesign::make_fir_kernel({3, -5, 7, -5, 3}));
  sck::codesign::ExplorerOptions hw_only;
  hw_only.coverage = false;
  sck::codesign::Explorer fir_explorer(fir_registry, hw_only);
  const sck::codesign::DesignPoint fir_point{
      "fir", sck::codesign::Variant::kSck, /*min_area=*/true, kWidth};
  const sck::hls::Dfg& fir_graph = fir_explorer.reference_graph(fir_point);
  const sck::hls::Netlist& fir_netlist =
      fir_explorer.synthesize(fir_point).netlist;
  sck::hls::CedOptions ced_opt;
  ced_opt.style = sck::hls::CedStyle::kClassBased;

  std::vector<int> sweep{1};
  for (const int t : args.threads.empty() ? std::vector<int>{hw_threads}
                                          : args.threads) {
    if (std::find(sweep.begin(), sweep.end(), t) == sweep.end()) {
      sweep.push_back(t);
    }
  }

  sck::hls::NetlistCampaignOptions shr_opt;
  shr_opt.samples_per_fault = static_cast<int>(args.iterations);
  shr_opt.seed = 0x2005;
  shr_opt.threads = 1;
  shr_opt.lanes = args.lanes;

  shr_opt.backend = sck::hls::NetlistBackend::kScalar;
  sck::hls::NetlistCampaignResult sys_scalar_r;
  const double sys_scalar_s = seconds([&] {
    sys_scalar_r = run_netlist_campaign(fir_graph, fir_netlist, shr_opt);
  });
  const auto shr_trials = static_cast<double>(sys_scalar_r.aggregate.total());

  {
    const sck::hls::ExecPlan plan =
        sck::hls::compile_execution_plan(fir_netlist);
    const sck::hls::FaultCones cones(plan);
    std::size_t cone_ops = 0;
    for (int f = 0; f < cones.num_fus(); ++f) {
      cone_ops += cones.cone_op_count(f);
    }
    std::cout << "\nSystem-level campaign: self-checking FIR netlist ("
              << fir_netlist.fus.size() << " FUs, "
              << sys_scalar_r.fault_universe_size << " faults, "
              << shr_opt.samples_per_fault << " samples/fault, one shared "
              << "stream); mean fault cone "
              << sck::format_fixed(static_cast<double>(cone_ops) /
                                       static_cast<double>(cones.num_fus()),
                                   1)
              << " of " << plan.ops.size() << " plan ops\n\n";
  }

  bool shared_identical = true;
  double shared_1_s = 0;  // bit-plane, 1 thread
  double inc_1_s = 0;
  double sys_parallel_s = 0;  // bit-plane at the last swept pool
  sck::TextTable shr_table(
      "netlist-campaign throughput (identical results; drop row: "
      "identical detection set)");
  shr_table.set_header(
      {"engine", "threads", "seconds", "samples/sec", "speedup vs bit-plane"});
  shr_table.add_row({"interpreter (scalar)", "1",
                     sck::format_fixed(sys_scalar_s, 3),
                     sck::format_fixed(shr_trials / sys_scalar_s, 0), "-"});
  sck::bench::JsonValue shared_results;
  for (const int threads : sweep) {
    shr_opt.threads = threads;
    sck::hls::NetlistCampaignResult batched_r;
    sck::hls::NetlistCampaignResult inc_r;
    shr_opt.backend = sck::hls::NetlistBackend::kBatched;
    const double batched_s = seconds([&] {
      batched_r = run_netlist_campaign(fir_graph, fir_netlist, shr_opt);
    });
    shr_opt.backend = sck::hls::NetlistBackend::kIncremental;
    const double inc_s = seconds([&] {
      inc_r = run_netlist_campaign(fir_graph, fir_netlist, shr_opt);
    });
    if (threads == 1) {
      shared_1_s = batched_s;
      inc_1_s = inc_s;
    }
    sys_parallel_s = batched_s;
    const bool inc_identical = same_netlist_result(sys_scalar_r, inc_r);
    shared_identical = shared_identical &&
                       same_netlist_result(sys_scalar_r, batched_r) &&
                       inc_identical;

    shr_table.add_row({"bit-plane", std::to_string(threads),
                       sck::format_fixed(batched_s, 3),
                       sck::format_fixed(shr_trials / batched_s, 0),
                       sck::format_fixed(shared_1_s / batched_s, 2) + "x"});
    shr_table.add_row({"incremental cone replay", std::to_string(threads),
                       sck::format_fixed(inc_s, 3),
                       sck::format_fixed(shr_trials / inc_s, 0),
                       sck::format_fixed(shared_1_s / inc_s, 2) + "x"});
    {
      sck::bench::JsonValue r;
      r.set("engine", "netlist-batched-shared")
          .set("lanes", native_lanes)
          .set("threads", threads)
          .set("seconds", batched_s)
          .set("samples_per_sec", shr_trials / batched_s)
          .set("speedup_vs_shared_1t", shared_1_s / batched_s);
      shared_results.push(std::move(r));
    }
    {
      sck::bench::JsonValue r;
      r.set("engine", "system-incremental")
          .set("lanes", native_lanes)
          .set("threads", threads)
          .set("seconds", inc_s)
          .set("samples_per_sec", shr_trials / inc_s)
          .set("speedup_vs_shared_1t", shared_1_s / inc_s)
          .set("results_identical", inc_identical);
      shared_results.push(std::move(r));
    }
  }

  // Fault dropping: lanes retire at first detection, so totals shrink —
  // verified for detection-set consistency against the full run instead
  // of bit identity (per unit: detects iff the full run detects; units
  // that never detect are bit-identical; dropped lanes only remove work).
  shr_opt.threads = 1;
  shr_opt.backend = sck::hls::NetlistBackend::kIncremental;
  shr_opt.fault_dropping = true;
  sck::hls::NetlistCampaignResult drop_r;
  const double drop_s = seconds([&] {
    drop_r = run_netlist_campaign(fir_graph, fir_netlist, shr_opt);
  });
  bool drop_consistent =
      drop_r.per_unit.size() == sys_scalar_r.per_unit.size() &&
      drop_r.aggregate.total() <= sys_scalar_r.aggregate.total();
  for (std::size_t u = 0;
       drop_consistent && u < sys_scalar_r.per_unit.size(); ++u) {
    const auto& full = sys_scalar_r.per_unit[u].stats;
    const auto& drop = drop_r.per_unit[u].stats;
    drop_consistent = (drop.detections() > 0) == (full.detections() > 0) &&
                      drop.total() <= full.total() &&
                      (full.detections() > 0 ||
                       (drop.silent_correct == full.silent_correct &&
                        drop.masked == full.masked));
  }
  shr_table.add_row({"incremental + fault dropping", "1",
                     sck::format_fixed(drop_s, 3),
                     sck::format_fixed(
                         static_cast<double>(drop_r.aggregate.total()) /
                             drop_s,
                         0),
                     sck::format_fixed(shared_1_s / drop_s, 2) + "x"});
  shr_table.print(std::cout);

  if (!shared_identical || !drop_consistent) {
    std::cerr << "SYSTEM ENGINE MISMATCH: plane-backend results diverged "
                 "from the scalar interpreter — refusing to report "
                 "timings\n";
    return 1;
  }

  // ---- lane-width sweep: the plane substrate at W = 64/128/256/512 --------
  // Same campaign, threads pinned to 1 so the only variable is the plane
  // word (Plane64 / PlaneN<K> / the AVX types where the build enables
  // them): W faults per plane evaluation. Every row is gated on bit
  // identity with the scalar interpreter, and speedup_wide_vs_64 records
  // the best wide-plane win per core.
  shr_opt.threads = 1;
  shr_opt.fault_dropping = false;
  bool lane_identical = true;

  sck::TextTable lane_table(
      "lane-width sweep, 1 thread (identical results)");
  lane_table.set_header(
      {"engine", "lanes", "seconds", "samples/sec", "speedup vs 64 lanes"});
  lane_table.add_row({"interpreter (scalar)", "-",
                      sck::format_fixed(sys_scalar_s, 3),
                      sck::format_fixed(shr_trials / sys_scalar_s, 0),
                      "-"});
  sck::bench::JsonValue lane_rows;
  {
    sck::bench::JsonValue r;
    r.set("engine", "netlist-scalar-shared")
        .set("lanes", 1)
        .set("threads", 1)
        .set("seconds", sys_scalar_s)
        .set("samples_per_sec", shr_trials / sys_scalar_s);
    lane_rows.push(std::move(r));
  }
  double batched_64_s = 0;
  double inc_64_s = 0;
  double speedup_wide_vs_64 = 1.0;
  int speedup_wide_lanes = 64;
  for (const int lanes : {64, 128, 256, 512}) {
    shr_opt.lanes = lanes;
    sck::hls::NetlistCampaignResult batched_r;
    sck::hls::NetlistCampaignResult inc_r;
    shr_opt.backend = sck::hls::NetlistBackend::kBatched;
    const double batched_s = seconds([&] {
      batched_r = run_netlist_campaign(fir_graph, fir_netlist, shr_opt);
    });
    shr_opt.backend = sck::hls::NetlistBackend::kIncremental;
    const double inc_s = seconds([&] {
      inc_r = run_netlist_campaign(fir_graph, fir_netlist, shr_opt);
    });
    const bool batched_identical = same_netlist_result(sys_scalar_r, batched_r);
    const bool inc_identical = same_netlist_result(sys_scalar_r, inc_r);
    lane_identical = lane_identical && batched_identical && inc_identical;
    if (lanes == 64) {
      batched_64_s = batched_s;
      inc_64_s = inc_s;
    } else {
      for (const double s : {batched_64_s / batched_s, inc_64_s / inc_s}) {
        if (s > speedup_wide_vs_64) {
          speedup_wide_vs_64 = s;
          speedup_wide_lanes = lanes;
        }
      }
    }
    lane_table.add_row(
        {"bit-plane shared", std::to_string(lanes),
         sck::format_fixed(batched_s, 3),
         sck::format_fixed(shr_trials / batched_s, 0),
         sck::format_fixed(batched_64_s / batched_s, 2) + "x"});
    lane_table.add_row(
        {"incremental cone replay", std::to_string(lanes),
         sck::format_fixed(inc_s, 3),
         sck::format_fixed(shr_trials / inc_s, 0),
         sck::format_fixed(inc_64_s / inc_s, 2) + "x"});
    {
      sck::bench::JsonValue r;
      r.set("engine", "netlist-batched-shared")
          .set("lanes", lanes)
          .set("threads", 1)
          .set("seconds", batched_s)
          .set("samples_per_sec", shr_trials / batched_s)
          .set("speedup_vs_scalar", sys_scalar_s / batched_s)
          .set("speedup_vs_64", batched_64_s / batched_s)
          .set("results_identical", batched_identical);
      lane_rows.push(std::move(r));
    }
    {
      sck::bench::JsonValue r;
      r.set("engine", "system-incremental")
          .set("lanes", lanes)
          .set("threads", 1)
          .set("seconds", inc_s)
          .set("samples_per_sec", shr_trials / inc_s)
          .set("speedup_vs_scalar", sys_scalar_s / inc_s)
          .set("speedup_vs_64", inc_64_s / inc_s)
          .set("results_identical", inc_identical);
      lane_rows.push(std::move(r));
    }
  }
  shr_opt.lanes = args.lanes;
  std::cout << "\n";
  lane_table.print(std::cout);
  if (!lane_identical) {
    std::cerr << "LANE-WIDTH ENGINE MISMATCH: wide-plane results diverged "
                 "from the scalar interpreter — refusing to report timings\n";
    return 1;
  }
  std::cout << "Best wide-vs-64 speedup: "
            << sck::format_fixed(speedup_wide_vs_64, 2) << "x at "
            << speedup_wide_lanes << " lanes\n";

  // ---- new workload shapes: multi-output matvec + state-heavy moving sum --
  // The explorer's coverage leg defaults to the incremental backend, so
  // its identity on the new netlist shapes — per-output check cones
  // (matvec) and deep register timelines (moving_sum) — is part of the
  // perf trajectory's correctness gate: one row per kernel, scalar vs
  // batched vs incremental, recorded as system_<kernel>_results_identical
  // (CI asserts every *_results_identical field).
  const auto kernel_identity = [&](const sck::hls::Dfg& graph,
                                   const sck::hls::Netlist& netlist,
                                   const std::string& label,
                                   sck::bench::JsonValue& rows) {
    sck::hls::NetlistCampaignOptions opt;
    opt.samples_per_fault = static_cast<int>(args.iterations);
    opt.seed = 0x2005;
    opt.threads = 1;
    opt.lanes = args.lanes;

    sck::hls::NetlistCampaignResult scalar_result;
    sck::hls::NetlistCampaignResult batched_result;
    sck::hls::NetlistCampaignResult inc_result;
    opt.backend = sck::hls::NetlistBackend::kScalar;
    const double sc_s =
        seconds([&] { scalar_result = run_netlist_campaign(graph, netlist, opt); });
    opt.backend = sck::hls::NetlistBackend::kBatched;
    const double ba_s =
        seconds([&] { batched_result = run_netlist_campaign(graph, netlist, opt); });
    opt.backend = sck::hls::NetlistBackend::kIncremental;
    const double in_s =
        seconds([&] { inc_result = run_netlist_campaign(graph, netlist, opt); });

    const bool identical = same_netlist_result(scalar_result, batched_result) &&
                           same_netlist_result(scalar_result, inc_result);
    const auto kernel_trials =
        static_cast<double>(scalar_result.aggregate.total());
    sck::bench::JsonValue r;
    r.set("engine", label + "-incremental")
        .set("lanes", native_lanes)
        .set("threads", 1)
        .set("faults", scalar_result.fault_universe_size)
        .set("seconds", in_s)
        .set("samples_per_sec", kernel_trials / in_s)
        .set("speedup_vs_scalar", sc_s / in_s)
        .set("speedup_vs_batched", ba_s / in_s)
        .set("results_identical", identical);
    rows.push(std::move(r));
    std::cout << "  " << label << ": " << scalar_result.fault_universe_size
              << " faults, incremental "
              << sck::format_fixed(sc_s / in_s, 2) << "x vs scalar, "
              << sck::format_fixed(ba_s / in_s, 2) << "x vs batched, results "
              << (identical ? "identical" : "DIVERGED") << "\n";
    return identical;
  };

  std::cout << "\nNew workload shapes under shared streams (w" << kWidth
            << ", class-based CED, min-area):\n";
  sck::bench::JsonValue kernel_rows;
  bool matvec_identical = false;
  bool moving_sum_identical = false;
  {
    const sck::hls::Dfg g = sck::hls::insert_ced(
        sck::hls::build_matvec({{2, -3, 1}, {-1, 4, 2}}, kWidth), ced_opt);
    const sck::hls::ResourceConstraints rc =
        sck::hls::ResourceConstraints::min_area();
    const sck::hls::Schedule s = sck::hls::schedule_list(g, rc);
    const sck::hls::Binding b = sck::hls::bind(g, s, rc);
    const sck::hls::Netlist nl =
        sck::hls::generate_netlist(g, s, b, "matvec_sck_min_area");
    matvec_identical = kernel_identity(g, nl, "matvec", kernel_rows);
  }
  {
    const sck::hls::Dfg g =
        sck::hls::insert_ced(sck::hls::build_moving_sum(4, kWidth), ced_opt);
    const sck::hls::ResourceConstraints rc =
        sck::hls::ResourceConstraints::min_area();
    const sck::hls::Schedule s = sck::hls::schedule_list(g, rc);
    const sck::hls::Binding b = sck::hls::bind(g, s, rc);
    const sck::hls::Netlist nl =
        sck::hls::generate_netlist(g, s, b, "moving_sum_sck_min_area");
    moving_sum_identical = kernel_identity(g, nl, "moving_sum", kernel_rows);
  }
  if (!matvec_identical || !moving_sum_identical) {
    std::cerr << "NEW-KERNEL ENGINE MISMATCH: backends diverged on "
                 "matvec/moving_sum — refusing to report timings\n";
    return 1;
  }
  // ---- campaign service: loopback daemon + worker processes --------------
  // The distributed leg of the perf trajectory: an in-process daemon on
  // tcp:127.0.0.1:0 and 1/2/4 workers (each pinned to one execution
  // thread, so parallelism == worker count) run the same incremental
  // campaign; every row is gated on BYTE identity with the single-host
  // run — the service's whole determinism contract — and the
  // "service" block carries the scheduler telemetry (excluded from
  // identity diffs, like "store").
  sck::bench::JsonValue service_rows;
  bool service_identical = true;
  double service_1w_s = 0;
  {
    sck::hls::NetlistCampaignOptions svc_opt = shr_opt;
    svc_opt.backend = sck::hls::NetlistBackend::kIncremental;
    svc_opt.fault_dropping = false;
    svc_opt.threads = 1;
    sck::hls::NetlistCampaignResult svc_ref;
    const double svc_ref_s = seconds([&] {
      svc_ref = run_netlist_campaign(fir_graph, fir_netlist, svc_opt);
    });
    const double svc_trials = static_cast<double>(svc_ref.aggregate.total());

    sck::TextTable svc_table(
        "campaign service, loopback daemon (byte-identical results)");
    svc_table.set_header({"workers", "shards", "re-queued", "seconds",
                          "samples/sec", "speedup vs 1 worker"});
    for (const int workers : {1, 2, 4}) {
      sck::service::ServiceOptions so;
      so.listen = "tcp:127.0.0.1:0";
      sck::service::CampaignDaemon daemon(so);
      std::string error;
      if (!daemon.start(&error)) {
        std::cerr << "SERVICE START FAILED: " << error << "\n";
        return 1;
      }
      std::thread loop([&] { daemon.run(); });
      std::vector<std::thread> pool;
      for (int w = 0; w < workers; ++w) {
        pool.emplace_back([&daemon, w] {
          sck::service::WorkerOptions wo;
          wo.connect = daemon.address();
          wo.name = "bench-w" + std::to_string(w);
          wo.threads = 1;
          (void)sck::service::run_worker(wo);
        });
      }
      std::string svc_error;
      const auto got = sck::service::run_remote_campaign(
          daemon.address(), fir_graph, fir_netlist, svc_opt,
          &svc_error);
      daemon.stop();
      loop.join();
      for (std::thread& t : pool) t.join();
      if (!got.has_value()) {
        std::cerr << "SERVICE CAMPAIGN FAILED: " << svc_error << "\n";
        return 1;
      }
      const bool identical = same_netlist_result(got->result, svc_ref);
      service_identical = service_identical && identical;
      if (workers == 1) service_1w_s = got->stats.seconds;
      svc_table.add_row(
          {std::to_string(workers), std::to_string(got->stats.shards_total),
           std::to_string(got->stats.shards_requeued),
           sck::format_fixed(got->stats.seconds, 3),
           sck::format_fixed(svc_trials / got->stats.seconds, 0),
           sck::format_fixed(service_1w_s / got->stats.seconds, 2) + "x"});
      sck::bench::JsonValue r;
      r.set("engine", "service-incremental")
          .set("lanes", native_lanes)
          .set("workers", workers)
          .set("shards", got->stats.shards_total)
          .set("shards_requeued", got->stats.shards_requeued)
          .set("shards_journaled", got->stats.shards_journaled)
          .set("shards_resumed", got->stats.shards_resumed)
          .set("workers_quarantined", got->stats.workers_quarantined)
          .set("seconds", got->stats.seconds)
          .set("samples_per_sec", svc_trials / got->stats.seconds)
          .set("speedup_vs_1_worker", service_1w_s / got->stats.seconds)
          .set("speedup_vs_local_1t", svc_ref_s / got->stats.seconds)
          .set("results_identical", identical);
      service_rows.push(std::move(r));
    }
    std::cout << "\n";
    svc_table.print(std::cout);
    if (!service_identical) {
      std::cerr << "SERVICE ENGINE MISMATCH: distributed campaign diverged "
                   "from single-host — refusing to report timings\n";
      return 1;
    }
  }

  {
    sck::bench::JsonValue r;
    r.set("engine", "system-incremental+drop")
        .set("lanes", native_lanes)
        .set("threads", 1)
        .set("seconds", drop_s)
        .set("samples_recorded", drop_r.aggregate.total())
        .set("campaign_speedup_vs_shared_1t", shared_1_s / drop_s)
        .set("detection_set_consistent", drop_consistent);
    shared_results.push(std::move(r));
  }

  sck::bench::JsonValue results;
  {
    sck::bench::JsonValue r;
    r.set("engine", "scalar")
        .set("lanes", 1)
        .set("threads", 1)
        .set("seconds", scalar_s)
        .set("trials_per_sec", scalar_tps)
        .set("speedup_vs_scalar", 1.0);
    results.push(std::move(r));
  }
  {
    sck::bench::JsonValue r;
    r.set("engine", "batched")
        .set("lanes", native_lanes)
        .set("threads", 1)
        .set("seconds", batched_s)
        .set("trials_per_sec", batched_tps)
        .set("speedup_vs_scalar", scalar_s / batched_s);
    results.push(std::move(r));
  }

  sck::bench::JsonValue system_results;
  {
    sck::bench::JsonValue r;
    r.set("engine", "netlist-scalar")
        .set("lanes", 1)
        .set("threads", 1)
        .set("seconds", sys_scalar_s)
        .set("samples_per_sec", shr_trials / sys_scalar_s)
        .set("speedup_vs_scalar", 1.0);
    system_results.push(std::move(r));
  }
  {
    sck::bench::JsonValue r;
    r.set("engine", "netlist-batched")
        .set("lanes", native_lanes)
        .set("threads", 1)
        .set("seconds", shared_1_s)
        .set("samples_per_sec", shr_trials / shared_1_s)
        .set("speedup_vs_scalar", sys_scalar_s / shared_1_s);
    system_results.push(std::move(r));
  }
  {
    sck::bench::JsonValue r;
    r.set("engine", "netlist-batched+threads")
        .set("lanes", native_lanes)
        .set("threads", sweep.back())
        .set("seconds", sys_parallel_s)
        .set("samples_per_sec", shr_trials / sys_parallel_s)
        .set("speedup_vs_scalar", sys_scalar_s / sys_parallel_s);
    system_results.push(std::move(r));
  }

  sck::bench::JsonValue doc;
  doc.set("bench", "fault_throughput")
      .set("campaign", "exhaustive")
      .set("trial", "AddTrial/Tech1")
      .set("unit", "ripple_carry_adder")
      .set("width", kWidth)
      .set("trials", scalar_r.aggregate.total())
      .set("fault_universe", scalar_r.fault_universe_size)
      .set("hardware_threads", hw_threads)
      .set("lanes", native_lanes)
      .set("results_identical", true)
      .set("speedup_batched", scalar_s / batched_s)
      .set("results", std::move(results))
      .set("system_campaign", "netlist/fir_sck_min_area/w8")
      .set("system_trials", sys_scalar_r.aggregate.total())
      .set("system_fault_universe", sys_scalar_r.fault_universe_size)
      .set("system_results_identical", shared_identical)
      .set("system_speedup_batched", sys_scalar_s / shared_1_s)
      .set("system_speedup_batched_threads", sys_scalar_s / sys_parallel_s)
      .set("system_results", std::move(system_results))
      .set("system_shared_results_identical", shared_identical)
      .set("system_incremental_results_identical", shared_identical)
      .set("system_speedup_incremental", shared_1_s / inc_1_s)
      .set("system_drop_detection_consistent", drop_consistent)
      .set("system_drop_campaign_speedup", shared_1_s / drop_s)
      .set("system_shared_results", std::move(shared_results))
      .set("system_lane_results_identical", lane_identical)
      .set("speedup_wide_vs_64", speedup_wide_vs_64)
      .set("speedup_wide_vs_64_lanes", speedup_wide_lanes)
      .set("system_lane_results", std::move(lane_rows))
      .set("system_matvec_results_identical", matvec_identical)
      .set("system_moving_sum_results_identical", moving_sum_identical)
      .set("system_kernel_results", std::move(kernel_rows))
      .set("service_results_identical", service_identical)
      .set("service", std::move(service_rows));

  return sck::bench::save_json(doc, args.json_path);
}
