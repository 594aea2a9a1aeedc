// The campaign service, end to end on one machine.
//
//   campaign_daemon serve  [--listen=ADDR] [--store=DIR] [--shard-jobs=N]
//                          [--heartbeat-timeout=SECONDS] [--probation=N]
//       Start a daemon and serve until SIGINT/SIGTERM. Prints
//       "listening on ADDR" (with the kernel-assigned port resolved) so
//       scripts can scrape the address when binding port 0. With --store,
//       every reduced shard is journaled: kill -9 the daemon mid-campaign,
//       restart it on the same store, re-submit, and the finished result
//       is byte-identical with completed shards resumed, not recomputed.
//       --probation=N quarantines a named worker after it loses N shards
//       (0 disables).
//
//   campaign_daemon submit ADDR [json_path] [--samples=N]
//       Submit the demo campaign (self-checking FIR, incremental
//       backend) to the daemon at ADDR, then run the SAME
//       campaign in-process and verify the distributed report is
//       byte-identical. Writes a JSON report whose "service" block holds
//       the scheduler telemetry (per-worker shard counts, re-queues,
//       samples/sec); everything OUTSIDE that block is identical to what
//       `local` writes.
//
//   campaign_daemon local  [json_path] [--samples=N]
//       Run the same campaign single-host and write the same JSON minus
//       the "service" block — the identity reference for CI's loopback
//       gate.
//
// Demo worker:  campaign_worker ADDR  (examples/campaign_worker.cpp)
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "codesign/explorer.h"
#include "common/parse_number.h"
#include "common/table.h"
#include "hls/netlist_campaign.h"
#include "service/client.h"
#include "service/daemon.h"

namespace {

using sck::numeric_flag;

sck::service::CampaignDaemon* g_daemon = nullptr;

void on_signal(int) {
  if (g_daemon != nullptr) g_daemon->stop();
}

constexpr const char* kServeUsage =
    "usage: campaign_daemon serve [--listen=ADDR] [--store=DIR]"
    " [--shard-jobs=N] [--heartbeat-timeout=SECONDS] [--probation=N]\n";
constexpr const char* kCampaignUsage =
    "usage: campaign_daemon submit ADDR [json] | local [json]"
    " [--samples=N] [--duration=MODEL] [--transient-samples=N]"
    " [--duty=PERMILLE] [--seu]\n";

struct DemoDesign {
  sck::hls::Dfg graph;
  sck::hls::Netlist netlist;
};

/// The repository's end-to-end flagship: self-checking FIR, class-based
/// CED, min-area binding — 9232 fault jobs, enough for a real shard
/// schedule at 512-job granularity.
DemoDesign demo_design() {
  sck::codesign::KernelRegistry registry;
  registry.add(sck::codesign::make_fir_kernel({3, -5, 7, -5, 3}));
  sck::codesign::ExplorerOptions hw_only;
  hw_only.coverage = false;
  sck::codesign::Explorer explorer(registry, hw_only);
  const sck::codesign::DesignPoint point{"fir", sck::codesign::Variant::kSck,
                                         /*min_area=*/true, 8};
  return DemoDesign{explorer.reference_graph(point),
                    explorer.synthesize(point).netlist};
}

sck::hls::NetlistCampaignOptions demo_options(int samples) {
  sck::hls::NetlistCampaignOptions opt;
  opt.samples_per_fault = samples;
  opt.seed = 0x2005;
  return opt;
}

/// Deterministic result JSON: integer counters and names only, so the
/// submit-vs-local identity diff is a plain byte comparison.
void emit_result_json(std::ostream& os,
                      const sck::hls::NetlistCampaignResult& r, int samples) {
  const auto stats = [&](const sck::fault::CampaignStats& s) {
    std::ostringstream out;
    out << "\"silent_correct\": " << s.silent_correct
        << ", \"detected_correct\": " << s.detected_correct
        << ", \"detected_erroneous\": " << s.detected_erroneous
        << ", \"masked\": " << s.masked;
    return out.str();
  };
  os << "  \"example\": \"campaign_daemon\",\n";
  os << "  \"campaign\": \"netlist/fir_sck_min_area/w8 shared incremental\",\n";
  os << "  \"samples_per_fault\": " << samples << ",\n";
  os << "  \"fault_universe\": " << r.fault_universe_size << ",\n";
  os << "  \"aggregate\": {" << stats(r.aggregate) << "},\n";
  os << "  \"per_unit\": [\n";
  for (std::size_t u = 0; u < r.per_unit.size(); ++u) {
    const auto& unit = r.per_unit[u];
    os << "    {\"fu_index\": " << unit.fu_index << ", \"fu_name\": \""
       << unit.fu_name << "\", \"faults\": " << unit.faults << ", "
       << stats(unit.stats) << "}"
       << (u + 1 < r.per_unit.size() ? "," : "") << "\n";
  }
  os << "  ]";
}

void emit_service_json(std::ostream& os, const sck::service::ShardStats& s) {
  os << "  \"service\": {\n";
  os << "    \"shards_total\": " << s.shards_total << ",\n";
  os << "    \"shards_executed\": " << s.shards_executed << ",\n";
  os << "    \"shards_requeued\": " << s.shards_requeued << ",\n";
  os << "    \"shards_journaled\": " << s.shards_journaled << ",\n";
  os << "    \"shards_resumed\": " << s.shards_resumed << ",\n";
  os << "    \"workers\": " << s.workers << ",\n";
  os << "    \"workers_lost\": " << s.workers_lost << ",\n";
  os << "    \"workers_quarantined\": " << s.workers_quarantined << ",\n";
  os << "    \"served_from_cache\": "
     << (s.served_from_cache ? "true" : "false") << ",\n";
  os << "    \"seconds\": " << s.seconds << ",\n";
  os << "    \"samples_per_sec\": " << s.samples_per_sec << ",\n";
  os << "    \"per_worker\": [\n";
  for (std::size_t w = 0; w < s.per_worker.size(); ++w) {
    const auto& ws = s.per_worker[w];
    os << "      {\"worker\": \"" << ws.worker << "\", \"lanes\": "
       << ws.lanes << ", \"shards\": " << ws.shards << ", \"samples\": "
       << ws.samples << ", \"seconds\": " << ws.seconds << ", \"lost\": "
       << (ws.lost ? "true" : "false") << "}"
       << (w + 1 < s.per_worker.size() ? "," : "") << "\n";
  }
  os << "    ]\n  }";
}

int write_json(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << body;
  if (!out) {
    std::cerr << "failed to write " << path << "\n";
    return 1;
  }
  std::cout << "wrote " << path << "\n";
  return 0;
}

void print_shard_stats(const sck::service::ShardStats& stats) {
  std::cout << "scheduler: " << stats.shards_executed << "/"
            << stats.shards_total << " shards executed, "
            << stats.shards_requeued << " re-queued, "
            << stats.shards_journaled << " journaled, "
            << stats.shards_resumed << " resumed, " << stats.workers
            << " worker(s), " << stats.workers_lost << " lost, "
            << stats.workers_quarantined << " quarantined"
            << (stats.served_from_cache ? ", served from cache" : "")
            << ", " << sck::format_fixed(stats.seconds, 3) << " s, "
            << sck::format_fixed(stats.samples_per_sec, 0)
            << " samples/sec\n";
  if (stats.per_worker.empty()) return;
  sck::TextTable table("per-worker shard telemetry");
  table.set_header({"worker", "lanes", "shards", "samples", "busy sec",
                    "samples/sec", "lost"});
  for (const auto& ws : stats.per_worker) {
    table.add_row({ws.worker, std::to_string(ws.lanes),
                   std::to_string(ws.shards), std::to_string(ws.samples),
                   sck::format_fixed(ws.seconds, 3),
                   sck::format_fixed(ws.seconds > 0
                                         ? static_cast<double>(ws.samples) /
                                               ws.seconds
                                         : 0.0,
                                     0),
                   ws.lost ? "yes" : "no"});
  }
  table.print(std::cout);
}

int run_serve(int argc, char** argv) {
  sck::service::ServiceOptions opt;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    bool bad = false;
    if (arg.rfind("--listen=", 0) == 0) {
      opt.listen = arg.substr(9);
    } else if (arg.rfind("--store=", 0) == 0) {
      opt.store_dir = arg.substr(8);
    } else if (!numeric_flag(arg, "--shard-jobs=", opt.shard_jobs, bad) &&
               !numeric_flag(arg, "--heartbeat-timeout=",
                             opt.heartbeat_timeout, bad) &&
               !numeric_flag(arg, "--probation=", opt.probation_strikes,
                             bad)) {
      std::cerr << "unknown serve option: " << arg << "\n" << kServeUsage;
      return 2;
    }
    if (bad) {
      std::cerr << "invalid value: " << arg << "\n" << kServeUsage;
      return 2;
    }
  }
  sck::service::CampaignDaemon daemon(opt);
  std::string error;
  if (!daemon.start(&error)) {
    std::cerr << "daemon start failed: " << error << "\n";
    return 1;
  }
  g_daemon = &daemon;
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::cout << "listening on " << daemon.address() << std::endl;
  daemon.run();
  const sck::service::DaemonCounters c = daemon.counters();
  std::cout << "daemon exiting: " << c.campaigns_completed
            << " campaign(s) completed (" << c.campaigns_cached
            << " from cache), " << c.workers_joined << " worker(s) joined, "
            << c.workers_lost << " lost, " << c.workers_quarantined
            << " quarantined, " << c.shards_requeued << " shard(s) re-queued, "
            << c.shards_journaled << " journaled, " << c.shards_resumed
            << " resumed\n";
  g_daemon = nullptr;
  return 0;
}

int run_campaign(int argc, char** argv, bool remote) {
  std::string address;
  std::string json_path = remote ? "campaign_daemon_submit.json"
                                 : "campaign_daemon_local.json";
  int samples = 8;
  sck::fault::FaultDuration duration = sck::fault::FaultDuration::kPermanent;
  int transient_samples = 1;
  std::uint32_t duty_permille = 500;
  bool seu = false;
  int positional = 0;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    bool bad = false;
    if (numeric_flag(arg, "--samples=", samples, bad) ||
        numeric_flag(arg, "--transient-samples=", transient_samples, bad) ||
        numeric_flag(arg, "--duty=", duty_permille, bad)) {
      if (bad) {
        std::cerr << "invalid value: " << arg << "\n" << kCampaignUsage;
        return 2;
      }
    } else if (arg.rfind("--duration=", 0) == 0) {
      const std::string value = arg.substr(11);
      if (value == "permanent") {
        duration = sck::fault::FaultDuration::kPermanent;
      } else if (value == "transient") {
        duration = sck::fault::FaultDuration::kTransient;
      } else if (value == "intermittent") {
        duration = sck::fault::FaultDuration::kIntermittent;
      } else {
        std::cerr << "unknown --duration: " << value
                  << " (permanent|transient|intermittent)\n"
                  << kCampaignUsage;
        return 2;
      }
    } else if (arg == "--seu") {
      seu = true;
    } else if (positional == 0 && remote) {
      address = arg;
      ++positional;
    } else {
      json_path = arg;
      ++positional;
    }
  }
  if (remote && address.empty()) {
    std::cerr << kCampaignUsage;
    return 2;
  }

  sck::hls::NetlistCampaignOptions opt = demo_options(samples);
  opt.duration = duration;
  opt.transient_samples = transient_samples;
  opt.duty_permille = duty_permille;
  opt.seu_faults = seu;
  // The engine's own rule set: a bad option is a usage error here, not an
  // abort inside the campaign.
  if (const std::string why = sck::hls::validate(opt); !why.empty()) {
    std::cerr << "invalid campaign options: " << why << "\n"
              << kCampaignUsage;
    return 2;
  }
  const DemoDesign design = demo_design();

  // The single-host reference runs either way: `local` reports it, and
  // `submit` diffs the distributed result against it before writing
  // anything.
  const sck::hls::NetlistCampaignResult reference =
      run_netlist_campaign(design.graph, design.netlist, opt);

  std::ostringstream body;
  body << "{\n";
  emit_result_json(body, reference, samples);

  if (remote) {
    std::string error;
    const std::optional<sck::service::ServiceCampaignResult> got =
        sck::service::run_remote_campaign(address, design.graph,
                                          design.netlist, opt, &error);
    if (!got.has_value()) {
      std::cerr << "remote campaign failed: " << error << "\n";
      return 1;
    }
    const bool identical = got->result == reference;
    std::cout << "distributed result "
              << (identical ? "byte-identical to single-host"
                            : "DIVERGED from single-host")
              << "\n";
    print_shard_stats(got->stats);
    if (!identical) return 1;
    body << ",\n";
    emit_service_json(body, got->stats);
  }
  body << "\n}\n";
  return write_json(json_path, body.str());
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "";
  if (mode == "serve") return run_serve(argc, argv);
  if (mode == "submit") return run_campaign(argc, argv, /*remote=*/true);
  if (mode == "local") return run_campaign(argc, argv, /*remote=*/false);
  std::cerr << kServeUsage << kCampaignUsage;
  return 2;
}
