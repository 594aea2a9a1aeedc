// Campaign worker binary: connect to a campaign_daemon and execute fault
// shards until it shuts us down.
//
//   campaign_worker ADDR [--name=S] [--lanes=N] [--threads=N]
//                        [--max-shards=N] [--abrupt] [--reconnect]
//
// --lanes / --threads override the campaign's own settings LOCALLY —
// results are invariant to both, which is exactly what lets workers at
// different widths and thread counts serve one byte-deterministic
// campaign. --max-shards/--abrupt are the worker-loss test hooks: after N
// shards the worker severs its connection the instant the next shard
// arrives, exercising the daemon's re-queue path like a SIGKILL would.
// --reconnect makes the worker survive transport loss and daemon restarts
// by redialing with exponential backoff; a daemon unreachable for a whole
// connect-timeout window retires the worker cleanly.
#include <iostream>
#include <string>

#include "common/parse_number.h"
#include "hls/netlist_campaign.h"
#include "service/worker.h"

namespace {

constexpr const char* kUsage =
    "usage: campaign_worker ADDR [--name=S] [--lanes=N] [--threads=N] "
    "[--max-shards=N] [--abrupt] [--reconnect]\n";

}  // namespace

int main(int argc, char** argv) {
  using sck::numeric_flag;
  sck::service::WorkerOptions opt;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    bool bad = false;
    if (arg.rfind("--name=", 0) == 0) {
      opt.name = arg.substr(7);
    } else if (numeric_flag(arg, "--lanes=", opt.lanes, bad) ||
               numeric_flag(arg, "--threads=", opt.threads, bad) ||
               numeric_flag(arg, "--max-shards=", opt.max_shards, bad)) {
      if (bad) {
        std::cerr << "invalid value: " << arg << "\n" << kUsage;
        return 2;
      }
    } else if (arg == "--abrupt") {
      opt.abrupt = true;
    } else if (arg == "--reconnect") {
      opt.reconnect = true;
    } else if (positional == 0) {
      opt.connect = arg;
      ++positional;
    } else {
      std::cerr << "unknown option: " << arg << "\n" << kUsage;
      return 2;
    }
  }
  if (positional == 0) {
    std::cerr << kUsage;
    return 2;
  }
  // The local overrides replace the campaign's own lanes and threads, so
  // they must pass the engine's rule set before the worker connects.
  sck::hls::NetlistCampaignOptions overrides;
  overrides.lanes = opt.lanes;
  overrides.threads = opt.threads;
  if (const std::string why = sck::hls::validate(overrides); !why.empty()) {
    std::cerr << "invalid worker options: " << why << "\n" << kUsage;
    return 2;
  }
  return sck::service::run_worker(opt);
}
