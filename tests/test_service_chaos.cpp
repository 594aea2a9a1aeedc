// Chaos suite: full loopback campaigns through the seeded fault-injecting
// socket shim — deterministic drops, partial writes, short reads, delays,
// bit corruption and abrupt resets under EVERY service send/recv — and
// the result must still be byte-identical to single-host
// run_netlist_campaign every time. Also the crash-durability gate: a
// daemon hard-killed mid-campaign, restarted on the same address and
// store, must resume from its shard journal and produce the exact same
// bytes with shards_resumed > 0.
//
// Seeding follows the fuzz-suite convention: SCK_CHAOS_SEED rotates the
// fault schedule (CI derives it from the run number) and the seed in use
// is echoed so any failure reproduces with one env var.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "hls/builder.h"
#include "hls/netlist_campaign.h"
#include "netlist_test_util.h"
#include "seed_env.h"
#include "service/chaos.h"
#include "service/client.h"
#include "service/daemon.h"
#include "service/worker.h"

namespace sck::service {
namespace {

namespace fs = std::filesystem;

[[nodiscard]] std::uint64_t base_seed() {
  const std::uint64_t seed = testing_env::seed_from_env("SCK_CHAOS_SEED", 1);
  return seed != 0 ? seed : 1;
}

// ---- env-knob parsing ------------------------------------------------------

TEST(ChaosEnv, WellFormedSpecsInstall) {
  const testing_env::ScopedEnv keep_spec("SCK_CHAOS");
  const testing_env::ScopedEnv keep_seed("SCK_CHAOS_SEED");
  ASSERT_EQ(setenv("SCK_CHAOS", "corrupt=5,drop=2,max_delay_ms=0", 1), 0);
  ASSERT_EQ(setenv("SCK_CHAOS_SEED", "42", 1), 0);
  EXPECT_TRUE(install_chaos_from_env());
  EXPECT_TRUE(chaos_enabled());
  EXPECT_EQ(chaos_seed(), 42u);
  clear_chaos();
  ASSERT_EQ(setenv("SCK_CHAOS", "on", 1), 0);
  EXPECT_TRUE(install_chaos_from_env());
  clear_chaos();
  ASSERT_EQ(unsetenv("SCK_CHAOS"), 0);
  ASSERT_EQ(unsetenv("SCK_CHAOS_SEED"), 0);
  EXPECT_FALSE(install_chaos_from_env());
}

TEST(ChaosEnv, MalformedSpecsAbortInsteadOfRunningChaosOff) {
  // The one failure mode a fault-injection harness must not have: a typo'd
  // rate silently parsing to 0 (the old std::atoi behaviour) and the chaos
  // suite passing with the injection OFF.
  const testing_env::ScopedEnv keep_spec("SCK_CHAOS");
  const testing_env::ScopedEnv keep_seed("SCK_CHAOS_SEED");
  for (const char* bad :
       {"corrupt=lots", "corrupt", "corupt=5", "drop=", "drop=-1",
        "corrupt=5,drop=oops", "delay=3ms"}) {
    ASSERT_EQ(setenv("SCK_CHAOS", bad, 1), 0);
    EXPECT_DEATH((void)install_chaos_from_env(), "SCK_CHAOS")
        << "SCK_CHAOS=\"" << bad << "\"";
  }
  ASSERT_EQ(setenv("SCK_CHAOS", "1", 1), 0);
  for (const char* bad : {"nope", "12x", "-3"}) {
    ASSERT_EQ(setenv("SCK_CHAOS_SEED", bad, 1), 0);
    EXPECT_DEATH((void)install_chaos_from_env(), "SCK_CHAOS_SEED")
        << "SCK_CHAOS_SEED=\"" << bad << "\"";
  }
  ASSERT_EQ(unsetenv("SCK_CHAOS"), 0);
  ASSERT_EQ(unsetenv("SCK_CHAOS_SEED"), 0);
}

/// Same 1776-job / 4-shard fixture as test_service.cpp.
struct ChaosDesign {
  hls::Dfg graph;
  hls::Netlist netlist;

  ChaosDesign() {
    graph = hls::ced(hls::build_fir(hls::FirSpec{{1, 2, 3}, 4}),
                     hls::CedStyle::kClassBased);
    netlist = hls::synthesize(graph, hls::ResourceConstraints::min_area(),
                              "chaos_fixture");
  }

  ChaosDesign(const ChaosDesign&) = delete;
  ChaosDesign& operator=(const ChaosDesign&) = delete;
};

[[nodiscard]] hls::NetlistCampaignOptions campaign_options() {
  hls::NetlistCampaignOptions opt;
  opt.samples_per_fault = 6;
  opt.backend = hls::NetlistBackend::kIncremental;
  opt.threads = 1;
  return opt;
}

/// Timeouts tuned for a hostile transport: the daemon ages out wedged
/// shards fast, clients presume a silent daemon wedged fast, workers
/// redial fast — so every injected stall recovers in test time.
[[nodiscard]] ServiceOptions chaos_service_options(const std::string& dir) {
  ServiceOptions so;
  so.heartbeat_timeout = 2.0;
  so.store_dir = dir;
  return so;
}

[[nodiscard]] ClientOptions chaos_client_options() {
  ClientOptions co;
  co.total_timeout = 120.0;
  co.idle_timeout = 3.0;
  return co;
}

/// Like test_service.cpp's ServiceHarness, plus what chaos needs: the
/// daemon lives behind a unique_ptr so it can be hard-killed and
/// restarted on the same address, and teardown clears the chaos shim
/// BEFORE shutting down so the farewell handshake is not itself chaosed.
class ChaosHarness {
 public:
  explicit ChaosHarness(ServiceOptions options) : options_(options) {
    start_daemon();
  }

  ~ChaosHarness() {
    clear_chaos();
    kill_daemon(/*hard=*/false);
    for (std::thread& t : workers_) t.join();
  }

  void add_worker(WorkerOptions wo) {
    wo.connect = daemon_->address();
    if (wo.threads == 0) wo.threads = 1;
    wo.reconnect = true;
    wo.heartbeat_interval = 0.2;
    wo.connect_timeout = 3.0;
    const std::uint64_t before = daemon_->counters().workers_joined;
    workers_.emplace_back([wo] { (void)run_worker(wo); });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (daemon_->counters().workers_joined < before + 1) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "worker never joined";
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  void add_workers(int count) {
    for (int w = 0; w < count; ++w) {
      WorkerOptions wo;
      wo.name = "chaos-worker-" + std::to_string(workers_.size());
      add_worker(wo);
    }
  }

  [[nodiscard]] std::optional<ServiceCampaignResult> submit(
      const ChaosDesign& design, const hls::NetlistCampaignOptions& opt) {
    std::string error;
    std::optional<ServiceCampaignResult> got = run_remote_campaign(
        daemon_->address(), design.graph, design.netlist, opt, &error,
        chaos_client_options());
    EXPECT_TRUE(got.has_value()) << error;
    return got;
  }

  /// SIGKILL equivalent: no farewell to anyone, journals left on disk,
  /// listen socket torn down (destroying the daemon closes it, so workers
  /// and clients see refused connections until restart()).
  void kill_daemon(bool hard = true) {
    if (!daemon_) return;
    hard ? daemon_->stop_hard() : daemon_->stop();
    loop_.join();
    daemon_.reset();
  }

  /// Bring a fresh daemon up on the SAME address and store — only unix
  /// addresses make that deterministic (listen_on unlinks the stale file).
  void restart() { start_daemon(); }

  [[nodiscard]] CampaignDaemon& daemon() { return *daemon_; }

 private:
  void start_daemon() {
    daemon_ = std::make_unique<CampaignDaemon>(options_);
    std::string error;
    ASSERT_TRUE(daemon_->start(&error)) << error;
    loop_ = std::thread([this] { daemon_->run(); });
  }

  ServiceOptions options_;
  std::unique_ptr<CampaignDaemon> daemon_;
  std::thread loop_;
  std::vector<std::thread> workers_;
};

// ---- chaos transport, byte-identity at 1/2/4 workers -----------------------

TEST(ServiceChaos, ByteIdenticalThroughChaosAtWorkerCounts124) {
  const ChaosDesign design;
  const hls::NetlistCampaignOptions opt = campaign_options();
  const hls::NetlistCampaignResult want =
      run_netlist_campaign(design.graph, design.netlist, opt);

  for (const int workers : {1, 2, 4}) {
    const std::uint64_t seed = base_seed() + static_cast<std::uint64_t>(
                                                 workers);
    std::printf("[chaos] transport fault seed %llu (workers=%d, base "
                "SCK_CHAOS_SEED=%llu)\n",
                static_cast<unsigned long long>(seed), workers,
                static_cast<unsigned long long>(base_seed()));
    const fs::path dir =
        fs::path(::testing::TempDir()) /
        ("sck_chaos_store_" + std::to_string(workers));
    fs::remove_all(dir);

    {
      ChaosHarness harness(chaos_service_options(dir.string()));
      harness.add_workers(workers);
      // Chaos goes live only once everyone joined: the steady-state
      // protocol (shards, results, responses, reconnects, re-submits) is
      // the machinery under test, not the test scaffolding.
      set_chaos(default_chaos(seed));
      const auto got = harness.submit(design, opt);
      clear_chaos();
      ASSERT_TRUE(got.has_value());
      EXPECT_TRUE(hls::same_campaign_result(got->result, want))
          << "diverged under chaos seed " << seed << " at " << workers
          << " worker(s)";
    }
    fs::remove_all(dir);
  }
}

// Several rotated seeds back to back at 2 workers: different fault
// schedules, same bytes, every time.
TEST(ServiceChaos, RotatedSeedsAllConvergeToTheSameBytes) {
  const ChaosDesign design;
  const hls::NetlistCampaignOptions opt = campaign_options();
  const hls::NetlistCampaignResult want =
      run_netlist_campaign(design.graph, design.netlist, opt);

  for (int round = 0; round < 3; ++round) {
    const std::uint64_t seed =
        base_seed() * 1000003ULL + static_cast<std::uint64_t>(round);
    std::printf("[chaos] rotation round %d seed %llu\n", round,
                static_cast<unsigned long long>(seed));
    const fs::path dir = fs::path(::testing::TempDir()) /
                         ("sck_chaos_rot_" + std::to_string(round));
    fs::remove_all(dir);
    {
      ChaosHarness harness(chaos_service_options(dir.string()));
      harness.add_workers(2);
      set_chaos(default_chaos(seed));
      const auto got = harness.submit(design, opt);
      clear_chaos();
      ASSERT_TRUE(got.has_value());
      EXPECT_TRUE(hls::same_campaign_result(got->result, want))
          << "diverged at rotation seed " << seed;
    }
    fs::remove_all(dir);
  }
}

// ---- the crash-durability gate ---------------------------------------------

// A worker that executes exactly 2 of the 4 shards and retires leaves the
// campaign stalled with 2 journaled shards; the daemon is then KILLED
// (stop_hard: no farewell, journal left on disk) and restarted on the
// same unix address + store with a fresh worker. The client — blocked in
// run_remote_campaign the whole time — reconnects, re-submits, and must
// get bytes identical to single-host, with exactly the 2 journaled shards
// resumed instead of recomputed.
TEST(ServiceChaos, DaemonKilledMidCampaignResumesFromJournalByteIdentical) {
  const ChaosDesign design;
  const hls::NetlistCampaignOptions opt = campaign_options();
  const hls::NetlistCampaignResult want =
      run_netlist_campaign(design.graph, design.netlist, opt);

  const fs::path dir = fs::path(::testing::TempDir()) / "sck_chaos_resume";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string addr = "unix:" + (dir / "daemon.sock").string();
  ServiceOptions so = chaos_service_options((dir / "store").string());
  so.listen = addr;

  ChaosHarness harness(so);
  WorkerOptions mortal;
  mortal.name = "mortal";
  mortal.max_shards = 2;  // completes 2 shards, then retires gracefully
  harness.add_worker(mortal);

  // Submit from a background thread: the client must survive the daemon's
  // death below INSIDE one run_remote_campaign call.
  std::optional<ServiceCampaignResult> got;
  std::string client_error;
  std::thread client([&] {
    ClientOptions co = chaos_client_options();
    got = run_remote_campaign(harness.daemon().address(), design.graph,
                              design.netlist, opt, &client_error, co);
  });

  // Wait for both shards to hit the journal, then kill the daemon hard.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (harness.daemon().counters().shards_journaled < 2) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "shards never reached the journal";
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  harness.kill_daemon();
  ASSERT_TRUE(fs::exists(dir / "store") && !fs::is_empty(dir / "store"))
      << "journal should survive the kill";

  harness.restart();
  WorkerOptions finisher;
  finisher.name = "finisher";
  harness.add_worker(finisher);

  client.join();
  ASSERT_TRUE(got.has_value()) << client_error;
  EXPECT_TRUE(hls::same_campaign_result(got->result, want))
      << "resumed campaign diverged from single-host";
  EXPECT_EQ(got->stats.shards_resumed, 2u);
  EXPECT_EQ(got->stats.shards_total, 4u);
  EXPECT_EQ(got->stats.shards_executed, got->stats.shards_total);
  EXPECT_GE(got->stats.shards_journaled, 2u);  // remaining shards journaled
  EXPECT_EQ(harness.daemon().counters().shards_resumed, 2u);

  // The journal is retired at finalize; only the store entry remains.
  bool journal_left = false;
  for (const auto& entry : fs::directory_iterator(dir / "store")) {
    if (entry.path().extension() == ".journal") journal_left = true;
  }
  EXPECT_FALSE(journal_left);

  fs::remove_all(dir);
}

// Same crash, but the restart happens UNDER chaos: resume + hostile
// transport at once.
TEST(ServiceChaos, KillAndResumeUnderChaosStaysByteIdentical) {
  const ChaosDesign design;
  const hls::NetlistCampaignOptions opt = campaign_options();
  const hls::NetlistCampaignResult want =
      run_netlist_campaign(design.graph, design.netlist, opt);

  const std::uint64_t seed = base_seed() + 77;
  std::printf("[chaos] kill+resume seed %llu\n",
              static_cast<unsigned long long>(seed));
  const fs::path dir = fs::path(::testing::TempDir()) / "sck_chaos_resume2";
  fs::remove_all(dir);
  fs::create_directories(dir);
  ServiceOptions so = chaos_service_options((dir / "store").string());
  so.listen = "unix:" + (dir / "daemon.sock").string();

  ChaosHarness harness(so);
  WorkerOptions mortal;
  mortal.name = "mortal";
  mortal.max_shards = 2;
  harness.add_worker(mortal);

  std::optional<ServiceCampaignResult> got;
  std::string client_error;
  std::thread client([&] {
    got = run_remote_campaign(harness.daemon().address(), design.graph,
                              design.netlist, opt, &client_error,
                              chaos_client_options());
  });

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (harness.daemon().counters().shards_journaled < 2) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "shards never reached the journal";
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  harness.kill_daemon();
  harness.restart();
  set_chaos(default_chaos(seed));
  WorkerOptions finisher;
  finisher.name = "finisher";
  harness.add_worker(finisher);

  client.join();
  clear_chaos();
  ASSERT_TRUE(got.has_value()) << client_error;
  EXPECT_TRUE(hls::same_campaign_result(got->result, want))
      << "chaos resume diverged at seed " << seed;
  EXPECT_GE(got->stats.shards_resumed, 1u);

  fs::remove_all(dir);
}

}  // namespace
}  // namespace sck::service
