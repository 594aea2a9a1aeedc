// Loopback integration suite for the campaign service: the distributed
// NetlistCampaignResult must be BYTE-identical to single-host
// run_netlist_campaign at every worker count, shard size and backend —
// and stay identical when a worker is killed mid-campaign (its in-flight
// shards re-queue to survivors). Also covers the CampaignStore front
// (repeat requests served from cache) and the CampaignSliceRunner
// slice-composition invariant the whole service rests on.
#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>

#include <chrono>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "hls/builder.h"
#include "hls/netlist_campaign.h"
#include "netlist_test_util.h"
#include "service/client.h"
#include "service/daemon.h"
#include "service/socket.h"
#include "service/wire.h"
#include "service/worker.h"

namespace sck::service {
namespace {

namespace fs = std::filesystem;

// ---- fixtures --------------------------------------------------------------

/// Class-based CED FIR at width 4: 1776 fault jobs = 4 shards at the
/// daemon's 512-job granularity — small enough to run in milliseconds,
/// large enough for a real multi-worker schedule.
struct ServiceDesign {
  hls::Dfg graph;
  hls::Netlist netlist;

  ServiceDesign() {
    graph = hls::ced(hls::build_fir(hls::FirSpec{{1, 2, 3}, 4}),
                     hls::CedStyle::kClassBased);
    netlist = hls::synthesize(graph, hls::ResourceConstraints::min_area(),
                              "service_fixture");
  }

  ServiceDesign(const ServiceDesign&) = delete;
  ServiceDesign& operator=(const ServiceDesign&) = delete;
};

[[nodiscard]] hls::NetlistCampaignOptions incremental_options() {
  hls::NetlistCampaignOptions opt;
  opt.samples_per_fault = 6;
  opt.backend = hls::NetlistBackend::kIncremental;
  opt.threads = 1;
  return opt;
}

[[nodiscard]] hls::NetlistCampaignOptions batched_options() {
  hls::NetlistCampaignOptions opt;
  opt.samples_per_fault = 6;
  opt.backend = hls::NetlistBackend::kBatched;
  opt.threads = 1;
  return opt;
}

/// In-process daemon + worker threads over tcp loopback. The daemon's
/// event loop and every worker run on their own threads; the destructor
/// tears everything down (stop() -> workers see shutdown/EOF -> join).
class ServiceHarness {
 public:
  explicit ServiceHarness(ServiceOptions options = {}) : daemon_(options) {
    std::string error;
    EXPECT_TRUE(daemon_.start(&error)) << error;
    loop_ = std::thread([this] { daemon_.run(); });
  }

  ~ServiceHarness() {
    daemon_.stop();
    loop_.join();
    for (std::thread& t : workers_) t.join();
  }

  void add_worker(WorkerOptions options) {
    options.connect = daemon_.address();
    if (options.threads == 0) options.threads = 1;
    const std::uint64_t before = daemon_.counters().workers_joined;
    workers_.emplace_back(
        [options] { (void)run_worker(options); });
    wait_for_workers(before + 1);
  }

  void add_workers(int count) {
    for (int w = 0; w < count; ++w) {
      WorkerOptions options;
      options.name = "t-worker-" + std::to_string(workers_.size());
      add_worker(options);
    }
  }

  [[nodiscard]] std::optional<ServiceCampaignResult> submit(
      const ServiceDesign& design, const hls::NetlistCampaignOptions& opt) {
    std::string error;
    std::optional<ServiceCampaignResult> got = run_remote_campaign(
        daemon_.address(), design.graph, design.netlist, opt, &error);
    EXPECT_TRUE(got.has_value()) << error;
    return got;
  }

  [[nodiscard]] CampaignDaemon& daemon() { return daemon_; }

 private:
  /// Capability negotiation is asynchronous; tests that care which workers
  /// participate wait for the join counter instead of sleeping blind.
  void wait_for_workers(std::uint64_t joined) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (daemon_.counters().workers_joined < joined) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "worker never joined";
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  CampaignDaemon daemon_;
  std::thread loop_;
  std::vector<std::thread> workers_;
};

// ---- the determinism contract ----------------------------------------------

TEST(Service, ByteIdenticalAtWorkerCounts124Incremental) {
  const ServiceDesign design;
  const hls::NetlistCampaignOptions opt = incremental_options();
  const hls::NetlistCampaignResult want =
      run_netlist_campaign(design.graph, design.netlist, opt);

  for (const int workers : {1, 2, 4}) {
    ServiceHarness harness;
    harness.add_workers(workers);
    const auto got = harness.submit(design, opt);
    ASSERT_TRUE(got.has_value());
    EXPECT_TRUE(hls::same_campaign_result(got->result, want))
        << "diverged at " << workers << " worker(s)";
    EXPECT_EQ(got->stats.shards_executed, got->stats.shards_total);
    EXPECT_EQ(got->stats.workers_lost, 0u);
    EXPECT_FALSE(got->stats.served_from_cache);
    EXPECT_GE(got->stats.shards_total, 2u)
        << "fixture too small to exercise sharding";
  }
}

TEST(Service, TransientSeuCampaignByteIdenticalDaemonVsLocal) {
  // The duration/SEU options ride the wire (protocol v3): a transient +
  // intermittent-free + SEU campaign distributed over 1/2/4 workers must
  // reproduce the single-host bytes exactly — the per-job activity windows
  // are keyed by GLOBAL job index, so shard boundaries cannot shift them.
  const ServiceDesign design;
  hls::NetlistCampaignOptions opt = incremental_options();
  opt.duration = sck::fault::FaultDuration::kTransient;
  opt.transient_samples = 2;
  opt.seu_faults = true;
  const hls::NetlistCampaignResult want =
      run_netlist_campaign(design.graph, design.netlist, opt);

  for (const int workers : {1, 2, 4}) {
    ServiceHarness harness;
    harness.add_workers(workers);
    const auto got = harness.submit(design, opt);
    ASSERT_TRUE(got.has_value());
    EXPECT_TRUE(hls::same_campaign_result(got->result, want))
        << "diverged at " << workers << " worker(s)";
  }

  // Intermittent duty through the same path.
  opt.duration = sck::fault::FaultDuration::kIntermittent;
  opt.duty_permille = 600;
  const hls::NetlistCampaignResult want_duty =
      run_netlist_campaign(design.graph, design.netlist, opt);
  ServiceHarness harness;
  harness.add_workers(2);
  const auto got = harness.submit(design, opt);
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(hls::same_campaign_result(got->result, want_duty));
}

TEST(Service, ByteIdenticalAtWorkerCounts124BatchedPerFault) {
  const ServiceDesign design;
  const hls::NetlistCampaignOptions opt = batched_options();
  const hls::NetlistCampaignResult want =
      run_netlist_campaign(design.graph, design.netlist, opt);

  for (const int workers : {1, 2, 4}) {
    ServiceHarness harness;
    harness.add_workers(workers);
    const auto got = harness.submit(design, opt);
    ASSERT_TRUE(got.has_value());
    EXPECT_TRUE(hls::same_campaign_result(got->result, want))
        << "diverged at " << workers << " worker(s)";
  }
}

// Heterogeneous lane widths: one worker per plane width, all serving the
// same campaign — the schedule is nondeterministic, the result must not
// be (lane-width invariance is what makes shard re-queue safe between
// unlike workers).
TEST(Service, MixedLaneWidthWorkersStayIdentical) {
  const ServiceDesign design;
  const hls::NetlistCampaignOptions opt = incremental_options();
  const hls::NetlistCampaignResult want =
      run_netlist_campaign(design.graph, design.netlist, opt);

  ServiceHarness harness;
  for (const int lanes : {64, 128, 256, 512}) {
    WorkerOptions wo;
    wo.name = "lanes-" + std::to_string(lanes);
    wo.lanes = lanes;
    harness.add_worker(wo);
  }
  const auto got = harness.submit(design, opt);
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(hls::same_campaign_result(got->result, want));
}

TEST(Service, ShardSizeDoesNotChangeTheBytes) {
  const ServiceDesign design;
  const hls::NetlistCampaignOptions opt = incremental_options();
  const hls::NetlistCampaignResult want =
      run_netlist_campaign(design.graph, design.netlist, opt);

  for (const int shard_jobs : {512, 1024, 1 << 20}) {
    ServiceOptions so;
    so.shard_jobs = shard_jobs;
    ServiceHarness harness(so);
    harness.add_workers(2);
    const auto got = harness.submit(design, opt);
    ASSERT_TRUE(got.has_value());
    EXPECT_TRUE(hls::same_campaign_result(got->result, want))
        << "diverged at shard_jobs=" << shard_jobs;
  }
  // An unaligned request is rounded UP to whole widest-plane batches, so
  // shard boundaries stay batch boundaries at every worker lane width.
  {
    ServiceOptions so;
    so.shard_jobs = 700;  // rounds to 1024
    ServiceHarness harness(so);
    harness.add_workers(2);
    const auto got = harness.submit(design, opt);
    ASSERT_TRUE(got.has_value());
    EXPECT_TRUE(hls::same_campaign_result(got->result, want));
    EXPECT_EQ(got->stats.shards_total, 2u);  // 1776 jobs / 1024
  }
}

// ---- robustness: worker loss -----------------------------------------------

// Three workers; the first executes ONE shard and then severs its
// connection the moment the next shard arrives — the daemon-side code
// path of a SIGKILLed worker holding an in-flight shard. The campaign
// must complete on the survivors with the exact same bytes, and the
// ShardStats must record the loss and the re-queue.
TEST(Service, WorkerKilledMidCampaignResultStillByteIdentical) {
  const ServiceDesign design;
  const hls::NetlistCampaignOptions opt = incremental_options();
  const hls::NetlistCampaignResult want =
      run_netlist_campaign(design.graph, design.netlist, opt);

  ServiceHarness harness;
  WorkerOptions victim;
  victim.name = "victim";
  victim.max_shards = 1;
  victim.abrupt = true;
  harness.add_worker(victim);  // joins FIRST: gets the first shards
  harness.add_workers(2);

  const auto got = harness.submit(design, opt);
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(hls::same_campaign_result(got->result, want));
  EXPECT_GE(got->stats.shards_requeued, 1u);
  EXPECT_EQ(got->stats.workers_lost, 1u);
  EXPECT_EQ(got->stats.shards_executed, got->stats.shards_total);

  bool saw_lost_worker = false;
  for (const WorkerShardStats& ws : got->stats.per_worker) {
    if (ws.worker == "victim") {
      saw_lost_worker = true;
      EXPECT_TRUE(ws.lost);
    } else {
      EXPECT_FALSE(ws.lost);
    }
  }
  EXPECT_TRUE(saw_lost_worker);

  const DaemonCounters counters = harness.daemon().counters();
  EXPECT_EQ(counters.workers_lost, 1u);
  EXPECT_GE(counters.shards_requeued, 1u);
}

// ---- robustness: probation -------------------------------------------------

// With probation_strikes=1, a named worker that takes ONE in-flight shard
// down with it is quarantined: the campaign still completes byte-identical
// on the survivors, the quarantine shows up in ShardStats and counters,
// and a later hello under the same name is turned away (run_worker exits
// 1 on the daemon's kError).
TEST(Service, QuarantinedWorkerNameIsRefusedReattachment) {
  const ServiceDesign design;
  const hls::NetlistCampaignOptions opt = incremental_options();
  const hls::NetlistCampaignResult want =
      run_netlist_campaign(design.graph, design.netlist, opt);

  ServiceOptions so;
  so.probation_strikes = 1;
  ServiceHarness harness(so);
  WorkerOptions flaky;
  flaky.name = "flaky";
  flaky.max_shards = 1;
  flaky.abrupt = true;
  harness.add_worker(flaky);  // joins FIRST: gets the first shards
  harness.add_workers(2);

  const auto got = harness.submit(design, opt);
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(hls::same_campaign_result(got->result, want));
  EXPECT_EQ(got->stats.workers_quarantined, 1u);
  EXPECT_EQ(got->stats.shards_executed, got->stats.shards_total);

  const DaemonCounters counters = harness.daemon().counters();
  EXPECT_EQ(counters.workers_quarantined, 1u);

  // Re-attachment under the quarantined name: hello rejected with kError,
  // run_worker reports failure, the join counter never moves.
  WorkerOptions again;
  again.connect = harness.daemon().address();
  again.name = "flaky";
  again.threads = 1;
  int rc = -1;
  std::thread refused([&rc, again] { rc = run_worker(again); });
  refused.join();
  EXPECT_EQ(rc, 1);
  EXPECT_EQ(harness.daemon().counters().workers_joined,
            counters.workers_joined);

  // A DIFFERENT name is welcome — probation is per-identity, not global.
  harness.add_workers(1);
}

// Strikes accumulate across connections: at probation_strikes=2 the first
// loss leaves the name in good standing (it may reconnect and serve), the
// second loss quarantines it.
TEST(Service, ProbationTakesTheConfiguredNumberOfStrikes) {
  const ServiceDesign design;
  const hls::NetlistCampaignOptions opt = incremental_options();

  ServiceOptions so;
  so.probation_strikes = 2;
  ServiceHarness harness(so);
  WorkerOptions flaky;
  flaky.name = "flaky";
  flaky.max_shards = 1;
  flaky.abrupt = true;
  harness.add_worker(flaky);
  harness.add_workers(2);

  const auto first = harness.submit(design, opt);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->stats.workers_quarantined, 0u);  // strike one only
  EXPECT_EQ(harness.daemon().counters().workers_quarantined, 0u);

  // Strike two: the same name loses another shard on a fresh connection.
  harness.add_worker(flaky);
  const auto second = harness.submit(design, opt);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->stats.workers_quarantined, 1u);
  EXPECT_EQ(harness.daemon().counters().workers_quarantined, 1u);
}

// ---- store front -----------------------------------------------------------

TEST(Service, RepeatRequestServedFromStoreCache) {
  const fs::path dir =
      fs::path(::testing::TempDir()) / "sck_service_store";
  fs::remove_all(dir);

  const ServiceDesign design;
  const hls::NetlistCampaignOptions opt = incremental_options();
  const hls::NetlistCampaignResult want =
      run_netlist_campaign(design.graph, design.netlist, opt);

  ServiceOptions so;
  so.store_dir = dir.string();
  ServiceHarness harness(so);
  harness.add_workers(2);

  const auto cold = harness.submit(design, opt);
  ASSERT_TRUE(cold.has_value());
  EXPECT_FALSE(cold->stats.served_from_cache);
  EXPECT_TRUE(hls::same_campaign_result(cold->result, want));

  // Second, identical request: answered straight from the store — zero
  // shards scheduled, and STILL byte-identical.
  const auto warm = harness.submit(design, opt);
  ASSERT_TRUE(warm.has_value());
  EXPECT_TRUE(warm->stats.served_from_cache);
  EXPECT_EQ(warm->stats.shards_total, 0u);
  EXPECT_TRUE(hls::same_campaign_result(warm->result, want));

  const DaemonCounters counters = harness.daemon().counters();
  EXPECT_EQ(counters.campaigns_completed, 2u);
  EXPECT_EQ(counters.campaigns_cached, 1u);

  fs::remove_all(dir);
}

// A DIFFERENT campaign (other samples count) must not alias the cached
// entry — the fingerprint covers the options.
TEST(Service, DifferentOptionsMissTheCache) {
  const fs::path dir =
      fs::path(::testing::TempDir()) / "sck_service_store_miss";
  fs::remove_all(dir);

  const ServiceDesign design;
  ServiceOptions so;
  so.store_dir = dir.string();
  ServiceHarness harness(so);
  harness.add_workers(1);

  hls::NetlistCampaignOptions opt = incremental_options();
  const auto first = harness.submit(design, opt);
  ASSERT_TRUE(first.has_value());

  opt.samples_per_fault = 7;
  const hls::NetlistCampaignResult want =
      run_netlist_campaign(design.graph, design.netlist, opt);
  const auto second = harness.submit(design, opt);
  ASSERT_TRUE(second.has_value());
  EXPECT_FALSE(second->stats.served_from_cache);
  EXPECT_TRUE(hls::same_campaign_result(second->result, want));

  fs::remove_all(dir);
}

// ---- worker state lifetime -------------------------------------------------

/// Next frame from a blocking socket, or nullopt on EOF, a poisoned stream
/// or no frame before `deadline`.
[[nodiscard]] std::optional<Frame> recv_frame(
    int fd, FrameBuffer& in, std::chrono::steady_clock::time_point deadline) {
  for (;;) {
    if (std::optional<Frame> frame = in.next()) return frame;
    if (in.error()) return std::nullopt;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) return std::nullopt;
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, static_cast<int>(left.count())) <= 0) continue;
    unsigned char chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return std::nullopt;
    in.feed(chunk, static_cast<std::size_t>(n));
  }
}

// The daemon tells every worker that received a campaign's setup when the
// campaign is finished, so the worker can drop that campaign's runner. A
// fake worker speaking the wire over a raw socket serves the shards and
// must then receive kCampaignDone naming the campaign it was set up for.
TEST(Service, WorkerIsToldWhenACampaignIsDone) {
  const ServiceDesign design;
  const hls::NetlistCampaignOptions opt = incremental_options();
  ServiceHarness harness;

  std::string error;
  const std::optional<Address> addr =
      parse_address(harness.daemon().address());
  ASSERT_TRUE(addr.has_value());
  const int fd = connect_with_retry(*addr, 10.0, &error);
  ASSERT_GE(fd, 0) << error;
  HelloPayload hello;
  hello.worker_name = "raw-worker";
  hello.native_lanes = 64;
  ASSERT_TRUE(send_all(fd, encode_frame(MsgType::kHello, encode_hello(hello))));

  std::optional<std::optional<ServiceCampaignResult>> response;
  std::thread client([&] { response = harness.submit(design, opt); });

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  FrameBuffer in;
  std::optional<std::uint64_t> setup_id;
  std::optional<std::uint64_t> done_id;
  std::unique_ptr<hls::CampaignSliceRunner> runner;
  while (!done_id.has_value()) {
    const std::optional<Frame> frame = recv_frame(fd, in, deadline);
    if (!frame.has_value()) break;
    if (frame->type == MsgType::kCampaignSetup) {
      const std::optional<CampaignSetupPayload> setup =
          decode_campaign_setup(frame->payload);
      ASSERT_TRUE(setup.has_value());
      setup_id = setup->campaign_id;
      runner = std::make_unique<hls::CampaignSliceRunner>(
          setup->campaign.graph, setup->campaign.netlist,
          setup->campaign.options);
    } else if (frame->type == MsgType::kShardRequest) {
      const std::optional<ShardRequestPayload> req =
          decode_shard_request(frame->payload);
      ASSERT_TRUE(req.has_value());
      ASSERT_NE(runner, nullptr);
      ShardResultPayload res;
      res.campaign_id = req->campaign_id;
      res.shard_id = req->shard_id;
      res.base = req->base;
      res.per_job.resize(req->jobs.size());
      runner->run_slice(req->base, res.per_job.size(), res.per_job);
      ASSERT_TRUE(send_all(
          fd, encode_frame(MsgType::kShardResult, encode_shard_result(res))));
    } else if (frame->type == MsgType::kCampaignDone) {
      const std::optional<CampaignDonePayload> done =
          decode_campaign_done(frame->payload);
      ASSERT_TRUE(done.has_value());
      done_id = done->campaign_id;
    }
  }
  client.join();
  close_fd(fd);

  ASSERT_TRUE(response.has_value() && response->has_value());
  EXPECT_TRUE(hls::same_campaign_result(
      (*response)->result,
      run_netlist_campaign(design.graph, design.netlist, opt)));
  ASSERT_TRUE(setup_id.has_value());
  ASSERT_TRUE(done_id.has_value()) << "no kCampaignDone frame arrived";
  EXPECT_EQ(*done_id, *setup_id);
}

// ---- the slice-composition invariant ---------------------------------------

// What makes grid-index-slot reduction sound: running [0, n) in one slice
// equals running [0, k) and [k, n) separately into the same per-job
// vector, for a k on a widest-plane batch boundary — the exact operation
// the daemon performs with shards from different workers.
TEST(Service, SliceRunnerComposesAtBatchBoundaries) {
  const ServiceDesign design;
  const hls::NetlistCampaignOptions opt = incremental_options();
  const hls::CampaignSliceRunner runner(design.graph, design.netlist, opt);
  const std::size_t n = runner.jobs().size();
  ASSERT_GT(n, 512u);

  std::vector<fault::CampaignStats> whole(n);
  runner.run_slice(0, n, whole);

  std::vector<fault::CampaignStats> halves(n);
  const std::size_t k = 512;
  runner.run_slice(0, k, {halves.data(), k});
  runner.run_slice(k, n - k, {halves.data() + k, n - k});
  EXPECT_EQ(whole, halves);

  const hls::NetlistCampaignResult from_whole =
      hls::reduce_campaign_slices(design.netlist, runner.jobs(), whole);
  const hls::NetlistCampaignResult from_halves =
      hls::reduce_campaign_slices(design.netlist, runner.jobs(), halves);
  EXPECT_TRUE(hls::same_campaign_result(from_whole, from_halves));
  EXPECT_TRUE(hls::same_campaign_result(
      from_whole, run_netlist_campaign(design.graph, design.netlist, opt)));
}

}  // namespace
}  // namespace sck::service
