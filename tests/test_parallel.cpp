// The deterministic scheduling primitives of fault/parallel.h: the netlist
// campaign must reduce to bit-identical results for 1, 2 and 8 worker
// threads, parallel_shard must build one state per worker and surface a
// thrown exception on the caller, and ShardQueue must hand out, requeue and
// complete shards exactly once.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/fir.h"
#include "fault/parallel.h"
#include "hls/bind.h"
#include "hls/builder.h"
#include "hls/expand_sck.h"
#include "hls/netlist_campaign.h"
#include "hls/schedule.h"

namespace sck::fault {
namespace {

TEST(ParallelCampaign, NetlistCampaignThreadCountInvariant) {
  using namespace sck::hls;
  const FirSpec spec{{1, 2, 3}, 8};
  const Dfg plain = build_fir(spec);
  CedOptions ced_opt;
  ced_opt.style = CedStyle::kClassBased;
  const Dfg ced = insert_ced(plain, ced_opt);
  const ResourceConstraints rc = ResourceConstraints::min_area();
  const Schedule sched = schedule_list(ced, rc);
  const Binding bind_result = bind(ced, sched, rc);
  const Netlist nl = generate_netlist(ced, sched, bind_result, "par");

  NetlistCampaignOptions opt;
  opt.samples_per_fault = 8;
  opt.fault_stride = 9;

  opt.threads = 1;
  const auto r1 = run_netlist_campaign(ced, nl, opt);
  for (const int threads : {2, 8}) {
    opt.threads = threads;
    const auto rn = run_netlist_campaign(ced, nl, opt);
    EXPECT_EQ(r1.aggregate.silent_correct, rn.aggregate.silent_correct);
    EXPECT_EQ(r1.aggregate.detected_correct, rn.aggregate.detected_correct);
    EXPECT_EQ(r1.aggregate.detected_erroneous,
              rn.aggregate.detected_erroneous);
    EXPECT_EQ(r1.aggregate.masked, rn.aggregate.masked);
    EXPECT_EQ(r1.fault_universe_size, rn.fault_universe_size);
    ASSERT_EQ(r1.per_unit.size(), rn.per_unit.size());
    for (std::size_t u = 0; u < r1.per_unit.size(); ++u) {
      EXPECT_EQ(r1.per_unit[u].fu_index, rn.per_unit[u].fu_index);
      EXPECT_EQ(r1.per_unit[u].faults, rn.per_unit[u].faults);
      EXPECT_EQ(r1.per_unit[u].stats.masked, rn.per_unit[u].stats.masked);
      EXPECT_EQ(r1.per_unit[u].stats.silent_correct,
                rn.per_unit[u].stats.silent_correct);
    }
  }
}

// A throwing evaluation must surface as a normal catchable exception on
// the calling thread — never std::terminate — at any thread count,
// including the inline single-worker path.
TEST(ParallelShardErrors, ThrowingEvalRethrowsOnCallerAtAnyThreadCount) {
  for (const int threads : {1, 2, 8}) {
    bool caught = false;
    try {
      parallel_shard(
          100, threads, [] { return 0; },
          [](int&, std::size_t j) {
            if (j == 13) {
              throw std::runtime_error("trial exploded at fault 13");
            }
          });
    } catch (const std::runtime_error& e) {
      caught = true;
      EXPECT_EQ(std::string(e.what()), "trial exploded at fault 13");
    }
    EXPECT_TRUE(caught) << "threads=" << threads;
  }
}

TEST(ParallelShardErrors, ThrowingContextFactoryRethrowsOnCaller) {
  struct BadContext {
    BadContext() { throw std::runtime_error("no device for this worker"); }
  };
  for (const int threads : {1, 2, 8}) {
    EXPECT_THROW(parallel_shard(
                     16, threads, [] { return BadContext{}; },
                     [](BadContext&, std::size_t) {}),
                 std::runtime_error)
        << "threads=" << threads;
  }
}

TEST(ParallelShardErrors, RemainingShardsAreCancelledAfterAThrow) {
  // Job 0 throws immediately; every other job sleeps. Without
  // cancellation the pool would grind through all ~10k sleeps before
  // joining; with it, each worker finishes at most its in-flight job and
  // stops pulling. The generous bound still fails loudly if cancellation
  // regresses.
  constexpr std::size_t kJobs = 10'000;
  std::atomic<std::size_t> executed{0};
  EXPECT_THROW(parallel_shard(
                   kJobs, 8, [] { return 0; },
                   [&executed](int&, std::size_t j) {
                     if (j == 0) throw std::runtime_error("first job fails");
                     std::this_thread::sleep_for(std::chrono::microseconds(100));
                     executed.fetch_add(1, std::memory_order_relaxed);
                   }),
               std::runtime_error);
  EXPECT_LT(executed.load(), kJobs / 2);
}

TEST(ParallelShard, BuildsOneStatePerWorkerCappedByTheJobCount) {
  for (const int threads : {0, 1, 2, 3, 4, 8}) {
    for (const std::size_t jobs : {0, 1, 2, 3, 5, 100}) {
      std::atomic<int> states{0};
      std::atomic<std::size_t> evaluated{0};
      parallel_shard(
          jobs, threads, [&states] { return states.fetch_add(1); },
          [&evaluated](int&, std::size_t) { evaluated.fetch_add(1); });
      EXPECT_EQ(states.load(),
                static_cast<int>(std::min<std::size_t>(
                    static_cast<std::size_t>(resolve_threads(threads)), jobs)))
          << "threads=" << threads << " jobs=" << jobs;
      EXPECT_EQ(evaluated.load(), jobs);
    }
  }
}

/// Holds a pool worker's evaluation until the calling thread has started
/// evaluating (or a generous deadline passes), so the caller's share never
/// depends on how fast the pool drains the cursor.
class CallerGate {
 public:
  CallerGate()
      : caller_(std::this_thread::get_id()),
        deadline_(std::chrono::steady_clock::now() + std::chrono::seconds(10)) {}

  /// True on the calling thread (after opening the gate); on a pool thread,
  /// waits for the gate and returns false.
  bool on_caller() {
    if (std::this_thread::get_id() == caller_) {
      caller_evaluated_.store(true);
      return true;
    }
    while (!caller_evaluated_.load() &&
           std::chrono::steady_clock::now() < deadline_) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    return false;
  }
  [[nodiscard]] bool caller_evaluated() const {
    return caller_evaluated_.load();
  }
  [[nodiscard]] std::thread::id caller() const { return caller_; }

 private:
  std::thread::id caller_;
  std::chrono::steady_clock::time_point deadline_;
  std::atomic<bool> caller_evaluated_{false};
};

TEST(ParallelShard, CallingThreadBuildsAStateAndEvaluatesAShare) {
  for (const int threads : {2, 3, 4, 8}) {
    CallerGate gate;
    std::mutex mutex;
    std::set<std::thread::id> builders;
    parallel_shard(
        64, threads,
        [&] {
          const std::lock_guard<std::mutex> lock(mutex);
          builders.insert(std::this_thread::get_id());
          return 0;
        },
        [&gate](int&, std::size_t) { (void)gate.on_caller(); });
    EXPECT_EQ(builders.size(), static_cast<std::size_t>(threads));
    EXPECT_EQ(builders.count(gate.caller()), 1u) << "threads=" << threads;
    EXPECT_TRUE(gate.caller_evaluated()) << "threads=" << threads;
  }
}

TEST(ParallelShardErrors, ThrowOnTheCallersShardRethrowsAfterEveryWorkerJoins) {
  // Each worker state counts itself alive until destroyed: once the
  // exception reaches the test, every pool worker must have left its loop
  // and dropped its state, and no evaluation may still be running.
  struct Tracked {
    std::atomic<int>* alive;
    explicit Tracked(std::atomic<int>* a) : alive(a) { alive->fetch_add(1); }
    ~Tracked() { alive->fetch_sub(1); }
    Tracked(const Tracked&) = delete;
    Tracked& operator=(const Tracked&) = delete;
  };
  for (const int threads : {2, 4, 8}) {
    CallerGate gate;
    std::atomic<int> alive{0};
    std::atomic<int> in_flight{0};
    std::atomic<std::size_t> executed{0};
    bool caught = false;
    try {
      parallel_shard(
          1000, threads, [&alive] { return Tracked(&alive); },
          [&](Tracked&, std::size_t) {
            if (gate.on_caller()) {
              throw std::runtime_error("caller's shard failed");
            }
            in_flight.fetch_add(1);
            std::this_thread::sleep_for(std::chrono::microseconds(100));
            executed.fetch_add(1);
            in_flight.fetch_sub(1);
          });
    } catch (const std::runtime_error& e) {
      caught = true;
      EXPECT_EQ(std::string(e.what()), "caller's shard failed");
      EXPECT_EQ(alive.load(), 0) << "threads=" << threads;
      EXPECT_EQ(in_flight.load(), 0) << "threads=" << threads;
    }
    EXPECT_TRUE(caught) << "threads=" << threads;
    EXPECT_LT(executed.load(), 500u) << "threads=" << threads;
  }
}

TEST(ShardQueue, DrainsInIndexOrderAndCompletes) {
  ShardQueue q(4);
  EXPECT_EQ(q.size(), 4u);
  for (std::size_t s = 0; s < 4; ++s) {
    const auto got = q.acquire();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, s);
  }
  EXPECT_FALSE(q.acquire().has_value());
  EXPECT_EQ(q.in_flight(), 4u);
  EXPECT_FALSE(q.all_complete());
  for (std::size_t s = 0; s < 4; ++s) EXPECT_TRUE(q.complete(s));
  EXPECT_TRUE(q.all_complete());
  EXPECT_EQ(q.in_flight(), 0u);
  EXPECT_EQ(q.requeues(), 0u);
}

TEST(ShardQueue, RequeuedShardJumpsTheLineOnce) {
  // Worker A takes shards 0 and 1 and dies; its in-flight work must come
  // back out BEFORE untouched shard 2 (oldest work first), exactly once.
  ShardQueue q(3);
  ASSERT_EQ(q.acquire().value(), 0u);
  ASSERT_EQ(q.acquire().value(), 1u);
  q.requeue(0);
  q.requeue(1);
  EXPECT_EQ(q.requeues(), 2u);
  EXPECT_EQ(q.acquire().value(), 1u);  // most recently requeued is in front
  EXPECT_EQ(q.acquire().value(), 0u);
  EXPECT_EQ(q.acquire().value(), 2u);
  EXPECT_FALSE(q.acquire().has_value());
}

TEST(ShardQueue, DuplicateCompletionFromPresumedDeadWorkerIsDropped) {
  // Shard 0 is requeued after a timeout, re-acquired and completed by a
  // survivor — then the "dead" worker's late result arrives. complete()
  // must report it as a duplicate, and a requeue after completion must be
  // a no-op (the shard never runs a third time).
  ShardQueue q(2);
  ASSERT_EQ(q.acquire().value(), 0u);
  q.requeue(0);
  ASSERT_EQ(q.acquire().value(), 0u);
  EXPECT_TRUE(q.complete(0));
  EXPECT_FALSE(q.complete(0));  // late duplicate: merge nothing
  q.requeue(0);                 // timeout fired after completion: no-op
  EXPECT_EQ(q.acquire().value(), 1u);
  EXPECT_TRUE(q.complete(1));
  EXPECT_TRUE(q.all_complete());
  EXPECT_EQ(q.completions(), 2u);
}

}  // namespace
}  // namespace sck::fault
