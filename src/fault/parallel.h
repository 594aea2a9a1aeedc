// Multithreaded campaign scheduler with deterministic reduction.
//
// The fault universe of a campaign is embarrassingly parallel — every fault
// is evaluated against the same input space on otherwise fault-free
// hardware — but the unit models are stateful (an installed lane-fault
// table), so workers cannot share instances. The scheduler therefore takes a *context
// factory*: each worker builds its own context (owning fresh unit
// instances and a trial bound to them), pulls fault indices from a shared
// atomic cursor, and writes its per-fault CampaignStats into a slot
// indexed by the fault's position in the universe. The main thread then
// folds the slots in fault-index order — the same order the sequential
// drivers use — so the CampaignResult (aggregate, per-fault breakdown,
// min/max coverage) is bit-identical for any thread count, including 1.
//
// A context is any type providing
//   std::vector<hw::FaultableUnit*> units();   // enumeration order = unit
//                                              // index in the result
//   const Trial& trial() const;                // batched: (BatchWordT<P>,
//                                              // BatchWordT<P>) ->
//                                              // LaneVerdictT<P>
// and the factory is any callable returning one by value. All contexts
// must describe identical hardware (same units, widths, order); the
// scheduler asserts the universes agree in size.
//
// Context lifetime rule: a context typically stores a trial functor that
// holds references to the context's own unit members. That is safe only
// because `auto ctx = factory()` materialises the factory's return value
// in place (guaranteed prvalue elision) — the context is never copied or
// moved. Keep it that way: construct the context in the factory's return
// statement, and delete the context's copy/move constructors so any
// future refactor that would copy it (and silently rebind the trial to a
// dead sibling) fails to compile instead.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "fault/batch.h"
#include "fault/campaign.h"
#include "hw/fault_site.h"
#include "hw/unit.h"

namespace sck::fault {

/// Worker count resolution: 0 means "all hardware threads".
[[nodiscard]] inline int resolve_threads(int threads) {
  if (threads > 0) return threads;
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

/// Generic deterministic sharding primitive: run `eval(state, j)` for every
/// job index j in [0, jobs) across a worker pool, with one `make_state()`
/// context per worker. Job results must be written into j-indexed slots by
/// the caller's eval — the caller then reduces them in job order, which
/// makes the outcome independent of the thread count and of the dynamic
/// schedule. This is the engine under the campaign drivers below and under
/// the netlist campaign (hls/netlist_campaign.cpp).
///
/// Workers: min(resolve_threads(threads), jobs), each building exactly one
/// state (none at all for zero jobs). The calling thread is one of them:
/// it spawns workers - 1 pool threads and pulls jobs from the same cursor
/// instead of idling in join, so a one-worker call spawns nothing.
///
/// Error contract: an exception thrown by `make_state` or `eval` on any
/// worker — pool thread or caller — does NOT std::terminate the process.
/// The first exception is captured, the remaining shards are cancelled
/// (workers stop pulling new jobs; in-flight evaluations finish), every
/// pool thread is joined, and the captured exception is rethrown on the
/// calling thread — so a throwing trial surfaces as a normal catchable
/// error at any thread count. After a throw the caller's j-indexed slots
/// are only partially filled; callers must not reduce them.
template <typename MakeState, typename Eval>
void parallel_shard(std::size_t jobs, int threads, MakeState&& make_state,
                    const Eval& eval) {
  // Never spawn more workers (and contexts) than there are jobs.
  const std::size_t workers = std::min<std::size_t>(
      static_cast<std::size_t>(resolve_threads(threads)), jobs);
  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> cancelled{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;

  const auto shard = [&] {
    try {
      auto state = make_state();
      while (!cancelled.load(std::memory_order_relaxed)) {
        const std::size_t j = cursor.fetch_add(1, std::memory_order_relaxed);
        if (j >= jobs) break;
        eval(state, j);
      }
    } catch (...) {
      {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
      cancelled.store(true, std::memory_order_relaxed);
    }
  };

  if (workers == 0) return;
  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (std::size_t w = 1; w < workers; ++w) pool.emplace_back(shard);
  shard();
  for (std::thread& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

/// Deterministic early-stopping driver over a job list split into fixed
/// blocks: `run(base, count)` evaluates jobs [base, base + count) — in
/// parallel if it likes, typically via parallel_shard — then `stop(end)`
/// decides, from the `end` jobs evaluated so far, whether to halt.
/// Returns the number of jobs evaluated.
///
/// The block boundary IS the determinism contract: the stop predicate only
/// ever observes complete blocks in a fixed sequence, so the set of jobs
/// evaluated — and therefore everything reduced from them — is a pure
/// function of (jobs, block) no matter how many threads `run` fans each
/// block out over. This is the seed-stable boundary the sampled netlist
/// campaigns early-stop at (hls/netlist_campaign.h).
template <typename RunBlock, typename Stop>
std::size_t run_blocks_until(std::size_t jobs, std::size_t block,
                             const RunBlock& run, const Stop& stop) {
  SCK_EXPECTS(block > 0);
  std::size_t at = 0;
  while (at < jobs) {
    const std::size_t count = std::min(block, jobs - at);
    run(at, count);
    at += count;
    if (stop(at)) break;
  }
  return at;
}

/// Re-queueable shard ledger for schedulers whose workers can DIE — the
/// distributed cousin of parallel_shard's atomic cursor. parallel_shard
/// assumes a worker that pulled a job always finishes it (threads in one
/// process); the campaign-service daemon (src/service/daemon.cpp) hands
/// shards to worker *processes* that may crash or hang, so acquisition and
/// completion are decoupled: a shard acquired but never completed can be
/// requeue()d for a surviving worker. Completion is idempotent — a late
/// duplicate result from a worker presumed dead is harmless, because the
/// determinism discipline makes re-execution byte-identical.
///
/// The queue tracks indices only; the caller owns the j-indexed result
/// slots and the deterministic job-order reduction, exactly as with
/// parallel_shard. Thread-safe (the daemon is single-threaded today, but
/// tests drive it from several).
class ShardQueue {
 public:
  explicit ShardQueue(std::size_t shards) : completed_(shards, 0) {
    for (std::size_t s = 0; s < shards; ++s) pending_.push_back(s);
  }

  /// Next shard to hand out (lowest-index first; requeued shards jump the
  /// line — they are the oldest work). nullopt when nothing is pending —
  /// which does NOT mean done: acquired shards may still be in flight.
  [[nodiscard]] std::optional<std::size_t> acquire() {
    const std::lock_guard<std::mutex> lock(mutex_);
    while (!pending_.empty()) {
      const std::size_t s = pending_.front();
      pending_.pop_front();
      if (completed_[s]) continue;  // completed while waiting to re-run
      ++in_flight_;
      return s;
    }
    return std::nullopt;
  }

  /// Mark a shard's results recorded. Returns true the FIRST time only, so
  /// the caller merges exactly one copy of a shard's stats into its slots
  /// (duplicates from a presumed-dead worker are dropped).
  bool complete(std::size_t shard) {
    const std::lock_guard<std::mutex> lock(mutex_);
    SCK_EXPECTS(shard < completed_.size());
    if (completed_[shard]) return false;
    completed_[shard] = 1;
    if (in_flight_ > 0) --in_flight_;
    ++completions_;
    return true;
  }

  /// Return an acquired-but-unfinished shard (its worker died or timed
  /// out) to the front of the pending queue. No-op if the shard already
  /// completed (e.g. the "dead" worker's result arrived first).
  void requeue(std::size_t shard) {
    const std::lock_guard<std::mutex> lock(mutex_);
    SCK_EXPECTS(shard < completed_.size());
    if (completed_[shard]) return;
    if (in_flight_ > 0) --in_flight_;
    ++requeues_;
    pending_.push_front(shard);
  }

  [[nodiscard]] bool all_complete() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return completions_ == completed_.size();
  }
  [[nodiscard]] std::size_t completions() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return completions_;
  }
  [[nodiscard]] std::size_t requeues() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return requeues_;
  }
  [[nodiscard]] std::size_t in_flight() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return in_flight_;
  }
  [[nodiscard]] std::size_t size() const { return completed_.size(); }

 private:
  mutable std::mutex mutex_;
  std::deque<std::size_t> pending_;
  std::vector<char> completed_;
  std::size_t in_flight_ = 0;
  std::size_t completions_ = 0;
  std::size_t requeues_ = 0;
};

namespace detail {

/// Campaign.h's canonical universe entry (see detail::enumerate_universe
/// there), augmented with the (pure, context-independent) excitability bit
/// so workers can apply the same fault collapsing as the sequential
/// drivers.
struct ShardEntry {
  int unit_index;
  hw::FaultSite site;
  bool excitable;
};

inline std::vector<ShardEntry> enumerate_shard_universe(
    const std::vector<hw::FaultableUnit*>& units) {
  std::vector<ShardEntry> universe;
  for (const UniverseEntry& e : enumerate_universe(units)) {
    const hw::FaultableUnit* unit =
        units[static_cast<std::size_t>(e.unit_index)];
    universe.push_back(
        ShardEntry{e.unit_index, e.site, unit->fault_excitable(e.site)});
  }
  return universe;
}

/// Shard the universe across a worker pool. `eval(ctx, entry)` computes
/// one fault's CampaignStats inside the worker's own context.
template <typename Factory, typename Eval>
CampaignResult schedule_faults(Factory&& factory,
                               const std::vector<ShardEntry>& universe,
                               int threads, const CampaignOptions& opt,
                               const Eval& eval) {
  std::vector<CampaignStats> per_fault(universe.size());
  parallel_shard(
      universe.size(), threads, factory,
      [&universe, &per_fault, &eval](auto& ctx, std::size_t j) {
        per_fault[j] = eval(ctx, universe[j]);
      });

  // Deterministic reduction: fault-index order, exactly like the
  // sequential drivers.
  CampaignResult result;
  result.fault_universe_size = universe.size();
  for (std::size_t j = 0; j < universe.size(); ++j) {
    finish_fault(result, universe[j].unit_index, universe[j].site,
                 per_fault[j], opt);
  }
  return result;
}

}  // namespace detail

/// Parallel exhaustive campaign over the wide bit-parallel engine:
/// bit-identical to run_exhaustive_batched (and hence to run_exhaustive
/// with an equivalent scalar trial) at any thread count and any lane
/// count. `threads == 0` uses all hardware threads; `opt.lanes` resolves
/// like the sequential batched driver. Each shard is one whole fault, so
/// the lane width never touches the shard boundaries or the reduction
/// order — it only sizes the batches inside a shard.
template <typename Factory>
CampaignResult run_exhaustive_batched_parallel(
    int width, Factory&& factory, int threads = 0,
    const CampaignOptions& opt = {}) {
  SCK_EXPECTS(width >= 1 && width <= 16);

  auto proto = factory();
  const std::vector<hw::FaultableUnit*> proto_units = proto.units();
  SCK_EXPECTS(!proto_units.empty());
  const std::vector<detail::ShardEntry> universe =
      detail::enumerate_shard_universe(proto_units);

  const int lanes = hw::resolve_lanes(opt.lanes);
  return hw::dispatch_plane(lanes, [&]<typename P>(std::type_identity<P>) {
    const ExhaustivePlanT<P> plan(width, opt.skip_b_zero);
    const std::uint64_t inputs_per_fault = plan.trials_per_fault();
    // Fault-free validation sweep on the prototype context.
    detail::validate_batched(plan, proto.trial());

    return detail::schedule_faults(
        std::forward<Factory>(factory), universe, threads, opt,
        [&plan, inputs_per_fault](auto& ctx, const detail::ShardEntry& e) {
          const std::vector<hw::FaultableUnit*> units = ctx.units();
          return detail::sweep_fault_batched(
              *units[static_cast<std::size_t>(e.unit_index)], e.site,
              e.excitable, plan, inputs_per_fault, ctx.trial());
        });
  });
}

}  // namespace sck::fault
