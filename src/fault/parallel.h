// Deterministic scheduling primitives for the campaign engines.
//
// parallel_shard fans a job list out over a std::thread pool, one worker
// state per thread; run_blocks_until early-stops such a list on fixed block
// boundaries; ShardQueue is the re-queueable ledger the campaign-service
// daemon hands shards out from. In every case the caller writes job results
// into j-indexed slots and folds them in job order, so what it reduces is
// identical for any thread count, including 1.
//
// Context lifetime rule: a worker state (context) typically holds
// references to its own members (a simulator bound to the units it owns).
// That is safe only because `auto state = make_state()` materialises the
// factory's return value in place (guaranteed prvalue elision) — the state
// is never copied or moved. Keep it that way: construct the state in the
// factory's return statement, and delete its copy/move constructors so any
// future refactor that would copy it (and silently rebind a reference to a
// dead sibling) fails to compile instead.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <deque>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/assert.h"

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
/// schedule. This is the engine under the netlist campaign
/// (hls/netlist_campaign.cpp) and the explorer's point pool
/// (codesign/explorer.cpp).
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

}  // namespace sck::fault
