// The long-lived campaign daemon: accepts client campaign requests over
// sockets, compiles the ExecPlan once per campaign, cuts the fault
// universe into shards of whole plane-width batches, schedules them over
// connected worker processes, and reduces the streamed-back per-job stats
// in grid-index-slot order — so the distributed NetlistCampaignResult is
// byte-identical to run_netlist_campaign at ANY worker count, shard size
// and result arrival order.
//
// Why that holds, in one paragraph: a job's per-fault stats depend only on
// its GLOBAL index (duration and SEU hashes), the campaign options and the
// netlist — never on how jobs are grouped into batches (the lane-width
// invariance suites prove grouping-independence) — and the daemon writes
// each shard's stats into the job-indexed slots of one campaign-wide
// vector, then runs the exact same reduce_campaign_slices the single-host
// path runs. Shard
// boundaries are multiples of 512 (the widest plane), so they are also
// batch boundaries on every worker regardless of the width IT resolved.
//
// Robustness (nix-daemon exemplar): workers negotiate capabilities on
// connect (protocol version checked, lane width recorded); a worker that
// disconnects or goes silent past the heartbeat timeout while holding
// in-flight shards has them re-queued to survivors (fault::ShardQueue);
// duplicate results from a presumed-dead worker are dropped idempotently
// (determinism makes them byte-identical anyway). With a store directory
// configured the daemon fronts campaigns with the content-addressed
// CampaignStore: repeat requests are served from cache without running a
// single shard.
//
// Crash durability: with a store configured, every merged shard result is
// committed to a per-campaign write-ahead journal (store::ShardJournal,
// keyed by the campaign fingerprint, pinned against store trims) the
// moment it lands. A daemon that dies mid-campaign — crash, SIGKILL,
// power loss — resumes on the next submission of the same fingerprint:
// journaled shards are spliced straight back into their grid-index slots
// and only the missing ones are rescheduled, so the final result stays
// byte-identical to an uninterrupted run. Workers that repeatedly take
// shards down with them are put on probation: after probation_strikes
// losses a worker NAME is quarantined — its capability slot is retired
// and future hellos under that name are turned away.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "service/wire.h"

namespace sck::service {

struct ServiceOptions {
  /// Listen address ("tcp:host:port", port 0 = kernel-assigned; or
  /// "unix:path").
  std::string listen = "tcp:127.0.0.1:0";
  /// Jobs per shard; rounded up to a multiple of 512 so shard boundaries
  /// are whole plane-width batches on every worker at every lane width.
  int shard_jobs = 512;
  /// A worker holding in-flight shards that has been silent this long is
  /// presumed dead and its shards are re-queued. Workers heartbeat once a
  /// second while idle but cannot mid-shard, so this must exceed the
  /// worst-case shard execution time.
  double heartbeat_timeout = 30.0;
  /// CampaignStore directory for result caching ("" = no store backend).
  /// Also enables the shard write-ahead journal: campaigns interrupted by
  /// a daemon crash resume from their completed shards on re-submission.
  std::string store_dir;
  /// Worker probation: a worker NAME that loses this many shards-in-
  /// flight (disconnect, timeout, protocol violation while holding work)
  /// is quarantined — dropped and refused on future hellos. 0 disables.
  /// Unnamed workers get a fresh auto-name per connection, so probation
  /// cannot track them across reconnects (name your workers in anger).
  int probation_strikes = 3;
};

/// Daemon-lifetime counters (telemetry for tests and the serve log).
struct DaemonCounters {
  std::uint64_t campaigns_completed = 0;
  std::uint64_t campaigns_cached = 0;  ///< served from the store
  std::uint64_t workers_joined = 0;
  std::uint64_t workers_lost = 0;
  std::uint64_t workers_quarantined = 0;  ///< probation strikes exhausted
  std::uint64_t shards_requeued = 0;
  std::uint64_t shards_journaled = 0;  ///< results committed to the WAL
  std::uint64_t shards_resumed = 0;    ///< recovered from pre-crash journals
};

class CampaignDaemon {
 public:
  explicit CampaignDaemon(ServiceOptions options);
  ~CampaignDaemon();

  CampaignDaemon(const CampaignDaemon&) = delete;
  CampaignDaemon& operator=(const CampaignDaemon&) = delete;

  /// Bind + listen. False (with *error) on failure; run() may only be
  /// called after a successful start().
  [[nodiscard]] bool start(std::string* error = nullptr);

  /// The resolved listen address (kernel-assigned port filled in) —
  /// what workers and clients connect to. Valid after start().
  [[nodiscard]] const std::string& address() const;

  /// Serve until stop(). Single-threaded poll loop; call from a dedicated
  /// thread when embedding (tests, bench) or from main() in the example
  /// binary.
  void run();

  /// Thread-safe: wakes the loop, drains, sends workers a graceful
  /// kShutdown and returns run() to its caller.
  void stop();

  /// Crash simulation for the in-process resume tests: stop WITHOUT the
  /// kShutdown farewell — peers observe a bare EOF, exactly what a
  /// SIGKILLed daemon leaves behind, and journals stay on disk.
  void stop_hard();

  [[nodiscard]] DaemonCounters counters() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace sck::service
