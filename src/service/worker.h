// Campaign worker: connects to a daemon, negotiates capabilities and
// executes fault-universe shards through CampaignSliceRunner (the exact
// engine run_netlist_campaign uses), streaming per-job stats back. One
// runner is compiled per campaign and cached by campaign id, so a worker
// pays the ExecPlan/FaultCones/GoldenTrace setup once no matter how many
// shards of that campaign it executes.
//
// Determinism contract: the shard carries GLOBAL job indices (base), and
// run_slice derives every per-job hash from them — so the worker's local
// lane width and thread count are free telemetry knobs, not result knobs.
#pragma once

#include <cstdint>
#include <string>

namespace sck::service {

struct WorkerOptions {
  /// Daemon address ("tcp:host:port" / "unix:path").
  std::string connect = "tcp:127.0.0.1:0";
  /// Name reported in Hello (shows up in ShardStats). "" = auto.
  std::string name;
  /// Local lane-width override (0 = campaign's own setting, then
  /// hw::kDefaultLanes). Results are identical at any width.
  int lanes = 0;
  /// Local thread-count override for shard execution (0 = campaign's).
  int threads = 0;
  /// Idle heartbeat period in seconds.
  double heartbeat_interval = 1.0;
  /// Test hook: execute at most this many shards, then act on `abrupt`
  /// (-1 = unlimited).
  int max_shards = -1;
  /// Test hook: with max_shards reached, sever the connection WITHOUT any
  /// farewell the moment the next shard request arrives — the daemon-side
  /// code path is identical to a SIGKILLed worker holding an in-flight
  /// shard.
  bool abrupt = false;
  /// Seconds to keep retrying the initial connect (daemon may still be
  /// binding).
  double connect_timeout = 10.0;
  /// Survive transport loss: on EOF, a poisoned stream or a hello-ack
  /// timeout, reconnect with exponential backoff (50 ms doubling to 2 s)
  /// instead of exiting. Each reconnection is a clean slate — fresh
  /// stream, fresh hello, campaign setups re-sent by the daemon — so a
  /// half-delivered frame can never wedge the worker for good. A daemon
  /// kShutdown or kError (e.g. quarantine) still terminates, and so does
  /// a daemon unreachable for a whole connect_timeout window (gone, not
  /// glitching — retire with exit 0 rather than dial a corpse forever).
  bool reconnect = false;
};

/// Run the worker loop until the daemon shuts us down (returns 0), the
/// connection drops (returns 0 — the daemon re-queues anything in flight —
/// or reconnects when options.reconnect is set), or a protocol/setup
/// error occurs (returns 1, message on stderr).
int run_worker(const WorkerOptions& options);

}  // namespace sck::service
