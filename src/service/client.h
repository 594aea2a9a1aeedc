// Client side of the campaign service: submit one campaign to a daemon
// and block until the reduced result comes back. The result is
// byte-identical to run_netlist_campaign(graph, netlist, options) on a
// single host — the daemon guarantees it at any worker count, shard size
// and arrival order — plus the ShardStats telemetry of how the work was
// actually spread.
//
// Transport robustness: a lost connection, a poisoned stream or a daemon
// that went silent past idle_timeout does NOT fail the submission — the
// client reconnects with exponential backoff and re-submits the SAME
// request. Re-submission is idempotent by construction: the daemon keys
// campaigns by content fingerprint, so a re-attach lands on the still-
// running campaign (or its cached result) instead of recomputing; a
// daemon that crashed in between resumes from its shard journal. Only a
// daemon-reported campaign failure (deterministic — retrying cannot help)
// or the total_timeout deadline surfaces as an error.
#pragma once

#include <optional>
#include <string>

#include "hls/netlist_campaign.h"
#include "service/wire.h"

namespace sck::service {

struct ServiceCampaignResult {
  hls::NetlistCampaignResult result;
  ShardStats stats;
};

/// Deadlines of one submission (the backoff between attempts is
/// kBackoffInitial doubling to kBackoffMax, service/socket.h).
struct ClientOptions {
  /// Overall deadline: connect attempts, re-submissions and the waits in
  /// between all count against it.
  double total_timeout = 120.0;
  /// Daemon silent this long while we await the response -> the stream is
  /// presumed wedged (e.g. a half-delivered frame): reconnect, re-submit.
  /// Must exceed the daemon's worst-case campaign completion time.
  double idle_timeout = 30.0;
};

/// Submit a campaign to the daemon at `address` and wait for the reduced
/// report, reconnecting and idempotently re-submitting through transport
/// failures. nullopt (with *error set) on a malformed address, a daemon-
/// reported failure, or the total_timeout deadline.
[[nodiscard]] std::optional<ServiceCampaignResult> run_remote_campaign(
    const std::string& address, const hls::Dfg& graph,
    const hls::Netlist& netlist, const hls::NetlistCampaignOptions& options,
    std::string* error = nullptr, const ClientOptions& client = {});

}  // namespace sck::service
