#include "service/worker.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "hls/netlist_campaign.h"
#include "hw/plane.h"
#include "service/chaos.h"
#include "service/socket.h"
#include "service/wire.h"

namespace sck::service {

namespace {

/// A hello the daemon never acknowledged (lost in transit, half-delivered)
/// must not hang the worker forever: past this, redial with a clean stream.
constexpr double kHelloAckTimeout = 5.0;

enum class Loop { kContinue, kDone, kFail, kLost };

struct WorkerState {
  int fd = -1;
  const WorkerOptions* opt = nullptr;
  std::uint64_t worker_id = 0;
  bool acked = false;  ///< HelloAck received on THIS connection
  /// One compiled runner per campaign: plan/cones/golden-trace amortized
  /// over every shard of that campaign this worker executes, erased when
  /// the daemon sends kCampaignDone. Scoped to the CONNECTION — campaign
  /// ids restart across daemon incarnations, so a runner surviving a
  /// reconnect could collide with a fresh id.
  std::map<std::uint64_t, std::unique_ptr<hls::CampaignSliceRunner>> runners;
  int shards_done = 0;  ///< carried ACROSS reconnects (max_shards budget)
};

[[nodiscard]] bool send_frame(int fd, MsgType type,
                              std::vector<unsigned char> payload) {
  return send_all(fd, encode_frame(type, std::move(payload)));
}

Loop fail(WorkerState& state, const std::string& why) {
  std::fprintf(stderr, "[worker] %s\n", why.c_str());
  (void)send_frame(state.fd, MsgType::kError, encode_error(why));
  return Loop::kFail;
}

Loop handle_setup(WorkerState& state, const Frame& frame) {
  std::optional<CampaignSetupPayload> setup =
      decode_campaign_setup(frame.payload);
  if (!setup.has_value()) return fail(state, "malformed campaign setup");
  // Local lane/thread overrides are safe BECAUSE results are invariant to
  // both — that is the whole determinism contract of the service.
  hls::NetlistCampaignOptions options = setup->campaign.options;
  if (state.opt->lanes != 0) options.lanes = state.opt->lanes;
  if (state.opt->threads != 0) options.threads = state.opt->threads;
  state.runners[setup->campaign_id] =
      std::make_unique<hls::CampaignSliceRunner>(setup->campaign.graph,
                                                 setup->campaign.netlist,
                                                 options);
  return Loop::kContinue;
}

Loop handle_shard(WorkerState& state, const Frame& frame) {
  if (state.opt->max_shards >= 0 &&
      state.shards_done >= state.opt->max_shards) {
    if (state.opt->abrupt) {
      // Sever without a farewell: from the daemon's side this is
      // indistinguishable from SIGKILL while holding an in-flight shard.
      ::close(state.fd);
      state.fd = -1;
      return Loop::kDone;
    }
    return Loop::kDone;  // graceful retirement; daemon re-queues on EOF
  }
  const std::optional<ShardRequestPayload> req =
      decode_shard_request(frame.payload);
  if (!req.has_value()) return fail(state, "malformed shard request");
  const auto it = state.runners.find(req->campaign_id);
  if (it == state.runners.end()) {
    return fail(state, "shard request for unknown campaign " +
                           std::to_string(req->campaign_id));
  }
  const hls::CampaignSliceRunner& runner = *it->second;
  if (req->base > runner.jobs().size() ||
      req->jobs.size() > runner.jobs().size() - req->base) {
    return fail(state, "shard out of range of the fault universe");
  }
  // The daemon's job list must agree with our own enumeration of the same
  // netlist+options — a mismatch means a codec or version fault, and
  // executing it would silently corrupt the campaign grid.
  for (std::size_t i = 0; i < req->jobs.size(); ++i) {
    if (!(req->jobs[i] == runner.jobs()[req->base + i])) {
      return fail(state, "shard jobs disagree with local enumeration");
    }
  }

  std::vector<fault::CampaignStats> per_job(req->jobs.size());
  const double t0 = now_seconds();
  runner.run_slice(req->base, per_job.size(), per_job);

  ShardResultPayload res;
  res.campaign_id = req->campaign_id;
  res.shard_id = req->shard_id;
  res.base = req->base;
  res.per_job = std::move(per_job);
  res.seconds = now_seconds() - t0;
  if (!send_frame(state.fd, MsgType::kShardResult,
                  encode_shard_result(res))) {
    return Loop::kLost;  // daemon gone; it will re-queue the shard
  }
  ++state.shards_done;
  return Loop::kContinue;
}

Loop handle_frame(WorkerState& state, const Frame& frame) {
  switch (frame.type) {
    case MsgType::kHelloAck: {
      const std::optional<HelloAckPayload> ack =
          decode_hello_ack(frame.payload);
      if (!ack.has_value()) return fail(state, "malformed hello ack");
      state.worker_id = ack->worker_id;
      state.acked = true;
      return Loop::kContinue;
    }
    case MsgType::kCampaignSetup:
      return handle_setup(state, frame);
    case MsgType::kShardRequest:
      return handle_shard(state, frame);
    case MsgType::kCampaignDone: {
      const std::optional<CampaignDonePayload> done =
          decode_campaign_done(frame.payload);
      if (!done.has_value()) return fail(state, "malformed campaign done");
      state.runners.erase(done->campaign_id);
      return Loop::kContinue;
    }
    case MsgType::kShutdown:
      return Loop::kDone;
    case MsgType::kError: {
      // Deterministic rejection (protocol mismatch, quarantine):
      // reconnecting would only be refused again.
      const std::optional<std::string> msg = decode_error(frame.payload);
      std::fprintf(stderr, "[worker] daemon error: %s\n",
                   msg.has_value() ? msg->c_str() : "<malformed>");
      return Loop::kFail;
    }
    case MsgType::kHello:
    case MsgType::kCampaignRequest:
    case MsgType::kCampaignResponse:
    case MsgType::kShardResult:
    case MsgType::kHeartbeat:
      return fail(state, "unexpected message type " +
                             std::to_string(static_cast<std::uint32_t>(
                                 frame.type)));
  }
  return Loop::kFail;
}

/// One connection's lifetime: hello, then serve frames until shutdown,
/// failure or transport loss. shards_done persists across sessions so the
/// max_shards budget survives reconnects.
[[nodiscard]] Loop run_session(int fd, const WorkerOptions& options,
                               int& shards_done) {
  WorkerState state;
  state.fd = fd;
  state.opt = &options;
  state.shards_done = shards_done;

  HelloPayload hello;
  hello.protocol = kWireProtocolVersion;
  hello.worker_name = options.name;
  hello.native_lanes = hw::resolve_lanes(options.lanes);
  const double hello_at = now_seconds();
  if (!send_frame(fd, MsgType::kHello, encode_hello(hello))) {
    return Loop::kLost;
  }

  FrameBuffer in;
  const int heartbeat_ms =
      static_cast<int>(options.heartbeat_interval * 1000.0);
  Loop outcome = Loop::kLost;
  for (bool running = true; running;) {
    if (!state.acked && now_seconds() - hello_at > kHelloAckTimeout) {
      outcome = Loop::kLost;  // hello or its ack lost in transit
      break;
    }
    pollfd p{state.fd, POLLIN, 0};
    const int ready = ::poll(&p, 1, heartbeat_ms > 0 ? heartbeat_ms : 1000);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;  // outcome stays kLost
    }
    if (ready == 0) {  // idle: prove liveness to the heartbeat sweep
      if (!send_frame(state.fd, MsgType::kHeartbeat, {})) break;
      continue;
    }

    unsigned char chunk[64 * 1024];
    const ssize_t n = chaos_recv(state.fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) continue;
      break;  // daemon gone (EOF or error) — outcome stays kLost
    }
    in.feed(chunk, static_cast<std::size_t>(n));
    while (running) {
      const std::optional<Frame> frame = in.next();
      if (!frame.has_value()) break;
      const Loop step = handle_frame(state, *frame);
      if (step != Loop::kContinue) {
        outcome = step;
        running = false;
      }
    }
    if (running && in.error()) {
      // Poisoned stream (e.g. bytes corrupted in transit): this transport
      // is unrecoverable, but a fresh connection is as good as new.
      std::fprintf(stderr, "[worker] wire error: %s\n",
                   in.error_detail().c_str());
      outcome = Loop::kLost;
      running = false;
    }
  }
  shards_done = state.shards_done;
  if (state.fd >= 0) close_fd(state.fd);
  return outcome;
}

}  // namespace

int run_worker(const WorkerOptions& options) {
  const std::optional<Address> addr = parse_address(options.connect);
  if (!addr.has_value()) {
    std::fprintf(stderr, "[worker] malformed address: %s\n",
                 options.connect.c_str());
    return 1;
  }

  int shards_done = 0;
  double backoff = kBackoffInitial;
  bool ever_connected = false;
  for (;;) {
    std::string error;
    const int fd =
        connect_with_retry(*addr, options.connect_timeout, &error);
    if (fd < 0) {
      // connect_with_retry already re-dialed for connect_timeout seconds:
      // a daemon unreachable for that long is gone, not glitching — a
      // reconnecting worker that once served retires cleanly instead of
      // dialing a dead address forever.
      if (options.reconnect && ever_connected) return 0;
      std::fprintf(stderr, "[worker] %s\n", error.c_str());
      return 1;
    }
    ever_connected = true;
    backoff = kBackoffInitial;  // the daemon is reachable again

    switch (run_session(fd, options, shards_done)) {
      case Loop::kDone:
        return 0;  // daemon shutdown or graceful retirement
      case Loop::kFail:
        return 1;
      case Loop::kLost:
        if (!options.reconnect) return 0;  // daemon re-queues our shards
        std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
        backoff = std::min(backoff * 2.0, kBackoffMax);
        break;
      case Loop::kContinue:
        break;  // unreachable: run_session never returns kContinue
    }
  }
}

}  // namespace sck::service
