// Versioned length-prefixed binary wire protocol of the campaign service.
//
// Every message on a service socket is one FRAME:
//
//   u64 magic "SCKWIRE\0" | u32 protocol version | u32 message type
//   u64 payload length | payload bytes
//   u64 FNV-1a checksum over everything before it
//
// (all integers little-endian, sealed and parsed with common/codec.h like
// the store entries and journal records). The checksum is verified FIRST,
// so a frame with ANY flipped or missing byte is rejected before a single
// payload field is parsed; decoders bounds-check every read and validate every
// enum, index and arity, returning std::nullopt instead of ever crashing
// or deserializing garbage (tests/test_service_wire.cpp flips and
// truncates every byte to hold this). A version-mismatched frame and a
// length prefix beyond kMaxFramePayload are rejected from the fixed
// header alone — the streaming FrameBuffer refuses them before buffering
// a payload.
//
// Payload codecs cover the full campaign-service vocabulary: worker
// capability negotiation (Hello/HelloAck), campaign setup (the reference
// Dfg + the synthesized Netlist + NetlistCampaignOptions — workers
// recompile the ExecPlan locally, which is deterministic), fault-universe
// shard slices, per-job CampaignStats result slices, the final
// NetlistCampaignResult and the scheduler's ShardStats telemetry.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "fault/stats.h"
#include "hls/dfg.h"
#include "hls/netlist.h"
#include "hls/netlist_campaign.h"

namespace sck::service {

/// "SCKWIRE\0" as a little-endian u64.
inline constexpr std::uint64_t kWireMagic = 0x0045524957'4B4353ULL;

/// Wire protocol generation. Bump on ANY frame or payload layout change:
/// peers of another version are rejected at the frame level (and a worker
/// announcing a different version in its Hello is turned away).
/// v2: ShardStats grew shards_journaled / shards_resumed /
/// workers_quarantined (crash-durable resume + worker probation).
/// v3: the duration/SEU options and per-job kind/seu_bit.
/// v4: the canonical codec — options are the result key followed by the
/// execution settings, and UnitCoverage::fu_index is an i64.
/// v5: the options drop the stream mode (every stream is shared).
/// v6: the Hello drops the ISA string and the unused feature flags.
/// v7: kCampaignDone tells a worker to drop a finished campaign's runner.
inline constexpr std::uint32_t kWireProtocolVersion = 7;

/// Hard ceiling on one frame's payload. A length prefix beyond this is
/// rejected from the header alone — a corrupted (or hostile) length can
/// cost at most the fixed header, never an unbounded allocation.
inline constexpr std::uint64_t kMaxFramePayload = 64ull << 20;

/// Fixed frame overhead: header (magic, version, type, length) + trailing
/// checksum.
inline constexpr std::size_t kFrameHeaderBytes = 8 + 4 + 4 + 8;
inline constexpr std::size_t kFrameChecksumBytes = 8;

enum class MsgType : std::uint32_t {
  kHello = 1,         ///< worker -> daemon: capabilities
  kHelloAck,          ///< daemon -> worker: accepted, worker id assigned
  kCampaignRequest,   ///< client -> daemon: run this campaign
  kCampaignResponse,  ///< daemon -> client: final result + stats (or error)
  kCampaignSetup,     ///< daemon -> worker: campaign-wide state, sent once
  kShardRequest,      ///< daemon -> worker: execute one job slice
  kShardResult,       ///< worker -> daemon: per-job stats of one slice
  kHeartbeat,         ///< worker -> daemon: liveness while idle
  kShutdown,          ///< daemon -> worker: drain and exit gracefully
  kError,             ///< either direction: human-readable failure
  kCampaignDone,      ///< daemon -> worker: campaign finished, drop its state
};
[[nodiscard]] constexpr MsgType enum_last(MsgType) {
  return MsgType::kCampaignDone;
}

/// One decoded frame: validated type + raw payload bytes.
struct Frame {
  MsgType type = MsgType::kError;
  std::vector<unsigned char> payload;
};

/// Encode one complete frame (header + payload + checksum), ready to send.
[[nodiscard]] std::vector<unsigned char> encode_frame(
    MsgType type, std::span<const unsigned char> payload);

/// Strict whole-buffer inverse of encode_frame: exactly one well-formed
/// frame, nothing more. Returns std::nullopt on any inconsistency —
/// checksum first, then magic/version/type/length. Never throws, never
/// aborts on malformed bytes.
[[nodiscard]] std::optional<Frame> decode_frame(
    std::span<const unsigned char> bytes);

/// Incremental frame extraction from a socket byte stream: feed() raw
/// bytes as they arrive, pop complete frames with next(). A malformed
/// header or checksum poisons the buffer (error() latches, next() stops
/// yielding) — a transport that desynchronized once cannot be resynced,
/// the connection must be dropped, exactly nix-daemon style.
class FrameBuffer {
 public:
  void feed(const unsigned char* data, std::size_t n) {
    if (!error_.empty()) return;
    bytes_.insert(bytes_.end(), data, data + n);
  }

  /// Next complete frame, or std::nullopt when more bytes are needed OR
  /// the stream is poisoned (check error()).
  [[nodiscard]] std::optional<Frame> next();

  [[nodiscard]] bool error() const { return !error_.empty(); }
  [[nodiscard]] const std::string& error_detail() const { return error_; }
  /// Bytes buffered but not yet consumed by next().
  [[nodiscard]] std::size_t buffered() const { return bytes_.size(); }

 private:
  std::vector<unsigned char> bytes_;
  std::string error_;
};

// ---------------------------------------------------------------------------
// Payload codecs. Every encode_* returns payload bytes (frame them with
// encode_frame); every decode_* is a strict bounds-checked inverse
// returning std::nullopt on any malformed input.

/// Worker capability announcement. The daemon rejects a protocol mismatch
/// outright; the lane width is telemetry (results are lane-width-invariant,
/// so capability negotiation never needs to *restrict* scheduling — any
/// worker can run any shard).
struct HelloPayload {
  std::uint32_t protocol = kWireProtocolVersion;
  std::string worker_name;
  std::int32_t native_lanes = 0;  ///< hw::resolve_lanes on the worker

  friend bool operator==(const HelloPayload&, const HelloPayload&) = default;
};

struct HelloAckPayload {
  std::uint64_t worker_id = 0;

  friend bool operator==(const HelloAckPayload&,
                         const HelloAckPayload&) = default;
};

/// A full campaign description: everything a process needs to reconstruct
/// the campaign-wide state bit for bit (the ExecPlan is recompiled locally
/// — compile_execution_plan is deterministic — rather than shipped, since
/// it is a pure function of the netlist).
struct CampaignPayload {
  hls::Dfg graph;
  hls::Netlist netlist;
  hls::NetlistCampaignOptions options;
};

/// daemon -> worker: campaign-wide setup, sent once per campaign per
/// worker before any of its shards.
struct CampaignSetupPayload {
  std::uint64_t campaign_id = 0;
  CampaignPayload campaign;
};

/// daemon -> worker: one fault-universe slice. Carries the explicit job
/// list in addition to [base, base+jobs.size()) so the worker can
/// cross-check it against its own enumeration — a daemon/worker that
/// disagree on the universe must fail loudly, not return silently wrong
/// slots.
struct ShardRequestPayload {
  std::uint64_t campaign_id = 0;
  std::uint64_t shard_id = 0;
  std::uint64_t base = 0;  ///< global index of the slice's first job
  std::vector<hls::FaultJob> jobs;
};

/// worker -> daemon: the per-job stats of one executed slice, plus timing
/// telemetry for ShardStats.
struct ShardResultPayload {
  std::uint64_t campaign_id = 0;
  std::uint64_t shard_id = 0;
  std::uint64_t base = 0;
  std::vector<fault::CampaignStats> per_job;
  double seconds = 0;  ///< worker-side wall time executing the slice
};

/// Per-worker scheduler telemetry (satellite: per-shard timing).
struct WorkerShardStats {
  std::string worker;
  std::int32_t lanes = 0;      ///< the width the worker resolved
  std::uint64_t shards = 0;    ///< shard results merged from this worker
  std::uint64_t samples = 0;   ///< job-samples those shards carried
  double seconds = 0;          ///< worker-reported busy seconds
  bool lost = false;           ///< died or timed out mid-campaign

  friend bool operator==(const WorkerShardStats&,
                         const WorkerShardStats&) = default;
};

/// Scheduler telemetry of one distributed campaign. By construction none
/// of it can influence a result bit — it rides NEXT TO the
/// NetlistCampaignResult (like the store's CacheStats) and is excluded
/// from identity diffs.
struct ShardStats {
  std::uint64_t shards_total = 0;
  std::uint64_t shards_executed = 0;  ///< shard results merged (= total)
  std::uint64_t shards_requeued = 0;  ///< re-runs caused by lost workers
  std::uint64_t shards_journaled = 0;  ///< results committed to the WAL
  std::uint64_t shards_resumed = 0;  ///< recovered from a pre-crash journal
  std::uint64_t workers = 0;          ///< workers that merged >= 1 shard
  std::uint64_t workers_lost = 0;
  std::uint64_t workers_quarantined = 0;  ///< probation strikes exhausted
  bool served_from_cache = false;  ///< CampaignStore hit: no shards ran
  double seconds = 0;              ///< daemon wall time, request -> reduce
  double samples_per_sec = 0;      ///< job-samples / seconds
  std::vector<WorkerShardStats> per_worker;

  friend bool operator==(const ShardStats&, const ShardStats&) = default;
};

/// daemon -> worker: the campaign is finished. Sent after the campaign's
/// last shard request on every connection that received its setup, so
/// the worker can free the campaign's runner.
struct CampaignDonePayload {
  std::uint64_t campaign_id = 0;

  friend bool operator==(const CampaignDonePayload&,
                         const CampaignDonePayload&) = default;
};

/// daemon -> client: the reduced result (byte-identical to single-host)
/// plus scheduler telemetry, or ok=false with a reason.
struct CampaignResponsePayload {
  std::uint64_t campaign_id = 0;
  bool ok = false;
  std::string error;
  hls::NetlistCampaignResult result;
  ShardStats stats;
};

[[nodiscard]] std::vector<unsigned char> encode_hello(const HelloPayload& p);
[[nodiscard]] std::optional<HelloPayload> decode_hello(
    std::span<const unsigned char> payload);

[[nodiscard]] std::vector<unsigned char> encode_hello_ack(
    const HelloAckPayload& p);
[[nodiscard]] std::optional<HelloAckPayload> decode_hello_ack(
    std::span<const unsigned char> payload);

/// Campaign request payloads reuse the setup codec with campaign_id 0.
[[nodiscard]] std::vector<unsigned char> encode_campaign_setup(
    const CampaignSetupPayload& p);
[[nodiscard]] std::optional<CampaignSetupPayload> decode_campaign_setup(
    std::span<const unsigned char> payload);

[[nodiscard]] std::vector<unsigned char> encode_shard_request(
    const ShardRequestPayload& p);
[[nodiscard]] std::optional<ShardRequestPayload> decode_shard_request(
    std::span<const unsigned char> payload);

[[nodiscard]] std::vector<unsigned char> encode_shard_result(
    const ShardResultPayload& p);
[[nodiscard]] std::optional<ShardResultPayload> decode_shard_result(
    std::span<const unsigned char> payload);

[[nodiscard]] std::vector<unsigned char> encode_campaign_response(
    const CampaignResponsePayload& p);
[[nodiscard]] std::optional<CampaignResponsePayload> decode_campaign_response(
    std::span<const unsigned char> payload);

[[nodiscard]] std::vector<unsigned char> encode_campaign_done(
    const CampaignDonePayload& p);
[[nodiscard]] std::optional<CampaignDonePayload> decode_campaign_done(
    std::span<const unsigned char> payload);

[[nodiscard]] std::vector<unsigned char> encode_error(const std::string& msg);
[[nodiscard]] std::optional<std::string> decode_error(
    std::span<const unsigned char> payload);

}  // namespace sck::service
