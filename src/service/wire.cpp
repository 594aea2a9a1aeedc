#include "service/wire.h"

#include "common/assert.h"
#include "common/codec.h"
#include "common/word.h"

namespace sck::service {

namespace {

using codec::Reader;
using codec::Writer;

// ---------------------------------------------------------------------------
// Campaign payload (graph + netlist + options) with the cross-structure
// invariants the campaign engine would otherwise abort on.

void put_campaign(Writer& w, const CampaignPayload& c) {
  codec::put_dfg(w, c.graph);
  codec::put_netlist(w, c.netlist);
  codec::put_options(w, c.options);
}

[[nodiscard]] bool get_campaign(Reader& r, CampaignPayload& c) {
  if (!codec::get_dfg(r, c.graph) || !codec::get_netlist(r, c.netlist) ||
      !codec::get_options(r, c.options)) {
    return false;
  }
  // CampaignSliceRunner's preconditions: netlist ports mirror the graph's.
  if (c.netlist.input_names.size() != c.graph.inputs().size()) return r.fail();
  if (c.netlist.outputs.size() != c.graph.outputs().size()) return r.fail();
  for (std::size_t i = 0; i < c.netlist.outputs.size(); ++i) {
    if (c.graph.node(c.graph.outputs()[i]).name != c.netlist.outputs[i].name) {
      return r.fail();
    }
  }
  return true;
}

void put_shard_stats(Writer& w, const ShardStats& s) {
  w.u64(s.shards_total);
  w.u64(s.shards_executed);
  w.u64(s.shards_requeued);
  w.u64(s.shards_journaled);
  w.u64(s.shards_resumed);
  w.u64(s.workers);
  w.u64(s.workers_lost);
  w.u64(s.workers_quarantined);
  w.boolean(s.served_from_cache);
  w.f64(s.seconds);
  w.f64(s.samples_per_sec);
  w.u64(s.per_worker.size());
  for (const WorkerShardStats& ws : s.per_worker) {
    w.str(ws.worker);
    w.i32(ws.lanes);
    w.u64(ws.shards);
    w.u64(ws.samples);
    w.f64(ws.seconds);
    w.boolean(ws.lost);
  }
}

[[nodiscard]] bool get_shard_stats(Reader& r, ShardStats& s) {
  std::uint64_t count = 0;
  if (!r.u64(s.shards_total) || !r.u64(s.shards_executed) ||
      !r.u64(s.shards_requeued) || !r.u64(s.shards_journaled) ||
      !r.u64(s.shards_resumed) || !r.u64(s.workers) ||
      !r.u64(s.workers_lost) || !r.u64(s.workers_quarantined) ||
      !r.boolean(s.served_from_cache) || !r.f64(s.seconds) ||
      !r.f64(s.samples_per_sec) || !r.count(count, 8 + 4 + 8 + 8 + 8 + 1)) {
    return false;
  }
  s.per_worker.resize(static_cast<std::size_t>(count));
  for (WorkerShardStats& w : s.per_worker) {
    if (!r.str(w.worker) || !r.i32(w.lanes) || !r.u64(w.shards) ||
        !r.u64(w.samples) || !r.f64(w.seconds) || !r.boolean(w.lost)) {
      return false;
    }
  }
  return true;
}

/// The fixed frame header, validated from its own bytes: what both the
/// whole-buffer decoder and the streaming FrameBuffer check before they
/// look at a payload. Empty on success, else why the header is bad.
[[nodiscard]] std::string check_header(std::span<const unsigned char> header,
                                       MsgType& type, std::uint64_t& length) {
  Reader r(header);
  std::uint64_t magic = 0;
  std::uint32_t version = 0;
  std::uint32_t type_raw = 0;
  if (!r.u64(magic) || !r.u32(version) || !r.u32(type_raw) || !r.u64(length)) {
    return "wire: truncated frame header";
  }
  if (magic != kWireMagic) {
    return "wire: bad frame magic (desynchronized stream?)";
  }
  if (version != kWireProtocolVersion) {
    return "wire: protocol version mismatch (got " + std::to_string(version) +
           ", want " + std::to_string(kWireProtocolVersion) + ")";
  }
  if (type_raw < 1 || type_raw > kMaxMsgType) {
    return "wire: unknown message type " + std::to_string(type_raw);
  }
  if (length > kMaxFramePayload) {
    return "wire: oversized payload length prefix (" + std::to_string(length) +
           " bytes)";
  }
  type = static_cast<MsgType>(type_raw);
  return {};
}

/// Runs `get` over the whole payload; nullopt unless it succeeds AND
/// consumes every byte (trailing garbage is rejected, not ignored).
template <class T, class Get>
[[nodiscard]] std::optional<T> decode_all(
    std::span<const unsigned char> payload, Get get) {
  Reader r(payload);
  T value{};
  if (!get(r, value) || !r.done()) return std::nullopt;
  return value;
}

}  // namespace

// ---------------------------------------------------------------------------
// Frame layer.

std::vector<unsigned char> encode_frame(MsgType type,
                                        std::span<const unsigned char> payload) {
  SCK_EXPECTS(payload.size() <= kMaxFramePayload);
  Writer w;
  w.reserve(kFrameHeaderBytes + payload.size() + kFrameChecksumBytes);
  w.u64(kWireMagic);
  w.u32(kWireProtocolVersion);
  w.enumeration(type);
  w.u64(payload.size());
  w.bytes(payload);
  w.seal();
  return std::move(w).take();
}

std::optional<Frame> decode_frame(std::span<const unsigned char> bytes) {
  // Seal FIRST: any flipped or missing byte fails here, before a single
  // field is interpreted.
  const auto body = codec::unseal(bytes);
  if (!body.has_value() || body->size() < kFrameHeaderBytes) {
    return std::nullopt;
  }
  Frame frame;
  std::uint64_t length = 0;
  if (!check_header(body->first(kFrameHeaderBytes), frame.type, length)
           .empty() ||
      length != body->size() - kFrameHeaderBytes) {
    return std::nullopt;
  }
  const auto payload = body->subspan(kFrameHeaderBytes);
  frame.payload.assign(payload.begin(), payload.end());
  return frame;
}

std::optional<Frame> FrameBuffer::next() {
  if (!error_.empty()) return std::nullopt;
  if (bytes_.size() < kFrameHeaderBytes) return std::nullopt;

  // Validate the fixed header as soon as it is complete: a bad magic,
  // foreign protocol version or oversized length prefix poisons the
  // stream BEFORE any payload is buffered or allocated.
  MsgType type = MsgType::kError;
  std::uint64_t length = 0;
  error_ = check_header({bytes_.data(), kFrameHeaderBytes}, type, length);
  if (!error_.empty()) return std::nullopt;

  const std::size_t total = kFrameHeaderBytes +
                            static_cast<std::size_t>(length) +
                            kFrameChecksumBytes;
  if (bytes_.size() < total) return std::nullopt;  // need more bytes

  std::optional<Frame> frame = decode_frame({bytes_.data(), total});
  if (!frame.has_value()) {
    error_ = "wire: frame checksum mismatch";
    return std::nullopt;
  }
  bytes_.erase(bytes_.begin(),
               bytes_.begin() + static_cast<std::ptrdiff_t>(total));
  return frame;
}

// ---------------------------------------------------------------------------
// Payload codecs.

std::vector<unsigned char> encode_hello(const HelloPayload& p) {
  Writer w;
  w.u32(p.protocol);
  w.str(p.worker_name);
  w.i32(p.native_lanes);
  return std::move(w).take();
}

std::optional<HelloPayload> decode_hello(
    std::span<const unsigned char> payload) {
  return decode_all<HelloPayload>(payload, [](Reader& r, HelloPayload& p) {
    return r.u32(p.protocol) && r.str(p.worker_name) &&
           r.i32(p.native_lanes);
  });
}

std::vector<unsigned char> encode_hello_ack(const HelloAckPayload& p) {
  Writer w;
  w.u64(p.worker_id);
  return std::move(w).take();
}

std::optional<HelloAckPayload> decode_hello_ack(
    std::span<const unsigned char> payload) {
  return decode_all<HelloAckPayload>(
      payload,
      [](Reader& r, HelloAckPayload& p) { return r.u64(p.worker_id); });
}

std::vector<unsigned char> encode_campaign_setup(
    const CampaignSetupPayload& p) {
  Writer w;
  w.u64(p.campaign_id);
  put_campaign(w, p.campaign);
  return std::move(w).take();
}

std::optional<CampaignSetupPayload> decode_campaign_setup(
    std::span<const unsigned char> payload) {
  return decode_all<CampaignSetupPayload>(
      payload, [](Reader& r, CampaignSetupPayload& p) {
        return r.u64(p.campaign_id) && get_campaign(r, p.campaign);
      });
}

std::vector<unsigned char> encode_shard_request(const ShardRequestPayload& p) {
  Writer w;
  w.u64(p.campaign_id);
  w.u64(p.shard_id);
  w.u64(p.base);
  w.u64(p.jobs.size());
  for (const hls::FaultJob& job : p.jobs) {
    w.i32(job.fu);
    w.i32(job.site.cell);
    w.u32(job.site.line);
    w.boolean(job.site.stuck_value);
    w.enumeration(job.kind);
    w.i32(job.seu_bit);
  }
  return std::move(w).take();
}

std::optional<ShardRequestPayload> decode_shard_request(
    std::span<const unsigned char> payload) {
  return decode_all<ShardRequestPayload>(
      payload, [](Reader& r, ShardRequestPayload& p) {
        std::uint64_t count = 0;
        if (!r.u64(p.campaign_id) || !r.u64(p.shard_id) || !r.u64(p.base) ||
            !r.count(count, 4 + 4 + 4 + 1 + 4 + 4)) {
          return false;
        }
        p.jobs.resize(static_cast<std::size_t>(count));
        for (hls::FaultJob& job : p.jobs) {
          std::uint32_t line = 0;
          if (!r.i32(job.fu) || !r.i32(job.site.cell) || !r.u32(line) ||
              !r.boolean(job.site.stuck_value) ||
              !r.enumeration(job.kind, hls::FaultKind::kSeu) ||
              !r.i32(job.seu_bit)) {
            return false;
          }
          if (job.fu < 0 || job.site.cell < hw::kNoFault || line > 255) {
            return r.fail();
          }
          job.site.line = static_cast<std::uint8_t>(line);
          // kSeu: fu names a register index and seu_bit a bit within
          // kMaxWidth; kStuckAt must keep the sentinel so job equality
          // round-trips.
          if (job.kind == hls::FaultKind::kSeu
                  ? job.seu_bit < 0 || job.seu_bit >= kMaxWidth
                  : job.seu_bit != -1) {
            return r.fail();
          }
        }
        return true;
      });
}

std::vector<unsigned char> encode_shard_result(const ShardResultPayload& p) {
  Writer w;
  w.u64(p.campaign_id);
  w.u64(p.shard_id);
  w.u64(p.base);
  w.u64(p.per_job.size());
  for (const fault::CampaignStats& s : p.per_job) codec::put_stats(w, s);
  w.f64(p.seconds);
  return std::move(w).take();
}

std::optional<ShardResultPayload> decode_shard_result(
    std::span<const unsigned char> payload) {
  return decode_all<ShardResultPayload>(
      payload, [](Reader& r, ShardResultPayload& p) {
        std::uint64_t count = 0;
        if (!r.u64(p.campaign_id) || !r.u64(p.shard_id) || !r.u64(p.base) ||
            !r.count(count, 32)) {
          return false;
        }
        p.per_job.resize(static_cast<std::size_t>(count));
        for (fault::CampaignStats& s : p.per_job) {
          if (!codec::get_stats(r, s)) return false;
        }
        return r.f64(p.seconds);
      });
}

std::vector<unsigned char> encode_campaign_response(
    const CampaignResponsePayload& p) {
  Writer w;
  w.u64(p.campaign_id);
  w.boolean(p.ok);
  w.str(p.error);
  codec::put_result(w, p.result);
  put_shard_stats(w, p.stats);
  return std::move(w).take();
}

std::optional<CampaignResponsePayload> decode_campaign_response(
    std::span<const unsigned char> payload) {
  return decode_all<CampaignResponsePayload>(
      payload, [](Reader& r, CampaignResponsePayload& p) {
        return r.u64(p.campaign_id) && r.boolean(p.ok) && r.str(p.error) &&
               codec::get_result(r, p.result) && get_shard_stats(r, p.stats);
      });
}

std::vector<unsigned char> encode_campaign_done(
    const CampaignDonePayload& p) {
  Writer w;
  w.u64(p.campaign_id);
  return std::move(w).take();
}

std::optional<CampaignDonePayload> decode_campaign_done(
    std::span<const unsigned char> payload) {
  return decode_all<CampaignDonePayload>(
      payload,
      [](Reader& r, CampaignDonePayload& p) { return r.u64(p.campaign_id); });
}

std::vector<unsigned char> encode_error(const std::string& msg) {
  Writer w;
  w.str(msg);
  return std::move(w).take();
}

std::optional<std::string> decode_error(
    std::span<const unsigned char> payload) {
  return decode_all<std::string>(
      payload, [](Reader& r, std::string& msg) { return r.str(msg); });
}

}  // namespace sck::service
