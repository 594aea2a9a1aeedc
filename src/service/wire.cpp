#include "service/wire.h"

#include <algorithm>

#include "common/assert.h"
#include "common/codec.h"

namespace sck::service {

using codec::Of;
using codec::Reader;
using codec::Writer;

// ---------------------------------------------------------------------------
// Payload traversals (common/codec.h), found by argument-dependent lookup.

template <class A, Of<HelloPayload> P>
bool io(A& a, P& p) {
  return a(p.protocol, p.worker_name, p.native_lanes);
}

template <class A, Of<HelloAckPayload> P>
bool io(A& a, P& p) {
  return a(p.worker_id);
}

namespace {

/// CampaignSliceRunner's preconditions: netlist ports mirror the graph's.
[[nodiscard]] bool ports_mirror_graph(const CampaignPayload& c) {
  return c.netlist.input_names.size() == c.graph.inputs().size() &&
         std::ranges::equal(
             c.graph.outputs(), c.netlist.outputs, {},
             [&](hls::NodeId id) -> const std::string& {
               return c.graph.node(id).name;
             },
             &hls::OutputPort::name);
}

}  // namespace

template <class A, Of<CampaignPayload> C>
bool io(A& a, C& c) {
  return a(c.graph, c.netlist, c.options) && a.check(ports_mirror_graph(c));
}

template <class A, Of<CampaignSetupPayload> P>
bool io(A& a, P& p) {
  return a(p.campaign_id, p.campaign);
}

template <class A, Of<ShardRequestPayload> P>
bool io(A& a, P& p) {
  return a(p.campaign_id, p.shard_id, p.base, p.jobs);
}

template <class A, Of<ShardResultPayload> P>
bool io(A& a, P& p) {
  return a(p.campaign_id, p.shard_id, p.base, p.per_job, p.seconds);
}

template <class A, Of<WorkerShardStats> S>
bool io(A& a, S& s) {
  return a(s.worker, s.lanes, s.shards, s.samples, s.seconds, s.lost);
}

template <class A, Of<ShardStats> S>
bool io(A& a, S& s) {
  return a(s.shards_total, s.shards_executed, s.shards_requeued,
           s.shards_journaled, s.shards_resumed, s.workers, s.workers_lost,
           s.workers_quarantined, s.served_from_cache, s.seconds,
           s.samples_per_sec, s.per_worker);
}

template <class A, Of<CampaignResponsePayload> P>
bool io(A& a, P& p) {
  return a(p.campaign_id, p.ok, p.error, p.result, p.stats);
}

template <class A, Of<CampaignDonePayload> P>
bool io(A& a, P& p) {
  return a(p.campaign_id);
}

namespace {

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
  if (type_raw < 1 ||
      type_raw > static_cast<std::uint32_t>(enum_last(MsgType{}))) {
    return "wire: unknown message type " + std::to_string(type_raw);
  }
  if (length > kMaxFramePayload) {
    return "wire: oversized payload length prefix (" + std::to_string(length) +
           " bytes)";
  }
  type = static_cast<MsgType>(type_raw);
  return {};
}

template <class T>
[[nodiscard]] std::vector<unsigned char> encode(const T& payload) {
  Writer w;
  w(payload);
  return std::move(w).take();
}

/// Decodes the whole payload; nullopt unless the traversal succeeds AND
/// consumes every byte (trailing garbage is rejected, not ignored).
template <class T>
[[nodiscard]] std::optional<T> decode(std::span<const unsigned char> payload) {
  Reader r(payload);
  T value{};
  if (!r(value) || !r.done()) return std::nullopt;
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
  return encode(p);
}
std::optional<HelloPayload> decode_hello(
    std::span<const unsigned char> payload) {
  return decode<HelloPayload>(payload);
}

std::vector<unsigned char> encode_hello_ack(const HelloAckPayload& p) {
  return encode(p);
}
std::optional<HelloAckPayload> decode_hello_ack(
    std::span<const unsigned char> payload) {
  return decode<HelloAckPayload>(payload);
}

std::vector<unsigned char> encode_campaign_setup(
    const CampaignSetupPayload& p) {
  return encode(p);
}
std::optional<CampaignSetupPayload> decode_campaign_setup(
    std::span<const unsigned char> payload) {
  return decode<CampaignSetupPayload>(payload);
}

std::vector<unsigned char> encode_shard_request(const ShardRequestPayload& p) {
  return encode(p);
}
std::optional<ShardRequestPayload> decode_shard_request(
    std::span<const unsigned char> payload) {
  return decode<ShardRequestPayload>(payload);
}

std::vector<unsigned char> encode_shard_result(const ShardResultPayload& p) {
  return encode(p);
}
std::optional<ShardResultPayload> decode_shard_result(
    std::span<const unsigned char> payload) {
  return decode<ShardResultPayload>(payload);
}

std::vector<unsigned char> encode_campaign_response(
    const CampaignResponsePayload& p) {
  return encode(p);
}
std::optional<CampaignResponsePayload> decode_campaign_response(
    std::span<const unsigned char> payload) {
  return decode<CampaignResponsePayload>(payload);
}

std::vector<unsigned char> encode_campaign_done(
    const CampaignDonePayload& p) {
  return encode(p);
}
std::optional<CampaignDonePayload> decode_campaign_done(
    std::span<const unsigned char> payload) {
  return decode<CampaignDonePayload>(payload);
}

std::vector<unsigned char> encode_error(const std::string& msg) {
  return encode(msg);
}
std::optional<std::string> decode_error(
    std::span<const unsigned char> payload) {
  return decode<std::string>(payload);
}

}  // namespace sck::service
