// Adversarial wire-codec suite for the campaign service, mirroring the
// store's integrity discipline (tests/test_store.cpp): every payload codec
// round-trips bit-exactly, and a frame with ANY single byte flipped or
// missing is rejected — never crashes, never deserializes garbage. The
// framing layer additionally rejects version mismatches (even when
// re-checksummed by an adversary) and oversized length prefixes without
// buffering a payload.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "hls/builder.h"
#include "hls/netlist_campaign.h"
#include "netlist_test_util.h"
#include "service/wire.h"
#include "store/journal.h"
#include "store/store.h"

namespace sck::service {
namespace {

// ---- fixtures --------------------------------------------------------------

/// Small synthesized design (class-based CED FIR at width 4): real Dfg +
/// Netlist shapes for the campaign codec, kept small so the adversarial
/// sweeps stay cheap under the sanitizers.
struct WireDesign {
  hls::Dfg graph;
  hls::Netlist netlist;

  WireDesign() {
    graph = hls::ced(hls::build_fir(hls::FirSpec{{1, 2, 3}, 4}),
                     hls::CedStyle::kClassBased);
    netlist = hls::synthesize(graph, hls::ResourceConstraints::min_area(),
                              "wire_fixture");
  }
};

[[nodiscard]] HelloPayload sample_hello() {
  HelloPayload h;
  h.worker_name = "worker-7";
  h.native_lanes = 256;
  return h;
}

[[nodiscard]] ShardResultPayload sample_shard_result() {
  ShardResultPayload r;
  r.campaign_id = 3;
  r.shard_id = 11;
  r.base = 1024;
  r.per_job = {{1, 2, 3, 4}, {0, 0, 6, 0}, {9, 8, 7, 6}};
  r.seconds = 0.125;
  return r;
}

[[nodiscard]] CampaignResponsePayload sample_response() {
  CampaignResponsePayload p;
  p.campaign_id = 9;
  p.ok = true;
  p.result.fault_universe_size = 96;
  p.result.aggregate = {10, 20, 30, 36};
  hls::UnitCoverage u;
  u.fu_index = 2;
  u.fu_name = "mul0 (shared)";
  u.faults = 96;
  u.stats = {10, 20, 30, 36};
  p.result.per_unit = {u};
  p.stats.shards_total = 4;
  p.stats.shards_executed = 5;
  p.stats.shards_requeued = 1;
  p.stats.shards_journaled = 5;
  p.stats.shards_resumed = 2;
  p.stats.workers = 2;
  p.stats.workers_lost = 1;
  p.stats.workers_quarantined = 1;
  p.stats.seconds = 1.5;
  p.stats.samples_per_sec = 2048.0;
  p.stats.per_worker = {{"w0", 512, 3, 3000, 0.7, false},
                        {"w1", 64, 2, 2000, 0.8, true}};
  return p;
}

/// The wire checksum (same FNV-1a discipline as the store): used to craft
/// adversarial frames that pass the checksum but violate the header.
[[nodiscard]] std::uint64_t fnv1a(const unsigned char* data, std::size_t n) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

void put_u32_at(std::vector<unsigned char>& bytes, std::size_t at,
                std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    bytes[at + static_cast<std::size_t>(i)] =
        static_cast<unsigned char>(v >> (8 * i));
  }
}

void put_u64_at(std::vector<unsigned char>& bytes, std::size_t at,
                std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    bytes[at + static_cast<std::size_t>(i)] =
        static_cast<unsigned char>(v >> (8 * i));
  }
}

/// Recompute the trailing checksum after tampering with header/payload —
/// the adversary who controls the bytes controls the checksum too, so
/// structural validation must not hide behind it.
void reseal(std::vector<unsigned char>& frame) {
  const std::size_t body = frame.size() - kFrameChecksumBytes;
  put_u64_at(frame, body, fnv1a(frame.data(), body));
}

// ---- payload roundtrips ----------------------------------------------------

TEST(WireCodec, HelloRoundtrip) {
  const HelloPayload h = sample_hello();
  const std::optional<HelloPayload> got = decode_hello(encode_hello(h));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, h);
}

TEST(WireCodec, HelloAckRoundtrip) {
  const HelloAckPayload a{42};
  const std::optional<HelloAckPayload> got =
      decode_hello_ack(encode_hello_ack(a));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, a);
}

TEST(WireCodec, CampaignDoneRoundtrip) {
  const CampaignDonePayload d{0x0123'4567'89AB'CDEFULL};
  const std::vector<unsigned char> payload = encode_campaign_done(d);
  EXPECT_EQ(payload.size(), 8u);
  const std::optional<CampaignDonePayload> got = decode_campaign_done(payload);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, d);
  const std::optional<Frame> frame =
      decode_frame(encode_frame(MsgType::kCampaignDone, payload));
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, MsgType::kCampaignDone);
  EXPECT_EQ(frame->payload, payload);
}

TEST(WireCodec, ShardResultRoundtrip) {
  const ShardResultPayload r = sample_shard_result();
  const std::optional<ShardResultPayload> got =
      decode_shard_result(encode_shard_result(r));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->campaign_id, r.campaign_id);
  EXPECT_EQ(got->shard_id, r.shard_id);
  EXPECT_EQ(got->base, r.base);
  EXPECT_EQ(got->per_job, r.per_job);
  EXPECT_EQ(got->seconds, r.seconds);
}

TEST(WireCodec, CampaignResponseRoundtrip) {
  const CampaignResponsePayload p = sample_response();
  const std::optional<CampaignResponsePayload> got =
      decode_campaign_response(encode_campaign_response(p));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->campaign_id, p.campaign_id);
  EXPECT_EQ(got->ok, p.ok);
  EXPECT_EQ(got->error, p.error);
  EXPECT_EQ(got->result, p.result);
  EXPECT_EQ(got->stats, p.stats);
}

TEST(WireCodec, ErrorRoundtrip) {
  const std::optional<std::string> got =
      decode_error(encode_error("worker went sideways"));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "worker went sideways");
}

// The campaign codec ships a real synthesized design. Semantic roundtrip:
// the decoded graph/netlist must drive the exact same campaign — same
// fault universe, byte-identical result — and re-encoding must reproduce
// the original bytes (a canonical encoding, so fingerprints of shipped
// campaigns are stable).
TEST(WireCodec, CampaignSetupSemanticRoundtrip) {
  const WireDesign design;
  CampaignSetupPayload setup;
  setup.campaign_id = 17;
  setup.campaign.graph = design.graph;
  setup.campaign.netlist = design.netlist;
  setup.campaign.options.samples_per_fault = 5;
  setup.campaign.options.backend = hls::NetlistBackend::kIncremental;

  const std::vector<unsigned char> bytes = encode_campaign_setup(setup);
  const std::optional<CampaignSetupPayload> got = decode_campaign_setup(bytes);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->campaign_id, 17u);
  EXPECT_EQ(encode_campaign_setup(*got), bytes);

  const std::vector<hls::FaultJob> jobs_orig =
      enumerate_fault_jobs(design.netlist, setup.campaign.options);
  const std::vector<hls::FaultJob> jobs_decoded =
      enumerate_fault_jobs(got->campaign.netlist, got->campaign.options);
  EXPECT_EQ(jobs_orig, jobs_decoded);

  const hls::NetlistCampaignResult want = run_netlist_campaign(
      design.graph, design.netlist, setup.campaign.options);
  const hls::NetlistCampaignResult have = run_netlist_campaign(
      got->campaign.graph, got->campaign.netlist, got->campaign.options);
  EXPECT_TRUE(hls::same_campaign_result(want, have));
}

TEST(WireCodec, DurationAndSeuOptionsRoundtrip) {
  // Protocol v3: the duration/SEU knobs ride the options codec verbatim.
  const WireDesign design;
  CampaignSetupPayload setup;
  setup.campaign_id = 18;
  setup.campaign.graph = design.graph;
  setup.campaign.netlist = design.netlist;
  setup.campaign.options.samples_per_fault = 5;
  setup.campaign.options.backend = hls::NetlistBackend::kIncremental;
  setup.campaign.options.duration = sck::fault::FaultDuration::kIntermittent;
  setup.campaign.options.transient_samples = 3;
  setup.campaign.options.duty_permille = 700;
  setup.campaign.options.seu_faults = true;

  const std::vector<unsigned char> bytes = encode_campaign_setup(setup);
  const std::optional<CampaignSetupPayload> got = decode_campaign_setup(bytes);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->campaign.options.duration,
            sck::fault::FaultDuration::kIntermittent);
  EXPECT_EQ(got->campaign.options.transient_samples, 3);
  EXPECT_EQ(got->campaign.options.duty_permille, 700u);
  EXPECT_TRUE(got->campaign.options.seu_faults);
  EXPECT_EQ(encode_campaign_setup(*got), bytes);
}

TEST(WireCodec, ShardRequestRoundtrip) {
  const WireDesign design;
  hls::NetlistCampaignOptions opt;
  opt.seu_faults = true;  // cover the kSeu job rows in the codec
  const std::vector<hls::FaultJob> jobs =
      enumerate_fault_jobs(design.netlist, opt);
  ASSERT_GE(jobs.size(), 8u);
  ShardRequestPayload req;
  req.campaign_id = 17;
  req.shard_id = 1;
  req.base = 4;
  req.jobs.assign(jobs.begin() + 4, jobs.begin() + 8);
  // Append the SEU tail so both job kinds roundtrip in one payload.
  ASSERT_EQ(jobs.back().kind, hls::FaultKind::kSeu);
  req.jobs.push_back(jobs.back());
  const std::optional<ShardRequestPayload> got =
      decode_shard_request(encode_shard_request(req));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->campaign_id, req.campaign_id);
  EXPECT_EQ(got->shard_id, req.shard_id);
  EXPECT_EQ(got->base, req.base);
  EXPECT_EQ(got->jobs, req.jobs);
}

// ---- pinned payload bytes --------------------------------------------------

/// Campaign setup with every option but the backend off its default
/// (fault dropping needs the default incremental backend), so a dropped or
/// reordered option field moves the pinned digest.
[[nodiscard]] CampaignSetupPayload sample_setup(const WireDesign& design) {
  CampaignSetupPayload setup;
  setup.campaign_id = 0x1234'5678'9ABCULL;
  setup.campaign.graph = design.graph;
  setup.campaign.netlist = design.netlist;
  hls::NetlistCampaignOptions& o = setup.campaign.options;
  o.samples_per_fault = 5;
  o.seed = 0xC0FFEE;
  o.fault_stride = 2;
  o.threads = 3;
  o.lanes = 128;
  o.backend = hls::NetlistBackend::kIncremental;
  o.fault_dropping = true;
  o.duration = sck::fault::FaultDuration::kTransient;
  o.transient_samples = 3;
  o.duty_permille = 700;
  o.seu_faults = true;
  return setup;
}

/// Stuck-at jobs and SEU jobs in one slice.
[[nodiscard]] ShardRequestPayload sample_shard_request() {
  ShardRequestPayload req;
  req.campaign_id = 17;
  req.shard_id = 5;
  req.base = 40;
  req.jobs = {
      {2, {7, 3, true}, hls::FaultKind::kStuckAt, -1},
      {0, {0, 0, false}, hls::FaultKind::kStuckAt, -1},
      {1, {}, hls::FaultKind::kSeu, 0},
      {4, {}, hls::FaultKind::kSeu, 11},
  };
  return req;
}

struct EncodedPayload {
  const char* name;
  std::vector<unsigned char> bytes;
  /// Decode, then encode again; nullopt when decoding fails.
  std::optional<std::vector<unsigned char>> (*recode)(
      std::span<const unsigned char>);
};

template <auto Decode, auto Encode>
[[nodiscard]] std::optional<std::vector<unsigned char>> recode(
    std::span<const unsigned char> bytes) {
  const auto value = Decode(bytes);
  if (!value.has_value()) return std::nullopt;
  return Encode(*value);
}

/// One fixed instance of every payload type.
[[nodiscard]] std::vector<EncodedPayload> sample_payloads(
    const WireDesign& design) {
  return {
      {"hello", encode_hello(sample_hello()),
       recode<decode_hello, encode_hello>},
      {"hello_ack", encode_hello_ack({42}),
       recode<decode_hello_ack, encode_hello_ack>},
      {"campaign_setup", encode_campaign_setup(sample_setup(design)),
       recode<decode_campaign_setup, encode_campaign_setup>},
      {"shard_request", encode_shard_request(sample_shard_request()),
       recode<decode_shard_request, encode_shard_request>},
      {"shard_result", encode_shard_result(sample_shard_result()),
       recode<decode_shard_result, encode_shard_result>},
      {"campaign_response", encode_campaign_response(sample_response()),
       recode<decode_campaign_response, encode_campaign_response>},
      {"campaign_done", encode_campaign_done({0x0123'4567'89AB'CDEFULL}),
       recode<decode_campaign_done, encode_campaign_done>},
      {"error", encode_error("worker went sideways"),
       recode<decode_error, encode_error>},
  };
}

// kWireProtocolVersion promises that peers of one version agree on every
// payload byte: the digest of a fixed instance of each payload type pins
// its layout. A failure here means the layout changed — bump
// kWireProtocolVersion instead of re-pinning.
TEST(WirePayload, PinnedPayloadBytes) {
  struct Pin {
    const char* name;
    std::size_t size;
    std::uint64_t fnv;
  };
  const Pin pins[] = {
      {"hello", 24, 0x5D9D40A397413F3FULL},
      {"hello_ack", 8, 0xFF3ADD6B3789DAEFULL},
      {"campaign_setup", 4191, 0x31ED81C7A5C7666BULL},
      {"shard_request", 116, 0x77771DE9271DEB4EULL},
      {"shard_result", 136, 0x288B770FE5226ECDULL},
      {"campaign_response", 301, 0xC505AF85289254C6ULL},
      {"campaign_done", 8, 0x37EB3F3347761C55ULL},
      {"error", 28, 0x12A787C9A6F84C4AULL},
  };
  const WireDesign design;
  const std::vector<EncodedPayload> payloads = sample_payloads(design);
  ASSERT_EQ(payloads.size(), std::size(pins));
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    const std::vector<unsigned char>& bytes = payloads[i].bytes;
    EXPECT_STREQ(payloads[i].name, pins[i].name);
    EXPECT_EQ(bytes.size(), pins[i].size) << pins[i].name;
    EXPECT_EQ(fnv1a(bytes.data(), bytes.size()), pins[i].fnv)
        << pins[i].name;
  }
}

// ---- canonical decoding ----------------------------------------------------

/// Mutates every byte of `bytes` before its last `sealed` bytes three ways
/// (flip the low bit, flip the high bit, set to 0xFF), re-seals when
/// `sealed` is 8, and requires each mutant to be rejected or to re-encode
/// to exactly the mutated bytes: no two byte strings decode to one value.
void expect_canonical(const char* name, const std::vector<unsigned char>& bytes,
                      std::size_t sealed,
                      std::optional<std::vector<unsigned char>> (*recode)(
                          std::span<const unsigned char>)) {
  ASSERT_TRUE(recode(bytes) == bytes) << name << " does not round-trip";
  int reported = 0;
  for (std::size_t i = 0; i + sealed < bytes.size(); ++i) {
    for (const auto mutate :
         {+[](unsigned char b) { return static_cast<unsigned char>(b ^ 0x01); },
          +[](unsigned char b) { return static_cast<unsigned char>(b ^ 0x80); },
          +[](unsigned char) { return static_cast<unsigned char>(0xFF); }}) {
      std::vector<unsigned char> mutant = bytes;
      mutant[i] = mutate(mutant[i]);
      if (mutant == bytes) continue;
      if (sealed != 0) reseal(mutant);
      const auto again = recode(mutant);
      if (again.has_value() && *again != mutant && reported++ < 5) {
        ADD_FAILURE() << name << ": byte " << i << " set to "
                      << int{mutant[i]}
                      << " decodes but re-encodes differently";
      }
    }
  }
}

const store::Fingerprint kEntryKey{0x0123456789ABCDEFULL,
                                   0xFEDCBA9876543210ULL};

[[nodiscard]] std::optional<std::vector<unsigned char>> recode_entry(
    std::span<const unsigned char> bytes) {
  const auto value = store::deserialize_entry(
      kEntryKey, std::vector<unsigned char>(bytes.begin(), bytes.end()));
  if (!value.has_value()) return std::nullopt;
  return store::serialize_entry(kEntryKey, *value);
}

/// Per process, so concurrent runs of this suite do not share the file.
[[nodiscard]] std::filesystem::path journal_path() {
  return std::filesystem::path(::testing::TempDir()) /
         ("sck_wire_canonical." + std::to_string(::getpid()) + ".jrnl");
}

/// A journal record goes through recovery: written after a valid header,
/// it either recovers as one shard or is cut off as a torn tail.
[[nodiscard]] std::optional<std::vector<unsigned char>> recode_journal_record(
    std::span<const unsigned char> record) {
  constexpr std::uint64_t kJobs = 64;
  const std::filesystem::path path = journal_path();
  std::vector<unsigned char> file =
      store::serialize_journal_header(kEntryKey, kJobs);
  file.insert(file.end(), record.begin(), record.end());
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(file.data()),
              static_cast<std::streamsize>(file.size()));
  }
  const store::ShardJournal journal(path.string(), kEntryKey, kJobs);
  const std::vector<store::JournalShard>& shards = journal.recovery().shards;
  if (shards.size() != 1) return std::nullopt;
  return store::serialize_journal_record(shards[0].shard_id, shards[0].base,
                                         shards[0].per_job);
}

TEST(WirePayload, DecodingIsCanonical) {
  const WireDesign design;
  for (const EncodedPayload& p : sample_payloads(design)) {
    expect_canonical(p.name, p.bytes, 0, p.recode);
  }
  hls::NetlistCampaignResult result = sample_response().result;
  result.per_unit.push_back({5, "seu r3", 12, {1, 0, 2, 9}});
  expect_canonical("store entry", store::serialize_entry(kEntryKey, result), 8,
                   recode_entry);
  expect_canonical(
      "journal record",
      store::serialize_journal_record(
          3, 20, std::vector<fault::CampaignStats>{{1, 2, 3, 4}, {5, 6, 7, 8}}),
      8, recode_journal_record);
  std::filesystem::remove(journal_path());
}

// ---- frame layer -----------------------------------------------------------

TEST(WireFrame, Roundtrip) {
  const std::vector<unsigned char> payload = encode_hello(sample_hello());
  const std::vector<unsigned char> frame =
      encode_frame(MsgType::kHello, payload);
  EXPECT_EQ(frame.size(),
            kFrameHeaderBytes + payload.size() + kFrameChecksumBytes);
  const std::optional<Frame> got = decode_frame(frame);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->type, MsgType::kHello);
  EXPECT_EQ(got->payload, payload);
}

TEST(WireFrame, EmptyPayloadRoundtrip) {
  const std::optional<Frame> got =
      decode_frame(encode_frame(MsgType::kHeartbeat, {}));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->type, MsgType::kHeartbeat);
  EXPECT_TRUE(got->payload.empty());
}

// THE integrity contract: every single-byte flip of a frame — header,
// payload, or checksum — is rejected. All eight single-bit flips at every
// position, so a flip that keeps the byte's low bits intact can't slip
// through either.
TEST(WireFrame, EverySingleByteFlipRejected) {
  const std::vector<unsigned char> frame =
      encode_frame(MsgType::kShardResult,
                   encode_shard_result(sample_shard_result()));
  for (std::size_t i = 0; i < frame.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<unsigned char> tampered = frame;
      tampered[i] ^= static_cast<unsigned char>(1u << bit);
      EXPECT_FALSE(decode_frame(tampered).has_value())
          << "flip survived at byte " << i << " bit " << bit;
    }
  }
}

// ...and every truncation (any missing suffix), including the empty
// buffer. Also rejects one EXTRA byte: decode_frame is whole-buffer
// strict, trailing garbage is not silently ignored.
TEST(WireFrame, EveryTruncationRejected) {
  const std::vector<unsigned char> frame =
      encode_frame(MsgType::kShardResult,
                   encode_shard_result(sample_shard_result()));
  for (std::size_t n = 0; n < frame.size(); ++n) {
    EXPECT_FALSE(
        decode_frame({frame.data(), n}).has_value())
        << "truncation to " << n << " bytes deserialized";
  }
  std::vector<unsigned char> extended = frame;
  extended.push_back(0);
  EXPECT_FALSE(decode_frame(extended).has_value());
}

// A version-mismatched frame is rejected even when the adversary reseals
// the checksum — structural validation, not just integrity.
TEST(WireFrame, ResealedVersionMismatchRejected) {
  std::vector<unsigned char> frame =
      encode_frame(MsgType::kHello, encode_hello(sample_hello()));
  put_u32_at(frame, 8, kWireProtocolVersion + 1);
  reseal(frame);
  EXPECT_FALSE(decode_frame(frame).has_value());

  FrameBuffer buffer;
  buffer.feed(frame.data(), frame.size());
  EXPECT_FALSE(buffer.next().has_value());
  EXPECT_TRUE(buffer.error());
}

TEST(WireFrame, ResealedBadMagicAndTypeRejected) {
  const std::vector<unsigned char> frame =
      encode_frame(MsgType::kHello, encode_hello(sample_hello()));
  {
    std::vector<unsigned char> bad = frame;
    put_u64_at(bad, 0, 0x45524F54534B4353ULL);  // the STORE magic, resealed
    reseal(bad);
    EXPECT_FALSE(decode_frame(bad).has_value());
  }
  {
    std::vector<unsigned char> bad = frame;
    put_u32_at(bad, 12,  // type out of range
               static_cast<std::uint32_t>(enum_last(MsgType{})) + 1);
    reseal(bad);
    EXPECT_FALSE(decode_frame(bad).has_value());
  }
  {
    std::vector<unsigned char> bad = frame;
    put_u32_at(bad, 12, 0);  // type 0 is reserved / invalid
    reseal(bad);
    EXPECT_FALSE(decode_frame(bad).has_value());
  }
}

// An oversized length prefix is rejected from the fixed header alone —
// before any payload is buffered, so a hostile 16-exabyte length costs
// 24 bytes of memory, not an allocation.
TEST(WireFrame, OversizedLengthPrefixRejectedWithoutBuffering) {
  std::vector<unsigned char> header(kFrameHeaderBytes, 0);
  put_u64_at(header, 0, kWireMagic);
  put_u32_at(header, 8, kWireProtocolVersion);
  put_u32_at(header, 12, static_cast<std::uint32_t>(MsgType::kHello));
  put_u64_at(header, 16, kMaxFramePayload + 1);

  FrameBuffer buffer;
  buffer.feed(header.data(), header.size());
  EXPECT_FALSE(buffer.next().has_value());
  EXPECT_TRUE(buffer.error());
  EXPECT_LE(buffer.buffered(), kFrameHeaderBytes);

  // Whole-buffer decode rejects it too (resealed, so the checksum is not
  // what saves us).
  std::vector<unsigned char> frame = header;
  frame.resize(header.size() + kFrameChecksumBytes);
  reseal(frame);
  EXPECT_FALSE(decode_frame(frame).has_value());
}

// ---- FrameBuffer streaming -------------------------------------------------

TEST(FrameBuffer, ByteAtATimeThenTwoConcatenatedFrames) {
  const std::vector<unsigned char> first =
      encode_frame(MsgType::kHello, encode_hello(sample_hello()));
  const std::vector<unsigned char> second =
      encode_frame(MsgType::kHeartbeat, {});

  FrameBuffer buffer;
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_FALSE(buffer.next().has_value());
    buffer.feed(&first[i], 1);
  }
  const std::optional<Frame> one = buffer.next();
  ASSERT_TRUE(one.has_value());
  EXPECT_EQ(one->type, MsgType::kHello);
  EXPECT_EQ(buffer.buffered(), 0u);

  // Both frames in one feed: two next() calls, then dry.
  std::vector<unsigned char> both = first;
  both.insert(both.end(), second.begin(), second.end());
  buffer.feed(both.data(), both.size());
  const std::optional<Frame> a = buffer.next();
  const std::optional<Frame> b = buffer.next();
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->type, MsgType::kHello);
  EXPECT_EQ(b->type, MsgType::kHeartbeat);
  EXPECT_FALSE(buffer.next().has_value());
  EXPECT_FALSE(buffer.error());
}

TEST(FrameBuffer, GarbageMagicPoisonsTheStream) {
  FrameBuffer buffer;
  const std::string garbage = "GET / HTTP/1.1\r\nHost: not-a-campaign\r\n";
  buffer.feed(reinterpret_cast<const unsigned char*>(garbage.data()),
              garbage.size());
  EXPECT_FALSE(buffer.next().has_value());
  EXPECT_TRUE(buffer.error());

  // Poisoned means poisoned: a valid frame fed afterwards is NOT parsed —
  // a desynchronized transport cannot resync mid-stream.
  const std::vector<unsigned char> good =
      encode_frame(MsgType::kHeartbeat, {});
  buffer.feed(good.data(), good.size());
  EXPECT_FALSE(buffer.next().has_value());
  EXPECT_TRUE(buffer.error());
}

// Payload decoders are bounds-checked independently of the frame checksum
// (defense in depth: they must hold even for a payload handed to them
// directly). Truncate every payload length of a structured payload.
TEST(WirePayload, TruncatedPayloadsRejected) {
  const std::vector<unsigned char> payload =
      encode_shard_result(sample_shard_result());
  for (std::size_t n = 0; n < payload.size(); ++n) {
    EXPECT_FALSE(
        decode_shard_result({payload.data(), n}).has_value())
        << "truncated payload of " << n << " bytes deserialized";
  }
  const std::vector<unsigned char> hello = encode_hello(sample_hello());
  for (std::size_t n = 0; n < hello.size(); ++n) {
    EXPECT_FALSE(decode_hello({hello.data(), n}).has_value());
  }
}

TEST(WirePayload, CampaignDoneTruncatedOrExtendedRejected) {
  std::vector<unsigned char> payload = encode_campaign_done({7});
  for (std::size_t n = 0; n < payload.size(); ++n) {
    EXPECT_FALSE(decode_campaign_done({payload.data(), n}).has_value())
        << "truncated payload of " << n << " bytes deserialized";
  }
  payload.push_back(0);
  EXPECT_FALSE(decode_campaign_done(payload).has_value());
}

// A hostile count prefix inside a payload (e.g. "4 billion per-job stats
// follow") must fail fast on the remaining-bytes cap, not allocate.
TEST(WirePayload, HostileElementCountRejected) {
  std::vector<unsigned char> payload =
      encode_shard_result(sample_shard_result());
  // Layout: campaign_id u64 | shard_id u64 | base u64 | count u64 | ...
  put_u64_at(payload, 24, 0xFFFFFFFFFFFFULL);
  EXPECT_FALSE(decode_shard_result(payload).has_value());
}

// ---- options validation ----------------------------------------------------

// hls::validate is the one options rule set: the wire decoder rejects what
// it rejects and the engine dies on what it rejects. Each `broken` row
// breaks exactly one rule; each `edge` row sits on a valid boundary and
// must pass all three gates.
using Edit = void (*)(hls::NetlistCampaignOptions&);
using hls::NetlistBackend;
using sck::fault::FaultDuration;

const std::vector<std::pair<const char*, Edit>> kBrokenOptions = {
    {"samples 0", [](auto& o) { o.samples_per_fault = 0; }},
    {"samples 2^24+1", [](auto& o) { o.samples_per_fault = (1 << 24) + 1; }},
    {"stride 0", [](auto& o) { o.fault_stride = 0; }},
    {"threads -1", [](auto& o) { o.threads = -1; }},
    {"threads 2^16+1", [](auto& o) { o.threads = (1 << 16) + 1; }},
    {"lanes -64", [](auto& o) { o.lanes = -64; }},
    {"lanes 32", [](auto& o) { o.lanes = 32; }},
    {"lanes 1024", [](auto& o) { o.lanes = 1024; }},
    {"backend 3", [](auto& o) { o.backend = static_cast<NetlistBackend>(3); }},
    {"duration 3",
     [](auto& o) { o.duration = static_cast<FaultDuration>(3); }},
    {"dropping batched", [](auto& o) { o.fault_dropping = true; }},
    {"transient_samples 0", [](auto& o) { o.transient_samples = 0; }},
    {"duty 1001", [](auto& o) { o.duty_permille = 1001; }},
};

const std::vector<std::pair<const char*, Edit>> kEdgeOptions = {
    {"samples 1", [](auto& o) { o.samples_per_fault = 1; }},
    {"samples 2^24", [](auto& o) { o.samples_per_fault = 1 << 24; }},
    {"stride 1", [](auto& o) { o.fault_stride = 1; }},
    {"threads 0", [](auto& o) { o.threads = 0; }},
    {"threads 2^16", [](auto& o) { o.threads = 1 << 16; }},
    {"lanes 0", [](auto& o) { o.lanes = 0; }},
    {"lanes 64", [](auto& o) { o.lanes = 64; }},
    {"lanes 128", [](auto& o) { o.lanes = 128; }},
    {"lanes 256", [](auto& o) { o.lanes = 256; }},
    {"lanes 512", [](auto& o) { o.lanes = 512; }},
    {"scalar", [](auto& o) { o.backend = NetlistBackend::kScalar; }},
    {"incremental dropping",
     [](auto& o) {
       o.backend = NetlistBackend::kIncremental;
       o.fault_dropping = true;
     }},
    {"intermittent duty 0",
     [](auto& o) {
       o.duration = FaultDuration::kIntermittent;
       o.duty_permille = 0;
     }},
    {"intermittent duty 1000",
     [](auto& o) {
       o.duration = FaultDuration::kIntermittent;
       o.duty_permille = 1000;
     }},
    {"transient 1",
     [](auto& o) {
       o.duration = FaultDuration::kTransient;
       o.transient_samples = 1;
     }},
};

/// Small default options (samples 4, batched backend) with one row's edit
/// applied. The batched backend keeps the runner gate of the 2^24-sample
/// row to the reference table: no golden trace of every wire.
[[nodiscard]] hls::NetlistCampaignOptions with(Edit edit) {
  hls::NetlistCampaignOptions o;
  o.samples_per_fault = 4;
  o.backend = hls::NetlistBackend::kBatched;
  edit(o);
  return o;
}

[[nodiscard]] std::vector<unsigned char> setup_bytes(
    const WireDesign& design, const hls::NetlistCampaignOptions& options) {
  CampaignSetupPayload setup;
  setup.campaign.graph = design.graph;
  setup.campaign.netlist = design.netlist;
  setup.campaign.options = options;
  return encode_campaign_setup(setup);
}

TEST(OptionsValidation, EveryBrokenRuleIsRejectedByAllThreeGates) {
  const WireDesign design;
  for (const auto& [name, edit] : kBrokenOptions) {
    const hls::NetlistCampaignOptions o = with(edit);
    EXPECT_FALSE(hls::validate(o).empty()) << name;
    EXPECT_FALSE(decode_campaign_setup(setup_bytes(design, o)).has_value())
        << name;
    EXPECT_DEATH(
        {
          const hls::CampaignSliceRunner runner(design.graph, design.netlist,
                                                o);
        },
        "Precondition")
        << name;
  }
}

TEST(OptionsValidation, EveryValidBoundaryPassesAllThreeGates) {
  const WireDesign design;
  for (const auto& [name, edit] : kEdgeOptions) {
    const hls::NetlistCampaignOptions o = with(edit);
    EXPECT_EQ(hls::validate(o), "") << name;
    const std::vector<unsigned char> bytes = setup_bytes(design, o);
    const std::optional<CampaignSetupPayload> got =
        decode_campaign_setup(bytes);
    ASSERT_TRUE(got.has_value()) << name;
    EXPECT_EQ(encode_campaign_setup(*got), bytes) << name;
    const hls::CampaignSliceRunner runner(design.graph, design.netlist, o);
    EXPECT_EQ(runner.jobs().size(),
              enumerate_fault_jobs(design.netlist, o).size())
        << name;
  }
}

}  // namespace
}  // namespace sck::service
