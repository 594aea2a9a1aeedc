// Durable content-addressed campaign store: fingerprint stability, entry
// integrity checking, crash-/corruption-survival and the explorer-level
// differential gate (cached == fresh, byte for byte, even after an
// adversary bit-flips or truncates stored entries).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "codesign/explorer.h"
#include "codesign/kernel.h"
#include "hls/bind.h"
#include "hls/builder.h"
#include "hls/expand_sck.h"
#include "hls/netlist_campaign.h"
#include "hls/netlist_exec.h"
#include "hls/schedule.h"
#include "service/wire.h"
#include "store/fingerprint.h"
#include "store/journal.h"
#include "store/store.h"

namespace sck {
namespace {

namespace fs = std::filesystem;

// ---- shared fixtures -------------------------------------------------------

/// A small, fully deterministic synthesized design (FIR through the class-
/// based CED expansion at width 4). The plan is compiled in the
/// constructor so its netlist pointer stays valid: instances are created
/// in place and never moved.
struct SmallDesign {
  hls::Dfg graph;
  hls::Netlist netlist;
  hls::ExecPlan plan;

  explicit SmallDesign(std::vector<long long> coeffs = {1, 2, 3},
                       bool ced = true) {
    graph = hls::build_fir(hls::FirSpec{std::move(coeffs), 4});
    if (ced) {
      hls::CedOptions ced_opt;
      ced_opt.style = hls::CedStyle::kClassBased;
      graph = hls::insert_ced(graph, ced_opt);
    }
    const hls::ResourceConstraints rc = hls::ResourceConstraints::min_area();
    const hls::Schedule s = hls::schedule_list(graph, rc);
    const hls::Binding b = hls::bind(graph, s, rc);
    netlist = hls::generate_netlist(graph, s, b, "store_fixture");
    plan = hls::compile_execution_plan(netlist);
  }

  SmallDesign(const SmallDesign&) = delete;
  SmallDesign& operator=(const SmallDesign&) = delete;
};

[[nodiscard]] hls::NetlistCampaignOptions small_options() {
  hls::NetlistCampaignOptions opt;
  opt.samples_per_fault = 6;
  return opt;
}

/// Fresh per-test directory under the gtest temp root.
[[nodiscard]] std::string fresh_dir(const std::string& name) {
  const fs::path dir =
      fs::path(::testing::TempDir()) / ("sck_store_" + name);
  fs::remove_all(dir);
  return dir.string();
}

[[nodiscard]] hls::NetlistCampaignResult sample_result() {
  hls::NetlistCampaignResult r;
  r.fault_universe_size = 96;
  r.aggregate = {10, 20, 30, 36};
  hls::UnitCoverage u0;
  u0.fu_index = 0;
  u0.fu_name = "add0";
  u0.faults = 64;
  u0.stats = {4, 16, 20, 24};
  hls::UnitCoverage u1;
  u1.fu_index = 3;
  u1.fu_name = "mul1 (private)";
  u1.faults = 32;
  u1.stats = {6, 4, 10, 12};
  r.per_unit = {u0, u1};
  return r;
}

[[nodiscard]] std::vector<unsigned char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path,
                const std::vector<unsigned char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

[[nodiscard]] std::vector<std::string> entry_files(const std::string& dir) {
  std::vector<std::string> out;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    if (e.is_regular_file() && e.path().extension() == ".entry") {
      out.push_back(e.path().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

// ---- fingerprints ----------------------------------------------------------

// PINNED GOLDEN FINGERPRINTS. These values are the cache's address space:
// if campaign_fingerprint (or anything it hashes — graph/plan/universe
// enumeration, hasher constants, kFingerprintVersion) changes, every
// existing store entry must MISS, not alias. A failure here means you
// changed the fingerprint inputs: if that was intentional, bump
// kFingerprintVersion in store/fingerprint.h and re-pin these strings
// from the test output; if not, you were about to silently poison every
// persistent cache in the field.
TEST(Fingerprint, PinnedGoldenValues) {
  const SmallDesign ced;
  const SmallDesign plain({1, 2, 3}, /*ced=*/false);
  const SmallDesign other_coeffs({2, -1, 5});

  EXPECT_EQ(to_string(store::campaign_fingerprint(ced.graph, ced.plan,
                                                  small_options())),
            "529f437401a78037fee5800f81758c14");
  EXPECT_EQ(to_string(store::campaign_fingerprint(plain.graph, plain.plan,
                                                  small_options())),
            "06f78c74a80f793839c743408f3c9883");
  EXPECT_EQ(to_string(store::campaign_fingerprint(
                other_coeffs.graph, other_coeffs.plan, small_options())),
            "961d57fd9a85418bb4e9c061cc19a626");
}

TEST(Fingerprint, SensitiveToResultShapingInputsOnly) {
  const SmallDesign d;
  const hls::NetlistCampaignOptions base = small_options();
  const store::Fingerprint fp0 =
      store::campaign_fingerprint(d.graph, d.plan, base);

  // Every result-shaping option must change the key...
  hls::NetlistCampaignOptions o = base;
  o.samples_per_fault = 7;
  EXPECT_FALSE(store::campaign_fingerprint(d.graph, d.plan, o) == fp0);
  o = base;
  o.seed = 0x2006;
  EXPECT_FALSE(store::campaign_fingerprint(d.graph, d.plan, o) == fp0);
  o = base;
  o.fault_stride = 2;
  EXPECT_FALSE(store::campaign_fingerprint(d.graph, d.plan, o) == fp0);
  o = base;
  o.fault_dropping = true;
  EXPECT_FALSE(store::campaign_fingerprint(d.graph, d.plan, o) == fp0);
  // The version-2 duration/SEU dimension shapes per-sample fault activity
  // and the job universe — every field must split the key.
  o = base;
  o.duration = fault::FaultDuration::kTransient;
  EXPECT_FALSE(store::campaign_fingerprint(d.graph, d.plan, o) == fp0);
  o = base;
  o.duration = fault::FaultDuration::kTransient;
  o.transient_samples = 3;
  EXPECT_FALSE(
      store::campaign_fingerprint(d.graph, d.plan, o) ==
      store::campaign_fingerprint(
          d.graph, d.plan,
          [&] {
            hls::NetlistCampaignOptions t = o;
            t.transient_samples = 2;
            return t;
          }()));
  o = base;
  o.duration = fault::FaultDuration::kIntermittent;
  o.duty_permille = 250;
  EXPECT_FALSE(store::campaign_fingerprint(d.graph, d.plan, o) == fp0);
  o = base;
  o.seu_faults = true;
  EXPECT_FALSE(store::campaign_fingerprint(d.graph, d.plan, o) == fp0);

  // ...and the proven-irrelevant knobs must NOT (the differential suites
  // hold results bit-identical across backends and thread counts, so
  // hashing them would only split the cache).
  o = base;
  o.backend = hls::NetlistBackend::kScalar;
  EXPECT_EQ(store::campaign_fingerprint(d.graph, d.plan, o), fp0);
  o = base;
  o.backend = hls::NetlistBackend::kIncremental;
  o.threads = 8;
  EXPECT_EQ(store::campaign_fingerprint(d.graph, d.plan, o), fp0);
  // Lane width is in the same class: the plane substrate is bit-identical
  // at every width, so a 64-lane producer must address the same slot as a
  // 512-lane consumer (ExplorerStore.WarmHitsAcrossLaneWidths proves the
  // served bytes match too).
  for (const int lanes : {64, 128, 256, 512}) {
    o = base;
    o.lanes = lanes;
    EXPECT_EQ(store::campaign_fingerprint(d.graph, d.plan, o), fp0)
        << "lanes=" << lanes;
  }

  // Deterministic across independent recomputation.
  EXPECT_EQ(store::campaign_fingerprint(d.graph, d.plan, base), fp0);
  // hex key shape: 32 lowercase hex chars.
  const std::string hex = to_string(fp0);
  EXPECT_EQ(hex.size(), 32u);
  EXPECT_EQ(hex.find_first_not_of("0123456789abcdef"), std::string::npos);
}

// The daemon keys the graph and netlist it DECODED from a request; the
// explorer keys the originals it synthesized. A store the two share must
// hit, so for every built-in kernel and variant the key of the wire
// round-trip must equal the key of the originals.
TEST(Fingerprint, WireDecodedCampaignKeysLikeTheOriginal) {
  const codesign::KernelRegistry reg = codesign::builtin_registry();
  codesign::Explorer explorer(reg, codesign::ExplorerOptions{});
  for (const std::string& kernel : reg.names()) {
    for (const codesign::Variant variant : codesign::kAllVariants) {
      const codesign::DesignPoint point{kernel, variant, true, 8};
      service::CampaignSetupPayload setup;
      setup.campaign.graph = explorer.reference_graph(point);
      setup.campaign.netlist = explorer.synthesize(point).netlist;
      setup.campaign.options = small_options();
      const std::optional<service::CampaignSetupPayload> got =
          service::decode_campaign_setup(service::encode_campaign_setup(setup));
      ASSERT_TRUE(got.has_value()) << codesign::to_string(point);

      const hls::ExecPlan want_plan =
          hls::compile_execution_plan(setup.campaign.netlist);
      const hls::ExecPlan got_plan =
          hls::compile_execution_plan(got->campaign.netlist);
      EXPECT_EQ(store::campaign_fingerprint(got->campaign.graph, got_plan,
                                            got->campaign.options),
                store::campaign_fingerprint(setup.campaign.graph, want_plan,
                                            setup.campaign.options))
          << codesign::to_string(point);
    }
  }
}

// ---- entry codec -----------------------------------------------------------

TEST(EntryCodec, RoundTrip) {
  const store::Fingerprint key{0x0123456789ABCDEFULL, 0xFEDCBA9876543210ULL};
  const hls::NetlistCampaignResult want = sample_result();
  const std::vector<unsigned char> bytes = store::serialize_entry(key, want);
  const auto got = store::deserialize_entry(key, bytes);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, want);

  // Empty per-unit vector round-trips too.
  hls::NetlistCampaignResult empty;
  const auto bytes2 = store::serialize_entry(key, empty);
  const auto got2 = store::deserialize_entry(key, bytes2);
  ASSERT_TRUE(got2.has_value());
  EXPECT_EQ(*got2, empty);
}

TEST(EntryCodec, EverySingleBitFlipIsRejected) {
  const store::Fingerprint key{0xAAAAAAAAAAAAAAAAULL, 0x5555555555555555ULL};
  const std::vector<unsigned char> bytes =
      store::serialize_entry(key, sample_result());
  for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<unsigned char> evil = bytes;
      evil[byte] ^= static_cast<unsigned char>(1u << bit);
      EXPECT_FALSE(store::deserialize_entry(key, evil).has_value())
          << "accepted a flipped bit " << bit << " of byte " << byte;
    }
  }
}

TEST(EntryCodec, EveryTruncationIsRejected) {
  const store::Fingerprint key{1, 2};
  const std::vector<unsigned char> bytes =
      store::serialize_entry(key, sample_result());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const std::vector<unsigned char> cut(bytes.begin(),
                                         bytes.begin() + static_cast<long>(len));
    EXPECT_FALSE(store::deserialize_entry(key, cut).has_value())
        << "accepted a truncation to " << len << " bytes";
  }
  // Trailing garbage is rejected too (length prefix + checksum coverage).
  std::vector<unsigned char> padded = bytes;
  padded.push_back(0);
  EXPECT_FALSE(store::deserialize_entry(key, padded).has_value());
}

TEST(EntryCodec, WrongKeyIsRejected) {
  // An entry renamed to another fingerprint's slot (or a hash collision)
  // must miss: the echoed key inside the entry is part of verification.
  const store::Fingerprint key{7, 8};
  const std::vector<unsigned char> bytes =
      store::serialize_entry(key, sample_result());
  EXPECT_TRUE(store::deserialize_entry(key, bytes).has_value());
  EXPECT_FALSE(store::deserialize_entry({7, 9}, bytes).has_value());
  EXPECT_FALSE(store::deserialize_entry({6, 8}, bytes).has_value());
}

/// The entry checksum, kept here independently of the library's codec.
[[nodiscard]] std::uint64_t fnv1a(const unsigned char* data, std::size_t n) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h = (h ^ data[i]) * 0x100000001B3ULL;
  }
  return h;
}

/// Re-checksum `bytes` in place (valid trailer over a tampered body) —
/// builds entries that are internally consistent but semantically stale,
/// e.g. a foreign format version.
void fix_checksum(std::vector<unsigned char>& bytes) {
  const std::uint64_t h = fnv1a(bytes.data(), bytes.size() - 8);
  for (int i = 0; i < 8; ++i) {
    bytes[bytes.size() - 8 + static_cast<std::size_t>(i)] =
        static_cast<unsigned char>(h >> (8 * i));
  }
}

TEST(EntryCodec, VersionMismatchRejectedEvenWithValidChecksum) {
  const store::Fingerprint key{11, 12};
  std::vector<unsigned char> bytes =
      store::serialize_entry(key, sample_result());
  // Format version lives at offset 8 (after the u64 magic), little-endian.
  bytes[8] = static_cast<unsigned char>(store::kStoreFormatVersion + 1);
  fix_checksum(bytes);
  EXPECT_FALSE(store::deserialize_entry(key, bytes).has_value());
}

// PINNED ENTRY BYTES. kStoreFormatVersion promises that every entry a
// previous build committed still loads: the digest of a fixed entry image
// pins the on-disk layout byte for byte, whatever codec produces it. A
// failure here means the entry format changed — bump kStoreFormatVersion
// instead of re-pinning.
TEST(EntryCodec, PinnedEntryBytes) {
  const store::Fingerprint key{0x0123456789ABCDEFULL, 0xFEDCBA9876543210ULL};
  const std::vector<unsigned char> bytes =
      store::serialize_entry(key, sample_result());
  EXPECT_EQ(bytes.size(), 226u);
  EXPECT_EQ(fnv1a(bytes.data(), bytes.size()), 0x9D2A51391CDE13AAULL);
}

// ---- store on disk ---------------------------------------------------------

TEST(CampaignStore, SaveLoadRoundTripOnDisk) {
  const std::string dir = fresh_dir("roundtrip");
  store::CampaignStore cache(dir);
  EXPECT_FALSE(cache.degraded());
  const store::Fingerprint key{21, 22};
  const hls::NetlistCampaignResult want = sample_result();

  EXPECT_FALSE(cache.load(key).has_value());  // cold: miss
  EXPECT_TRUE(cache.save(key, want));
  const auto got = cache.load(key);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, want);

  const store::CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.corrupt, 0u);
  EXPECT_EQ(s.write_failures, 0u);
  EXPECT_FALSE(s.degraded);

  // A second store over the same directory sees the committed entry.
  store::CampaignStore reopened(dir);
  const auto again = reopened.load(key);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(*again, want);
  // No temp files left behind.
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    EXPECT_TRUE(e.path().extension() == ".entry" || e.is_directory())
        << e.path();
  }
}

TEST(CampaignStore, CorruptEntryQuarantinedThenRecovered) {
  const std::string dir = fresh_dir("quarantine");
  store::CampaignStore cache(dir);
  const store::Fingerprint key{31, 32};
  const hls::NetlistCampaignResult want = sample_result();
  ASSERT_TRUE(cache.save(key, want));

  // Flip one payload bit on disk.
  std::vector<unsigned char> bytes = read_file(cache.entry_path(key));
  bytes[bytes.size() / 2] ^= 0x10;
  write_file(cache.entry_path(key), bytes);

  EXPECT_FALSE(cache.load(key).has_value());
  EXPECT_EQ(cache.stats().corrupt, 1u);
  // The bad entry is out of the addressable store, preserved as evidence.
  EXPECT_FALSE(fs::exists(cache.entry_path(key)));
  ASSERT_TRUE(fs::is_directory(dir + "/corrupt"));
  EXPECT_GE(std::distance(fs::directory_iterator(dir + "/corrupt"),
                          fs::directory_iterator{}),
            1);

  // Recompute-and-store heals the slot.
  EXPECT_TRUE(cache.save(key, want));
  const auto got = cache.load(key);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, want);
}

TEST(CampaignStore, TruncatedEntryQuarantined) {
  const std::string dir = fresh_dir("truncated");
  store::CampaignStore cache(dir);
  const store::Fingerprint key{41, 42};
  ASSERT_TRUE(cache.save(key, sample_result()));

  std::vector<unsigned char> bytes = read_file(cache.entry_path(key));
  bytes.resize(bytes.size() / 3);  // torn write survivor
  write_file(cache.entry_path(key), bytes);

  EXPECT_FALSE(cache.load(key).has_value());
  EXPECT_EQ(cache.stats().corrupt, 1u);
  EXPECT_FALSE(fs::exists(cache.entry_path(key)));

  // Zero-length entries (open+crash before any write) are handled too.
  write_file(cache.entry_path(key), {});
  EXPECT_FALSE(cache.load(key).has_value());
  EXPECT_EQ(cache.stats().corrupt, 2u);
}

TEST(CampaignStore, StaleFormatVersionQuarantined) {
  const std::string dir = fresh_dir("version");
  store::CampaignStore cache(dir);
  const store::Fingerprint key{51, 52};
  ASSERT_TRUE(cache.save(key, sample_result()));

  std::vector<unsigned char> bytes = read_file(cache.entry_path(key));
  bytes[8] = static_cast<unsigned char>(store::kStoreFormatVersion + 9);
  fix_checksum(bytes);  // internally consistent, wrong generation
  write_file(cache.entry_path(key), bytes);

  EXPECT_FALSE(cache.load(key).has_value());
  EXPECT_EQ(cache.stats().corrupt, 1u);
  EXPECT_FALSE(fs::exists(cache.entry_path(key)));
}

TEST(CampaignStore, UnusableDirectoryDegradesGracefully) {
  // store_dir collides with an existing regular FILE: the directory can
  // never be created, for root and non-root alike. The store must warn
  // and degrade, not abort.
  const std::string blocker = fresh_dir("blocker_parent");
  fs::create_directories(blocker);
  const std::string file_path = blocker + "/not_a_dir";
  write_file(file_path, {'x'});

  store::CampaignStore cache(file_path);
  EXPECT_TRUE(cache.degraded());
  const store::Fingerprint key{61, 62};
  EXPECT_FALSE(cache.load(key).has_value());
  EXPECT_FALSE(cache.save(key, sample_result()));
  EXPECT_EQ(cache.trim(0), 0u);
  const store::CacheStats s = cache.stats();
  EXPECT_TRUE(s.degraded);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 1u);
}

TEST(CampaignStore, TrimEvictsOldestEntriesFirst) {
  const std::string dir = fresh_dir("trim");
  store::CampaignStore cache(dir);
  const hls::NetlistCampaignResult value = sample_result();
  const store::Fingerprint oldest{71, 1};
  const store::Fingerprint middle{71, 2};
  const store::Fingerprint newest{71, 3};
  ASSERT_TRUE(cache.save(oldest, value));
  ASSERT_TRUE(cache.save(middle, value));
  ASSERT_TRUE(cache.save(newest, value));
  // Pin distinct mtimes explicitly (filesystem timestamp granularity).
  const auto now = fs::last_write_time(cache.entry_path(newest));
  fs::last_write_time(cache.entry_path(oldest), now - std::chrono::hours(2));
  fs::last_write_time(cache.entry_path(middle), now - std::chrono::hours(1));

  const std::uint64_t entry_size =
      static_cast<std::uint64_t>(store::serialize_entry(oldest, value).size());
  // Budget for exactly two entries: the oldest one must go.
  EXPECT_EQ(cache.trim(2 * entry_size), 1u);
  EXPECT_EQ(cache.stats().evicted, 1u);
  EXPECT_FALSE(fs::exists(cache.entry_path(oldest)));
  EXPECT_TRUE(fs::exists(cache.entry_path(middle)));
  EXPECT_TRUE(fs::exists(cache.entry_path(newest)));
  // Under budget: no-op.
  EXPECT_EQ(cache.trim(2 * entry_size), 0u);
}

// The regression the shard journal depends on: trim() must NEVER evict
// the journal (or entry) of a pinned fingerprint — an in-flight campaign
// whose WAL vanished under it would lose resumability mid-run. Pinned
// files are a lease, not a tenant: excluded from the budget AND from
// eviction until the last unpin.
TEST(CampaignStore, TrimSparesPinnedJournalsAndEntries) {
  const std::string dir = fresh_dir("trim_pin");
  store::CampaignStore cache(dir);
  const hls::NetlistCampaignResult value = sample_result();
  const store::Fingerprint inflight{72, 1};
  const store::Fingerprint victim{72, 2};
  ASSERT_TRUE(cache.save(inflight, value));
  ASSERT_TRUE(cache.save(victim, value));

  // An in-flight campaign: fingerprint pinned, journal being written.
  cache.pin(inflight);
  EXPECT_TRUE(cache.pinned(inflight));
  store::ShardJournal journal(cache.journal_path(inflight), inflight, 512);
  ASSERT_TRUE(journal.usable());
  const std::vector<fault::CampaignStats> per_job(512);
  ASSERT_TRUE(journal.append(0, 0, per_job));

  // Budget zero: every unpinned byte goes, every pinned byte stays.
  EXPECT_GE(cache.trim(0), 1u);
  EXPECT_TRUE(fs::exists(cache.entry_path(inflight)));
  EXPECT_TRUE(fs::exists(cache.journal_path(inflight)));
  EXPECT_FALSE(fs::exists(cache.entry_path(victim)));

  // Pins nest: two pins need two unpins (concurrent clients of one
  // campaign), and one unpin must not open the trapdoor.
  cache.pin(inflight);
  cache.unpin(inflight);
  EXPECT_TRUE(cache.pinned(inflight));
  EXPECT_EQ(cache.trim(0), 0u);
  EXPECT_TRUE(fs::exists(cache.journal_path(inflight)));

  // Last unpin: the lease ends, a stale journal is trimmable like any
  // other file.
  cache.unpin(inflight);
  EXPECT_FALSE(cache.pinned(inflight));
  EXPECT_GE(cache.trim(0), 1u);
  EXPECT_FALSE(fs::exists(cache.entry_path(inflight)));
  EXPECT_FALSE(fs::exists(cache.journal_path(inflight)));
}

TEST(CampaignStore, ConcurrentWritersOfOneKeyCommitAValidEntry) {
  const std::string dir = fresh_dir("race");
  store::CampaignStore cache(dir);
  const store::Fingerprint key{81, 82};
  const hls::NetlistCampaignResult want = sample_result();
  std::vector<std::thread> writers;
  std::atomic<int> ok{0};
  for (int i = 0; i < 8; ++i) {
    writers.emplace_back([&] {
      if (cache.save(key, want)) ok.fetch_add(1);
    });
  }
  for (std::thread& t : writers) t.join();
  // Every rename lands an identical, complete image; whoever wins, the
  // committed entry verifies.
  EXPECT_GT(ok.load(), 0);
  const auto got = cache.load(key);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, want);
  EXPECT_EQ(entry_files(dir).size(), 1u);
}

// ---- explorer integration: the differential gate ---------------------------

[[nodiscard]] codesign::KernelRegistry small_registry() {
  codesign::KernelRegistry reg;
  reg.add(codesign::make_fir_kernel({1, 2, 3}));
  reg.add(codesign::make_divmod_kernel());
  return reg;
}

[[nodiscard]] std::vector<codesign::DesignPoint> small_grid(
    const codesign::KernelRegistry& reg) {
  codesign::DesignGrid grid;
  grid.kernels = reg.names();
  grid.widths = {4};
  return grid.points();
}

[[nodiscard]] codesign::ExplorerOptions small_explorer_options(
    std::string store_dir) {
  codesign::ExplorerOptions opt;
  opt.campaign.samples_per_fault = 6;
  opt.campaign.fault_stride = 5;
  opt.store_dir = std::move(store_dir);
  return opt;
}

void expect_reports_identical(const codesign::ExplorationReport& got,
                              const codesign::ExplorationReport& want) {
  ASSERT_EQ(got.points.size(), want.points.size());
  for (std::size_t i = 0; i < got.points.size(); ++i) {
    EXPECT_EQ(got.points[i].point, want.points[i].point);
    EXPECT_EQ(got.points[i].hw.steps, want.points[i].hw.steps);
    EXPECT_EQ(got.points[i].hw.slices, want.points[i].hw.slices);
    EXPECT_TRUE(got.points[i].stats == want.points[i].stats)
        << codesign::to_string(got.points[i].point);
    EXPECT_EQ(got.points[i].faults, want.points[i].faults);
    EXPECT_EQ(got.points[i].on_frontier, want.points[i].on_frontier);
  }
  EXPECT_EQ(got.frontier, want.frontier);
  EXPECT_EQ(got.report_version, want.report_version);
}

TEST(ExplorerStore, WarmRunIsByteIdenticalToColdAndUncached) {
  const std::string dir = fresh_dir("explorer_warm");
  const codesign::KernelRegistry reg = small_registry();
  const std::vector<codesign::DesignPoint> grid = small_grid(reg);

  // Ground truth: no store at all.
  codesign::Explorer plain(reg, small_explorer_options(""));
  const codesign::ExplorationReport uncached = plain.run(grid);
  EXPECT_FALSE(uncached.store_enabled);

  codesign::Explorer cold(reg, small_explorer_options(dir));
  const codesign::ExplorationReport cold_report = cold.run(grid);
  EXPECT_TRUE(cold_report.store_enabled);
  EXPECT_EQ(cold_report.store_stats.hits +
                cold_report.store_stats.misses,
            grid.size());
  EXPECT_FALSE(cold_report.store_stats.degraded);

  codesign::Explorer warm(reg, small_explorer_options(dir));
  const codesign::ExplorationReport warm_report = warm.run(grid);
  EXPECT_EQ(warm_report.store_stats.hits, grid.size());
  EXPECT_EQ(warm_report.store_stats.misses, 0u);
  EXPECT_EQ(warm_report.store_stats.corrupt, 0u);

  expect_reports_identical(cold_report, uncached);
  expect_reports_identical(warm_report, uncached);
}

TEST(ExplorerStore, WarmHitsAcrossLaneWidths) {
  // A campaign cached by a 64-lane producer must be served — byte for
  // byte — to a 512-lane consumer, and vice versa: lane width is not part
  // of the fingerprint (see Fingerprint.SensitiveToResultShapingInputsOnly),
  // so a width mismatch between producer and consumer must be a HIT with
  // the identical result, never a split cache or a silently different one.
  const std::string dir = fresh_dir("explorer_lanes");
  const codesign::KernelRegistry reg = small_registry();
  const std::vector<codesign::DesignPoint> grid = small_grid(reg);

  codesign::ExplorerOptions narrow_opt = small_explorer_options(dir);
  narrow_opt.campaign.lanes = 64;
  codesign::Explorer narrow(reg, narrow_opt);
  const codesign::ExplorationReport cold_64 = narrow.run(grid);
  EXPECT_EQ(cold_64.store_stats.misses, grid.size());

  codesign::ExplorerOptions wide_opt = small_explorer_options(dir);
  wide_opt.campaign.lanes = 512;
  codesign::Explorer wide(reg, wide_opt);
  const codesign::ExplorationReport warm_512 = wide.run(grid);
  EXPECT_EQ(warm_512.store_stats.hits, grid.size());
  EXPECT_EQ(warm_512.store_stats.misses, 0u);
  expect_reports_identical(warm_512, cold_64);

  // And the cached bytes match what a 512-lane producer would have
  // written: recompute uncached at 512 lanes and compare.
  codesign::ExplorerOptions plain_opt = small_explorer_options("");
  plain_opt.campaign.lanes = 512;
  codesign::Explorer plain(reg, plain_opt);
  expect_reports_identical(warm_512, plain.run(grid));
}

TEST(ExplorerStore, BitFlippedAndTruncatedEntriesAreQuarantinedAndRecomputed) {
  const std::string dir = fresh_dir("explorer_adversary");
  const codesign::KernelRegistry reg = small_registry();
  const std::vector<codesign::DesignPoint> grid = small_grid(reg);

  codesign::Explorer cold(reg, small_explorer_options(dir));
  const codesign::ExplorationReport cold_report = cold.run(grid);

  // Adversary: bit-flip one committed entry, truncate another.
  const std::vector<std::string> entries = entry_files(dir);
  ASSERT_GE(entries.size(), 2u);
  {
    std::vector<unsigned char> bytes = read_file(entries.front());
    bytes[bytes.size() / 2] ^= 0x01;
    write_file(entries.front(), bytes);
  }
  {
    std::vector<unsigned char> bytes = read_file(entries.back());
    bytes.resize(bytes.size() - 5);
    write_file(entries.back(), bytes);
  }

  codesign::Explorer warm(reg, small_explorer_options(dir));
  const codesign::ExplorationReport warm_report = warm.run(grid);
  // Zero crashes, zero silently-wrong results: both tampered entries were
  // detected, quarantined and recomputed; everything else hit.
  EXPECT_EQ(warm_report.store_stats.corrupt, 2u);
  EXPECT_EQ(warm_report.store_stats.hits, grid.size() - 2);
  expect_reports_identical(warm_report, cold_report);

  // The quarantined evidence exists, and the healed entries verify: a
  // third run is all hits again.
  EXPECT_GE(std::distance(fs::directory_iterator(dir + "/corrupt"),
                          fs::directory_iterator{}),
            2);
  codesign::Explorer third(reg, small_explorer_options(dir));
  const codesign::ExplorationReport third_report = third.run(grid);
  EXPECT_EQ(third_report.store_stats.hits, grid.size());
  expect_reports_identical(third_report, cold_report);
}

TEST(ExplorerStore, UnusableStoreDirRunsUncachedWithIdenticalReport) {
  const std::string parent = fresh_dir("explorer_degraded");
  fs::create_directories(parent);
  const std::string file_path = parent + "/blocking_file";
  write_file(file_path, {'x'});

  const codesign::KernelRegistry reg = small_registry();
  const std::vector<codesign::DesignPoint> grid = small_grid(reg);
  codesign::Explorer plain(reg, small_explorer_options(""));
  const codesign::ExplorationReport uncached = plain.run(grid);

  codesign::Explorer degraded(reg, small_explorer_options(file_path));
  const codesign::ExplorationReport report = degraded.run(grid);
  EXPECT_TRUE(report.store_enabled);
  EXPECT_TRUE(report.store_stats.degraded);
  EXPECT_EQ(report.store_stats.hits, 0u);
  expect_reports_identical(report, uncached);
}

TEST(ExplorerStore, StoreBudgetTrimsAfterTheRun) {
  const std::string dir = fresh_dir("explorer_trim");
  const codesign::KernelRegistry reg = small_registry();
  const std::vector<codesign::DesignPoint> grid = small_grid(reg);

  codesign::ExplorerOptions opt = small_explorer_options(dir);
  opt.store_max_bytes = 1;  // nothing fits: everything is evicted post-run
  codesign::Explorer tiny(reg, opt);
  const codesign::ExplorationReport report = tiny.run(grid);
  EXPECT_GT(report.store_stats.evicted, 0u);
  EXPECT_TRUE(entry_files(dir).empty());

  // Eviction costs speed, never correctness: the next run recomputes.
  codesign::Explorer again(reg, small_explorer_options(dir));
  const codesign::ExplorationReport fresh = again.run(grid);
  EXPECT_EQ(fresh.store_stats.hits, 0u);
  expect_reports_identical(fresh, report);
}

}  // namespace
}  // namespace sck
