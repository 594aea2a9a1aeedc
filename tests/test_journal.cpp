// Adversarial recovery suite for the shard write-ahead journal: torn
// tails truncated at EVERY byte boundary, bit flips anywhere in the file,
// duplicate records, fingerprint/geometry mismatches — recovery must
// salvage exactly the valid record prefix and never trust anything after
// the first inconsistent byte.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "store/journal.h"

namespace sck::store {
namespace {

namespace fs = std::filesystem;

[[nodiscard]] fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

constexpr Fingerprint kKey{0x0123456789ABCDEFULL, 0xFEDCBA9876543210ULL};
constexpr std::uint64_t kJobs = 1536;  // three 512-job shards

/// Distinct, recognizable per-job stats for shard `id`.
[[nodiscard]] std::vector<fault::CampaignStats> stats_for(std::uint64_t id,
                                                          std::size_t count) {
  std::vector<fault::CampaignStats> out(count);
  for (std::size_t i = 0; i < count; ++i) {
    out[i].silent_correct = id * 1000 + i;
    out[i].detected_correct = id * 2000 + i;
    out[i].detected_erroneous = id * 3000 + i;
    out[i].masked = id * 4000 + i;
  }
  return out;
}

void write_file(const fs::path& p, const std::vector<unsigned char>& bytes) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

[[nodiscard]] std::vector<unsigned char> read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return std::vector<unsigned char>(std::istreambuf_iterator<char>(in),
                                    std::istreambuf_iterator<char>());
}

void append_bytes(std::vector<unsigned char>& out,
                  const std::vector<unsigned char>& more) {
  out.insert(out.end(), more.begin(), more.end());
}

/// Header + records for shards 0 and 1, byte-exact as the daemon would
/// have written them.
[[nodiscard]] std::vector<unsigned char> two_record_file() {
  std::vector<unsigned char> bytes = serialize_journal_header(kKey, kJobs);
  append_bytes(bytes, serialize_journal_record(0, 0, stats_for(0, 512)));
  append_bytes(bytes, serialize_journal_record(1, 512, stats_for(1, 512)));
  return bytes;
}

/// The journal checksum, kept here independently of the library's codec.
[[nodiscard]] std::uint64_t fnv1a(const std::vector<unsigned char>& bytes) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const unsigned char b : bytes) h = (h ^ b) * 0x100000001B3ULL;
  return h;
}

// ---- pinned bytes ----------------------------------------------------------

// kJournalFormatVersion promises that a journal written before a restart
// (possibly by an older build) still recovers: the digests of a fixed
// header and record pin the layout byte for byte. A failure here means
// the format changed — bump kJournalFormatVersion instead of re-pinning.
TEST(Journal, PinnedHeaderAndRecordBytes) {
  const std::vector<unsigned char> header =
      serialize_journal_header(kKey, kJobs);
  EXPECT_EQ(header.size(), 48u);
  EXPECT_EQ(fnv1a(header), 0xD75DB04BFDC3A060ULL);
  const std::vector<unsigned char> record =
      serialize_journal_record(2, 1024, stats_for(2, 3));
  EXPECT_EQ(record.size(), 136u);
  EXPECT_EQ(fnv1a(record), 0xFD0E8E39B4B407E0ULL);
}

// ---- the happy path --------------------------------------------------------

TEST(Journal, FreshJournalIsEmptyAndUsable) {
  const fs::path dir = fresh_dir("sck_journal_fresh");
  ShardJournal j((dir / "a.journal").string(), kKey, kJobs);
  EXPECT_TRUE(j.usable());
  EXPECT_TRUE(j.recovery().shards.empty());
  EXPECT_FALSE(j.recovery().reset);
  EXPECT_EQ(j.recovery().truncated_bytes, 0u);
  EXPECT_EQ(j.recovery().duplicates, 0u);
}

// An empty FILE (created, crashed before the header landed) is also a
// clean slate, not an error.
TEST(Journal, EmptyFileRecoversAsEmpty) {
  const fs::path dir = fresh_dir("sck_journal_empty");
  const fs::path p = dir / "a.journal";
  write_file(p, {});
  ShardJournal j(p.string(), kKey, kJobs);
  EXPECT_TRUE(j.usable());
  EXPECT_TRUE(j.recovery().shards.empty());
  EXPECT_FALSE(j.recovery().reset);
}

TEST(Journal, AppendThenRecoverRoundtrips) {
  const fs::path dir = fresh_dir("sck_journal_roundtrip");
  const fs::path p = dir / "a.journal";
  {
    ShardJournal j(p.string(), kKey, kJobs);
    ASSERT_TRUE(j.usable());
    EXPECT_TRUE(j.append(0, 0, stats_for(0, 512)));
    EXPECT_TRUE(j.append(2, 1024, stats_for(2, 512)));
    EXPECT_TRUE(j.append(1, 512, stats_for(1, 512)));
  }
  ShardJournal j(p.string(), kKey, kJobs);
  ASSERT_TRUE(j.usable());
  const JournalRecovery& r = j.recovery();
  ASSERT_EQ(r.shards.size(), 3u);
  EXPECT_EQ(r.truncated_bytes, 0u);
  // Append order preserved (0, 2, 1), every byte of every slice intact.
  EXPECT_EQ(r.shards[0].shard_id, 0u);
  EXPECT_EQ(r.shards[1].shard_id, 2u);
  EXPECT_EQ(r.shards[2].shard_id, 1u);
  EXPECT_EQ(r.shards[1].base, 1024u);
  EXPECT_EQ(r.shards[0].per_job, stats_for(0, 512));
  EXPECT_EQ(r.shards[1].per_job, stats_for(2, 512));
  EXPECT_EQ(r.shards[2].per_job, stats_for(1, 512));
}

TEST(Journal, RemoveUnlinksTheFile) {
  const fs::path dir = fresh_dir("sck_journal_remove");
  const fs::path p = dir / "a.journal";
  ShardJournal j(p.string(), kKey, kJobs);
  ASSERT_TRUE(j.append(0, 0, stats_for(0, 512)));
  ASSERT_TRUE(fs::exists(p));
  j.remove();
  EXPECT_FALSE(fs::exists(p));
}

// ---- torn tails ------------------------------------------------------------

// The crash-atomicity contract, exhaustively: cut the file at EVERY byte
// length and recover. The salvage must be exactly the complete-record
// prefix — never a partial record, never a crash.
TEST(Journal, TruncationAtEveryByteRecoversTheRecordPrefix) {
  const fs::path dir = fresh_dir("sck_journal_torn");
  const std::vector<unsigned char> full = two_record_file();
  const std::size_t header = serialize_journal_header(kKey, kJobs).size();
  const std::size_t record0 =
      serialize_journal_record(0, 0, stats_for(0, 512)).size();

  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    const fs::path p = dir / "torn.journal";
    write_file(p, std::vector<unsigned char>(full.begin(),
                                             full.begin() +
                                                 static_cast<std::ptrdiff_t>(
                                                     cut)));
    ShardJournal j(p.string(), kKey, kJobs);
    ASSERT_TRUE(j.usable()) << "cut at " << cut;
    const JournalRecovery& r = j.recovery();
    std::size_t want = 0;
    if (cut >= header + record0) ++want;
    if (cut == full.size()) ++want;
    ASSERT_EQ(r.shards.size(), want) << "cut at " << cut;
    if (want >= 1) {
      EXPECT_EQ(r.shards[0].shard_id, 0u);
      EXPECT_EQ(r.shards[0].per_job, stats_for(0, 512)) << "cut at " << cut;
    }
    // A torn header is a reset (the file was never provably ours); a torn
    // record tail is plain truncation.
    if (cut < header) {
      EXPECT_EQ(r.reset, cut != 0) << "cut at " << cut;
    } else {
      EXPECT_FALSE(r.reset) << "cut at " << cut;
      EXPECT_EQ(r.truncated_bytes,
                cut - header - want * record0)  // records are equal-sized
          << "cut at " << cut;
    }
    // Recovery must leave the file append-clean: the torn tail is GONE.
    EXPECT_TRUE(j.append(7, 1024, stats_for(7, 512))) << "cut at " << cut;
  }
}

// One flipped bit anywhere in a record invalidates it AND everything
// after it — a desynchronized journal cannot be resynced.
TEST(Journal, BitFlipInFirstRecordDropsBothRecords) {
  const fs::path dir = fresh_dir("sck_journal_flip1");
  const std::size_t header = serialize_journal_header(kKey, kJobs).size();
  const std::size_t record0 =
      serialize_journal_record(0, 0, stats_for(0, 512)).size();
  // Sample a spread of offsets across record 0 (length prefix, body,
  // checksum) — every one must take the whole tail down with it.
  for (const std::size_t at :
       {header, header + 9, header + record0 / 2, header + record0 - 1}) {
    std::vector<unsigned char> bytes = two_record_file();
    bytes[at] ^= 0x10;
    const fs::path p = dir / "flip.journal";
    write_file(p, bytes);
    ShardJournal j(p.string(), kKey, kJobs);
    ASSERT_TRUE(j.usable()) << "flip at " << at;
    EXPECT_TRUE(j.recovery().shards.empty()) << "flip at " << at;
    EXPECT_FALSE(j.recovery().reset);
    EXPECT_GT(j.recovery().truncated_bytes, 0u);
  }
}

TEST(Journal, BitFlipInSecondRecordKeepsTheFirst) {
  const fs::path dir = fresh_dir("sck_journal_flip2");
  const std::size_t header = serialize_journal_header(kKey, kJobs).size();
  const std::size_t record0 =
      serialize_journal_record(0, 0, stats_for(0, 512)).size();
  std::vector<unsigned char> bytes = two_record_file();
  bytes[header + record0 + 20] ^= 0x01;  // inside record 1's body
  const fs::path p = dir / "flip.journal";
  write_file(p, bytes);
  ShardJournal j(p.string(), kKey, kJobs);
  ASSERT_TRUE(j.usable());
  ASSERT_EQ(j.recovery().shards.size(), 1u);
  EXPECT_EQ(j.recovery().shards[0].shard_id, 0u);
  EXPECT_EQ(j.recovery().shards[0].per_job, stats_for(0, 512));
}

// A record whose geometry points outside the job universe is invalid even
// when its checksum verifies (it was written against different geometry).
TEST(Journal, OutOfRangeRecordIsRejected) {
  const fs::path dir = fresh_dir("sck_journal_range");
  std::vector<unsigned char> bytes = serialize_journal_header(kKey, kJobs);
  append_bytes(bytes, serialize_journal_record(9, kJobs, stats_for(9, 512)));
  const fs::path p = dir / "range.journal";
  write_file(p, bytes);
  ShardJournal j(p.string(), kKey, kJobs);
  ASSERT_TRUE(j.usable());
  EXPECT_TRUE(j.recovery().shards.empty());
  EXPECT_GT(j.recovery().truncated_bytes, 0u);
}

// ---- duplicates ------------------------------------------------------------

// A pre-crash re-queue can legally journal the same shard twice; recovery
// keeps the FIRST copy (determinism makes them byte-identical in real
// runs — here they differ on purpose to prove which one wins).
TEST(Journal, DuplicateShardRecordsFirstWins) {
  const fs::path dir = fresh_dir("sck_journal_dup");
  std::vector<unsigned char> bytes = serialize_journal_header(kKey, kJobs);
  append_bytes(bytes, serialize_journal_record(0, 0, stats_for(1, 512)));
  append_bytes(bytes, serialize_journal_record(0, 0, stats_for(2, 512)));
  append_bytes(bytes, serialize_journal_record(1, 512, stats_for(3, 512)));
  const fs::path p = dir / "dup.journal";
  write_file(p, bytes);
  ShardJournal j(p.string(), kKey, kJobs);
  ASSERT_TRUE(j.usable());
  const JournalRecovery& r = j.recovery();
  ASSERT_EQ(r.shards.size(), 2u);
  EXPECT_EQ(r.duplicates, 1u);
  EXPECT_EQ(r.shards[0].shard_id, 0u);
  EXPECT_EQ(r.shards[0].per_job, stats_for(1, 512));  // the FIRST copy
  EXPECT_EQ(r.shards[1].shard_id, 1u);
}

// ---- header mismatches: always a full reset --------------------------------

TEST(Journal, FingerprintMismatchResetsTheJournal) {
  const fs::path dir = fresh_dir("sck_journal_fp");
  const fs::path p = dir / "a.journal";
  write_file(p, two_record_file());
  const Fingerprint other{kKey.hi, kKey.lo ^ 1};
  ShardJournal j(p.string(), other, kJobs);
  ASSERT_TRUE(j.usable());
  EXPECT_TRUE(j.recovery().reset);
  EXPECT_TRUE(j.recovery().shards.empty());
  // The file was rewritten for the NEW key: a reopen under it is clean.
  ShardJournal again(p.string(), other, kJobs);
  EXPECT_FALSE(again.recovery().reset);
  EXPECT_TRUE(again.recovery().shards.empty());
}

TEST(Journal, JobCountMismatchResetsTheJournal) {
  const fs::path dir = fresh_dir("sck_journal_jobs");
  const fs::path p = dir / "a.journal";
  write_file(p, two_record_file());
  ShardJournal j(p.string(), kKey, kJobs + 512);
  ASSERT_TRUE(j.usable());
  EXPECT_TRUE(j.recovery().reset);
  EXPECT_TRUE(j.recovery().shards.empty());
}

TEST(Journal, CorruptHeaderResetsTheJournal) {
  const fs::path dir = fresh_dir("sck_journal_hdr");
  std::vector<unsigned char> bytes = two_record_file();
  bytes[3] ^= 0x80;  // inside the magic
  const fs::path p = dir / "a.journal";
  write_file(p, bytes);
  ShardJournal j(p.string(), kKey, kJobs);
  ASSERT_TRUE(j.usable());
  EXPECT_TRUE(j.recovery().reset);
  EXPECT_TRUE(j.recovery().shards.empty());
}

TEST(Journal, FutureFormatVersionResetsTheJournal) {
  const fs::path dir = fresh_dir("sck_journal_ver");
  std::vector<unsigned char> bytes = two_record_file();
  bytes[8] ^= 0x02;  // version field (first byte after the magic)
  // Header checksum now fails too — either way, a reset.
  const fs::path p = dir / "a.journal";
  write_file(p, bytes);
  ShardJournal j(p.string(), kKey, kJobs);
  ASSERT_TRUE(j.usable());
  EXPECT_TRUE(j.recovery().reset);
  EXPECT_TRUE(j.recovery().shards.empty());
}

// ---- append after recovery -------------------------------------------------

// Crash, recover, keep journaling, crash, recover: the second recovery
// must see the salvaged prefix AND the post-recovery appends.
TEST(Journal, AppendAfterTornRecoveryThenRecoverAgain) {
  const fs::path dir = fresh_dir("sck_journal_again");
  const fs::path p = dir / "a.journal";
  {
    std::vector<unsigned char> bytes = two_record_file();
    bytes.resize(bytes.size() - 5);  // torn mid-record-1
    write_file(p, bytes);
  }
  {
    ShardJournal j(p.string(), kKey, kJobs);
    ASSERT_TRUE(j.usable());
    ASSERT_EQ(j.recovery().shards.size(), 1u);
    EXPECT_TRUE(j.append(2, 1024, stats_for(2, 512)));
  }
  ShardJournal j(p.string(), kKey, kJobs);
  ASSERT_TRUE(j.usable());
  const JournalRecovery& r = j.recovery();
  ASSERT_EQ(r.shards.size(), 2u);
  EXPECT_EQ(r.shards[0].shard_id, 0u);
  EXPECT_EQ(r.shards[1].shard_id, 2u);
  EXPECT_EQ(r.shards[1].per_job, stats_for(2, 512));
  EXPECT_EQ(r.truncated_bytes, 0u);
}

// ---- degraded mode ---------------------------------------------------------

// An uncreatable journal (missing directory) degrades to journal-less:
// usable() false, appends refused, nothing crashes.
TEST(Journal, UnwritablePathDegradesGracefully) {
  const fs::path dir = fresh_dir("sck_journal_degraded");
  const fs::path p = dir / "no-such-subdir" / "a.journal";
  ShardJournal j(p.string(), kKey, kJobs);
  EXPECT_FALSE(j.usable());
  EXPECT_FALSE(j.append(0, 0, stats_for(0, 512)));
  j.remove();  // harmless on a dead journal
}

}  // namespace
}  // namespace sck::store
