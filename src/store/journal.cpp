#include "store/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <set>
#include <utility>

#include "common/codec.h"
#include "store/file_io.h"

namespace sck::store {

namespace {

/// "SCKJRNL\0" as a little-endian u64.
constexpr std::uint64_t kJournalMagic = 0x004C4E524A'4B4353ULL;

/// magic + version/reserved + key echo + job count + checksum.
constexpr std::size_t kJournalHeaderBytes = 8 + 4 + 4 + 8 + 8 + 8 + 8;

/// What an append writes: the caller's slice, not a copy of it.
struct ShardView {
  std::uint64_t shard_id;
  std::uint64_t base;
  std::span<const fault::CampaignStats> per_job;
};

/// The record body, read into a JournalShard and written from a ShardView.
template <class A, class Shard>
bool record_body(A& a, Shard& s) {
  return a(s.shard_id, s.base, s.per_job);
}

}  // namespace

std::vector<unsigned char> serialize_journal_header(const Fingerprint& key,
                                                    std::uint64_t job_count) {
  codec::Writer w;
  w.reserve(kJournalHeaderBytes);
  w.u64(kJournalMagic);
  w.u32(kJournalFormatVersion);
  w.u32(0);  // reserved
  w.u64(key.hi);
  w.u64(key.lo);
  w.u64(job_count);
  w.seal();
  return std::move(w).take();
}

std::vector<unsigned char> serialize_journal_record(
    std::uint64_t shard_id, std::uint64_t base,
    std::span<const fault::CampaignStats> per_job) {
  codec::Writer body;
  const ShardView view{shard_id, base, per_job};
  record_body(body, view);
  codec::Writer w;
  w.reserve(8 + body.size() + 8);
  w.u64(body.size());
  w.bytes(body.view());
  // Sealed over the length prefix AND the body: a torn length cannot
  // steer recovery into misparsing the tail as a fresh record.
  w.seal();
  return std::move(w).take();
}

ShardJournal::ShardJournal(std::string path, const Fingerprint& key,
                           std::uint64_t job_count)
    : path_(std::move(path)) {
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd_ < 0) {
    std::fprintf(stderr,
                 "[journal] WARNING: cannot open '%s' (%s); campaign will "
                 "not be resumable\n",
                 path_.c_str(), std::strerror(errno));
    return;
  }

  // Read the whole file for recovery; unreadable is treated as empty and
  // rewritten below.
  std::vector<unsigned char> bytes;
  if (!read_all(fd_, bytes)) bytes.clear();

  const std::vector<unsigned char> want_header =
      serialize_journal_header(key, job_count);

  // Validate the header byte for byte (it is a pure function of
  // key/job_count, so equality == magic+version+key+geometry+checksum all
  // match). Anything else — including a pre-existing empty file — is a
  // reset: never resume from a journal that was not provably ours.
  std::size_t valid = 0;
  if (bytes.size() >= kJournalHeaderBytes &&
      std::equal(want_header.begin(), want_header.end(), bytes.begin())) {
    valid = kJournalHeaderBytes;
    std::set<std::uint64_t> seen;
    const std::span<const unsigned char> file(bytes);
    while (valid < bytes.size()) {
      codec::Reader prefix(file.subspan(valid));
      std::uint64_t body = 0;
      if (!prefix.u64(body)) break;  // torn length prefix
      if (prefix.remaining() < 8 || body > prefix.remaining() - 8) {
        break;  // torn record or checksum
      }
      const auto image = codec::unseal(
          file.subspan(valid, 8 + static_cast<std::size_t>(body) + 8));
      if (!image.has_value()) {
        break;  // bit rot / torn rewrite: nothing after it is trusted
      }
      codec::Reader r(image->subspan(8));
      JournalShard shard;
      // done() also rejects a count that disagrees with the body length.
      if (!record_body(r, shard) || !r.done()) break;
      // A record describes at most the rest of the job universe.
      if (shard.base > job_count ||
          shard.per_job.size() > job_count - shard.base) {
        break;
      }
      valid += 8 + static_cast<std::size_t>(body) + 8;
      if (!seen.insert(shard.shard_id).second) {
        ++recovery_.duplicates;  // pre-crash re-queue duplicate: first wins
        continue;
      }
      recovery_.shards.push_back(std::move(shard));
    }
    recovery_.truncated_bytes = bytes.size() - valid;
  } else if (!bytes.empty()) {
    recovery_.reset = true;
    recovery_.truncated_bytes = bytes.size();
  }

  if (valid == 0) {
    // Fresh file, or a reset: start over with our own header.
    if (::ftruncate(fd_, 0) != 0 ||
        ::lseek(fd_, 0, SEEK_SET) != 0 ||
        !write_all(fd_, want_header) ||
        ::fsync(fd_) != 0) {
      std::fprintf(stderr,
                   "[journal] WARNING: cannot initialize '%s' (%s); "
                   "campaign will not be resumable\n",
                   path_.c_str(), std::strerror(errno));
      ::close(fd_);
      fd_ = -1;
    }
    return;
  }

  // Keep the valid prefix, drop the torn/corrupt tail, append after it.
  if (recovery_.truncated_bytes > 0) {
    if (::ftruncate(fd_, static_cast<off_t>(valid)) != 0) {
      // Cannot cut the bad tail: appends would interleave with garbage and
      // the NEXT recovery would stop at the garbage anyway — run
      // journal-less instead of risking it.
      std::fprintf(stderr,
                   "[journal] WARNING: cannot truncate torn tail of '%s'; "
                   "campaign will not be resumable\n",
                   path_.c_str());
      ::close(fd_);
      fd_ = -1;
      return;
    }
  }
  if (::lseek(fd_, static_cast<off_t>(valid), SEEK_SET) < 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

ShardJournal::~ShardJournal() {
  if (fd_ >= 0) ::close(fd_);
}

bool ShardJournal::append(std::uint64_t shard_id, std::uint64_t base,
                          std::span<const fault::CampaignStats> per_job) {
  if (fd_ < 0) return false;
  const std::vector<unsigned char> record =
      serialize_journal_record(shard_id, base, per_job);
  if (!write_all(fd_, record) || ::fsync(fd_) != 0) {
    if (!warned_) {
      warned_ = true;
      std::fprintf(stderr,
                   "[journal] WARNING: append to '%s' failed (%s); this "
                   "shard will not be resumable\n",
                   path_.c_str(), std::strerror(errno));
    }
    return false;
  }
  return true;
}

void ShardJournal::remove() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  (void)::unlink(path_.c_str());
}

}  // namespace sck::store
