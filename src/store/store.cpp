#include "store/store.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <system_error>
#include <utility>

#include "common/codec.h"
#include "store/file_io.h"

namespace sck::store {

namespace fs = std::filesystem;

namespace {

/// "SCKSTORE" as a little-endian u64.
constexpr std::uint64_t kMagic = 0x45524F54534B4353ULL;

/// Fixed header: magic, version+reserved, key echo, payload length.
constexpr std::size_t kHeaderBytes = 8 + 4 + 4 + 8 + 8 + 8;

/// Write `bytes` to `path` and flush it to stable storage, so the data is
/// fsync'd before the caller renames the file into place — the
/// crash-safety half of the atomic-commit protocol.
[[nodiscard]] bool write_file_durable(const std::string& path,
                                      std::span<const unsigned char> bytes) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  const bool written = write_all(fd, bytes) && ::fsync(fd) == 0;
  return (::close(fd) == 0) && written;
}

/// Best-effort directory fsync after a rename, so the committed entry's
/// directory record survives a crash too. Failure is ignored: the worst
/// case is a lost cache entry, never a wrong one.
void sync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  (void)::fsync(fd);
  (void)::close(fd);
}

}  // namespace

std::vector<unsigned char> serialize_entry(
    const Fingerprint& key, const hls::NetlistCampaignResult& value) {
  // Payload first, so the header can carry its exact length.
  codec::Writer payload;
  payload(value);

  codec::Writer w;
  w.reserve(kHeaderBytes + payload.size() + 8);
  w.u64(kMagic);
  w.u32(kStoreFormatVersion);
  w.u32(0);  // reserved
  w.u64(key.hi);
  w.u64(key.lo);
  w.u64(payload.size());
  w.bytes(payload.view());
  w.seal();
  return std::move(w).take();
}

std::optional<hls::NetlistCampaignResult> deserialize_entry(
    const Fingerprint& key, const std::vector<unsigned char>& bytes) {
  // Seal verified FIRST so a corrupted header cannot even steer the parse.
  const auto body = codec::unseal(bytes);
  if (!body.has_value()) return std::nullopt;

  codec::Reader r(*body);
  std::uint64_t magic = 0;
  std::uint32_t version = 0;
  std::uint32_t reserved = 0;
  Fingerprint echoed;
  std::uint64_t payload_len = 0;
  if (!r.u64(magic) || !r.u32(version) || !r.u32(reserved) ||
      !r.u64(echoed.hi) || !r.u64(echoed.lo) || !r.u64(payload_len)) {
    return std::nullopt;
  }
  if (magic != kMagic || version != kStoreFormatVersion || reserved != 0 ||
      echoed != key || payload_len != r.remaining()) {
    return std::nullopt;
  }
  // The payload must be consumed exactly: trailing garbage inside a
  // correctly-checksummed body still fails (defense against truncated
  // writes that happen to re-checksum).
  hls::NetlistCampaignResult result;
  if (!r(result) || !r.done()) return std::nullopt;
  return result;
}

CampaignStore::CampaignStore(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec || !fs::is_directory(dir_, ec)) {
    degraded_ = true;
    std::fprintf(stderr,
                 "[store] WARNING: cannot open store directory '%s' (%s); "
                 "running uncached\n",
                 dir_.c_str(), ec.message().c_str());
  }
}

std::string CampaignStore::entry_path(const Fingerprint& key) const {
  return dir_ + "/" + to_string(key) + ".entry";
}

std::string CampaignStore::journal_path(const Fingerprint& key) const {
  return dir_ + "/" + to_string(key) + ".journal";
}

void CampaignStore::pin(const Fingerprint& key) {
  const std::lock_guard<std::mutex> lock(pins_mutex_);
  ++pins_[{key.hi, key.lo}];
}

void CampaignStore::unpin(const Fingerprint& key) {
  const std::lock_guard<std::mutex> lock(pins_mutex_);
  const auto it = pins_.find({key.hi, key.lo});
  if (it == pins_.end()) return;
  if (--it->second <= 0) pins_.erase(it);
}

bool CampaignStore::pinned(const Fingerprint& key) const {
  const std::lock_guard<std::mutex> lock(pins_mutex_);
  return pins_.contains({key.hi, key.lo});
}

void CampaignStore::quarantine(const std::string& path, const char* reason) {
  corrupt_.fetch_add(1, std::memory_order_relaxed);
  std::error_code ec;
  const fs::path src(path);
  const fs::path qdir = fs::path(dir_) / "corrupt";
  fs::create_directories(qdir, ec);
  const fs::path dst =
      qdir / (src.filename().string() + "." +
              std::to_string(temp_seq_.fetch_add(1, std::memory_order_relaxed)));
  ec.clear();
  fs::rename(src, dst, ec);
  if (ec) {
    // Cannot preserve the evidence (another thread may have grabbed it, or
    // the directory is read-only): drop the entry instead so it is not
    // re-served; if even that fails it will simply fail verification again.
    fs::remove(src, ec);
  }
  std::fprintf(stderr,
               "[store] WARNING: quarantined corrupt entry '%s' (%s); "
               "recomputing\n",
               path.c_str(), reason);
}

std::optional<hls::NetlistCampaignResult> CampaignStore::load(
    const Fingerprint& key) {
  if (degraded_) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  const std::string path = entry_path(key);
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  std::vector<unsigned char> bytes;
  const bool read = read_all(fd, bytes);
  ::close(fd);
  if (!read) {
    quarantine(path, "read error");
    return std::nullopt;
  }

  std::optional<hls::NetlistCampaignResult> result =
      deserialize_entry(key, bytes);
  if (!result) {
    quarantine(path, "failed verification (checksum/version/key/structure)");
    return std::nullopt;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  return result;
}

void CampaignStore::warn_write_failure_once(const std::string& detail) {
  write_failures_.fetch_add(1, std::memory_order_relaxed);
  if (!warned_write_.exchange(true, std::memory_order_relaxed)) {
    std::fprintf(stderr,
                 "[store] WARNING: cannot write store entry (%s); results "
                 "stay correct but uncached\n",
                 detail.c_str());
  }
}

bool CampaignStore::save(const Fingerprint& key,
                         const hls::NetlistCampaignResult& value) {
  if (degraded_) return false;
  const std::vector<unsigned char> bytes = serialize_entry(key, value);
  const std::string final_path = entry_path(key);
  const std::string tmp_path =
      final_path + ".tmp." + std::to_string(::getpid()) + "." +
      std::to_string(temp_seq_.fetch_add(1, std::memory_order_relaxed));
  if (!write_file_durable(tmp_path, bytes)) {
    std::error_code ec;
    fs::remove(tmp_path, ec);
    warn_write_failure_once(tmp_path);
    return false;
  }
  // Atomic commit: concurrent writers of the same key carry identical
  // bytes (deterministic campaigns), so whichever rename lands the entry
  // is valid; rename(2) can replace but never tear.
  std::error_code ec;
  fs::rename(tmp_path, final_path, ec);
  if (ec) {
    fs::remove(tmp_path, ec);
    warn_write_failure_once(final_path);
    return false;
  }
  sync_dir(dir_);
  return true;
}

namespace {

/// Inverse of to_string(Fingerprint) for a file stem: 32 lowercase hex
/// digits, hi first. nullopt for anything else (temp files, foreign
/// names) — those are simply not pinnable.
[[nodiscard]] std::optional<Fingerprint> fingerprint_of_stem(
    const std::string& stem) {
  if (stem.size() != 32) return std::nullopt;
  Fingerprint fp;
  for (int half = 0; half < 2; ++half) {
    std::uint64_t v = 0;
    for (int i = 0; i < 16; ++i) {
      const char c = stem[static_cast<std::size_t>(half * 16 + i)];
      std::uint64_t digit = 0;
      if (c >= '0' && c <= '9') {
        digit = static_cast<std::uint64_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        digit = static_cast<std::uint64_t>(c - 'a' + 10);
      } else {
        return std::nullopt;
      }
      v = (v << 4) | digit;
    }
    (half == 0 ? fp.hi : fp.lo) = v;
  }
  return fp;
}

}  // namespace

std::size_t CampaignStore::trim(std::uint64_t max_bytes) {
  if (degraded_) return 0;
  struct EntryFile {
    fs::file_time_type mtime;
    std::string path;
    std::uint64_t size = 0;
  };
  std::vector<EntryFile> entries;
  std::uint64_t total = 0;
  std::error_code ec;
  for (fs::directory_iterator it(dir_, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (!it->is_regular_file(ec)) continue;
    const fs::path& p = it->path();
    if (p.extension() != ".entry" && p.extension() != ".journal") continue;
    // A pinned fingerprint's files belong to a campaign that is running
    // RIGHT NOW: its write-ahead journal (and entry) must survive any
    // budget. Left out of `total` too — a pin is a lease, not a tenant.
    if (const std::optional<Fingerprint> fp =
            fingerprint_of_stem(p.stem().string());
        fp.has_value() && pinned(*fp)) {
      continue;
    }
    EntryFile e;
    e.path = p.string();
    e.size = static_cast<std::uint64_t>(fs::file_size(p, ec));
    if (ec) continue;
    e.mtime = fs::last_write_time(p, ec);
    if (ec) continue;
    total += e.size;
    entries.push_back(std::move(e));
  }
  if (total <= max_bytes) return 0;
  // Oldest first; path tie-break keeps the order deterministic when a
  // filesystem's mtime granularity collapses timestamps.
  std::sort(entries.begin(), entries.end(),
            [](const EntryFile& a, const EntryFile& b) {
              return a.mtime != b.mtime ? a.mtime < b.mtime : a.path < b.path;
            });
  std::size_t removed = 0;
  for (const EntryFile& e : entries) {
    if (total <= max_bytes) break;
    ec.clear();
    if (fs::remove(e.path, ec) && !ec) {
      total -= e.size;
      ++removed;
      evicted_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return removed;
}

CacheStats CampaignStore::stats() const {
  CacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.corrupt = corrupt_.load(std::memory_order_relaxed);
  s.evicted = evicted_.load(std::memory_order_relaxed);
  s.write_failures = write_failures_.load(std::memory_order_relaxed);
  s.degraded = degraded_;
  return s;
}

std::string store_dir_from_env() {
  const char* dir = std::getenv("SCK_STORE_DIR");
  return dir == nullptr ? std::string{} : std::string(dir);
}

}  // namespace sck::store
