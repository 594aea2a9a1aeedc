// Whole-buffer POSIX file I/O shared by the store and the journal: short
// transfers and EINTR are retried, so callers see all-or-error.
#pragma once

#include <unistd.h>

#include <cerrno>
#include <span>
#include <vector>

namespace sck::store {

/// Write every byte to `fd`; false on the first hard error.
[[nodiscard]] inline bool write_all(int fd,
                                    std::span<const unsigned char> bytes) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

/// Append everything from `fd`'s offset to end of file to `out`; false on
/// a read error.
[[nodiscard]] inline bool read_all(int fd, std::vector<unsigned char>& out) {
  unsigned char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return true;
    out.insert(out.end(), buf, buf + n);
  }
}

}  // namespace sck::store
