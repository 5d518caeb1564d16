#include "util/fs.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <sys/types.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <unistd.h>

namespace limsynth::fs {

namespace {

// CRC-64/XZ table, generated once from the reflected polynomial.
const std::uint64_t* crc64_table() {
  static const auto* table = [] {
    auto* t = new std::uint64_t[256];
    constexpr std::uint64_t kPoly = 0xC96C5795D7870F42ull;
    for (unsigned i = 0; i < 256; ++i) {
      std::uint64_t crc = i;
      for (int b = 0; b < 8; ++b)
        crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
      t[i] = crc;
    }
    return t;
  }();
  return table;
}

IoErr classify_errno(int err) {
  switch (err) {
    case ENOENT:
    case ENOTDIR: return IoErr::kNotFound;
    case EACCES:
    case EPERM:
    case EROFS: return IoErr::kAccess;
    case ENOSPC:
    case EDQUOT: return IoErr::kNoSpace;
    case EWOULDBLOCK: return IoErr::kBusy;
    default: return IoErr::kOther;
  }
}

IoStatus errno_status(const std::string& op, const std::string& path) {
  const int err = errno;
  return IoStatus::fail(classify_errno(err),
                        op + " " + path + ": " + std::strerror(err));
}

std::string dirname_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

/// POSIX implementation of Fs. Stateless; every call is a fresh syscall
/// sequence, so instances are trivially thread-safe.
class RealFs : public Fs {
 public:
  IoStatus read_file(const std::string& path, std::string* out) override {
    out->clear();
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) return errno_status("open", path);
    char buf[1 << 16];
    for (;;) {
      const ssize_t n = ::read(fd, buf, sizeof buf);
      if (n < 0) {
        if (errno == EINTR) continue;
        const IoStatus st = errno_status("read", path);
        ::close(fd);
        return st;
      }
      if (n == 0) break;
      out->append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return IoStatus::good();
  }

  IoStatus write_file_atomic(const std::string& path,
                             const std::string& data) override {
    // Unique-per-(process, call) temp name in the target directory so the
    // rename stays within one filesystem and concurrent writers of the
    // same entry never collide on the temp path.
    static std::atomic<std::uint64_t> seq{0};
    char suffix[64];
    std::snprintf(suffix, sizeof suffix, ".tmp.%ld.%llu",
                  static_cast<long>(::getpid()),
                  static_cast<unsigned long long>(seq.fetch_add(1)));
    const std::string tmp = path + suffix;

    const int fd =
        ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
    if (fd < 0) return errno_status("create", tmp);

    const auto fail = [&](const char* op) {
      const IoStatus st = errno_status(op, tmp);
      ::close(fd);
      ::unlink(tmp.c_str());
      return st;
    };

    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
      if (n < 0) {
        if (errno == EINTR) continue;
        return fail("write");
      }
      if (n == 0) {
        errno = ENOSPC;  // short write with no progress: treat as full disk
        return fail("write");
      }
      off += static_cast<std::size_t>(n);
    }
    if (::fsync(fd) != 0) return fail("fsync");
    if (::close(fd) != 0) {
      const IoStatus st = errno_status("close", tmp);
      ::unlink(tmp.c_str());
      return st;
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
      const IoStatus st = errno_status("rename", path);
      ::unlink(tmp.c_str());
      return st;
    }
    // Make the rename itself durable. Failure here is not fatal to
    // correctness (the entry is valid, just not yet guaranteed on
    // media), so it is best-effort.
    const int dfd =
        ::open(dirname_of(path).c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (dfd >= 0) {
      ::fsync(dfd);
      ::close(dfd);
    }
    return IoStatus::good();
  }

  IoStatus rename_file(const std::string& from,
                       const std::string& to) override {
    if (::rename(from.c_str(), to.c_str()) != 0)
      return errno_status("rename", from + " -> " + to);
    return IoStatus::good();
  }

  IoStatus remove_file(const std::string& path) override {
    if (::unlink(path.c_str()) != 0) return errno_status("unlink", path);
    return IoStatus::good();
  }

  IoStatus make_dirs(const std::string& path) override {
    if (path.empty()) return IoStatus::good();
    std::string prefix;
    std::size_t pos = 0;
    while (pos <= path.size()) {
      const std::size_t slash = path.find('/', pos);
      prefix = slash == std::string::npos ? path : path.substr(0, slash);
      pos = slash == std::string::npos ? path.size() + 1 : slash + 1;
      if (prefix.empty()) continue;  // leading '/'
      if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST)
        return errno_status("mkdir", prefix);
    }
    struct stat st {};
    if (::stat(path.c_str(), &st) != 0 || !S_ISDIR(st.st_mode))
      return IoStatus::fail(IoErr::kOther, "not a directory: " + path);
    return IoStatus::good();
  }

  bool exists(const std::string& path) override {
    struct stat st {};
    return ::stat(path.c_str(), &st) == 0;
  }

  bool writable(const std::string& path) override {
    return ::access(path.c_str(), W_OK) == 0;
  }

  IoStatus lock_exclusive(const std::string& path, int* handle) override {
    const int fd =
        ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    if (fd < 0) return errno_status("open lock", path);
    if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
      const IoStatus st = errno == EWOULDBLOCK
                              ? IoStatus::fail(IoErr::kBusy,
                                               "lock held: " + path)
                              : errno_status("flock", path);
      ::close(fd);
      return st;
    }
    *handle = fd;
    return IoStatus::good();
  }

  void unlock(int handle) override {
    if (handle >= 0) ::close(handle);  // closing drops the flock
  }
};

}  // namespace

std::uint64_t crc64(const void* data, std::size_t size) {
  const std::uint64_t* table = crc64_table();
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t crc = ~0ull;
  for (std::size_t i = 0; i < size; ++i)
    crc = (crc >> 8) ^ table[(crc ^ p[i]) & 0xff];
  return ~crc;
}

std::uint64_t crc64(const std::string& data) {
  return crc64(data.data(), data.size());
}

const char* io_err_name(IoErr err) {
  switch (err) {
    case IoErr::kNone: return "none";
    case IoErr::kNotFound: return "not_found";
    case IoErr::kAccess: return "access";
    case IoErr::kNoSpace: return "no_space";
    case IoErr::kBusy: return "busy";
    case IoErr::kCorrupt: return "corrupt";
    case IoErr::kOther: return "other";
  }
  return "other";
}

Fs& Fs::real() {
  static RealFs fs;
  return fs;
}

// --- FaultFs ------------------------------------------------------------

IoStatus FaultFs::read_file(const std::string& path, std::string* out) {
  ++reads;
  const IoStatus st = base_.read_file(path, out);
  if (!st.ok()) return st;
  if (truncate_read_to >= 0) {
    const auto keep = std::min<std::size_t>(
        out->size(), static_cast<std::size_t>(truncate_read_to));
    out->resize(keep);
    truncate_read_to = -1;
  }
  if (corrupt_read_bit >= 0) {
    const auto bit = static_cast<std::size_t>(corrupt_read_bit);
    if (bit / 8 < out->size())
      (*out)[bit / 8] = static_cast<char>(
          static_cast<unsigned char>((*out)[bit / 8]) ^ (1u << (bit % 8)));
    corrupt_read_bit = -1;
  }
  return st;
}

IoStatus FaultFs::write_file_atomic(const std::string& path,
                                    const std::string& data) {
  ++writes;
  if (fail_writes_nospace > 0) {
    --fail_writes_nospace;
    return IoStatus::fail(IoErr::kNoSpace, "injected ENOSPC: " + path);
  }
  if (fail_writes_access > 0) {
    --fail_writes_access;
    return IoStatus::fail(IoErr::kAccess, "injected EACCES: " + path);
  }
  if (torn_write_bytes >= 0) {
    const std::string prefix =
        data.substr(0, std::min<std::size_t>(
                           data.size(),
                           static_cast<std::size_t>(torn_write_bytes)));
    torn_write_bytes = -1;
    // Persist only the prefix at the FINAL path and claim success: the
    // crash-plus-lying-disk model that only end-to-end checksums catch.
    base_.write_file_atomic(path, prefix);
    return IoStatus::good();
  }
  return base_.write_file_atomic(path, data);
}

IoStatus FaultFs::rename_file(const std::string& from, const std::string& to) {
  ++renames;
  if (fail_renames > 0) {
    --fail_renames;
    return IoStatus::fail(IoErr::kOther, "injected rename failure: " + from);
  }
  return base_.rename_file(from, to);
}

IoStatus FaultFs::remove_file(const std::string& path) {
  return base_.remove_file(path);
}

IoStatus FaultFs::make_dirs(const std::string& path) {
  if (fail_mkdirs)
    return IoStatus::fail(IoErr::kAccess, "injected mkdir EACCES: " + path);
  return base_.make_dirs(path);
}

bool FaultFs::exists(const std::string& path) { return base_.exists(path); }

bool FaultFs::writable(const std::string& path) {
  // The read-only-mount injection: mkdir failures and a non-writable dir
  // come as a pair on a real read-only filesystem.
  if (fail_mkdirs) return false;
  return base_.writable(path);
}

IoStatus FaultFs::lock_exclusive(const std::string& path, int* handle) {
  if (fail_locks_busy > 0) {
    --fail_locks_busy;
    return IoStatus::fail(IoErr::kBusy, "injected lock contention: " + path);
  }
  return base_.lock_exclusive(path, handle);
}

void FaultFs::unlock(int handle) { base_.unlock(handle); }

}  // namespace limsynth::fs
