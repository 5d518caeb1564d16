// Crash-safe filesystem primitives with an injectable fault seam.
//
// The persistent brick store (brick/store.hpp) must survive everything a
// real disk does to long-running services: a SIGKILL mid-write, a full
// disk, a read-only mount, a concurrent writer, or plain bit rot. All of
// its I/O therefore goes through the small `Fs` interface below, whose
// production implementation provides exactly one durable primitive —
// write-to-temp + fsync + atomic rename — plus advisory writer locks and
// lock-free reads. `FaultFs` wraps any `Fs` and injects the failure modes
// the robustness tests exercise (torn write, truncation, bit corruption,
// ENOSPC, EACCES, rename failure, lock contention), the same way
// src/fault/ injects silicon defects: the store is tested against its
// failure model, not just its happy path.
//
// Errors are returned as IoStatus values, not exceptions: callers in the
// degradation path (the store) must be able to classify and absorb a
// failure without unwinding.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace limsynth::fs {

/// CRC-64/XZ (reflected poly 0xC96C5795D7870F42, init/xorout all-ones):
/// the checksum guarding every on-disk store entry. crc64("123456789")
/// == 0x995dc9bbdf1939fa (the standard check vector).
std::uint64_t crc64(const void* data, std::size_t size);
std::uint64_t crc64(const std::string& data);

/// Failure classes an I/O operation can report. The store maps each to a
/// distinct graceful outcome (recompile / quarantine / memory-only).
enum class IoErr {
  kNone = 0,
  kNotFound,  ///< missing file or directory
  kAccess,    ///< permission denied (read-only cache dir)
  kNoSpace,   ///< disk full (ENOSPC/EDQUOT) or short write
  kBusy,      ///< advisory lock held by another writer
  kCorrupt,   ///< content failed validation (CRC, header)
  kOther,     ///< anything else (rename failure, EIO, ...)
};

const char* io_err_name(IoErr err);

struct IoStatus {
  IoErr err = IoErr::kNone;
  std::string message;

  bool ok() const { return err == IoErr::kNone; }
  static IoStatus good() { return {}; }
  static IoStatus fail(IoErr err, std::string message) {
    return {err, std::move(message)};
  }
};

/// Minimal filesystem interface. Paths are '/'-joined POSIX paths.
/// Implementations must be safe to call from multiple threads.
class Fs {
 public:
  virtual ~Fs() = default;

  /// Reads a whole file. kNotFound when absent.
  virtual IoStatus read_file(const std::string& path, std::string* out) = 0;

  /// Durable atomic publish: writes `data` to a unique temp file in the
  /// same directory, fsyncs it, renames it over `path`, and fsyncs the
  /// directory. After a crash at any point, `path` holds either the old
  /// content or the new content, never a mix; the temp file is removed on
  /// every failure path.
  virtual IoStatus write_file_atomic(const std::string& path,
                                     const std::string& data) = 0;

  /// rename(2): atomic within a filesystem, replaces `to` if present.
  virtual IoStatus rename_file(const std::string& from,
                               const std::string& to) = 0;

  virtual IoStatus remove_file(const std::string& path) = 0;

  /// mkdir -p. Success when the directory already exists.
  virtual IoStatus make_dirs(const std::string& path) = 0;

  virtual bool exists(const std::string& path) = 0;

  /// True when the caller may create files in `path` (a directory).
  /// Advisory — a disk can still fill or a mount flip read-only later —
  /// but lets callers degrade up front instead of on the first write.
  virtual bool writable(const std::string& path) = 0;

  /// Non-blocking advisory exclusive lock on `path` (created if absent).
  /// kBusy when another writer holds it. On success `*handle` must later
  /// be released with unlock().
  virtual IoStatus lock_exclusive(const std::string& path, int* handle) = 0;
  virtual void unlock(int handle) = 0;

  /// The process-wide POSIX implementation.
  static Fs& real();
};

/// RAII for Fs::lock_exclusive.
class ScopedLock {
 public:
  ScopedLock(Fs& io, const std::string& path) : io_(io) {
    status_ = io_.lock_exclusive(path, &handle_);
  }
  ~ScopedLock() {
    if (status_.ok()) io_.unlock(handle_);
  }
  ScopedLock(const ScopedLock&) = delete;
  ScopedLock& operator=(const ScopedLock&) = delete;

  bool held() const { return status_.ok(); }
  const IoStatus& status() const { return status_; }

 private:
  Fs& io_;
  int handle_ = -1;
  IoStatus status_;
};

/// Fault-injecting decorator. Each knob arms a one-shot or counted
/// injection consumed by the next matching operation; unarmed operations
/// pass through to the wrapped Fs. Tests set the public members directly
/// — this mirrors how fault/defects.hpp parameterizes silicon injection.
class FaultFs : public Fs {
 public:
  explicit FaultFs(Fs& base) : base_(base) {}

  // --- injection knobs -------------------------------------------------
  /// Next N atomic writes fail with kNoSpace, leaving no file behind.
  int fail_writes_nospace = 0;
  /// Next N atomic writes fail with kAccess.
  int fail_writes_access = 0;
  /// When >= 0: the next atomic write persists only this many bytes of
  /// the payload directly at the final path and reports success — the
  /// "power cut plus lying disk" torn-write model the CRC must catch.
  long torn_write_bytes = -1;
  /// Next N renames fail with kOther.
  int fail_renames = 0;
  /// When >= 0: the next successful read has this bit index flipped.
  long corrupt_read_bit = -1;
  /// When >= 0: the next successful read is truncated to this length.
  long truncate_read_to = -1;
  /// Next N lock attempts report kBusy (a racing writer).
  int fail_locks_busy = 0;
  /// Every make_dirs fails with kAccess (unwritable parent).
  bool fail_mkdirs = false;

  // --- op counters (assertable) ----------------------------------------
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t renames = 0;

  IoStatus read_file(const std::string& path, std::string* out) override;
  IoStatus write_file_atomic(const std::string& path,
                             const std::string& data) override;
  IoStatus rename_file(const std::string& from, const std::string& to) override;
  IoStatus remove_file(const std::string& path) override;
  IoStatus make_dirs(const std::string& path) override;
  bool exists(const std::string& path) override;
  bool writable(const std::string& path) override;
  IoStatus lock_exclusive(const std::string& path, int* handle) override;
  void unlock(int handle) override;

 private:
  Fs& base_;
};

}  // namespace limsynth::fs
