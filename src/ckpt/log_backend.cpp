#include "ckpt/log_backend.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "util/check.hpp"
#include "util/mapped_file.hpp"  // util::IoError, util::fsync_parent_dir

namespace rdtgc::ckpt {

struct LogStructuredBackend::LogHeader {
  std::uint64_t magic;
  std::uint32_t version;
  std::int32_t owner;
  std::uint32_t dv_width;
  std::uint32_t reserved;
  std::uint64_t baseline_records;
  PersistedStoreStats stats;
};

struct LogStructuredBackend::RecordHeader {
  std::uint32_t magic;
  std::uint16_t type;
  std::uint16_t reserved;
  std::int32_t index;
  std::uint32_t pad;
  std::uint64_t stored_at;
  std::uint64_t bytes;
};

namespace {

constexpr std::uint64_t kLogMagic = 0x31474f4c434754ffull;  // "RDTGCLOG1"-ish
constexpr std::uint32_t kLogVersion = 1;
constexpr std::uint32_t kRecordMagic = 0x52435244u;  // "RCRD"

constexpr std::uint16_t kRecPut = 1;
constexpr std::uint16_t kRecCollect = 2;
constexpr std::uint16_t kRecDiscard = 3;

[[noreturn]] void throw_errno(const std::string& what, const std::string& path) {
  throw util::IoError(what + " '" + path + "': " + std::strerror(errno));
}

void pwrite_all(int fd, const void* data, std::size_t size, std::uint64_t off,
                const std::string& path) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = ::pwrite(fd, p, size, static_cast<off_t>(off));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("pwrite", path);
    }
    p += n;
    off += static_cast<std::uint64_t>(n);
    size -= static_cast<std::size_t>(n);
  }
}

/// Read exactly `size` bytes.  Returns false only on EOF / short read (a
/// torn tail the caller may truncate away); a real I/O failure throws
/// IoError instead — recovery must never mistake a transient read error
/// for a torn tail and amputate healthy records behind it.
bool pread_exact(int fd, void* data, std::size_t size, std::uint64_t off,
                 const std::string& path) {
  char* p = static_cast<char*>(data);
  while (size > 0) {
    const ssize_t n = ::pread(fd, p, size, static_cast<off_t>(off));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("pread", path);
    }
    if (n == 0) return false;
    p += n;
    off += static_cast<std::uint64_t>(n);
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

LogStructuredBackend::LogStructuredBackend(ProcessId owner, std::string path,
                                           OpenMode mode,
                                           std::size_t compact_min_records,
                                           double compact_dead_ratio)
    : mem_(owner),
      path_(std::move(path)),
      compact_min_records_(compact_min_records),
      compact_dead_ratio_(compact_dead_ratio) {
  static_assert(sizeof(LogHeader) == 72, "on-disk log-header layout");
  static_assert(sizeof(RecordHeader) == 32, "on-disk record layout");
  RDTGC_EXPECTS(compact_min_records_ >= 1);
  RDTGC_EXPECTS(compact_dead_ratio_ > 0.0 && compact_dead_ratio_ <= 1.0);
  // No O_APPEND: pwrite on an O_APPEND descriptor ignores its offset on
  // Linux, and compaction needs offset-addressed writes for the header.
  const int flags = mode == OpenMode::kFresh ? (O_RDWR | O_CREAT | O_TRUNC)
                                             : O_RDWR;
  fd_ = ::open(path_.c_str(), flags, 0644);
  if (fd_ < 0) throw_errno("open", path_);
  if (mode == OpenMode::kFresh) {
    open_fresh();
    dir_unsynced_ = true;  // the new directory entry, made durable by flush()
  } else {
    pending_recover_ = true;
  }
}

LogStructuredBackend::~LogStructuredBackend() {
  // Closing does NOT fsync: an unclean drop leaves whatever reached the
  // page cache, which is exactly what the crash-recovery tests model.
  if (fd_ >= 0) ::close(fd_);
}

void LogStructuredBackend::open_fresh() {
  LogHeader h{};
  h.magic = kLogMagic;
  h.version = kLogVersion;
  h.owner = mem_.owner();
  h.dv_width = kWidthUnset;
  h.baseline_records = 0;
  pwrite_all(fd_, &h, sizeof(h), 0, path_);
  end_offset_ = sizeof(LogHeader);
  log_records_ = 0;
  baseline_records_ = 0;
  dirty_ = true;
}

void LogStructuredBackend::ensure_width(std::size_t width) {
  if (dv_width_ == kWidthUnset) {
    dv_width_ = static_cast<std::uint32_t>(width);
    // Persist the width so recover() can size put payloads.
    LogHeader h{};
    if (!pread_exact(fd_, &h, sizeof(h), 0, path_))
      throw util::IoError("log '" + path_ + "' shorter than its header");
    h.dv_width = dv_width_;
    pwrite_all(fd_, &h, sizeof(h), 0, path_);
    dirty_ = true;
    return;
  }
  RDTGC_EXPECTS(width == dv_width_);
}

void LogStructuredBackend::append_record(std::uint16_t type,
                                         CheckpointIndex index,
                                         SimTime stored_at, std::uint64_t bytes,
                                         const causality::DependencyVector* dv) {
  RecordHeader rec{};
  rec.magic = kRecordMagic;
  rec.type = type;
  rec.index = index;
  rec.stored_at = stored_at;
  rec.bytes = bytes;
  const std::size_t payload =
      dv != nullptr ? dv->size() * sizeof(IntervalIndex) : 0;
  scratch_.resize(sizeof(rec) + payload);
  std::memcpy(scratch_.data(), &rec, sizeof(rec));
  if (payload > 0)
    std::memcpy(scratch_.data() + sizeof(rec), dv->entries().data(), payload);
  pwrite_all(fd_, scratch_.data(), scratch_.size(), end_offset_, path_);
  end_offset_ += scratch_.size();
  dirty_ = true;
  ++log_records_;
}

// Mutation ordering: validate the mirror's contract first, append to the
// medium second, update the mirror last.  A throw from the append (IoError,
// e.g. ENOSPC) then leaves the mirror untouched and the log with at most a
// partial record at the unchanged end_offset_ — a torn tail the next append
// overwrites and recover() truncates — so mirror and medium never diverge.

void LogStructuredBackend::put(StoredCheckpoint checkpoint) {
  RDTGC_EXPECTS(!pending_recover_);
  RDTGC_EXPECTS(checkpoint.index >= 0);
  RDTGC_EXPECTS(mem_.count() == 0 || checkpoint.index > mem_.last_index());
  ensure_width(checkpoint.dv.size());
  append_record(kRecPut, checkpoint.index, checkpoint.stored_at,
                checkpoint.bytes, &checkpoint.dv);
  mem_.put(std::move(checkpoint));
}

void LogStructuredBackend::put(CheckpointIndex index,
                               const causality::DependencyVector& dv,
                               SimTime stored_at, std::uint64_t bytes) {
  RDTGC_EXPECTS(!pending_recover_);
  RDTGC_EXPECTS(index >= 0);
  RDTGC_EXPECTS(mem_.count() == 0 || index > mem_.last_index());
  ensure_width(dv.size());
  append_record(kRecPut, index, stored_at, bytes, &dv);
  mem_.put(index, dv, stored_at, bytes);
}

void LogStructuredBackend::collect(CheckpointIndex index) {
  RDTGC_EXPECTS(!pending_recover_);
  if (!mem_.contains(index)) mem_.collect(index);  // the canonical throw
  append_record(kRecCollect, index, 0, 0, nullptr);
  mem_.collect(index);
  maybe_compact();
}

std::size_t LogStructuredBackend::discard_after(CheckpointIndex ri) {
  RDTGC_EXPECTS(!pending_recover_);
  append_record(kRecDiscard, ri, 0, 0, nullptr);
  const std::size_t discarded = mem_.discard_after(ri);
  maybe_compact();
  return discarded;
}

void LogStructuredBackend::maybe_compact() {
  if (log_records_ < compact_min_records_) return;
  const double live = static_cast<double>(mem_.count());
  const double dead_fraction = 1.0 - live / static_cast<double>(log_records_);
  if (dead_fraction >= compact_dead_ratio_) compact();
}

void LogStructuredBackend::compact() {
  const std::string tmp = path_ + ".tmp";
  const int tmp_fd = ::open(tmp.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (tmp_fd < 0) throw_errno("open", tmp);
  // Close and unlink the rewrite on every exit but success, where tmp_fd
  // becomes fd_: a failed pass (ENOSPC mid-rewrite, a failed fsync) leaks
  // neither a descriptor nor a stale path.tmp.
  struct TmpGuard {
    int fd;
    const std::string& path;
    ~TmpGuard() {
      if (fd < 0) return;
      ::close(fd);
      ::unlink(path.c_str());
    }
  } guard{tmp_fd, tmp};

  LogHeader h{};
  h.magic = kLogMagic;
  h.version = kLogVersion;
  h.owner = mem_.owner();
  h.dv_width = dv_width_;
  h.baseline_records = mem_.count();
  h.stats = PersistedStoreStats::from(mem_.stats());
  pwrite_all(tmp_fd, &h, sizeof(h), 0, tmp);

  std::uint64_t off = sizeof(LogHeader);
  for (const CheckpointIndex g : mem_.stored_indices()) {
    const StoredCheckpoint& checkpoint = mem_.get(g);
    RecordHeader rec{};
    rec.magic = kRecordMagic;
    rec.type = kRecPut;
    rec.index = checkpoint.index;
    rec.stored_at = checkpoint.stored_at;
    rec.bytes = checkpoint.bytes;
    const std::size_t payload = dv_width_ * sizeof(IntervalIndex);
    scratch_.resize(sizeof(rec) + payload);
    std::memcpy(scratch_.data(), &rec, sizeof(rec));
    if (payload > 0)
      std::memcpy(scratch_.data() + sizeof(rec),
                  checkpoint.dv.entries().data(), payload);
    pwrite_all(tmp_fd, scratch_.data(), scratch_.size(), off, tmp);
    off += scratch_.size();
  }
  if (util::io_fsync(tmp_fd) != 0) throw_errno("fsync", tmp);
  // Atomic swap: either the old log or the complete compacted one exists.
  if (::rename(tmp.c_str(), path_.c_str()) != 0) throw_errno("rename", tmp);
  ::close(fd_);
  fd_ = tmp_fd;  // tmp_fd now refers to the file at path_
  guard.fd = -1;  // success: the descriptor lives on as fd_
  end_offset_ = off;
  log_records_ = mem_.count();
  baseline_records_ = mem_.count();
  ++compactions_;
  // The compacted data was fsync'd before the rename, but the rename
  // itself (the directory entry) was not: the next flush() fsyncs the file
  // and then the directory.
  dirty_ = true;
  dir_unsynced_ = true;
}

std::size_t LogStructuredBackend::recover() {
  if (!pending_recover_) return mem_.count();
  LogHeader h{};
  if (!pread_exact(fd_, &h, sizeof(h), 0, path_))
    throw util::IoError("log '" + path_ + "' shorter than its header");
  RDTGC_EXPECTS(h.magic == kLogMagic);
  RDTGC_EXPECTS(h.version == kLogVersion);
  RDTGC_EXPECTS(h.owner == mem_.owner());
  dv_width_ = h.dv_width;
  baseline_records_ = h.baseline_records;

  std::uint64_t off = sizeof(LogHeader);
  std::uint64_t records = 0;
  causality::DependencyVector dv(dv_width_ == kWidthUnset ? 0 : dv_width_);
  // A compaction of an empty live set leaves no baseline puts to count off:
  // its snapshot applies before the first record (for a log never compacted
  // the snapshot is all zeros).
  if (baseline_records_ == 0) mem_.restore_stats(h.stats.to_stats());
  while (true) {
    RecordHeader rec{};
    if (!pread_exact(fd_, &rec, sizeof(rec), off, path_)) break;  // torn tail
    if (rec.magic != kRecordMagic) break;                  // torn tail
    std::uint64_t next = off + sizeof(rec);
    if (rec.type == kRecPut) {
      const std::size_t payload = dv.size() * sizeof(IntervalIndex);
      if (payload > 0 && !pread_exact(fd_, &dv.at(0), payload, next, path_))
        break;  // torn put payload
      next += payload;
      mem_.put(rec.index, dv, rec.stored_at, rec.bytes);
    } else if (rec.type == kRecCollect) {
      mem_.collect(rec.index);
    } else if (rec.type == kRecDiscard) {
      mem_.discard_after(rec.index);
    } else {
      break;  // unknown type: treat as torn tail
    }
    off = next;
    ++records;
    if (records == baseline_records_) {
      // The baseline puts are the compaction rewrite of a live set whose
      // history the snapshot carries; replaying them must not recount it.
      mem_.restore_stats(h.stats.to_stats());
    }
  }
  // Drop the torn tail so subsequent appends extend a well-formed log.
  if (::ftruncate(fd_, static_cast<off_t>(off)) != 0)
    throw_errno("ftruncate", path_);
  end_offset_ = off;
  log_records_ = records;
  pending_recover_ = false;
  dirty_ = true;  // the torn-tail ftruncate is an unsynced medium write
  return mem_.count();
}

void LogStructuredBackend::flush() {
  if (dirty_) {
    if (util::io_fsync(fd_) != 0) throw_errno("fsync", path_);
    ++fsyncs_;
    dirty_ = false;
  }
  if (dir_unsynced_) {
    // Without it an OS crash can lose a fresh log whole, or bring the
    // pre-compaction log back.  A failure leaves the flag set, so the next
    // flush() retries.
    util::fsync_parent_dir(path_);
    ++fsyncs_;
    dir_unsynced_ = false;
  }
}

}  // namespace rdtgc::ckpt
