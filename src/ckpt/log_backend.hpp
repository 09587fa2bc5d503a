// Log-structured persistence for one process's checkpoint store.
//
// The medium is an append-only operation log:
//
//   ┌────────────────────────────────────────────────────────────────┐
//   │ LogHeader   magic, version, owner, dv_width,                   │
//   │             baseline_records, baseline StoreStats              │
//   ├────────────────────────────────────────────────────────────────┤
//   │ record 0    magic | type | index | stored_at | bytes [| dv…]   │
//   │ record 1    …   (kPut records carry the dependency vector)     │
//   └────────────────────────────────────────────────────────────────┘
//
// Every mutation appends one record (pwrite at the tracked tail — never
// seeks, never rewrites): a put() appends the checkpoint with its DV, an
// Algorithm-2 elimination appends a kCollect tombstone that marks the put
// record dead, a rollback appends one kDiscard record covering its whole
// suffix.  Dead weight therefore accumulates until the compaction pass
// runs: when the log holds at least `compact_min_records` records and the
// dead fraction (1 − live/records) reaches `compact_dead_ratio`, the live
// records are rewritten in ascending index order behind a fresh header into
// `path.tmp`, fsync'd, and atomically renamed over the log — the truncation
// step of a log-structured store.  The next flush() fsyncs the directory
// too, so the rename survives an OS crash (the first flush() after a kFresh
// open does the same for the new file); a failed pass unlinks path.tmp
// and leaves the live log as it was.  The GC drives compaction indirectly:
// eliminations are what create dead records, so a collector that reclaims
// more (RDT-LGC at the Theorem-1 optimum) also compacts the log harder.
//
// The rewritten prefix is remembered in the header as `baseline_records`
// together with a snapshot of the lifetime counters at compaction time:
// recover() replays the baseline puts, restores the snapshot (replaying a
// rewritten live set must not recount history), then replays the remaining
// records one by one — reconstructing indices, DVs, stats, and peaks
// exactly.  A torn tail (partial final record after a crash) is detected by
// record magic/length and truncated away.
//
// Reads are served by a full in-memory CheckpointStore mirror, as in the
// mmap backend.  The DV width is fixed per log at the first put().
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "causality/dependency_vector.hpp"
#include "causality/types.hpp"
#include "ckpt/checkpoint_store.hpp"
#include "ckpt/storage_backend.hpp"

namespace rdtgc::ckpt {

class LogStructuredBackend final : public StorageBackend {
 public:
  /// Opens (kFresh: truncates; kAttach: recover() required before mutating)
  /// the log at `path`.  Throws util::IoError when the file cannot be
  /// created/opened.
  LogStructuredBackend(ProcessId owner, std::string path, OpenMode mode,
                       std::size_t compact_min_records,
                       double compact_dead_ratio);
  ~LogStructuredBackend() override;

  ProcessId owner() const override { return mem_.owner(); }
  StorageBackendKind kind() const override {
    return StorageBackendKind::kLogStructured;
  }

  void put(StoredCheckpoint checkpoint) override;
  void put(CheckpointIndex index, const causality::DependencyVector& dv,
           SimTime stored_at, std::uint64_t bytes) override;
  bool contains(CheckpointIndex index) const override {
    return mem_.contains(index);
  }
  const StoredCheckpoint& get(CheckpointIndex index) const override {
    return mem_.get(index);
  }
  causality::DvView dv_view(CheckpointIndex index) const override {
    return mem_.dv_view(index);
  }
  void collect(CheckpointIndex index) override;
  std::size_t discard_after(CheckpointIndex ri) override;
  const std::vector<CheckpointIndex>& stored_indices() const override {
    return mem_.stored_indices();
  }
  CheckpointIndex last_index() const override { return mem_.last_index(); }
  std::size_t count() const override { return mem_.count(); }
  std::uint64_t bytes() const override { return mem_.bytes(); }
  const StoreStats& stats() const override { return mem_.stats(); }

  std::size_t recover() override;
  /// fsync the log (the durability point), then its directory when the log
  /// was created, or a compaction renamed a rewrite over it, since.  A step
  /// with nothing to make durable is skipped; a failed step stays pending
  /// for the next flush().
  void flush() override;

  // ---- Introspection (tests, benches) ----

  /// Records currently in the log (baseline + appended since).
  std::uint64_t log_records() const { return log_records_; }
  /// Put records rewritten by the last compaction (0 before the first).
  std::uint64_t baseline_records() const { return baseline_records_; }
  /// Compaction passes run over this object's lifetime.
  std::uint64_t compactions() const { return compactions_; }
  /// flush() fsync syscalls actually issued, file and directory alike.
  std::uint64_t fsyncs() const { return fsyncs_; }
  const std::string& path() const { return path_; }

 private:
  struct LogHeader;
  struct RecordHeader;

  void open_fresh();
  void ensure_width(std::size_t width);
  /// Serialize and append one record at the tail (scratch_ reused).
  void append_record(std::uint16_t type, CheckpointIndex index,
                     SimTime stored_at, std::uint64_t bytes,
                     const causality::DependencyVector* dv);
  /// Rewrite live records behind a fresh header when the dead fraction
  /// crossed the threshold.
  void maybe_compact();
  void compact();

  CheckpointStore mem_;  ///< in-memory mirror serving all reads
  std::string path_;
  int fd_ = -1;
  std::uint64_t end_offset_ = 0;  ///< append position (no O_APPEND: see .cpp)
  std::uint64_t log_records_ = 0;
  std::uint64_t baseline_records_ = 0;
  std::uint64_t compactions_ = 0;
  std::size_t compact_min_records_;
  double compact_dead_ratio_;
  std::uint32_t dv_width_ = kWidthUnset;
  std::uint64_t fsyncs_ = 0;
  bool pending_recover_ = false;
  /// Unsynced bytes reached the medium since the last successful flush().
  bool dirty_ = false;
  /// The log's directory entry (kFresh creation or a compaction's rename)
  /// is not yet durable.
  bool dir_unsynced_ = false;
  std::vector<std::byte> scratch_;  ///< reusable record serialization buffer

  static constexpr std::uint32_t kWidthUnset = 0xffffffffu;
};

}  // namespace rdtgc::ckpt
