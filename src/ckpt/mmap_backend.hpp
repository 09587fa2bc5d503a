// Mmap'd-file persistence for one process's checkpoint store.
//
// File layout (all integers little-endian host order, 8-byte aligned):
//
//   ┌──────────────────────────────────────────────────────────────┐
//   │ SegmentHeader  magic, version, owner, dv_width, clean flag,  │
//   │                slot_capacity, slots_used, lifetime StoreStats │
//   ├──────────────────────────────────────────────────────────────┤
//   │ slot 0   state | index | stored_at | bytes | dv[dv_width]    │
//   │ slot 1   …                                                   │
//   │ …        (slot_capacity fixed-size slots)                    │
//   └──────────────────────────────────────────────────────────────┘
//
// Checkpoints are appended with their dependency vectors: a put() writes
// the next slot's payload and commits it by flipping the slot state to
// kLive last, so a torn append is recognized (state still kEmpty) and
// skipped by recover().  A GC elimination (collect) clears the state to
// kDead in place — the mmap'd page write IS the storage update, there is no
// separate log.  When the slots run out, the segment first tries an
// IN-PLACE COMPACTION (slide the live slots — already in ascending index
// order — to the front and release the dead tail) when at least half the
// slots are dead; otherwise it doubles via ftruncate+remap
// (util::MappedFile::resize).  Either way previously returned dv_view()s
// are invalidated exactly like a vector reallocation, and the segment stays
// bounded by ~2× the peak live set instead of growing with total history.
// (In-place compaction is not atomic against an OS crash mid-slide; the
// crash model here — and in the tests — is dropping the object between
// operations, where every state is consistent.)
//
// Exception safety on the put path: the mirror's preconditions are checked
// and the segment grown BEFORE anything is written, so an IoError from a
// failed growth (e.g. ENOSPC) leaves mirror and medium untouched and
// coherent — the store remains usable.
//
// The in-memory side is a full CheckpointStore mirror (the live set is
// bounded by n+1 under RDT-LGC, so mirroring is cheap): every read — get,
// stored_indices, stats — is served by the mirror at flat-store speed,
// while dv_view() reads the mapped file itself so tests can catch a
// serialization mismatch between the two.  recover() rebuilds the mirror
// by scanning the committed live slots — their file order is ascending in
// index, because puts are strictly increasing within a lineage and a
// rollback kills the whole suffix above its restore point before any index
// is reused, so the scan replays straight into the mirror — and then
// restores the lifetime counters persisted in the header — the header is
// write-through on every mutation, so an unclean drop loses nothing but
// the msync durability point.
//
// The dependency-vector width is fixed per segment at the first put();
// storing vectors of a different width is a contract violation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "causality/dependency_vector.hpp"
#include "causality/types.hpp"
#include "ckpt/checkpoint_store.hpp"
#include "ckpt/storage_backend.hpp"
#include "util/mapped_file.hpp"

namespace rdtgc::ckpt {

class MmapFileBackend final : public StorageBackend {
 public:
  /// Opens (kFresh: truncates; kAttach: maps as-is, recover() required
  /// before mutating) the segment at `path`.  Throws util::IoError when the
  /// file cannot be created/opened.
  MmapFileBackend(ProcessId owner, std::string path, OpenMode mode,
                  std::size_t initial_slots);

  ProcessId owner() const override { return mem_.owner(); }
  StorageBackendKind kind() const override {
    return StorageBackendKind::kMmapFile;
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
  /// View into the MAPPED FILE (not the mirror): invalidated by the next
  /// put() (segment growth remaps).
  causality::DvView dv_view(CheckpointIndex index) const override;
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
  /// msync the segment and mark it cleanly closed.  Skipped entirely when
  /// nothing changed since the last flush (the dirty flag; see msyncs()).
  void flush() override;

  // ---- Introspection (tests, benches) ----

  /// Slots appended since the segment was created (live + dead).
  std::uint64_t slots_used() const;
  /// Current slot capacity of the mapping.
  std::uint64_t slot_capacity() const;
  /// msync syscalls actually issued by flush() (dirty-flag skips
  /// excluded).
  std::uint64_t msyncs() const { return msyncs_; }
  /// Whether the segment was flushed before it was last closed (valid right
  /// after recover(); any mutation clears the flag).
  bool recovered_clean() const { return recovered_clean_; }
  const std::string& path() const { return file_.path(); }

 private:
  static constexpr std::uint32_t kSlotEmpty = 0;
  static constexpr std::uint32_t kSlotLive = 1;
  static constexpr std::uint32_t kSlotDead = 2;

  struct SegmentHeader;
  struct SlotHeader;

  SegmentHeader* header();
  const SegmentHeader* header() const;
  std::size_t slot_size() const;
  std::byte* slot_at(std::uint64_t slot);
  const std::byte* slot_at(std::uint64_t slot) const;

  /// Fix the segment's DV width on first put; verify it afterwards.
  void ensure_width(std::size_t width);
  /// Make room for one more slot: in-place compaction when half the slots
  /// are dead, geometric growth otherwise.  May throw IoError (growth);
  /// everything after it on the put path is no-throw.
  void ensure_capacity();
  /// Write and commit one live slot.  No-throw (pure mapped-memory writes;
  /// ensure_capacity() reserved the slot and the live_slots_ entry).
  void write_slot(CheckpointIndex index, const causality::DependencyVector& dv,
                  SimTime stored_at, std::uint64_t bytes);
  /// Position of `index` in the mirror (== position in live_slots_).
  std::size_t live_position(CheckpointIndex index) const;
  /// Copy the mirror's lifetime counters into the mapped header and clear
  /// the clean flag (any mutation invalidates a clean shutdown).
  void sync_header_stats();

  CheckpointStore mem_;  ///< in-memory mirror serving all reads
  util::MappedFile file_;
  /// Slot number of each live checkpoint, parallel to (and in the same
  /// order as) mem_.stored_indices().
  std::vector<std::uint64_t> live_slots_;
  std::uint32_t dv_width_ = kWidthUnset;
  std::uint64_t msyncs_ = 0;
  bool pending_recover_ = false;
  bool recovered_clean_ = false;
  /// Mapped pages changed since the last successful msync.
  bool medium_dirty_ = false;

  static constexpr std::uint32_t kWidthUnset = 0xffffffffu;
};

}  // namespace rdtgc::ckpt
