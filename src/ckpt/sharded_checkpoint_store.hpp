// The per-process stable-storage store every ckpt::Node holds.
//
// Under RDT-LGC a process keeps at most n live checkpoints (§4.5) and has
// exactly one writer thread, so the store is one flat sorted index over one
// medium, used from one thread.  What it wraps depends on StorageConfig:
//  * in-memory (the default): one CheckpointStore, called directly — the
//    class is final, so the hot put/collect/contains calls devirtualize and
//    inline;
//  * persistent: one StorageBackend (an mmap'd segment or a log,
//    storage_backend.hpp) that every mutation writes through before it
//    returns.  A checkpoint is therefore on the medium once it is taken, as
//    the paper's GC proofs assume (§2.2): dropping the store without
//    flush() models a process crash and loses nothing it acknowledged.
//    flush() is the durability point against an OS crash.
//
// Each process writes exactly one media file, StorageConfig::file(owner).
// The medium persists its own lifetime StoreStats, so recover() needs
// nothing else.
//
// Reopening: construct with OpenMode::kAttach over the same directory and
// call recover() before any mutation; recovery::lemma1_plan over
// recovery::StoreDvs builds a full restart-from-disk on it.
//
// Name and shape kept for e2ebench/: the class name, this header's path,
// kDefaultShardCount, StoreConcurrency::kUnsynchronized, the 4-argument
// constructor, shard_count(), shard(0), durable_shard(0), pipeline() with
// its DurabilityPipeline stub, and
// GarbageCollector::initialize(ProcessId, std::size_t,
// ShardedCheckpointStore&).  The benchmark harness compiles against them;
// renaming waits for a change that is allowed to edit the benchmark.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "causality/dependency_vector.hpp"
#include "causality/types.hpp"
#include "ckpt/checkpoint_store.hpp"
#include "ckpt/storage_backend.hpp"
#include "util/check.hpp"

namespace rdtgc::ckpt {

/// The store is single-threaded; this is the only mode (see header comment).
enum class StoreConcurrency {
  kUnsynchronized,
};

/// No store has a durability pipeline; pipeline() always returns nullptr
/// (see the header comment).
struct DurabilityPipeline {
  std::uint64_t commits() const { return 0; }
};

class ShardedCheckpointStore {
 public:
  /// The store has exactly one shard (see header comment).
  static constexpr std::size_t kDefaultShardCount = 1;

  /// `shard_count` must be 1 (it and `concurrency` stay for e2ebench/).  `storage` selects the medium (default:
  /// in-memory); with OpenMode::kAttach the store opens existing media and
  /// recover() must run before any mutation.  Throws util::IoError when the
  /// medium cannot be created or opened.
  explicit ShardedCheckpointStore(
      ProcessId owner, std::size_t shard_count = kDefaultShardCount,
      StoreConcurrency concurrency = StoreConcurrency::kUnsynchronized,
      const StorageConfig& storage = StorageConfig());

  /// Owning process id.  O(1), never allocates.
  ProcessId owner() const { return memory_.owner(); }

  /// Store a new checkpoint; indices arrive in strictly increasing order
  /// within a lineage (rollback may reintroduce previously-used indices
  /// after discard_after()).  Amortized allocation-free once the vectors
  /// reached steady-state capacity.
  void put(StoredCheckpoint checkpoint);

  /// Copy-in variant for the hot checkpoint path: the dependency vector is
  /// copied into the buffer recycled by the most recent collect(), so
  /// steady-state checkpoint-and-collect churn never touches the heap.
  void put(CheckpointIndex index, const causality::DependencyVector& dv,
           SimTime stored_at, std::uint64_t bytes);

  /// Membership test; one binary search.  Never allocates.
  bool contains(CheckpointIndex index) const {
    return media_ != nullptr ? media_->contains(index)
                             : memory_.contains(index);
  }

  /// Reference into the in-memory index — invalidated by the next mutation
  /// (put/collect/discard_after); copy before interleaving.  Never
  /// allocates.
  const StoredCheckpoint& get(CheckpointIndex index) const {
    return shard(0).get(index);
  }

  /// Non-owning view of the stored dependency vector (the mmap backend
  /// serves it straight from the mapped file).  Invalidated by the next
  /// mutation.
  causality::DvView dv_view(CheckpointIndex index) const {
    return shard(0).dv_view(index);
  }

  /// Garbage-collection elimination of an obsolete checkpoint.
  /// Allocation-free.  Never retry on IoError (StorageBackend::collect).
  void collect(CheckpointIndex index);

  /// Rollback discard of every checkpoint with index > ri (Algorithm 3
  /// line 4).  Returns how many were discarded.  Allocation-free.  Never
  /// retry on IoError.
  std::size_t discard_after(CheckpointIndex ri);

  /// Currently stored indices, ascending.  O(1): a live view invalidated by
  /// the next mutation — copy before interleaving with mutations.
  const std::vector<CheckpointIndex>& stored_indices() const {
    return media_ != nullptr ? media_->stored_indices()
                             : memory_.stored_indices();
  }

  /// Highest stored index; throws ContractViolation on an empty store.
  /// O(1), never allocates.
  CheckpointIndex last_index() const {
    return media_ != nullptr ? media_->last_index() : memory_.last_index();
  }

  /// Live checkpoints.  O(1), never allocates.
  std::size_t count() const {
    return media_ != nullptr ? media_->count() : memory_.count();
  }
  /// Bytes currently held.  O(1), never allocates.
  std::uint64_t bytes() const {
    return media_ != nullptr ? media_->bytes() : memory_.bytes();
  }

  /// Lifetime counters.  O(1), never allocates.
  using Stats = StoreStats;
  const Stats& stats() const { return shard(0).stats(); }

  // ---- Persistence (see the header comment) ----

  /// Rebuild the in-memory index and the lifetime counters from the medium.
  /// Required (once) after constructing with OpenMode::kAttach, a no-op on
  /// a live store.  Returns the number of live checkpoints.  May allocate
  /// (recovery is off every hot path).
  std::size_t recover();

  /// Durability point against an OS crash: flush the medium (msync/fsync).
  /// No-op for in-memory storage.
  void flush();

  /// Always nullptr (kept for e2ebench/).
  const DurabilityPipeline* pipeline() const { return nullptr; }

  // ---- Backend introspection (tests, benches, e2ebench/) ----

  /// Always 1.
  std::size_t shard_count() const { return 1; }
  /// The backend: the medium in persistent mode, the in-memory store
  /// otherwise.  `s` must be 0.
  const StorageBackend& shard(std::size_t s) const {
    RDTGC_EXPECTS(s == 0);
    return media_ != nullptr ? static_cast<const StorageBackend&>(*media_)
                             : memory_;
  }
  /// Same as shard(s).
  const StorageBackend& durable_shard(std::size_t s) const { return shard(s); }

 private:
  /// In-memory mode: the store.  Unused (empty) in persistent mode.
  CheckpointStore memory_;
  /// The persistent medium; null in in-memory mode.  Rejects mutations
  /// until recover() ran when opened with OpenMode::kAttach.
  std::unique_ptr<StorageBackend> media_;
};

}  // namespace rdtgc::ckpt
