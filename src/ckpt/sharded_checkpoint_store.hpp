// The per-process stable-storage store every ckpt::Node holds.
//
// Under RDT-LGC a process keeps at most n live checkpoints (§4.5) and has
// exactly one writer thread, so the store is one flat sorted index over one
// medium, used from one thread.  What it wraps depends on StorageConfig:
//  * in-memory (the default): one CheckpointStore, called directly — the
//    class is final, so the hot put/collect/contains calls devirtualize and
//    inline;
//  * persistent, DurabilityMode::kSync: one StorageBackend (an mmap'd
//    segment or a log, storage_backend.hpp) that every mutation writes
//    through;
//  * persistent, kGroupCommit/kBackground: a CheckpointStore as the
//    ACKNOWLEDGED mirror that serves every read at in-memory speed, plus one
//    StorageBackend holding the DURABLE state, fed by a
//    ckpt::DurabilityPipeline in group commits (durability_pipeline.hpp has
//    the scheduling and crash semantics).  Dropping the store without
//    flush() models a crash: the un-drained window is lost and recovery
//    lands on a prefix of the acknowledged history.
//
// Each process writes exactly one media file, StorageConfig::file(owner).
// The medium persists its own lifetime StoreStats, and because the pipeline
// replays exactly the acknowledged op prefix into it, those persisted
// counters are the durable counters: recover() needs nothing else.
//
// Reopening: construct with OpenMode::kAttach over the same directory and
// call recover() before any mutation; recovery::recovery_line_from_storage()
// builds a full restart-from-disk on it.
//
// Name and shape kept for e2ebench/: the class name, this header's path,
// kDefaultShardCount, StoreConcurrency::kUnsynchronized, the 4-argument
// constructor, shard_count(), shard(0), durable_shard(0), pipeline(), and
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
#include "ckpt/durability_pipeline.hpp"
#include "ckpt/storage_backend.hpp"
#include "util/check.hpp"

namespace rdtgc::ckpt {

/// The store is single-threaded; this is the only mode (see header comment).
enum class StoreConcurrency {
  kUnsynchronized,
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
    return write_through_ ? media_->contains(index) : memory_.contains(index);
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
  /// Allocation-free.
  void collect(CheckpointIndex index);

  /// Rollback discard of every checkpoint with index > ri (Algorithm 3
  /// line 4).  Returns how many were discarded.  Allocation-free.
  std::size_t discard_after(CheckpointIndex ri);

  /// Currently stored indices, ascending.  O(1): a live view invalidated by
  /// the next mutation — copy before interleaving with mutations.
  const std::vector<CheckpointIndex>& stored_indices() const {
    return write_through_ ? media_->stored_indices() : memory_.stored_indices();
  }

  /// Highest stored index; throws ContractViolation on an empty store.
  /// O(1), never allocates.
  CheckpointIndex last_index() const {
    return write_through_ ? media_->last_index() : memory_.last_index();
  }

  /// Live checkpoints.  O(1), never allocates.
  std::size_t count() const {
    return write_through_ ? media_->count() : memory_.count();
  }
  /// Bytes currently held.  O(1), never allocates.
  std::uint64_t bytes() const {
    return write_through_ ? media_->bytes() : memory_.bytes();
  }

  /// Lifetime counters of the acknowledged state.  O(1), never allocates.
  using Stats = StoreStats;
  const Stats& stats() const { return shard(0).stats(); }

  // ---- Persistence (see the header comment) ----

  /// Rebuild the in-memory index and the lifetime counters from the medium.
  /// Required (once) after constructing with OpenMode::kAttach, a no-op on
  /// a live store.  Returns the number of live checkpoints.  May allocate
  /// (recovery is off every hot path).
  std::size_t recover();

  /// Durability point: drain the pipeline (if any), then flush the medium
  /// (msync/fsync), so every acknowledged mutation is durable on return.
  /// Rethrows a failure the background writer hit.  No-op for in-memory
  /// storage.
  void flush();

  // ---- Asynchronous durability (see the header comment) ----

  /// Whether a DurabilityPipeline is active (persistent backend with a
  /// non-kSync policy).  O(1), never allocates.
  bool pipelined() const { return pipeline_ != nullptr; }

  /// The pipeline, or nullptr in kSync / in-memory mode.
  DurabilityPipeline* pipeline() { return pipeline_.get(); }
  const DurabilityPipeline* pipeline() const { return pipeline_.get(); }

  /// Acked-vs-synced snapshot.  Without a pipeline the lag is identically
  /// zero (indices report last_index()).  Safe against a background drain.
  DurabilityStatus durability() const;

  // ---- Backend introspection (tests, benches, e2ebench/) ----

  /// Always 1.
  std::size_t shard_count() const { return 1; }
  /// The backend serving reads: the medium in kSync persistent mode, the
  /// in-memory store otherwise.  `s` must be 0.
  const StorageBackend& shard(std::size_t s) const {
    RDTGC_EXPECTS(s == 0);
    return write_through_ ? static_cast<const StorageBackend&>(*media_)
                          : memory_;
  }
  /// The DURABLE backend: the medium whenever there is one (in pipelined
  /// mode shard(0) is the acknowledged mirror), the in-memory store
  /// otherwise.  `s` must be 0.
  const StorageBackend& durable_shard(std::size_t s) const {
    RDTGC_EXPECTS(s == 0);
    return media_ != nullptr ? static_cast<const StorageBackend&>(*media_)
                             : memory_;
  }

 private:
  /// In-memory mode: the store.  Pipelined mode: the acknowledged mirror.
  /// Unused (empty) in kSync persistent mode.
  CheckpointStore memory_;
  /// The persistent medium; null in in-memory mode.
  std::unique_ptr<StorageBackend> media_;
  /// kSync persistent mode: mutations and reads go straight to media_.
  bool write_through_ = false;
  /// kAttach: recover() has not run yet; mutations are rejected.
  bool pending_recover_ = false;
  /// Group-commit/background-writer pipeline (non-kSync persistent mode
  /// only).  LAST member: destroyed first, so the writer thread is joined
  /// before the medium it drains into goes away.
  std::unique_ptr<DurabilityPipeline> pipeline_;
};

}  // namespace rdtgc::ckpt
