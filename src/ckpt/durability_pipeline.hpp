// Asynchronous durability for a checkpoint store: group commit and an
// optional background writer, so the zero-alloc protocol hot path never
// blocks on media.
//
// The paper's model assumes checkpoints reach stable storage; the kSync
// backends charge that cost to the protocol hot path (one pwrite per log
// record, write-through mapped pages, fsync/msync inline).  Under a
// non-kSync DurabilityPolicy the owning ShardedCheckpointStore splits the
// two roles:
//
//   * the ACKNOWLEDGED state lives in the store's in-memory CheckpointStore
//     mirror — the same zero-allocation path as the in-memory backend — and
//     serves every read and every protocol decision;
//   * the DURABLE state lives in the persistent backend, which no longer
//     sees mutations directly.  Each acknowledged mutation is recorded in
//     this pipeline's bounded ring (preallocated slots, DV payload buffers
//     reused across wraps — steady-state enqueue is allocation-free), and a
//     GROUP COMMIT replays a whole window of recorded ops, in
//     acknowledgment order, into the backend inside one
//     begin_batch()/end_batch(true) bracket, so the log backend emits the
//     window as ONE pwrite + one fsync and the mmap backend pays one msync.
//
// Commit scheduling: kGroupCommit drains inline on the operation that
// fills the window (every_k_ops; optionally every put with
// every_checkpoint), so the caller's thread pays the amortized media cost.
// kBackground drains on a dedicated writer thread that claims windows from
// the ring (every_k_ops bounds a pass).  Under either policy a producer
// that finds the ring full drains it inline (backpressure).
//
// Two cursors split the drained ops.  `applied_` counts ops replayed into
// the backend, `tail_` ops whose window also synced.  A commit whose sync
// throws leaves applied_ ahead of tail_, and the retry only re-syncs: no op
// is ever applied twice, and the batch bracket is closed on every throw.
// The background writer catches its own I/O error, stores it, and stops
// draining; the next commit() on a caller's thread rethrows it there, and
// the commit after that drains inline and, on success, restarts the writer.
//
// Locking (two std::mutexes, fixed order drain_lock_ -> ring_lock_):
//   ring_lock_  — guards the ring indices and slot publication; held for
//                 slot fill on enqueue and index reads/advance on drains.
//   drain_lock_ — serializes whole drains (writer passes, inline commits)
//                 and guards the drain-side state and the writer's error.
//                 I/O happens under drain_lock_ but NEVER under ring_lock_,
//                 so the producer keeps enqueueing while a commit writes.
//
// Crash semantics (the contract tests/durability_test.cpp certifies
// against the Theorem-1 oracle): the recorded-op sequence is the
// acknowledged history, and every commit applies a PREFIX of it, in order,
// then syncs.  Dropping the store without flush() models the crash — the
// un-drained window is discarded (the destructor stops the writer after
// its in-flight pass; it does not drain), so recovery lands on the state
// after some prefix of the acknowledged operations: never a reordering,
// never a gap.  The backend persists its own lifetime counters as it
// replays, so recovered stats always match the recovered prefix.  As with
// the mmap backend's in-place compaction, a commit is not atomic against
// an OS crash mid-drain; the model — here and in the tests — is dropping
// the object between operations.
//
// Observability: acknowledged-vs-synced op counts and checkpoint indices
// are maintained as atomics, snapshot by status() — the durability-lag
// figure metrics::DurabilityLag samples and the sweep summaries aggregate.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "causality/dependency_vector.hpp"
#include "causality/types.hpp"
#include "ckpt/storage_backend.hpp"

namespace rdtgc::ckpt {

/// One snapshot of the acknowledged-vs-durable gap.  In kSync mode (no
/// pipeline) the gap is identically zero.
struct DurabilityStatus {
  std::uint64_t acked_ops = 0;   ///< mutations acknowledged to the caller
  std::uint64_t synced_ops = 0;  ///< mutations durable on the media
  /// Highest checkpoint index acknowledged / made durable (kNoCheckpoint
  /// before the first put).  Not monotonic across rollbacks.
  CheckpointIndex acked_index = kNoCheckpoint;
  CheckpointIndex synced_index = kNoCheckpoint;

  std::uint64_t lag_ops() const { return acked_ops - synced_ops; }
};

class DurabilityPipeline {
 public:
  /// `backend` is the persistent medium the drains write into (owned by
  /// the store, which destroys this pipeline first).  Policy mode must not
  /// be kSync.  Starts the writer thread in kBackground mode.
  DurabilityPipeline(DurabilityPolicy policy, StorageBackend& backend);

  /// Stops the writer after its in-flight pass and DISCARDS whatever is
  /// still enqueued — dropping the store without flush() models a crash.
  ~DurabilityPipeline();

  DurabilityPipeline(const DurabilityPipeline&) = delete;
  DurabilityPipeline& operator=(const DurabilityPipeline&) = delete;

  // ---- Recording (called by the store BEFORE it applies the op to its
  // mirror).  Each returns true when the policy calls for an inline group
  // commit; the caller then invokes commit().  A full ring is drained
  // inline first, so recording may throw what commit() throws — the op is
  // then not recorded.  Steady-state allocation-free once every slot's DV
  // buffer is sized. ----

  bool record_put(CheckpointIndex index, const causality::DependencyVector& dv,
                  SimTime stored_at, std::uint64_t bytes);
  bool record_collect(CheckpointIndex index);
  bool record_discard(CheckpointIndex ri);

  /// Drain every recorded op as one group commit and make it durable.
  /// First rethrows (once) an error the background writer stored; throws
  /// util::IoError when the commit's own I/O fails, in which case the next
  /// commit retries the sync.  Requires the caller's mutators to be
  /// quiescent for "every recorded op" to mean "everything acknowledged".
  void commit();

  /// Reset the pipeline after the owning store recovered from media: the
  /// lag collapses to zero at `last_index`.
  void reset_after_recover(CheckpointIndex last_index);

  /// Acked-vs-synced snapshot; safe to call concurrently with a
  /// background drain.
  DurabilityStatus status() const;

  /// Group commits completed (drain passes that made at least one op
  /// durable).
  std::uint64_t commits() const {
    return commits_.load(std::memory_order_relaxed);
  }

 private:
  struct Slot {
    enum class Kind : std::uint8_t { kPut, kCollect, kDiscardAfter };
    Kind kind = Kind::kPut;
    CheckpointIndex index = 0;  ///< kDiscardAfter: the restore point ri
    SimTime stored_at = 0;      ///< kPut only
    std::uint64_t bytes = 0;    ///< kPut only
    /// kPut: the DV payload, copied into a buffer reused across ring
    /// wraps (sized on first use; allocation-free thereafter).
    std::vector<IntervalIndex> dv;
    std::size_t dv_size = 0;
  };

  /// Reserve the next slot (draining inline while the ring is full), fill
  /// it via `fill`, publish it, and report whether the group-commit
  /// trigger fired.
  template <typename FillFn>
  bool enqueue(bool is_put, FillFn&& fill);

  /// Apply one recorded op to the backend.
  void apply(const Slot& slot);

  /// One drain pass; caller holds drain_lock_.  Applies up to `max_ops`
  /// recorded-but-unapplied ops inside one batch bracket, syncs, and
  /// frees the synced slots.  Returns how many ops became durable.
  std::size_t drain_locked(std::size_t max_ops);

  void writer_main();

  DurabilityPolicy policy_;
  StorageBackend& backend_;

  // Bounded ring: capacity is a power of two; head_/applied_/tail_ are
  // free-running sequence numbers with tail_ <= applied_ <= head_.  Slots
  // in [tail_, head_) belong to the drain side; the producer reuses a slot
  // only after tail_ passed it.  head_ and tail_ are guarded by ring_lock_
  // (tail_ is written under both locks, so drains may read it under
  // drain_lock_ alone).
  std::vector<Slot> ring_;
  std::size_t ring_mask_ = 0;
  std::uint64_t head_ = 0;
  std::uint64_t tail_ = 0;
  mutable std::mutex ring_lock_;

  std::mutex drain_lock_;

  // ---- Drain-side state (guarded by drain_lock_) ----
  /// Ops replayed into the backend; ahead of tail_ only after a failed sync.
  std::uint64_t applied_ = 0;
  /// What synced_index_ becomes once the applied ops are durable.
  CheckpointIndex applied_index_ = kNoCheckpoint;
  /// Reusable DV for replaying puts into the backend (copy-in target).
  causality::DependencyVector scratch_dv_;
  /// The background writer's failure, rethrown by the next commit().
  std::exception_ptr writer_error_;
  /// The writer stops draining after a failure until a commit() on a
  /// caller's thread succeeds.
  bool writer_stopped_ = false;

  // ---- Lag counters (atomics: probe reads race a background drain) ----
  std::atomic<std::uint64_t> acked_ops_{0};
  std::atomic<std::uint64_t> synced_ops_{0};
  std::atomic<CheckpointIndex> acked_index_{kNoCheckpoint};
  std::atomic<CheckpointIndex> synced_index_{kNoCheckpoint};
  std::atomic<std::uint64_t> commits_{0};

  // ---- Background writer ----
  std::atomic<bool> stop_{false};
  std::thread writer_;
};

}  // namespace rdtgc::ckpt
