#include "ckpt/sharded_checkpoint_store.hpp"

#include <utility>

#include "util/check.hpp"

namespace rdtgc::ckpt {

ShardedCheckpointStore::ShardedCheckpointStore(ProcessId owner,
                                               std::size_t shard_count,
                                               StoreConcurrency,
                                               const StorageConfig& storage)
    : memory_(owner) {
  RDTGC_EXPECTS(shard_count == 1);
  if (storage.kind == StorageBackendKind::kInMemory) return;
  media_ = make_backend(storage, owner);
  pending_recover_ = storage.open_mode == OpenMode::kAttach;
  if (storage.durability.mode == DurabilityMode::kSync) {
    write_through_ = true;
  } else {
    pipeline_ =
        std::make_unique<DurabilityPipeline>(storage.durability, *media_);
  }
}

// Pipelined mutations check the mirror's preconditions, then record the op,
// then apply it to the mirror: recording may drain inline when the ring is
// full, and if that drain throws the op must be rejected whole rather than
// acknowledged in the mirror alone.

void ShardedCheckpointStore::put(StoredCheckpoint checkpoint) {
  RDTGC_EXPECTS(!pending_recover_);
  if (write_through_) {
    media_->put(std::move(checkpoint));
    return;
  }
  bool commit_now = false;
  if (pipeline_ != nullptr) {
    RDTGC_EXPECTS(checkpoint.index >= 0);
    RDTGC_EXPECTS(count() == 0 || checkpoint.index > last_index());
    commit_now = pipeline_->record_put(checkpoint.index, checkpoint.dv,
                                       checkpoint.stored_at, checkpoint.bytes);
  }
  memory_.put(std::move(checkpoint));
  if (commit_now) pipeline_->commit();
}

void ShardedCheckpointStore::put(CheckpointIndex index,
                                 const causality::DependencyVector& dv,
                                 SimTime stored_at, std::uint64_t bytes) {
  RDTGC_EXPECTS(!pending_recover_);
  if (write_through_) {
    media_->put(index, dv, stored_at, bytes);
    return;
  }
  bool commit_now = false;
  if (pipeline_ != nullptr) {
    RDTGC_EXPECTS(index >= 0);
    RDTGC_EXPECTS(count() == 0 || index > last_index());
    commit_now = pipeline_->record_put(index, dv, stored_at, bytes);
  }
  memory_.put(index, dv, stored_at, bytes);
  if (commit_now) pipeline_->commit();
}

void ShardedCheckpointStore::collect(CheckpointIndex index) {
  RDTGC_EXPECTS(!pending_recover_);
  if (write_through_) {
    media_->collect(index);
    return;
  }
  bool commit_now = false;
  if (pipeline_ != nullptr) {
    RDTGC_EXPECTS(memory_.contains(index));
    commit_now = pipeline_->record_collect(index);
  }
  memory_.collect(index);
  if (commit_now) pipeline_->commit();
}

std::size_t ShardedCheckpointStore::discard_after(CheckpointIndex ri) {
  RDTGC_EXPECTS(!pending_recover_);
  if (write_through_) return media_->discard_after(ri);
  const bool commit_now =
      pipeline_ != nullptr && pipeline_->record_discard(ri);
  const std::size_t discarded = memory_.discard_after(ri);
  if (commit_now) pipeline_->commit();
  return discarded;
}

std::size_t ShardedCheckpointStore::recover() {
  if (!pending_recover_) return count();
  media_->recover();
  if (pipeline_ != nullptr) {
    // After a crash the acknowledged state IS the recovered durable prefix:
    // rebuild the mirror from the medium, counters included.
    RDTGC_EXPECTS(memory_.count() == 0);
    for (const CheckpointIndex index : media_->stored_indices()) {
      const StoredCheckpoint& checkpoint = media_->get(index);
      memory_.put(index, checkpoint.dv, checkpoint.stored_at,
                  checkpoint.bytes);
    }
    memory_.restore_stats(media_->stats());
    pipeline_->reset_after_recover(
        media_->count() > 0 ? media_->last_index() : kNoCheckpoint);
  }
  pending_recover_ = false;
  return count();
}

void ShardedCheckpointStore::flush() {
  // Drain first so every acknowledged mutation reaches the medium before
  // its flush below.
  if (pipeline_ != nullptr) pipeline_->commit();
  if (media_ != nullptr) media_->flush();
}

DurabilityStatus ShardedCheckpointStore::durability() const {
  if (pipeline_ != nullptr) return pipeline_->status();
  DurabilityStatus status;
  // No pipeline: every mutation is already durable when acknowledged.
  const Stats& s = stats();
  status.acked_ops = s.stored + s.collected + s.discarded;
  status.synced_ops = status.acked_ops;
  status.acked_index = count() > 0 ? last_index() : kNoCheckpoint;
  status.synced_index = status.acked_index;
  return status;
}

}  // namespace rdtgc::ckpt
