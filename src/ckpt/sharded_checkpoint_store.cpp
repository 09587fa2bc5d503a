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
}

void ShardedCheckpointStore::put(StoredCheckpoint checkpoint) {
  if (media_ != nullptr) {
    media_->put(std::move(checkpoint));
    return;
  }
  memory_.put(std::move(checkpoint));
}

void ShardedCheckpointStore::put(CheckpointIndex index,
                                 const causality::DependencyVector& dv,
                                 SimTime stored_at, std::uint64_t bytes) {
  if (media_ != nullptr) {
    media_->put(index, dv, stored_at, bytes);
    return;
  }
  memory_.put(index, dv, stored_at, bytes);
}

void ShardedCheckpointStore::collect(CheckpointIndex index) {
  if (media_ != nullptr) {
    media_->collect(index);
    return;
  }
  memory_.collect(index);
}

std::size_t ShardedCheckpointStore::discard_after(CheckpointIndex ri) {
  return media_ != nullptr ? media_->discard_after(ri)
                           : memory_.discard_after(ri);
}

std::size_t ShardedCheckpointStore::recover() {
  return media_ != nullptr ? media_->recover() : memory_.recover();
}

void ShardedCheckpointStore::flush() {
  if (media_ != nullptr) media_->flush();
}

}  // namespace rdtgc::ckpt
