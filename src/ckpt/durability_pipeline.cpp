#include "ckpt/durability_pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>
#include <utility>

#include "util/check.hpp"

namespace rdtgc::ckpt {

namespace {

/// Ring capacity: comfortably above the commit window so inline mode never
/// fills it and background producers rarely do, rounded to a power of two
/// for mask indexing.
std::size_t ring_capacity_for(std::size_t every_k) {
  std::size_t want = std::max<std::size_t>(2 * every_k, 64);
  std::size_t cap = 1;
  while (cap < want) cap <<= 1;
  return cap;
}

/// How long an idle background writer naps between ring polls.  Short
/// enough that the lag stays bounded by a few tens of microseconds of
/// wall-clock, long enough not to burn a core spinning.
constexpr std::chrono::microseconds kWriterIdleNap{50};

constexpr std::size_t kAllOps = std::numeric_limits<std::size_t>::max();

}  // namespace

DurabilityPipeline::DurabilityPipeline(DurabilityPolicy policy,
                                       StorageBackend& backend)
    : policy_(policy),
      backend_(backend),
      ring_(ring_capacity_for(std::max<std::size_t>(policy.every_k_ops, 1))) {
  RDTGC_EXPECTS(policy_.mode != DurabilityMode::kSync);
  RDTGC_EXPECTS(policy_.every_k_ops >= 1);
  ring_mask_ = ring_.size() - 1;
  if (policy_.mode == DurabilityMode::kBackground)
    writer_ = std::thread([this] { writer_main(); });
}

DurabilityPipeline::~DurabilityPipeline() {
  // Crash model: no drain here.  The writer finishes the pass it already
  // claimed (in-process, not a real crash) and everything still enqueued
  // is discarded — recovery reopens the media at the last commit's prefix.
  stop_.store(true, std::memory_order_release);
  if (writer_.joinable()) writer_.join();
}

template <typename FillFn>
bool DurabilityPipeline::enqueue(bool is_put, FillFn&& fill) {
  std::unique_lock<std::mutex> ring(ring_lock_);
  while (head_ - tail_ == ring_.size()) {
    // Backpressure: drain inline.  Reached under kBackground when the
    // writer falls behind or stopped on an error, and under kGroupCommit
    // only after failed commits (the trigger fires at half the capacity).
    ring.unlock();
    commit();
    ring.lock();
  }
  fill(ring_[static_cast<std::size_t>(head_ & ring_mask_)]);
  ++head_;  // publish: the drain side may read the slot from here on
  const std::uint64_t pending = head_ - tail_;
  acked_ops_.fetch_add(1, std::memory_order_relaxed);
  ring.unlock();
  if (policy_.mode != DurabilityMode::kGroupCommit) return false;
  return pending >= policy_.every_k_ops || (is_put && policy_.every_checkpoint);
}

bool DurabilityPipeline::record_put(CheckpointIndex index,
                                    const causality::DependencyVector& dv,
                                    SimTime stored_at, std::uint64_t bytes) {
  const bool trigger = enqueue(/*is_put=*/true, [&](Slot& slot) {
    slot.kind = Slot::Kind::kPut;
    slot.index = index;
    slot.stored_at = stored_at;
    slot.bytes = bytes;
    slot.dv_size = dv.size();
    if (slot.dv.size() < slot.dv_size) slot.dv.resize(slot.dv_size);
    if (slot.dv_size > 0)
      std::memcpy(slot.dv.data(), dv.entries().data(),
                  slot.dv_size * sizeof(IntervalIndex));
  });
  acked_index_.store(index, std::memory_order_relaxed);
  return trigger;
}

bool DurabilityPipeline::record_collect(CheckpointIndex index) {
  return enqueue(/*is_put=*/false, [&](Slot& slot) {
    slot.kind = Slot::Kind::kCollect;
    slot.index = index;
  });
}

bool DurabilityPipeline::record_discard(CheckpointIndex ri) {
  const bool trigger = enqueue(/*is_put=*/false, [&](Slot& slot) {
    slot.kind = Slot::Kind::kDiscardAfter;
    slot.index = ri;
  });
  // A rollback truncates the acknowledged lineage; the acked index follows
  // it down so the lag figures stay meaningful across restarts.
  acked_index_.store(ri, std::memory_order_relaxed);
  return trigger;
}

void DurabilityPipeline::apply(const Slot& slot) {
  // `applied_index_` mirrors, in the same op order, exactly what
  // record_put / record_discard did to acked_index_ — so a fully drained
  // ring always reads acked_index == synced_index, whatever op a window
  // happens to end on (a collect leaves the put high-water alone on both
  // sides).
  switch (slot.kind) {
    case Slot::Kind::kPut:
      if (scratch_dv_.size() != slot.dv_size)
        scratch_dv_ = causality::DependencyVector(slot.dv_size);
      if (slot.dv_size > 0)
        std::memcpy(&scratch_dv_.at(0), slot.dv.data(),
                    slot.dv_size * sizeof(IntervalIndex));
      backend_.put(slot.index, scratch_dv_, slot.stored_at, slot.bytes);
      applied_index_ = slot.index;
      break;
    case Slot::Kind::kCollect:
      backend_.collect(slot.index);
      break;
    case Slot::Kind::kDiscardAfter:
      backend_.discard_after(slot.index);
      applied_index_ = slot.index;  // the lineage truncated to ri
      break;
  }
}

std::size_t DurabilityPipeline::drain_locked(std::size_t max_ops) {
  std::uint64_t to;
  {
    std::lock_guard<std::mutex> ring(ring_lock_);
    // Clamp on the occupancy, not `applied_ + max_ops` — the latter wraps
    // when commit() passes kAllOps.
    to = applied_ + std::min<std::uint64_t>(head_ - applied_, max_ops);
  }
  const std::uint64_t from = tail_;
  if (to == from) return 0;

  // Apply in acknowledgment order.  Slots in [applied_, to) are stable:
  // the producer cannot reuse them until tail_ advances past, below.
  backend_.begin_batch();
  try {
    for (; applied_ < to; ++applied_)
      apply(ring_[static_cast<std::size_t>(applied_ & ring_mask_)]);
  } catch (...) {
    // Close the bracket; the ops applied so far stay applied, and the next
    // drain resumes at the one that threw.
    try {
      backend_.end_batch(/*durable=*/false);
    } catch (...) {
      // The first error is the one to report; the backend keeps whatever
      // it could not emit for the retry.
    }
    throw;
  }
  // One coalesced emit + durability point.  Both backends close the bracket
  // before any I/O, so a throw here leaves it closed and applied_ ahead of
  // tail_: the retry re-syncs without re-applying.
  backend_.end_batch(/*durable=*/true);

  {
    std::lock_guard<std::mutex> ring(ring_lock_);
    tail_ = to;
  }
  synced_ops_.fetch_add(to - from, std::memory_order_relaxed);
  synced_index_.store(applied_index_, std::memory_order_relaxed);
  commits_.fetch_add(1, std::memory_order_relaxed);
  return static_cast<std::size_t>(to - from);
}

void DurabilityPipeline::commit() {
  std::lock_guard<std::mutex> drain(drain_lock_);
  if (writer_error_) std::rethrow_exception(std::exchange(writer_error_, {}));
  drain_locked(kAllOps);
  writer_stopped_ = false;
}

void DurabilityPipeline::reset_after_recover(CheckpointIndex last_index) {
  std::lock_guard<std::mutex> drain(drain_lock_);
  {
    std::lock_guard<std::mutex> ring(ring_lock_);
    RDTGC_EXPECTS(head_ == tail_);  // recover() runs before any mutation
  }
  acked_ops_.store(0, std::memory_order_relaxed);
  synced_ops_.store(0, std::memory_order_relaxed);
  acked_index_.store(last_index, std::memory_order_relaxed);
  synced_index_.store(last_index, std::memory_order_relaxed);
  applied_index_ = last_index;
}

DurabilityStatus DurabilityPipeline::status() const {
  DurabilityStatus status;
  // acked before synced: a concurrent drain can only move synced up, so a
  // torn read errs toward REPORTING more lag, never a negative one.
  status.synced_ops = synced_ops_.load(std::memory_order_relaxed);
  status.acked_ops = acked_ops_.load(std::memory_order_relaxed);
  if (status.acked_ops < status.synced_ops) status.acked_ops = status.synced_ops;
  status.acked_index = acked_index_.load(std::memory_order_relaxed);
  status.synced_index = synced_index_.load(std::memory_order_relaxed);
  return status;
}

void DurabilityPipeline::writer_main() {
  while (!stop_.load(std::memory_order_acquire)) {
    std::size_t drained = 0;
    {
      std::lock_guard<std::mutex> drain(drain_lock_);
      if (!writer_stopped_) {
        try {
          drained = drain_locked(policy_.every_k_ops);
        } catch (...) {
          // Hand the failure to the caller's thread (the next commit())
          // and stop draining until a caller-side commit succeeds.
          writer_error_ = std::current_exception();
          writer_stopped_ = true;
        }
      }
    }
    if (drained == 0) std::this_thread::sleep_for(kWriterIdleNap);
  }
}

}  // namespace rdtgc::ckpt
