#include "ccp/recorder.hpp"

#include <algorithm>
#include <limits>

#include "util/check.hpp"

namespace rdtgc::ccp {

DvArena::DvArena(std::size_t width)
    : width_(width),
      // ~16 KiB chunks, at least 8 rows: big enough that chunk allocation
      // vanishes in the churn, small enough that a short run wastes little.
      rows_per_chunk_(
          std::max<std::size_t>(8, 16384 / (sizeof(IntervalIndex) *
                                            std::max<std::size_t>(1, width)))) {
  RDTGC_EXPECTS(width >= 1);
}

void DvArena::push(std::span<const IntervalIndex> row) {
  RDTGC_EXPECTS(row.size() == width_);
  const std::size_t chunk = rows_ / rows_per_chunk_;
  if (chunk == chunks_.size())
    chunks_.push_back(
        std::make_unique<IntervalIndex[]>(rows_per_chunk_ * width_));
  // else: a chunk retained by truncate() is refilled in place.
  IntervalIndex* dst =
      chunks_[chunk].get() + (rows_ % rows_per_chunk_) * width_;
  std::copy(row.begin(), row.end(), dst);
  ++rows_;
}

causality::DvView DvArena::row(std::size_t r) const {
  RDTGC_EXPECTS(r < rows_);
  return causality::DvView(
      chunks_[r / rows_per_chunk_].get() + (r % rows_per_chunk_) * width_,
      width_);
}

void DvArena::truncate(std::size_t rows) {
  RDTGC_EXPECTS(rows <= rows_);
  rows_ = rows;  // chunks stay allocated for the re-execution to refill
}

void DvArena::reserve(std::size_t rows) {
  const std::size_t chunks = (rows + rows_per_chunk_ - 1) / rows_per_chunk_;
  while (chunks_.size() < chunks)
    chunks_.push_back(
        std::make_unique<IntervalIndex[]>(rows_per_chunk_ * width_));
}

CcpRecorder::CcpRecorder(std::size_t n)
    : checkpoints_(n),
      volatile_dv_(n, causality::DependencyVector(n)),
      attached_dv_(n, nullptr),
      next_serial_(n, 1),
      send_head_(n, 0),
      recv_head_(n, 0) {
  RDTGC_EXPECTS(n >= 1);
  dv_arena_.reserve(n);  // DvArena is move-only: emplace, don't fill-copy
  for (std::size_t p = 0; p < n; ++p) dv_arena_.emplace_back(n);
}

void CcpRecorder::reserve(std::size_t checkpoints) {
  const std::size_t n = process_count();
  for (std::size_t p = 0; p < n; ++p) {
    checkpoints_[p].reserve(checkpoints);
    dv_arena_[p].reserve(checkpoints);
  }
}

sim::MessageId CcpRecorder::new_message_id() {
  // Ids double as the undo chains' 32-bit links.
  RDTGC_EXPECTS(messages_.size() < std::numeric_limits<std::uint32_t>::max());
  messages_.emplace_back();
  return messages_.size();
}

void CcpRecorder::record_checkpoint(ProcessId p, CheckpointIndex idx,
                                    const causality::DependencyVector& dv,
                                    CheckpointKind kind, SimTime t) {
  RDTGC_EXPECTS(p >= 0 && static_cast<std::size_t>(p) < checkpoints_.size());
  auto& list = checkpoints_[static_cast<std::size_t>(p)];
  RDTGC_EXPECTS(idx == static_cast<CheckpointIndex>(list.size()));
  RDTGC_EXPECTS(dv.size() == process_count());
  RDTGC_EXPECTS(dv[p] == idx);
  // The DV is appended as one row of p's history arena: no per-record heap
  // vector, so steady-state recording is O(1)-allocation (one chunk per
  // rows_per_chunk records, exactly zero after reserve()).
  dv_arena_[static_cast<std::size_t>(p)].push(dv.entries());
  CheckpointInfo& info = list.emplace_back();
  info.process = p;
  info.index = idx;
  info.kind = kind;
  info.serial = next_serial_[static_cast<std::size_t>(p)]++;
  info.gseq = next_gseq_++;
  info.time = t;
  ++stats_.checkpoints_recorded;
}

void CcpRecorder::record_send(sim::Message& m, SimTime t) {
  RDTGC_EXPECTS(m.id >= 1 && m.id <= messages_.size());
  const std::size_t n = process_count();
  RDTGC_EXPECTS(m.src >= 0 && static_cast<std::size_t>(m.src) < n);
  RDTGC_EXPECTS(m.dst >= 0 && static_cast<std::size_t>(m.dst) < n);
  MessageInfo& info = messages_[m.id - 1];
  RDTGC_EXPECTS(info.send_serial == 0);  // each id used once
  const auto src = static_cast<std::size_t>(m.src);
  info.src = m.src;
  info.dst = m.dst;
  info.send_interval = m.send_interval;
  info.send_serial = next_serial_[src]++;
  info.send_gseq = next_gseq_++;
  info.prev_send = send_head_[src];
  send_head_[src] = static_cast<std::uint32_t>(m.id);
  m.send_serial = info.send_serial;
  (void)t;
}

void CcpRecorder::record_receive(const sim::Message& m,
                                 IntervalIndex recv_interval, SimTime t) {
  RDTGC_EXPECTS(m.id >= 1 && m.id <= messages_.size());
  MessageInfo& info = messages_[m.id - 1];
  RDTGC_EXPECTS(!info.delivered);
  RDTGC_EXPECTS(info.send_serial != 0);  // must have been sent
  // record_send range-checked info's endpoints; a mismatched dst would link
  // this receive into the wrong process's undo chain.
  RDTGC_EXPECTS(m.src == info.src && m.dst == info.dst);
  const auto dst = static_cast<std::size_t>(m.dst);
  info.delivered = true;
  info.recv_interval = recv_interval;
  info.recv_serial = next_serial_[dst]++;
  info.recv_gseq = next_gseq_++;
  info.prev_recv = recv_head_[dst];
  recv_head_[dst] = static_cast<std::uint32_t>(m.id);
  (void)t;
}

void CcpRecorder::set_volatile_dv(ProcessId p,
                                  const causality::DependencyVector& dv) {
  RDTGC_EXPECTS(p >= 0 && static_cast<std::size_t>(p) < volatile_dv_.size());
  RDTGC_EXPECTS(dv.size() == volatile_dv_.size());
  RDTGC_EXPECTS(attached_dv_[static_cast<std::size_t>(p)] == nullptr);
  volatile_dv_[static_cast<std::size_t>(p)] = dv;
}

void CcpRecorder::attach_volatile_dv(ProcessId p,
                                     const causality::DependencyVector* dv) {
  RDTGC_EXPECTS(p >= 0 && static_cast<std::size_t>(p) < attached_dv_.size());
  RDTGC_EXPECTS(dv != nullptr && dv->size() == attached_dv_.size());
  RDTGC_EXPECTS(attached_dv_[static_cast<std::size_t>(p)] == nullptr);
  attached_dv_[static_cast<std::size_t>(p)] = dv;
}

void CcpRecorder::undo_after(ProcessId p, CheckpointIndex ri) {
  RDTGC_EXPECTS(p >= 0 && static_cast<std::size_t>(p) < checkpoints_.size());
  auto& list = checkpoints_[static_cast<std::size_t>(p)];
  RDTGC_EXPECTS(ri >= 0 && ri < static_cast<CheckpointIndex>(list.size()));
  const std::uint64_t cutoff = list[static_cast<std::size_t>(ri)].serial;

  stats_.checkpoints_rolled_back += list.size() - (ri + 1);
  list.resize(static_cast<std::size_t>(ri) + 1);
  // The arena rows above ri die with their checkpoints; the chunks keep
  // their storage, so the re-execution's records refill them allocation-free.
  dv_arena_[static_cast<std::size_t>(p)].truncate(static_cast<std::size_t>(ri) +
                                                  1);

  // Each chain runs newest first: pop (and kill) endpoints until the first
  // one at or before c_p^ri.  Everything left on a chain is alive.
  std::uint32_t& sends = send_head_[static_cast<std::size_t>(p)];
  while (sends != 0 && messages_[sends - 1].send_serial > cutoff) {
    MessageInfo& m = messages_[sends - 1];
    m.send_alive = false;
    ++stats_.messages_rolled_back;
    sends = m.prev_send;
  }
  std::uint32_t& recvs = recv_head_[static_cast<std::size_t>(p)];
  while (recvs != 0 && messages_[recvs - 1].recv_serial > cutoff) {
    MessageInfo& m = messages_[recvs - 1];
    m.recv_alive = false;
    recvs = m.prev_recv;
  }
}

void CcpRecorder::record_rollback(ProcessId p, CheckpointIndex ri, SimTime t) {
  undo_after(p, ri);
  ++stats_.rollbacks;
  (void)t;
}

void CcpRecorder::record_restart(ProcessId p, CheckpointIndex ri, SimTime t) {
  // A process death undoes exactly what a rollback to the last surviving
  // stored checkpoint undoes: the volatile interval's events.  In the usual
  // case ri == last_stable(p) (every checkpoint is persisted when taken and
  // the last one is never collected), so no checkpoint rows die — only the
  // dead process's volatile-interval message endpoints.
  undo_after(p, ri);
  ++stats_.restarts;
  (void)t;
}

void CcpRecorder::reattach_volatile_dv(ProcessId p,
                                       const causality::DependencyVector* dv) {
  RDTGC_EXPECTS(p >= 0 && static_cast<std::size_t>(p) < attached_dv_.size());
  RDTGC_EXPECTS(dv != nullptr && dv->size() == attached_dv_.size());
  attached_dv_[static_cast<std::size_t>(p)] = dv;
}

const std::vector<CheckpointInfo>& CcpRecorder::checkpoints(
    ProcessId p) const {
  RDTGC_EXPECTS(p >= 0 && static_cast<std::size_t>(p) < checkpoints_.size());
  return checkpoints_[static_cast<std::size_t>(p)];
}

const CheckpointInfo& CcpRecorder::checkpoint(ProcessId p,
                                              CheckpointIndex idx) const {
  const auto& list = checkpoints(p);
  RDTGC_EXPECTS(idx >= 0 && idx < static_cast<CheckpointIndex>(list.size()));
  return list[static_cast<std::size_t>(idx)];
}

CheckpointIndex CcpRecorder::last_stable(ProcessId p) const {
  const auto& list = checkpoints(p);
  RDTGC_EXPECTS(!list.empty());  // every process starts with s^0
  return static_cast<CheckpointIndex>(list.size()) - 1;
}

const causality::DependencyVector& CcpRecorder::volatile_dv(
    ProcessId p) const {
  RDTGC_EXPECTS(p >= 0 && static_cast<std::size_t>(p) < volatile_dv_.size());
  if (const auto* live = attached_dv_[static_cast<std::size_t>(p)])
    return *live;
  return volatile_dv_[static_cast<std::size_t>(p)];
}

causality::DvView CcpRecorder::checkpoint_dv(ProcessId p,
                                             CheckpointIndex idx) const {
  const auto& list = checkpoints(p);
  RDTGC_EXPECTS(idx >= 0 && idx < static_cast<CheckpointIndex>(list.size()));
  return dv_arena_[static_cast<std::size_t>(p)].row(
      static_cast<std::size_t>(idx));
}

causality::DvView CcpRecorder::general_checkpoint_dv(
    ProcessId p, CheckpointIndex gamma) const {
  const CheckpointIndex last = last_stable(p);
  RDTGC_EXPECTS(gamma >= 0 && gamma <= last + 1);
  if (gamma <= last) return checkpoint_dv(p, gamma);
  return volatile_dv(p).view();
}

bool CcpRecorder::audit_no_orphans() const {
  for (const MessageInfo& m : messages_)
    if (m.delivered && m.recv_alive && !m.send_alive) return false;
  return true;
}

}  // namespace rdtgc::ccp
