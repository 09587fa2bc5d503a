// Unit tests for the CCP recorder, including rollback (lineage) handling.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "ccp/recorder.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace rdtgc::ccp {
namespace {

causality::DependencyVector dv3(IntervalIndex a, IntervalIndex b,
                                IntervalIndex c) {
  causality::DependencyVector dv(3);
  dv.at(0) = a;
  dv.at(1) = b;
  dv.at(2) = c;
  return dv;
}

class RecorderTest : public ::testing::Test {
 protected:
  CcpRecorder recorder_{3};

  sim::Message send(ProcessId src, ProcessId dst,
                    const causality::DependencyVector& dv) {
    sim::Message m;
    m.id = recorder_.new_message_id();
    m.src = src;
    m.dst = dst;
    m.dv = dv;
    m.send_interval = dv[src];
    recorder_.record_send(m, 0);
    return m;
  }
};

TEST_F(RecorderTest, RecordsCheckpointsDense) {
  recorder_.record_checkpoint(0, 0, dv3(0, 0, 0), CheckpointKind::kInitial, 0);
  recorder_.record_checkpoint(0, 1, dv3(1, 0, 0), CheckpointKind::kBasic, 1);
  EXPECT_EQ(recorder_.last_stable(0), 1);
  EXPECT_EQ(recorder_.checkpoint_dv(0, 1), dv3(1, 0, 0));
  EXPECT_EQ(recorder_.checkpoint(0, 0).kind, CheckpointKind::kInitial);
  EXPECT_EQ(recorder_.stats().checkpoints_recorded, 2u);
}

TEST_F(RecorderTest, RejectsGappedOrMislabeledCheckpoints) {
  recorder_.record_checkpoint(0, 0, dv3(0, 0, 0), CheckpointKind::kInitial, 0);
  EXPECT_THROW(recorder_.record_checkpoint(0, 2, dv3(2, 0, 0),
                                           CheckpointKind::kBasic, 1),
               util::ContractViolation);
  // dv[p] must equal the index.
  EXPECT_THROW(recorder_.record_checkpoint(0, 1, dv3(5, 0, 0),
                                           CheckpointKind::kBasic, 1),
               util::ContractViolation);
}

TEST_F(RecorderTest, GeneralCheckpointDvCoversVolatile) {
  recorder_.record_checkpoint(0, 0, dv3(0, 0, 0), CheckpointKind::kInitial, 0);
  recorder_.set_volatile_dv(0, dv3(1, 2, 0));
  EXPECT_EQ(recorder_.general_checkpoint_dv(0, 0), dv3(0, 0, 0));
  EXPECT_EQ(recorder_.general_checkpoint_dv(0, 1), dv3(1, 2, 0));  // volatile
  EXPECT_THROW(recorder_.general_checkpoint_dv(0, 2), util::ContractViolation);
}

TEST_F(RecorderTest, MessageLifecycle) {
  recorder_.record_checkpoint(0, 0, dv3(0, 0, 0), CheckpointKind::kInitial, 0);
  recorder_.record_checkpoint(1, 0, dv3(0, 0, 0), CheckpointKind::kInitial, 0);
  sim::Message m = send(0, 1, dv3(1, 0, 0));
  EXPECT_EQ(m.send_serial, 2u);  // after p0's initial checkpoint
  const MessageInfo& info = recorder_.messages()[m.id - 1];
  EXPECT_FALSE(info.delivered);
  recorder_.record_receive(m, 1, 5);
  EXPECT_TRUE(info.delivered);
  EXPECT_TRUE(info.live());
  EXPECT_EQ(info.recv_interval, 1);
}

TEST_F(RecorderTest, ReceiveBeforeSendRejected) {
  sim::Message m;
  m.id = recorder_.new_message_id();
  m.src = 0;
  m.dst = 1;
  EXPECT_THROW(recorder_.record_receive(m, 1, 0), util::ContractViolation);
}

TEST_F(RecorderTest, DoubleReceiveRejected) {
  recorder_.record_checkpoint(0, 0, dv3(0, 0, 0), CheckpointKind::kInitial, 0);
  sim::Message m = send(0, 1, dv3(1, 0, 0));
  recorder_.record_receive(m, 1, 1);
  EXPECT_THROW(recorder_.record_receive(m, 1, 2), util::ContractViolation);
}

TEST_F(RecorderTest, RollbackTruncatesAndMarksMessagesDead) {
  recorder_.record_checkpoint(0, 0, dv3(0, 0, 0), CheckpointKind::kInitial, 0);
  recorder_.record_checkpoint(1, 0, dv3(0, 0, 0), CheckpointKind::kInitial, 0);
  recorder_.record_checkpoint(0, 1, dv3(1, 0, 0), CheckpointKind::kBasic, 1);
  // Sent after s_0^1 (interval 2): dies when p0 rolls back to 1... to 0.
  sim::Message dead = send(0, 1, dv3(2, 0, 0));
  recorder_.record_receive(dead, 1, 3);

  recorder_.record_rollback(0, 0, 10);
  EXPECT_EQ(recorder_.last_stable(0), 0);
  EXPECT_FALSE(recorder_.messages()[dead.id - 1].send_alive);
  EXPECT_FALSE(recorder_.messages()[dead.id - 1].live());
  EXPECT_EQ(recorder_.stats().checkpoints_rolled_back, 1u);
  EXPECT_EQ(recorder_.stats().messages_rolled_back, 1u);
  EXPECT_EQ(recorder_.stats().rollbacks, 1u);
  // The receive side also died?  No: p1 did not roll back, so the receive
  // event survives — this is exactly an orphan and the audit flags it.
  EXPECT_FALSE(recorder_.audit_no_orphans());
}

TEST_F(RecorderTest, RollbackKeepsMessagesBeforeRestoredCheckpointAlive) {
  recorder_.record_checkpoint(0, 0, dv3(0, 0, 0), CheckpointKind::kInitial, 0);
  recorder_.record_checkpoint(1, 0, dv3(0, 0, 0), CheckpointKind::kInitial, 0);
  sim::Message early = send(0, 1, dv3(1, 0, 0));  // interval 1, before s_0^1
  recorder_.record_receive(early, 1, 2);
  recorder_.record_checkpoint(0, 1, dv3(1, 0, 0), CheckpointKind::kBasic, 3);
  recorder_.record_checkpoint(0, 2, dv3(2, 0, 0), CheckpointKind::kBasic, 4);

  // Rolling back to s_0^1 undoes interval-2 events only; the interval-1 send
  // happened before the restored checkpoint and survives.
  recorder_.record_rollback(0, 1, 10);
  EXPECT_TRUE(recorder_.messages()[early.id - 1].live());
  EXPECT_TRUE(recorder_.audit_no_orphans());
}

TEST_F(RecorderTest, RollbackUndoesCurrentIntervalSends) {
  // Rolling back to s_0^0 undoes the interval-1 events (they lie after the
  // restored checkpoint).
  recorder_.record_checkpoint(0, 0, dv3(0, 0, 0), CheckpointKind::kInitial, 0);
  recorder_.record_checkpoint(1, 0, dv3(0, 0, 0), CheckpointKind::kInitial, 0);
  sim::Message m = send(0, 1, dv3(1, 0, 0));
  recorder_.record_rollback(0, 0, 10);
  EXPECT_FALSE(recorder_.messages()[m.id - 1].send_alive);
}

TEST_F(RecorderTest, IndexReuseAfterRollback) {
  recorder_.record_checkpoint(0, 0, dv3(0, 0, 0), CheckpointKind::kInitial, 0);
  recorder_.record_checkpoint(0, 1, dv3(1, 0, 0), CheckpointKind::kBasic, 1);
  recorder_.record_rollback(0, 0, 2);
  // Re-execution reuses index 1; serials stay monotonic.
  recorder_.record_checkpoint(0, 1, dv3(1, 0, 0), CheckpointKind::kBasic, 3);
  EXPECT_EQ(recorder_.last_stable(0), 1);
  EXPECT_GT(recorder_.checkpoint(0, 1).serial, recorder_.checkpoint(0, 0).serial);
}

TEST_F(RecorderTest, RollbackToVolatileOnlyRejected) {
  recorder_.record_checkpoint(0, 0, dv3(0, 0, 0), CheckpointKind::kInitial, 0);
  EXPECT_THROW(recorder_.record_rollback(0, 1, 1), util::ContractViolation);
}

TEST_F(RecorderTest, SendWithProcessOutOfRangeRejected) {
  for (const auto& [src, dst] : {std::pair<ProcessId, ProcessId>{3, 0},
                                 {-1, 0},
                                 {0, 3},
                                 {0, -1}}) {
    sim::Message m;
    m.id = recorder_.new_message_id();
    m.src = src;
    m.dst = dst;
    EXPECT_THROW(recorder_.record_send(m, 0), util::ContractViolation);
  }
}

TEST_F(RecorderTest, ReceiveWithMismatchedEndpointsRejected) {
  recorder_.record_checkpoint(0, 0, dv3(0, 0, 0), CheckpointKind::kInitial, 0);
  const sim::Message sent = send(0, 1, dv3(1, 0, 0));
  sim::Message wrong_dst = sent;
  wrong_dst.dst = 2;
  EXPECT_THROW(recorder_.record_receive(wrong_dst, 1, 1),
               util::ContractViolation);
  sim::Message wrong_src = sent;
  wrong_src.src = 2;
  EXPECT_THROW(recorder_.record_receive(wrong_src, 1, 1),
               util::ContractViolation);
  sim::Message out_of_range = sent;
  out_of_range.dst = 3;
  EXPECT_THROW(recorder_.record_receive(out_of_range, 1, 1),
               util::ContractViolation);
  // The rejected calls recorded nothing: the real delivery still goes in.
  recorder_.record_receive(sent, 1, 1);
  EXPECT_TRUE(recorder_.messages()[sent.id - 1].live());
}

TEST_F(RecorderTest, VolatileDvTracksUpdates) {
  recorder_.set_volatile_dv(2, dv3(0, 1, 3));
  EXPECT_EQ(recorder_.volatile_dv(2), dv3(0, 1, 3));
}

// ---- Undo chains against a full scan ----

// Reference model of the recorder's undo: it assigns serials the same way and
// kills endpoints with an O(messages) scan over every message ever recorded,
// which needs no chain invariant to be right.
class ScanReference {
 public:
  explicit ScanReference(std::size_t n)
      : checkpoint_serials_(n), next_serial_(n, 1) {}

  void new_message_id() { messages_.emplace_back(); }

  void checkpoint(ProcessId p) {
    checkpoint_serials_[static_cast<std::size_t>(p)].push_back(
        next_serial_[static_cast<std::size_t>(p)]++);
  }

  void send(const sim::Message& m) {
    MessageInfo& info = messages_[m.id - 1];
    info.src = m.src;
    info.dst = m.dst;
    info.send_serial = next_serial_[static_cast<std::size_t>(m.src)]++;
  }

  void receive(const sim::Message& m) {
    MessageInfo& info = messages_[m.id - 1];
    info.delivered = true;
    info.recv_serial = next_serial_[static_cast<std::size_t>(m.dst)]++;
  }

  void undo_after(ProcessId p, CheckpointIndex ri) {
    auto& list = checkpoint_serials_[static_cast<std::size_t>(p)];
    const std::uint64_t cutoff = list[static_cast<std::size_t>(ri)];
    list.resize(static_cast<std::size_t>(ri) + 1);
    for (MessageInfo& m : messages_) {
      if (m.src == p && m.send_alive && m.send_serial > cutoff) {
        m.send_alive = false;
        ++messages_rolled_back_;
      }
      if (m.dst == p && m.delivered && m.recv_alive && m.recv_serial > cutoff)
        m.recv_alive = false;
    }
  }

  bool audit_no_orphans() const {
    for (const MessageInfo& m : messages_)
      if (m.delivered && m.recv_alive && !m.send_alive) return false;
    return true;
  }

  const std::vector<MessageInfo>& messages() const { return messages_; }
  std::uint64_t messages_rolled_back() const { return messages_rolled_back_; }

 private:
  std::vector<std::vector<std::uint64_t>> checkpoint_serials_;  // [p]
  std::vector<std::uint64_t> next_serial_;                      // [p]
  std::vector<MessageInfo> messages_;                           // by id-1
  std::uint64_t messages_rolled_back_ = 0;
};

// How often a trace hit each situation the chains must get right, summed
// over all traces so the test can insist that every one was exercised.
struct TraceCoverage {
  std::uint64_t out_of_order_receives = 0;
  std::uint64_t late_receives_of_undone_sends = 0;
  std::uint64_t repeated_cutoffs = 0;
  std::uint64_t decreasing_cutoffs = 0;
  std::uint64_t restarts = 0;
  std::uint64_t unsent_ids = 0;
};

void expect_same_undo_state(const CcpRecorder& recorder,
                            const ScanReference& reference) {
  const auto& got = recorder.messages();
  const auto& want = reference.messages();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const bool same = got[i].send_serial == want[i].send_serial &&
                      got[i].recv_serial == want[i].recv_serial &&
                      got[i].send_alive == want[i].send_alive &&
                      got[i].recv_alive == want[i].recv_alive &&
                      got[i].live() == want[i].live();
    ASSERT_TRUE(same) << "message id " << i + 1 << ": send_alive "
                      << got[i].send_alive << " vs " << want[i].send_alive
                      << ", recv_alive " << got[i].recv_alive << " vs "
                      << want[i].recv_alive;
  }
  ASSERT_EQ(recorder.stats().messages_rolled_back,
            reference.messages_rolled_back());
  ASSERT_EQ(recorder.audit_no_orphans(), reference.audit_no_orphans());
}

// One random trace of sends, receives (any order, including late deliveries
// of undone sends), losses, unsent ids, checkpoints, rollbacks and restarts,
// checked against the reference after every undo.
void run_trace(std::size_t n, std::uint64_t seed, int steps,
               TraceCoverage& coverage) {
  CcpRecorder recorder(n);
  ScanReference reference(n);
  util::Rng rng(seed);
  const auto any_process = [&] {
    return static_cast<ProcessId>(rng.uniform(n));
  };
  const auto take_checkpoint = [&](ProcessId p, CheckpointKind kind) {
    const auto idx = static_cast<CheckpointIndex>(
        recorder.checkpoints(p).size());
    causality::DependencyVector dv(n);
    dv.at(p) = idx;
    recorder.record_checkpoint(p, idx, dv, kind, 0);
    reference.checkpoint(p);
  };
  for (std::size_t p = 0; p < n; ++p)
    take_checkpoint(static_cast<ProcessId>(p), CheckpointKind::kInitial);

  std::vector<sim::Message> in_flight;
  std::vector<CheckpointIndex> last_cutoff(n, -1);  // -1: never undone
  for (int step = 0; step < steps; ++step) {
    const std::uint64_t roll = rng.uniform(100);
    if (roll < 30) {  // send
      sim::Message m;
      m.id = recorder.new_message_id();
      reference.new_message_id();
      m.src = any_process();
      m.dst = static_cast<ProcessId>(
          (static_cast<std::size_t>(m.src) + 1 + rng.uniform(n - 1)) % n);
      m.send_interval = recorder.last_stable(m.src) + 1;
      recorder.record_send(m, 0);
      reference.send(m);
      ASSERT_EQ(m.send_serial, reference.messages()[m.id - 1].send_serial);
      in_flight.push_back(std::move(m));
    } else if (roll < 60 && !in_flight.empty()) {  // receive, any order
      const std::size_t pick = rng.uniform(in_flight.size());
      const sim::Message m = std::move(in_flight[pick]);
      if (pick + 1 != in_flight.size()) {
        ++coverage.out_of_order_receives;
        in_flight[pick] = std::move(in_flight.back());
      }
      in_flight.pop_back();
      if (!recorder.messages()[m.id - 1].send_alive)
        ++coverage.late_receives_of_undone_sends;
      recorder.record_receive(m, recorder.last_stable(m.dst) + 1, 0);
      reference.receive(m);
    } else if (roll < 65 && !in_flight.empty()) {  // lost in transit
      in_flight.erase(in_flight.begin() +
                      static_cast<std::ptrdiff_t>(
                          rng.uniform(in_flight.size())));
    } else if (roll < 68) {  // an id taken but never sent
      recorder.new_message_id();
      reference.new_message_id();
      ++coverage.unsent_ids;
    } else if (roll < 82) {
      take_checkpoint(any_process(), CheckpointKind::kBasic);
    } else {
      const ProcessId p = any_process();
      const CheckpointIndex last = recorder.last_stable(p);
      const bool restart = roll >= 94;
      // Restarts resume at the last stable checkpoint; rollbacks go to a
      // uniform one, or to the last one so back-to-back undos repeat it.
      const CheckpointIndex ri =
          restart || rng.bernoulli(0.3)
              ? last
              : static_cast<CheckpointIndex>(
                    rng.uniform(static_cast<std::uint64_t>(last) + 1));
      CheckpointIndex& prev = last_cutoff[static_cast<std::size_t>(p)];
      if (ri == prev) ++coverage.repeated_cutoffs;
      if (prev >= 0 && ri < prev) ++coverage.decreasing_cutoffs;
      prev = ri;
      if (restart) {
        recorder.record_restart(p, ri, 0);
        ++coverage.restarts;
      } else {
        recorder.record_rollback(p, ri, 0);
      }
      reference.undo_after(p, ri);
      ASSERT_EQ(recorder.last_stable(p), ri);
      ASSERT_NO_FATAL_FAILURE(expect_same_undo_state(recorder, reference));
    }
  }
}

TEST(RecorderUndoChains, MatchFullScanOnRandomTraces) {
  TraceCoverage coverage;
  for (const std::size_t n : {2u, 3u, 8u}) {
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " seed=" << seed);
      ASSERT_NO_FATAL_FAILURE(run_trace(n, seed * 7919 + n, 1500, coverage));
    }
  }
  EXPECT_GT(coverage.out_of_order_receives, 0u);
  EXPECT_GT(coverage.late_receives_of_undone_sends, 0u);
  EXPECT_GT(coverage.repeated_cutoffs, 0u);
  EXPECT_GT(coverage.decreasing_cutoffs, 0u);
  EXPECT_GT(coverage.restarts, 0u);
  EXPECT_GT(coverage.unsent_ids, 0u);
}

}  // namespace
}  // namespace rdtgc::ccp
