#include "transport/worker.hpp"

#include <memory>
#include <utility>

#include "ccp/recorder.hpp"
#include "ckpt/node.hpp"
#include "core/rdt_lgc.hpp"
#include "sim/simulator.hpp"
#include "transport/uds.hpp"
#include "transport/wire.hpp"

namespace rdtgc::transport {

namespace {

/// The full per-process stack plus the frame handlers.
class Worker {
 public:
  Worker(const WorkerConfig& config, int fd)
      : config_(config),
        transport_(fd, config.self, config.incarnation),
        fd_(fd) {
    ckpt::Node::Config node_config;
    node_config.checkpoint_bytes = config.checkpoint_bytes;
    node_config.storage.kind = config.backend;
    node_config.storage.directory = config.storage_dir;
    node_config.storage.open_mode = config.incarnation == 0
                                        ? ckpt::OpenMode::kFresh
                                        : ckpt::OpenMode::kAttach;
    // Write-through storage is part of the replay contract: at a quiesced
    // SIGKILL the media must hold exactly the checkpoints the event log
    // records, so the re-attached incarnation resumes at the logged
    // lineage position bit-for-bit.
    node_ = std::make_unique<ckpt::Node>(
        config.self, config.process_count, simulator_, transport_,
        ckpt::make_protocol(config.protocol),
        std::make_unique<core::RdtLgc>(core::RdtLgc::RollbackSearch::kBinary),
        node_config);
  }

  int run() {
    send_hello();
    DecodedFrame frame;
    for (;;) {
      if (!transport_.flush()) return kWorkerSendFailed;
      const RecvStatus status =
          recv_frame(fd_, in_, config_.idle_timeout_ms);
      if (status == RecvStatus::kTimeout) return kWorkerIdleTimeout;
      if (status == RecvStatus::kClosed || status == RecvStatus::kError)
        return kWorkerParentGone;
      if (decode_frame(in_.frame(), frame) != WireError::kOk)
        return kWorkerBadFrame;
      // Advance the logical clock one tick per processed frame — event
      // timestamps stay ordered for debugging, and no algorithm reads them.
      simulator_.run_until(simulator_.now() + 1);
      int exit_code = -1;
      switch (frame.header.kind()) {
        case FrameKind::kData:
          exit_code = handle_data(frame);
          break;
        case FrameKind::kCmd:
          exit_code = handle_cmd(frame);
          break;
        case FrameKind::kRecoveryStart:
          exit_code = handle_recovery(frame);
          break;
        default:
          exit_code = kWorkerBadFrame;  // Data, Cmd, RecoveryStart only
      }
      if (exit_code >= 0) return exit_code;
    }
  }

 private:
  FrameMeta meta_to_parent() {
    FrameMeta meta;
    meta.src = config_.self;
    meta.dst = -1;
    meta.incarnation = config_.incarnation;
    meta.seq = transport_.next_seq();
    return meta;
  }

  void send_hello() {
    HelloBody hello;
    hello.last_index = node_->last_checkpoint_index();
    hello.dv.assign(node_->dv().entries().begin(),
                    node_->dv().entries().end());
    encode_hello(scratch_, meta_to_parent(), hello);
    transport_.enqueue_frame(scratch_);
  }

  /// -1 = keep running, >= 0 = exit with that code.
  int handle_data(const DecodedFrame& frame) {
    const DataBody& body = frame.data;
    if (frame.header.dst != config_.self ||
        body.dv.size() != config_.process_count ||
        body.control.size() != node_->protocol().control_words()) {
      return kWorkerBadFrame;
    }
    sim::Message m = transport_.make_message();
    m.src = frame.header.src;
    m.dst = config_.self;
    m.send_interval = body.send_interval;
    m.bytes = body.bytes;
    if (m.dv.size() != config_.process_count)
      m.dv = causality::DependencyVector(config_.process_count);
    for (std::size_t j = 0; j < body.dv.size(); ++j)
      m.dv.at(static_cast<ProcessId>(j)) = body.dv[j];
    m.control.assign(body.control.begin(), body.control.end());

    const std::uint64_t forced_before = node_->counters().forced_checkpoints;
    transport_.deliver(std::move(m));

    RecvAckBody ack;
    ack.msg_src = frame.header.src;
    ack.msg_incarnation = frame.header.incarnation;
    ack.msg_seq = frame.header.seq;
    ack.recv_interval = node_->current_interval();
    ack.forced = node_->counters().forced_checkpoints != forced_before;
    ack.dv_after.assign(node_->dv().entries().begin(),
                        node_->dv().entries().end());
    encode_recv_ack(scratch_, meta_to_parent(), ack);
    transport_.enqueue_frame(scratch_);
    return -1;
  }

  /// Recovery session (Algorithm 3 driven over the wire).  line[self]
  /// decides the branch: at or below our last stable checkpoint we restore
  /// it (targeted rollback, volatile state and post-line checkpoints
  /// discarded); above it we keep the volatile state and run peer recovery
  /// with the LI vector.  A re-broadcast session (restart after a second
  /// kill) repeats the same branch against the already-rolled-back state —
  /// the rollback degenerates to restoring the position we already hold, so
  /// the handler is safely re-entrant.
  int handle_recovery(const DecodedFrame& frame) {
    const RecoveryStartBody& body = frame.recovery_start;
    if (body.li.size() != config_.process_count ||
        body.line.size() != config_.process_count) {
      return kWorkerBadFrame;
    }
    const CheckpointIndex target = body.line[static_cast<std::size_t>(config_.self)];
    bool rolled = false;
    if (target <= node_->last_checkpoint_index()) {
      if (!node_->store().contains(target)) return kWorkerBadFrame;
      node_->rollback_to(target,
                         std::optional<std::vector<IntervalIndex>>(body.li));
      rolled = true;
    } else {
      node_->peer_recovery(body.li);
    }
    RolledBackBody ack;
    ack.session = body.session;
    ack.attempt = body.attempt;
    ack.rolled = rolled;
    ack.last_index = node_->last_checkpoint_index();
    ack.dv.assign(node_->dv().entries().begin(), node_->dv().entries().end());
    ack.stored = node_->store().stored_indices();
    encode_rolled_back(scratch_, meta_to_parent(), ack);
    transport_.enqueue_frame(scratch_);
    if (!transport_.flush_blocking(config_.idle_timeout_ms))
      return kWorkerSendFailed;
    return -1;
  }

  int handle_cmd(const DecodedFrame& frame) {
    const CmdBody& body = frame.cmd;
    switch (static_cast<CmdOp>(body.op)) {
      case CmdOp::kSendApp: {
        if (body.target < 0 ||
            static_cast<std::size_t>(body.target) >= config_.process_count ||
            body.target == config_.self) {
          return kWorkerBadFrame;
        }
        // The Data frame enters the transport's out queue here, AHEAD of the
        // CmdDone below — the parent's log order preserves the send.
        node_->send_app_message(body.target, body.param);
        break;
      }
      case CmdOp::kCheckpoint: {
        node_->take_basic_checkpoint();
        CheckpointBody ckpt;
        ckpt.index = node_->last_checkpoint_index();
        ckpt.kind = static_cast<std::uint8_t>(ccp::CheckpointKind::kBasic);
        // The newest checkpoint is never collected (UC[self] pins it).
        const causality::DvView dv = node_->store().dv_view(ckpt.index);
        ckpt.dv.assign(dv.entries().begin(), dv.entries().end());
        encode_checkpoint(scratch_, meta_to_parent(), ckpt);
        transport_.enqueue_frame(scratch_);
        break;
      }
      case CmdOp::kQuiesce:
        // Everything this worker ever produced must be on the parent's side
        // of the socket before the ack: the CmdDone below is the parent's
        // proof that a SIGKILL now loses nothing unlogged.
        break;
      case CmdOp::kShutdown: {
        StateBody state;
        state.last_index = node_->last_checkpoint_index();
        state.basic = node_->counters().basic_checkpoints;
        state.forced = node_->counters().forced_checkpoints;
        state.sent = node_->counters().messages_sent;
        state.received = node_->counters().messages_received;
        state.rollbacks = node_->counters().rollbacks;
        state.dv.assign(node_->dv().entries().begin(),
                        node_->dv().entries().end());
        state.stored = node_->store().stored_indices();
        encode_state(scratch_, meta_to_parent(), state);
        transport_.enqueue_frame(scratch_);
        if (!transport_.flush_blocking(config_.idle_timeout_ms))
          return kWorkerSendFailed;
        return kWorkerOk;
      }
      default:
        return kWorkerBadFrame;
    }
    CmdDoneBody done;
    done.op = body.op;
    done.cmd_seq = frame.header.seq;
    encode_cmd_done(scratch_, meta_to_parent(), done);
    transport_.enqueue_frame(scratch_);
    if (!transport_.flush_blocking(config_.idle_timeout_ms))
      return kWorkerSendFailed;
    return -1;
  }

  WorkerConfig config_;
  sim::Simulator simulator_;
  UdsTransport transport_;
  int fd_;
  std::unique_ptr<ckpt::Node> node_;
  RecvBuffer in_;
  WireBuffer scratch_;
};

}  // namespace

int run_worker(const WorkerConfig& config) {
  Fd fd = uds_connect(config.socket_path);
  if (!fd.valid()) return kWorkerConnectFailed;
  Worker worker(config, fd.get());
  return worker.run();
}

}  // namespace rdtgc::transport
