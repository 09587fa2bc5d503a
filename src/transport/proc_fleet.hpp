// Parent-side harness of a multi-process transport run.
//
// ProcFleet owns the real distributed system: it binds one Unix-domain
// SOCK_SEQPACKET listener, fork/execs one rdtgc_proc worker per process,
// routes every Data frame between them (star topology — all traffic passes
// the parent), drives the workload through Cmd frames, and streams the
// merged event log to disk as frames arrive.  Because every worker socket
// is FIFO and a worker flushes the frames an event produced before it reads
// its next command, the parent's frame-arrival order is a valid
// linearization of the execution — the event log is replayable through the
// deterministic simulator (transport/replay.hpp) and the replay must agree
// bit-for-bit.
//
// Failure injection is REAL here.  kill_and_restart(p) performs a
// *quiesced* SIGKILL: the parent stops routing new traffic to p (dropping
// it, as the network model drops in-transit messages at a death), waits
// until every message p itself sent has been delivered or dropped and until
// p acknowledges a Quiesce command (so nothing p produced is still unlogged
// in a socket buffer), then SIGKILLs the OS process and re-spawns it with
// the next incarnation — the replacement re-attaches from its mmap/log
// media (ckpt::Node's fresh-process attach).  The quiesce point is exactly
// the state in which the simulator's disconnect semantics (drop everything
// in flight touching p) match the kernel's (SIGKILL discards p's socket
// buffers), which is what makes the replay certification exact.
// kill_unclean() skips the drain for liveness-only chaos: the re-attach
// must still succeed, but the run is not replay-certified (messages may
// die in kernel buffers unlogged).
//
// Every wait carries a deadline (config.step_timeout_ms): a hung or
// deadlocked worker fails the run with a descriptive error() instead of
// hanging CI, and the destructor SIGKILLs whatever is still alive.
#pragma once

#include <poll.h>

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "causality/types.hpp"
#include "ckpt/protocol.hpp"
#include "ckpt/storage_backend.hpp"
#include "transport/event_log.hpp"
#include "transport/uds.hpp"
#include "transport/wire.hpp"

namespace rdtgc::transport {

struct FleetConfig {
  std::size_t process_count = 4;
  ckpt::ProtocolKind protocol = ckpt::ProtocolKind::kFdas;
  ckpt::StorageBackendKind backend = ckpt::StorageBackendKind::kMmapFile;
  /// Scratch root: sockets, per-process storage dirs, and the event log
  /// live under it.
  std::string scratch_dir;
  /// Path of the rdtgc_proc worker binary (tests get it from the
  /// RDTGC_PROC_BIN environment variable CMake injects).
  std::string worker_binary;
  std::uint64_t checkpoint_bytes = 1;
  /// Deadline for any single wait (a command round-trip, a spawn, a drain).
  int step_timeout_ms = 30000;
  /// Worker-side idle suicide timeout (must exceed step_timeout_ms).
  int worker_idle_timeout_ms = 60000;
  /// Re-broadcast attempts of one recovery barrier before failing the run.
  int recovery_retries = 3;
  /// Test hook for the restart-during-session path: the next recovery
  /// session withholds its RecoveryStart frame from this process, collects
  /// every other ack, then quiesce-kills it mid-session — the session must
  /// restart with the accumulated faulty set and converge.  Consumed by the
  /// first session that fires.  -1 = disabled.
  ProcessId recovery_withhold_then_kill = -1;
};

class ProcFleet {
 public:
  explicit ProcFleet(FleetConfig config);
  ~ProcFleet();
  ProcFleet(const ProcFleet&) = delete;
  ProcFleet& operator=(const ProcFleet&) = delete;

  /// Bind the listener, spawn every worker, collect their Hello frames.
  bool start();

  // ---- Workload drivers (each waits for command completion) ----

  /// Command src to send one application message to dst.  The Data frame is
  /// routed (or dropped, if dst is dead) before this returns, but its
  /// DELIVERY is asynchronous — the RecvAck arrives whenever dst processes
  /// it, possibly many commands later.
  bool send_app(ProcessId src, ProcessId dst, std::uint64_t bytes = 1);

  /// Command p to take a basic checkpoint.
  bool basic_checkpoint(ProcessId p);

  /// Quiesced SIGKILL + respawn with the next incarnation (see file
  /// comment).  The replacement's Hello is collected before returning.
  bool kill_and_restart(ProcessId p);

  /// Immediate SIGKILL, no drain: in-flight traffic may vanish unlogged, so
  /// runs using this are liveness tests, not replay-certified.  Pair with
  /// restart().
  bool kill_unclean(ProcessId p);

  /// Respawn a worker downed by kill_unclean.
  bool restart(ProcessId p);

  /// Drain remaining deliveries, collect every worker's State digest, and
  /// reap all workers cleanly.
  bool shutdown();

  /// First failure description; empty while everything is healthy.
  const std::string& error() const { return error_; }

  const std::string& log_path() const { return log_path_; }
  /// Storage directory of process p (its mmap/log media — readable after
  /// shutdown, e.g. to plan a restart line over recovery::StoreDvs).
  std::string storage_dir(ProcessId p) const;
  /// Messages the parent dropped because their destination was dead.
  std::uint64_t dropped() const { return dropped_; }
  std::uint32_t incarnation(ProcessId p) const;
  /// Recovery sessions completed (kill_and_restart found orphaned
  /// deliveries and drove the paper's session over the wire).
  std::uint64_t recovery_sessions() const { return recovery_sessions_; }
  /// Session restarts (a second kill landed mid-session).
  std::uint64_t recovery_restarts() const { return recovery_restarts_; }
  /// Delivered messages whose send died with a killed worker's volatile
  /// interval — the orphan condition each session exists to repair.
  std::uint64_t orphans_repaired() const { return orphans_repaired_; }

 private:
  struct Worker {
    pid_t pid = -1;
    Fd fd;
    std::uint32_t incarnation = 0;
    bool alive = false;
    bool draining = false;  ///< kill decided: route nothing more to it
    std::uint64_t next_cmd_seq = 0;
    std::uint64_t last_done_seq = 0;  ///< highest CmdDone.cmd_seq received
    bool state_received = false;
    StateBody state;
    std::uint64_t acked_session = 0;   ///< last recovery session acked
    std::uint32_t acked_attempt = 0;   ///< attempt of that ack
  };

  /// Identity of an in-flight application message.
  struct MsgKey {
    ProcessId src;
    std::uint32_t incarnation;
    std::uint64_t seq;
    auto operator<=>(const MsgKey&) const = default;
  };

  /// Routing state of an in-flight message (value of outstanding_).
  struct InFlight {
    ProcessId dst = -1;
    IntervalIndex send_interval = 0;
  };

  /// A delivery that completed: the send/receive pair the CCP now contains.
  /// Kept until one endpoint dies (rollback or process death) so the orphan
  /// condition — a live receive of a dead send — is detectable after every
  /// kill.
  struct DeliveredRec {
    ProcessId src = -1;
    std::uint32_t src_incarnation = 0;
    std::uint64_t seq = 0;
    IntervalIndex send_interval = 0;
    ProcessId dst = -1;
    IntervalIndex recv_interval = 0;
  };

  /// Parent-side mirror of one worker's dependency-vector history: one row
  /// per stable checkpoint (dense by index, rows above the lineage position
  /// truncated at re-attach/rollback — exactly the recorder's row set) plus
  /// the current volatile DV.  The mirrors are the DV source the parent
  /// plans the Lemma-1 recovery line from (recovery/lemma1.hpp) without a
  /// recorder: every update rides on a frame it routes anyway.
  struct DvMirror {
    std::vector<std::vector<IntervalIndex>> ckpt_dvs;
    std::vector<IntervalIndex> current;
    CheckpointIndex last() const {
      return static_cast<CheckpointIndex>(ckpt_dvs.size()) - 1;
    }
  };
  /// recovery::lemma1_plan's source over mirror_ (defined in the .cpp).
  struct MirrorDvs;

  bool fail(const std::string& what);
  bool spawn(ProcessId p, std::uint32_t incarnation);
  bool await_hello(ProcessId p);
  /// Process readable frames and flush out-queues once, waiting at most
  /// `wait_ms` for activity.  False only on a fleet-level failure.
  bool pump(int wait_ms);
  template <typename Pred>
  bool pump_until(Pred done, const char* what);
  bool handle_frame(ProcessId p, const DecodedFrame& frame);
  void route_data(const DecodedFrame& frame);
  /// Append a frame slot to p's out-queue, recycled from spare_ when one is
  /// free, and return it for the caller to encode into.
  WireBuffer& next_out(ProcessId p);
  bool send_cmd(ProcessId p, CmdOp op, ProcessId target, std::uint64_t param,
                std::uint64_t& cmd_seq);
  /// Send a command and pump until its CmdDone arrives.
  bool run_cmd(ProcessId p, CmdOp op, ProcessId target, std::uint64_t param);
  void drop_outstanding_to(ProcessId dead);
  void kill_process(Worker& w);
  bool outstanding_from(ProcessId p) const;

  /// Quiesced SIGKILL + respawn + Hello, no session logic (the body the old
  /// kill_and_restart had; kill_and_restart layers orphan handling on top).
  bool quiesced_kill_respawn(ProcessId p);
  /// Run the paper's recovery session over the wire: drain, plan, log,
  /// broadcast, barrier on acks (deadline-bounded re-broadcast), restarting
  /// with an accumulated faulty set when a kill lands mid-session.
  bool run_recovery_session(std::vector<ProcessId> faulty);
  /// Drop delivered-pair records with a dead endpoint after p re-attached
  /// at `last` without a session (clean kill / unclean restart).
  void prune_delivered_after_attach(ProcessId p, CheckpointIndex last);

  FleetConfig config_;
  std::string socket_path_;
  std::string log_path_;
  Fd listener_;
  std::vector<Worker> workers_;
  /// Per-worker parent->worker frame queues (drained non-blocking).
  std::vector<std::deque<WireBuffer>> out_;
  /// Buffers of sent frames, reused by next_out() so the route path
  /// allocates nothing once warm.
  std::vector<WireBuffer> spare_;
  /// pump()'s poll set and the process behind each entry, reused per call.
  std::vector<pollfd> poll_fds_;
  std::vector<ProcessId> poll_owner_;
  /// In-flight application messages: key -> routing state.
  std::map<MsgKey, InFlight> outstanding_;
  /// Completed deliveries with both endpoints still live.
  std::vector<DeliveredRec> delivered_;
  /// Per-worker DV history mirror (indexed by process id).
  std::vector<DvMirror> mirror_;
  std::unique_ptr<EventLogWriter> log_;
  RecvBuffer in_;
  DecodedFrame frame_;
  std::uint64_t dropped_ = 0;
  std::uint64_t recovery_sessions_ = 0;
  std::uint64_t recovery_restarts_ = 0;
  std::uint64_t orphans_repaired_ = 0;
  std::uint64_t next_session_ = 0;
  std::string error_;
  bool started_ = false;
};

}  // namespace rdtgc::transport
