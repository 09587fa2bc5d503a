// Replay certification of a recorded multi-process transport run.
//
// replay_event_log() re-executes a ProcFleet event log step by step through
// a fresh in-simulator harness::System with the network in manual mode:
// every kSend becomes a real send_app_message (parked in the manual
// mailbox), every kDeliver a deliver_now of exactly that message, every
// kCheckpoint a take_basic_checkpoint, every kAttach past incarnation 0 a
// System::restart_node warm restart.  At each step the replayed node's
// observable protocol state — dependency vector, interval, forced-checkpoint
// decision, checkpoint DV — must match what the real OS processes reported
// on the wire, bit for bit; at the final kState digests the full counters
// and stored-index sets must match too.
//
// This works because the protocol is deterministic in its delivered-event
// order and the parent's log is a valid linearization of the socket run
// (see transport/event_log.hpp).  Recovery sessions replay too: a
// kRecoveryStart recomputes the Lemma-1 line and LI vector through the
// simulator's RecoveryManager and asserts them equal to what the fleet
// parent computed from its DV mirrors and to the recorder oracle
// ccp::recovery_line_lemma1; each kRolledBack ack applies the
// planned session to exactly that process and certifies the post-rollback
// digest (last index, DV, stored-index set) — so partially-acked sessions
// interrupted by a second kill replay naturally, ack by ack.  A log
// containing kUncleanKill certifies the clean prefix only: an undrained
// SIGKILL may have lost frames in kernel buffers, so replay stops at the
// tagged position and reports it (stopped_at / stop_reason).
//
// On success the result keeps the replay System alive so callers can run
// the full oracle arsenal against it: the System recorder's analyses
// (Theorem 1 / Lemma 1 / Corollary 1), the restart line over the replayed
// media (recovery::StoreDvs), and comparison against the REAL run's
// surviving media on disk.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ckpt/protocol.hpp"
#include "ckpt/storage_backend.hpp"
#include "harness/system.hpp"
#include "transport/event_log.hpp"

namespace rdtgc::transport {

struct ReplayConfig {
  std::size_t process_count = 4;
  ckpt::ProtocolKind protocol = ckpt::ProtocolKind::kFdas;
  /// Backend of the REPLAY system's stores (persistent, so warm restarts
  /// replay too).  Independent of the real run's backend — the protocol
  /// state they certify is backend-agnostic.
  ckpt::StorageBackendKind backend = ckpt::StorageBackendKind::kMmapFile;
  /// Fresh scratch directory for the replay system's stores.
  std::string scratch_dir;
  std::uint64_t checkpoint_bytes = 1;
};

struct ReplayResult {
  bool ok = false;
  /// First divergence, as "event <n> (<line>): <what>"; empty when ok.
  std::string error;
  std::size_t events_replayed = 0;
  /// Set when the log contains an unclean kill: the index of the first
  /// event that cannot be certified.  The prefix before it WAS certified
  /// (ok = true, events_replayed = *stopped_at); everything at or after it
  /// is unverifiable, not wrong.
  std::optional<std::size_t> stopped_at;
  /// Human-readable reason certification stopped (names the unclean kill).
  std::string stop_reason;
  /// The replayed system, for post-hoc oracle analyses.  Null on a config/
  /// IO failure before the system was built.
  std::unique_ptr<harness::System> system;
};

/// Replay `events` and certify every step (see file comment).
ReplayResult replay_events(const std::vector<Event>& events,
                           const ReplayConfig& config);

/// Convenience: read the log file, then replay_events.
ReplayResult replay_event_log(const std::string& log_path,
                              const ReplayConfig& config);

}  // namespace rdtgc::transport
