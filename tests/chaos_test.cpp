// Chaos soak: long-lived fleets under continuous kill/reopen/rejoin churn.
//
// The property under test is the warm-restart equivalence: killing a
// process and re-attaching a replacement to its media (ckpt::Node
// OpenMode::kAttach via harness::System::restart_node) is observably
// IDENTICAL to the same process performing an in-process rollback to its
// last stable checkpoint — because every checkpoint is persisted at take
// time and UC[self] pins the last one, death loses exactly the volatile
// interval, nothing more.  So a chaos run over real media (mmap or
// log-structured) must be bit-identical — stored sets, stored DVs, volatile
// DVs, store/network/recorder counters, every recovery line — to a
// reference run on in-memory storage whose "restart" hook rolls back in
// process, with the SAME injector seed (both hooks consume no randomness,
// so the two schedules are the same schedule).
//
// On top of the equivalence, the Theorem-1 oracle is audited at every
// death in the designated deep runs (cheap no-orphan audit in the rest),
// and a churn grid through harness::run_churn_sweep must be bit-identical
// for any fleet worker count (the determinism contract).
//
// RDTGC_CHAOS_SOAK=1 in the environment stretches the horizons for the
// nightly soak leg (ctest -L chaos); the default stays tier-1-sized but
// still clears 1000 kill/attach events per backend.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "harness/sweep.hpp"
#include "harness/system.hpp"
#include "helpers.hpp"
#include "recovery/failure_injector.hpp"
#include "recovery/recovery_manager.hpp"
#include "workload/workload.hpp"

namespace rdtgc {
namespace {

using ckpt::StorageBackendKind;
using ckpt::StorageConfig;
using harness::System;
using harness::SystemConfig;
using test::ScratchDir;

/// 1 for the tier-1 run, 8 for the nightly soak (RDTGC_CHAOS_SOAK=1).
SimTime soak_factor() {
  const char* env = std::getenv("RDTGC_CHAOS_SOAK");
  if (env == nullptr || *env == '\0' || std::string(env) == "0") return 1;
  return 8;
}

StorageConfig media(StorageBackendKind kind, const std::string& directory) {
  StorageConfig config;
  config.kind = kind;
  config.directory = directory;
  config.initial_slots = 2;
  config.compact_min_records = 16;
  return config;
}

/// Everything observable a churn run leaves behind.  Node/GC lifetime
/// counters are deliberately absent: a restarted process starts fresh ones,
/// an in-process rollback keeps them — they are incarnation-local by
/// design, not part of the recovered state.
struct Distilled {
  std::vector<std::vector<CheckpointIndex>> stored;             // [p]
  std::vector<std::vector<std::vector<IntervalIndex>>> dvs;     // [p][k]
  std::vector<std::vector<IntervalIndex>> volatile_dv;          // [p]
  std::vector<std::uint64_t> puts, collected, discarded;        // [p]
  std::uint64_t sent = 0, delivered = 0, lost = 0, dropped = 0;
  std::uint64_t checkpoints_recorded = 0;
  std::uint64_t checkpoints_rolled_back = 0;
  std::uint64_t messages_rolled_back = 0;
  /// rollbacks + restarts: a kill/attach counts as a restart in the chaos
  /// run and as one extra rollback in the reference run.
  std::uint64_t undo_events = 0;
  std::vector<std::vector<CheckpointIndex>> lines;  // one per session
};

std::vector<IntervalIndex> copy_dv(causality::DvView view) {
  std::vector<IntervalIndex> dv(view.size());
  for (std::size_t j = 0; j < view.size(); ++j)
    dv[j] = view[static_cast<ProcessId>(j)];
  return dv;
}

Distilled distill(System& system,
                  const std::vector<recovery::RecoveryOutcome>& outcomes) {
  Distilled d;
  const auto n = static_cast<ProcessId>(system.process_count());
  for (ProcessId p = 0; p < n; ++p) {
    const auto& store = system.node(p).store();
    d.stored.push_back(store.stored_indices());
    std::vector<std::vector<IntervalIndex>> dvs;
    for (const CheckpointIndex g : d.stored.back())
      dvs.push_back(copy_dv(store.dv_view(g)));
    d.dvs.push_back(std::move(dvs));
    d.volatile_dv.push_back(copy_dv(system.node(p).dv().view()));
    d.puts.push_back(store.stats().stored);
    d.collected.push_back(store.stats().collected);
    d.discarded.push_back(store.stats().discarded);
  }
  const auto& net = system.network().stats();
  d.sent = net.sent;
  d.delivered = net.delivered;
  d.lost = net.lost;
  d.dropped = net.dropped_in_flight;
  const auto& rec = system.recorder().stats();
  d.checkpoints_recorded = rec.checkpoints_recorded;
  d.checkpoints_rolled_back = rec.checkpoints_rolled_back;
  d.messages_rolled_back = rec.messages_rolled_back;
  d.undo_events = rec.rollbacks + rec.restarts;
  for (const auto& outcome : outcomes) d.lines.push_back(outcome.line);
  return d;
}

void expect_runs_equal(const Distilled& chaos, const Distilled& reference,
                       const char* what) {
  EXPECT_EQ(chaos.stored, reference.stored) << what;
  EXPECT_EQ(chaos.dvs, reference.dvs) << what;
  EXPECT_EQ(chaos.volatile_dv, reference.volatile_dv) << what;
  EXPECT_EQ(chaos.puts, reference.puts) << what;
  EXPECT_EQ(chaos.collected, reference.collected) << what;
  EXPECT_EQ(chaos.discarded, reference.discarded) << what;
  EXPECT_EQ(chaos.sent, reference.sent) << what;
  EXPECT_EQ(chaos.delivered, reference.delivered) << what;
  EXPECT_EQ(chaos.lost, reference.lost) << what;
  EXPECT_EQ(chaos.dropped, reference.dropped) << what;
  EXPECT_EQ(chaos.checkpoints_recorded, reference.checkpoints_recorded)
      << what;
  EXPECT_EQ(chaos.checkpoints_rolled_back, reference.checkpoints_rolled_back)
      << what;
  EXPECT_EQ(chaos.messages_rolled_back, reference.messages_rolled_back)
      << what;
  EXPECT_EQ(chaos.undo_events, reference.undo_events) << what;
  EXPECT_EQ(chaos.lines, reference.lines) << what;
}

enum class Mode {
  kChaosOnMedia,      ///< kill/reopen/rejoin through System::restart_node
  kReferenceInMemory  ///< same schedule, in-process rollback stand-in
};

struct ChurnResult {
  Distilled state;
  std::uint64_t restarts = 0;  ///< kill/attach cycles (0 in reference mode)
};

/// One long-lived fleet under churn.  `deep_audit` runs the full Theorem-1
/// oracle at every death (the designated deep runs); otherwise each death
/// gets the cheap no-orphan audit.
ChurnResult run_churn_session(Mode mode, StorageBackendKind kind,
                              const std::string& dir, std::uint64_t seed,
                              SimTime mean_interval, SimTime duration,
                              bool deep_audit) {
  constexpr std::size_t kProcesses = 4;
  SystemConfig config;
  config.process_count = kProcesses;
  config.seed = seed;
  if (mode == Mode::kChaosOnMedia) config.node.storage = media(kind, dir);
  System system(config);

  workload::WorkloadConfig wl;
  wl.seed = seed * 7919 + 13;
  workload::WorkloadDriver driver(system.simulator(), system.node_provider(),
                                  kProcesses, wl);

  recovery::RecoveryManager::Config rc;
  recovery::RecoveryManager manager(system.simulator(), system.network(),
                                    system.recorder(),
                                    system.node_provider(), rc);

  recovery::FailureInjector::Config fc;
  fc.mean_interval = mean_interval;
  fc.multi_failure_prob = 0.25;
  fc.seed = seed ^ 0x5eedf00dULL;
  fc.restart_prob = 1.0;
  fc.churn_start = duration / 20;  // let the fleet build a lineage first

  recovery::RestartFn restart;
  if (mode == Mode::kChaosOnMedia) {
    restart = [&system, deep_audit](ProcessId p) {
      // No flush before the kill: the store writes every mutation through
      // to the medium, so an unflushed death loses only the volatile
      // interval, which is what the in-memory reference rolls back.
      system.restart_node(p);
      // The oracle needs a consistent state: between a kill and its
      // session, the dead incarnation's sends are orphans by construction.
      // Same-time events run FIFO, so this audit fires right after the
      // injector's event callback — i.e. once the recovery session has
      // rejoined the fleet.
      system.simulator().at(system.simulator().now(), [&system, deep_audit] {
        if (deep_audit)
          test::audit_safety_theorem1(system);
        else
          EXPECT_TRUE(system.recorder().audit_no_orphans());
      });
    };
  } else {
    // The in-process stand-in for a kill: death loses exactly the volatile
    // interval (every checkpoint persisted at take time), so rolling back
    // to the last stable checkpoint — causal-only Algorithm 3, like the
    // attach path — is crash-equivalent.  Consumes no randomness, so both
    // modes run the very same failure schedule.
    restart = [&](ProcessId p) {
      system.node(p).rollback_to(system.recorder().last_stable(p),
                                 std::nullopt);
    };
  }
  recovery::FailureInjector injector(system.simulator(), manager, kProcesses,
                                     fc, restart);

  driver.start(duration);
  injector.start(duration);
  system.simulator().run();

  // End-of-run oracles: the whole lineage — across every incarnation —
  // certifies, no orphan survived the churn, and every store kept within
  // the ≤ n steady / n+1 transient bound.
  test::audit_safety_theorem1(system);
  EXPECT_TRUE(system.recorder().audit_no_orphans());
  test::audit_bounds(system);

  ChurnResult result;
  result.state = distill(system, injector.outcomes());
  result.restarts = injector.restarts();
  return result;
}

/// The soak: a (seed × churn-rate) grid per backend, every chaos run
/// checked bit-identical to its in-memory reference, >= 1000 kill/attach
/// events per backend in total.  The first grid point is the deep run.
void chaos_soak(StorageBackendKind kind) {
  const SimTime factor = soak_factor();
  const SimTime duration = 8000 * factor;
  const std::vector<std::uint64_t> seeds = {31, 32, 33};
  const std::vector<SimTime> intervals = {30, 80};

  std::uint64_t total_restarts = 0;
  bool deep = true;  // first point audits Theorem 1 at every death
  for (const SimTime interval : intervals) {
    for (const std::uint64_t seed : seeds) {
      ScratchDir dir("chaos");
      const ChurnResult chaos = run_churn_session(
          Mode::kChaosOnMedia, kind, dir.path(), seed, interval, duration,
          deep);
      const ChurnResult reference = run_churn_session(
          Mode::kReferenceInMemory, kind, "", seed, interval, duration,
          false);
      const std::string what = "seed " + std::to_string(seed) +
                               ", mean interval " + std::to_string(interval);
      expect_runs_equal(chaos.state, reference.state, what.c_str());
      EXPECT_GT(chaos.restarts, 0u) << what;
      total_restarts += chaos.restarts;
      deep = false;
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  EXPECT_GE(total_restarts, 1000u * static_cast<std::uint64_t>(factor));
}

TEST(ChaosSoak, MmapMatchesInMemoryReference) {
  chaos_soak(StorageBackendKind::kMmapFile);
}
TEST(ChaosSoak, LogMatchesInMemoryReference) {
  chaos_soak(StorageBackendKind::kLogStructured);
}

/// Churn grids under the fleet: run_churn_sweep's job-indexed slots must
/// make the grid's output bit-for-bit identical for any worker count, with
/// live chaos (real media, real restarts) inside every job.
TEST(ChaosSoak, ChurnSweepDeterministicAcrossWorkerCounts) {
  const SimTime duration = 2000;
  const auto points =
      harness::churn_grid({41, 42}, {60, 150}, 1.0);

  const harness::ChurnBody body = [&](const harness::ChurnPoint& point,
                                      harness::WorkerContext&) {
    ScratchDir dir("churn_sweep");
    const ChurnResult churn = run_churn_session(
        Mode::kChaosOnMedia, StorageBackendKind::kMmapFile, dir.path(),
        point.seed, point.mean_interval, duration, false);
    harness::SweepRun run;
    // Distill the run into scalar figures; any nondeterminism in the chaos
    // path would disturb at least one of them.
    for (std::size_t p = 0; p < churn.state.stored.size(); ++p) {
      run.collected += churn.state.collected[p];
      run.basic_checkpoints += churn.state.puts[p];
      for (const CheckpointIndex g : churn.state.stored[p])
        run.extra += static_cast<double>(g + 1);
    }
    run.messages_received = churn.state.delivered;
    run.control_messages = churn.state.dropped;
    run.forced_checkpoints = churn.restarts;
    return run;
  };

  harness::FleetConfig one_cfg;
  one_cfg.workers = 1;
  harness::FleetRunner one(one_cfg);
  harness::FleetConfig four_cfg;
  four_cfg.workers = 4;
  harness::FleetRunner four(four_cfg);

  const auto serial = harness::run_churn_sweep(one, points, body);
  const auto parallel = harness::run_churn_sweep(four, points, body);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t j = 0; j < serial.size(); ++j) {
    EXPECT_EQ(serial[j].seed, parallel[j].seed) << "job " << j;
    EXPECT_EQ(serial[j].collected, parallel[j].collected) << "job " << j;
    EXPECT_EQ(serial[j].basic_checkpoints, parallel[j].basic_checkpoints)
        << "job " << j;
    EXPECT_EQ(serial[j].messages_received, parallel[j].messages_received)
        << "job " << j;
    EXPECT_EQ(serial[j].control_messages, parallel[j].control_messages)
        << "job " << j;
    EXPECT_EQ(serial[j].forced_checkpoints, parallel[j].forced_checkpoints)
        << "job " << j;
    EXPECT_EQ(serial[j].extra, parallel[j].extra) << "job " << j;
    EXPECT_GT(serial[j].forced_checkpoints, 0u) << "job " << j;
  }
}

}  // namespace
}  // namespace rdtgc
