// Seed sweeps over the fleet: the experiment shape every comparison driver
// shares.
//
// A sweep runs one simulation body per seed — each body builds its own
// System, drives it to completion, and distills the run into a SweepRun of
// plain figures — and the fleet spreads the bodies across workers.  Results
// land in seed-indexed slots and the cross-seed aggregation folds them in
// seed order on the caller's thread (metrics::RunningStat::merge / add), so
// a sweep's output is bit-for-bit identical for ANY worker count: the
// determinism contract tests/concurrency_test.cpp enforces.
//
// The Table B/C drivers (bench/tabb_gc_comparison.cpp,
// bench/tabc_forced_checkpoints.cpp) and examples/gc_comparison.cpp run
// their seed sweeps through this layer; bench/tabd_micro.cpp's
// BM_FleetRunner families measure its thread scaling.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "causality/types.hpp"
#include "harness/fleet.hpp"
#include "metrics/running_stat.hpp"

namespace rdtgc::harness {

/// The figures one simulated run produces.  A sweep body fills the fields
/// its experiment cares about; the rest stay zero and aggregate harmlessly.
struct SweepRun {
  std::uint64_t seed = 0;
  /// Per-sample storage occupancy from the run's probe (kept as a full
  /// RunningStat so the sweep can pool samples across runs via merge()).
  metrics::RunningStat storage;
  double final_storage = 0;
  std::uint64_t collected = 0;
  std::uint64_t control_messages = 0;
  std::uint64_t basic_checkpoints = 0;
  std::uint64_t forced_checkpoints = 0;
  std::uint64_t messages_received = 0;
  /// Driver-specific extra figure (e.g. Table B's oracle-final storage);
  /// not aggregated by summarize_sweep.
  double extra = 0;
};

/// Deterministic cross-seed aggregate: every stat is fed/merged in seed
/// order, never through counters shared between workers.
struct SweepSummary {
  /// Pooled over every sample of every run (RunningStat::merge).
  metrics::RunningStat storage;
  /// One data point per run for the scalar figures.
  metrics::RunningStat final_storage;
  metrics::RunningStat collected;
  metrics::RunningStat control_messages;
  metrics::RunningStat forced_checkpoints;
  std::size_t runs = 0;
};

/// One simulation: everything the run computes must derive from `seed` (the
/// worker context is for scratch space only — see fleet.hpp's determinism
/// contract).
using SweepBody = std::function<SweepRun(std::uint64_t seed, WorkerContext&)>;

/// Progress/cancellation hook for long sweeps: called once per finished job
/// with (completed, total).  Return false to cancel — jobs not yet started
/// are skipped (their result slots keep only the seed; summarize over
/// runs[0..completed) or filter on a sentinel figure).  Calls are serialized
/// and `completed` rises by exactly one per call, but they arrive from worker
/// threads: keep the callback cheap and do not touch the results vector from
/// it.
using SweepProgress =
    std::function<bool(std::size_t completed, std::size_t total)>;

/// Run `body` once per seed across the fleet.  Returns the runs in seed
/// order regardless of which worker ran what.
std::vector<SweepRun> run_seed_sweep(FleetRunner& fleet,
                                     const std::vector<std::uint64_t>& seeds,
                                     const SweepBody& body);

/// As above with a progress/cancellation hook (may be null).
std::vector<SweepRun> run_seed_sweep(FleetRunner& fleet,
                                     const std::vector<std::uint64_t>& seeds,
                                     const SweepBody& body,
                                     const SweepProgress& progress);

/// One cell of a chaos grid: a (seed, churn-rate) point.  The scenario
/// dimension lives in the body (capture the workload/protocol choice), the
/// churn knobs here, so one grid drives deterministic kill/attach sweeps
/// under the fleet — see recovery::FailureInjector::Config.
struct ChurnPoint {
  std::uint64_t seed = 0;
  SimTime mean_interval = 1000;  ///< failure-event spacing (the churn rate)
  double restart_prob = 1.0;     ///< kill/reopen/rejoin fraction of events
};

using ChurnBody =
    std::function<SweepRun(const ChurnPoint& point, WorkerContext&)>;

/// Run `body` once per grid point across the fleet; job-indexed result
/// slots keep the output bit-for-bit identical for any worker count, like
/// run_seed_sweep.  `progress` may be null.
std::vector<SweepRun> run_churn_sweep(FleetRunner& fleet,
                                      const std::vector<ChurnPoint>& points,
                                      const ChurnBody& body,
                                      const SweepProgress& progress = nullptr);

/// The full seeds × mean_intervals grid, seeds varying fastest.
std::vector<ChurnPoint> churn_grid(const std::vector<std::uint64_t>& seeds,
                                   const std::vector<SimTime>& mean_intervals,
                                   double restart_prob);

/// Fold the runs, in order, into the cross-seed summary.
SweepSummary summarize_sweep(const std::vector<SweepRun>& runs);

/// {base, base+1, ..., base+count-1}: the canonical sweep seed set.
std::vector<std::uint64_t> seed_range(std::uint64_t base, std::size_t count);

}  // namespace rdtgc::harness
