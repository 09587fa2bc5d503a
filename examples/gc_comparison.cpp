// Side-by-side comparison of garbage-collection strategies on the same
// workloads (the paper's §5 related work, made concrete):
//
//   none            — storage grows without bound;
//   RDT-LGC         — the paper's asynchronous collector: no control
//                     messages, bounded storage (Theorem 5: optimal);
//   coordinated     — Wang et al. [21]: collects *all* obsolete checkpoints
//                     but needs coordinator rounds (control messages);
//   recovery-line   — Bhargava & Lian [5]: discards below the all-faulty
//                     recovery line; simple but unbounded retention.
//
// Each strategy runs a small seed sweep through harness::FleetRunner — the
// per-seed simulations are independent and deterministic, so the fleet
// spreads them across every core and the figures below are cross-seed
// means (identical for any worker count).
#include <iostream>
#include <utility>

#include "gc/synchronous_gc.hpp"
#include "harness/sweep.hpp"
#include "harness/system.hpp"
#include "metrics/storage_probe.hpp"
#include "util/table.hpp"
#include "workload/workload.hpp"

int main() {
  using namespace rdtgc;
  constexpr std::size_t kProcesses = 8;
  constexpr SimTime kDuration = 15000;
  constexpr std::size_t kSeeds = 4;

  harness::FleetRunner fleet;  // workers = hardware concurrency
  const std::vector<std::uint64_t> seeds = harness::seed_range(12, kSeeds);

  util::Table table({"strategy", "mean storage", "peak storage",
                     "final storage", "collected", "control messages"});
  for (int strategy = 0; strategy < 4; ++strategy) {
    const std::vector<harness::SweepRun> runs = harness::run_seed_sweep(
        fleet, seeds,
        [&](std::uint64_t seed, harness::WorkerContext&) -> harness::SweepRun {
          harness::SystemConfig config;
          config.process_count = kProcesses;
          config.protocol = ckpt::ProtocolKind::kFdas;
          config.gc = (strategy == 1) ? harness::GcChoice::kRdtLgc
                                      : harness::GcChoice::kNone;
          config.seed = seed;
          harness::System system(config);

          workload::WorkloadConfig wl;
          wl.seed = seed;
          workload::WorkloadDriver driver(system.simulator(),
                                          system.node_ptrs(), wl);
          driver.start(kDuration);
          metrics::StorageProbe probe(system.simulator(),
                                      std::as_const(system).node_ptrs());
          probe.start(100, kDuration);

          std::unique_ptr<gc::SynchronousGcDriver> sync;
          if (strategy >= 2) {
            gc::SynchronousGcDriver::Config sc;
            sc.policy = (strategy == 2) ? gc::SyncGcPolicy::kWangTheorem1
                                        : gc::SyncGcPolicy::kRecoveryLine;
            sc.period = 300;
            sc.notify_delay = 10;
            sync = std::make_unique<gc::SynchronousGcDriver>(
                system.simulator(), system.recorder(), system.node_ptrs(), sc);
            sync->start(kDuration);
          }
          system.simulator().run();

          harness::SweepRun run;
          run.storage = probe.global_series().stat();
          run.final_storage = static_cast<double>(system.total_stored());
          run.collected = system.total_collected();
          if (sync) run.control_messages = sync->stats().control_messages;
          return run;
        });
    const harness::SweepSummary summary = harness::summarize_sweep(runs);

    static const char* kNames[] = {"none", "RDT-LGC", "coordinated-Wang95",
                                   "recovery-line"};
    table.begin_row()
        .add_cell(kNames[strategy])
        .add_cell(summary.storage.mean())
        .add_cell(summary.storage.max(), 0)
        .add_cell(summary.final_storage.mean(), 1)
        .add_cell(summary.collected.mean(), 1)
        .add_cell(summary.control_messages.mean(), 1);
  }
  table.print(std::cout,
              "GC strategies, identical workloads (n=8, 15k ticks, " +
                  std::to_string(kSeeds) + "-seed fleet sweep)");
  std::cout << "\nRDT-LGC matches the synchronous collectors' storage to "
               "within a handful of checkpoints — the causally-invisible "
               "obsolete ones (Figure 4's s_2^1) — without sending a single "
               "control message.\n";
  return 0;
}
