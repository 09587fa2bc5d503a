// T-A: uncollected checkpoints in practice versus the theoretical bound n
// (the evaluation the paper's conclusion proposes: "the theoretical bound on
// uncollected checkpoints ... is reached in executions not likely to happen
// often in practice").
//
// For each (workload, n): FDAS + RDT-LGC, storage sampled periodically.
// Reported per process: mean and peak stored checkpoints, against the paper
// bounds (n steady, n+1 transient).
#include <iostream>
#include <utility>

#include "bench_common.hpp"
#include "harness/system.hpp"
#include "metrics/storage_probe.hpp"
#include "workload/workload.hpp"

using namespace rdtgc;

int main(int argc, char** argv) {
  const bench::Options options(argc, argv, {"duration", "seed"});
  const SimTime duration = options.u64("duration", 20000);
  const std::uint64_t seed = options.u64("seed", 1);
  bench::banner("T-A: retained checkpoints vs the n bound (FDAS + RDT-LGC)");

  util::Table table({"workload", "n", "mean/process", "peak/process",
                     "bound n", "peak/bound", "global mean", "global peak",
                     "ckpts taken", "collected %"});
  bool bounds_ok = true;
  for (const auto kind :
       {workload::WorkloadKind::kUniform, workload::WorkloadKind::kRing,
        workload::WorkloadKind::kClientServer,
        workload::WorkloadKind::kBroadcast, workload::WorkloadKind::kBursty}) {
    for (const std::size_t n : {2ul, 4ul, 8ul, 16ul, 32ul}) {
      harness::SystemConfig config;
      config.process_count = n;
      config.protocol = ckpt::ProtocolKind::kFdas;
      config.gc = harness::GcChoice::kRdtLgc;
      config.seed = seed;
      harness::System system(config);

      workload::WorkloadConfig wl;
      wl.kind = kind;
      wl.seed = seed + n;
      workload::WorkloadDriver driver(system.simulator(), system.node_ptrs(),
                                      wl);
      driver.start(duration);
      metrics::StorageProbe probe(system.simulator(),
                                  std::as_const(system).node_ptrs());
      probe.start(50, duration);
      system.simulator().run();

      double mean = 0.0;
      for (const auto& stat : probe.per_process()) mean += stat.mean();
      mean /= static_cast<double>(n);
      const std::size_t peak = probe.peak_process_count();
      std::uint64_t taken = 0, collected = 0;
      for (ProcessId p = 0; p < static_cast<ProcessId>(n); ++p) {
        taken += system.node(p).store().stats().stored;
        collected += system.node(p).store().stats().collected;
      }
      bounds_ok = bounds_ok && peak <= n;
      table.begin_row()
          .add_cell(workload::workload_kind_name(kind))
          .add_cell(n)
          .add_cell(mean)
          .add_cell(peak)
          .add_cell(n)
          .add_cell(static_cast<double>(peak) / static_cast<double>(n))
          .add_cell(probe.global_series().stat().mean())
          .add_cell(probe.global_series().stat().max(), 0)
          .add_cell(taken)
          .add_cell(100.0 * static_cast<double>(collected) /
                        static_cast<double>(taken),
                    1);
    }
  }
  bench::emit(table, "duration=" + std::to_string(duration), options.csv());
  bench::verdict(bounds_ok, "per-process storage never exceeds the bound n");
  std::cout << "reading: mean occupancy sits well below n on all workloads — "
               "the worst case (Figure 5) requires an adversarial pattern.\n";
  return bounds_ok ? 0 : 1;
}
