// The three end-to-end workloads and the metric catalogues they report
// against.  Every workload reports every catalogued metric: a per-layer
// metric of a layer the workload does not drive reads 0 (no call was made).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "report.hpp"

namespace e2e {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Root of all persistent media (stores, fleet scratch, event logs).
  std::string media_dir;
  /// Where the traced run writes its histograms.
  std::string out_dir;
};

/// Name and unit of every metric, in print order.
using Catalog = std::vector<std::pair<std::string, std::string>>;

inline const Catalog& end_to_end_catalog() {
  static const Catalog catalog = {
      {"setup_s", "s"},
      {"deliveries_per_s", "1/s"},
      {"cmd_latency_mean_us", "us"},
      {"recovery_p50_ms", "ms"},
      {"peak_rss_mb", "MiB"},
      {"stored_ckpts_peak", "count"},
  };
  return catalog;
}

inline const Catalog& per_layer_catalog() {
  static const Catalog catalog = {
      {"sim.step_self_ns", "ns"},
      {"sim.host_ns_per_event", "ns"},
      {"sim.events", "count"},
      {"sim.queue_depth_max", "count"},
      {"sim.network.send_ns", "ns"},
      {"core.gc.new_dependencies_ns", "ns"},
      {"core.gc.checkpoint_stored_ns", "ns"},
      {"core.gc.collected", "count"},
      {"ckpt.deliver_ns", "ns"},
      {"ckpt.deliver_self_ns", "ns"},
      {"ckpt.activity_ns", "ns"},
      {"ckpt.checkpoint_put_record_ns", "ns"},
      {"ckpt.forced_per_delivery", "ratio"},
      {"ckpt.store.group_commits", "count"},
      {"ckpt.store.syncs", "count"},
      {"protocol.must_force_ns", "ns"},
      {"protocol.on_send_ns", "ns"},
      {"protocol.on_deliver_ns", "ns"},
      {"recovery.restart_ms", "ms"},
      {"recovery.session_ms", "ms"},
      {"recovery.sessions", "count"},
      {"recovery.checkpoints_discarded", "count"},
      {"recovery.dropped_in_flight", "count"},
      {"transport.send_cmd_p99_us", "us"},
      {"transport.send_cmd_p999_us", "us"},
      {"transport.send_cmd_samples", "count"},
      {"transport.checkpoint_cmd_us", "us"},
      {"transport.kill_restart_ms", "ms"},
      {"transport.parent_cpu_per_op_us", "us"},
      {"transport.worker_cpu_per_op_us", "us"},
      {"transport.ctx_switches_per_op", "count"},
      {"transport.log_bytes_per_op", "bytes"},
      {"transport.replay_s", "s"},
      {"ccp.verify_s", "s"},
      {"budget.sim_share", "ratio"},
      {"budget.ckpt_share", "ratio"},
      {"budget.protocol_share", "ratio"},
      {"budget.core_share", "ratio"},
      {"budget.recovery_share", "ratio"},
      {"budget.self_sum_ratio", "ratio"},
      {"trace.overhead_ratio", "ratio"},
  };
  return catalog;
}

/// Empty `<media_dir>/<workload>` and return it: the media directory of the
/// next system.  One directory is reused for the whole run, because a new
/// directory per system made ext4 set-ups ten times slower.
std::string fresh_media_dir(const Options& options);

/// Emit `values` into `result` in catalogue order; names the workload did
/// not measure read 0, and a name outside the catalogue fails the run.
void emit(const Catalog& catalog, const std::map<std::string, double>& values,
          Result& result);

Result run_sim(const Options& options);
Result run_fleet(const Options& options);

}  // namespace e2e
