// The real-process workload: fleet_star_n4.
//
// Four rdtgc_proc workers on mmap media (sync durability) behind one
// transport::ProcFleet.  A closed loop: the driver issues one command at a
// time and waits for its CmdDone.  90% of commands are send_app to a
// uniformly random peer and 10% basic_checkpoint; eight times per batch the
// driver has a process send and then quiesce-kills it, which always orphans
// the delivery and so always runs a wire recovery session.  A run repeats
// batches, each on its own input seed, until its time is up.  Every batch is
// certified afterwards by replaying its event log through the simulator.
#include <sys/resource.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/sharded_checkpoint_store.hpp"
#include "transport/event_log.hpp"
#include "transport/proc_fleet.hpp"
#include "transport/replay.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace e2e {
namespace {

using namespace rdtgc;

constexpr std::size_t kProcesses = 4;
constexpr int kCommands = 4000;
constexpr int kKills = 8;
/// Extra set-ups per untraced run, on top of one per batch.
constexpr int kSetupRepeats = 10;

struct FleetBatch {
  double setup_s = 0, window_s = 0, verify_s = 0, replay_s = 0, rss_mb = 0;
  std::vector<double> send_us, checkpoint_us, kill_ms;
  std::uint64_t ops = 0, failed_ops = 0;
  std::uint64_t deliveries = 0, forced = 0, sessions = 0, collected = 0;
  std::uint64_t log_bytes = 0;
  std::size_t peak_stored = 0;
  double parent_cpu_s = 0, worker_cpu_s = 0, ctx_switches = 0;
};

double cpu_s(const rusage& u) {
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) / 1e6;
}

double switches(const rusage& u) {
  return static_cast<double>(u.ru_nvcsw + u.ru_nivcsw);
}

/// Reopen every worker's media after shutdown: peak and live checkpoint
/// counts and collections come from the persisted store statistics.
void read_media(const transport::ProcFleet& fleet, FleetBatch& batch,
                Result& result) {
  for (std::size_t p = 0; p < kProcesses; ++p) {
    ckpt::StorageConfig storage;
    storage.kind = ckpt::StorageBackendKind::kMmapFile;
    storage.directory = fleet.storage_dir(static_cast<ProcessId>(p));
    storage.open_mode = ckpt::OpenMode::kAttach;
    ckpt::ShardedCheckpointStore store(
        static_cast<ProcessId>(p),
        ckpt::ShardedCheckpointStore::kDefaultShardCount,
        ckpt::StoreConcurrency::kUnsynchronized, storage);
    store.recover();
    result.check_bound(static_cast<int>(p), store.count(), kProcesses);
    batch.peak_stored = std::max(batch.peak_stored, store.stats().peak_count);
    batch.collected += store.stats().collected;
  }
}

transport::FleetConfig fleet_config(const Options& options) {
  transport::FleetConfig config;
  config.process_count = kProcesses;
  config.protocol = ckpt::ProtocolKind::kFdas;
  config.backend = ckpt::StorageBackendKind::kMmapFile;
  config.scratch_dir = fresh_media_dir(options);
  config.worker_binary = E2E_PROC_BIN;
  return config;
}

/// Set-up times of `repeats` more fleets spawned and shut down without
/// running, so the reported set-up median rests on more samples.
std::vector<double> setup_samples(const Options& options, int repeats,
                                  Result& result) {
  std::vector<double> out;
  for (int i = 0; i < repeats; ++i) {
    const transport::FleetConfig config = fleet_config(options);
    const std::int64_t t0 = now_ns();
    transport::ProcFleet fleet(config);
    const bool started = fleet.start();
    out.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    result.check(started && fleet.shutdown(),
                 "fleet set-up or shutdown failed: " + fleet.error());
  }
  return out;
}

FleetBatch run_batch(const Options& options, std::uint64_t seed,
                     Result& result) {
  FleetBatch batch;
  const transport::FleetConfig config = fleet_config(options);
  const std::string& dir = config.scratch_dir;

  rusage self0{}, children0{}, self1{}, children1{};
  ::getrusage(RUSAGE_SELF, &self0);
  ::getrusage(RUSAGE_CHILDREN, &children0);
  const std::int64_t t0 = now_ns();
  transport::ProcFleet fleet(config);
  bool ok = fleet.start();
  const std::int64_t t1 = now_ns();
  result.check(ok, "fleet start failed: " + fleet.error());

  util::Rng rng(seed ^ 0xf1ee7ULL);
  const auto timed = [&ok](auto&& command, std::vector<double>& out,
                           double scale) {
    const std::int64_t a = now_ns();
    ok = command();
    out.push_back(static_cast<double>(now_ns() - a) / scale);
  };
  int next_kill = 1;
  for (int i = 0; i < kCommands && ok; ++i) {
    const auto src = static_cast<ProcessId>(rng.uniform(kProcesses));
    const auto dst = static_cast<ProcessId>(
        (src + 1 + static_cast<ProcessId>(rng.uniform(kProcesses - 1))) %
        static_cast<ProcessId>(kProcesses));
    if (next_kill <= kKills && i == next_kill * kCommands / (kKills + 1)) {
      ++next_kill;
      timed([&] { return fleet.send_app(src, dst); }, batch.send_us, 1e3);
      batch.ops += 2;
      if (!ok) break;
      timed([&] { return fleet.kill_and_restart(src); }, batch.kill_ms, 1e6);
    } else if (rng.uniform(10) == 0) {
      ++batch.ops;
      timed([&] { return fleet.basic_checkpoint(src); }, batch.checkpoint_us,
            1e3);
    } else {
      ++batch.ops;
      timed([&] { return fleet.send_app(src, dst); }, batch.send_us, 1e3);
    }
  }
  if (!ok) ++batch.failed_ops;
  result.check(ok, "fleet command failed: " + fleet.error());
  ok = fleet.shutdown();
  const std::int64_t t2 = now_ns();
  ::getrusage(RUSAGE_SELF, &self1);
  ::getrusage(RUSAGE_CHILDREN, &children1);
  result.check(ok, "fleet shutdown failed: " + fleet.error());
  batch.rss_mb = peak_rss_mb();
  batch.setup_s = static_cast<double>(t1 - t0) / 1e9;
  batch.window_s = static_cast<double>(t2 - t1) / 1e9;
  batch.parent_cpu_s = cpu_s(self1) - cpu_s(self0);
  batch.worker_cpu_s = cpu_s(children1) - cpu_s(children0);
  batch.ctx_switches = switches(self1) - switches(self0) +
                       switches(children1) - switches(children0);
  batch.sessions = fleet.recovery_sessions();

  // Deliveries and forced checkpoints come from the event log, which
  // outlives every worker incarnation.
  const std::int64_t v0 = now_ns();
  batch.log_bytes = std::filesystem::file_size(fleet.log_path());
  for (const transport::Event& e : transport::read_event_log(fleet.log_path()))
    if (e.kind == transport::EventKind::kDeliver) {
      ++batch.deliveries;
      batch.forced += e.forced;
    }
  transport::ReplayConfig replay_config;
  replay_config.process_count = kProcesses;
  replay_config.protocol = config.protocol;
  replay_config.backend = ckpt::StorageBackendKind::kMmapFile;
  replay_config.scratch_dir = dir + "/replay";
  std::filesystem::create_directories(replay_config.scratch_dir);
  const std::int64_t r0 = now_ns();
  const transport::ReplayResult replay =
      transport::replay_event_log(fleet.log_path(), replay_config);
  batch.replay_s = static_cast<double>(now_ns() - r0) / 1e9;
  result.check(replay.ok, "event log replay failed: " + replay.error);
  result.check(!replay.stopped_at.has_value(),
               "event log replay stopped early: " + replay.stop_reason);
  read_media(fleet, batch, result);
  batch.verify_s = static_cast<double>(now_ns() - v0) / 1e9;
  return batch;
}

/// Per-command round trips of the traced batches, as histograms.
void write_histograms(const Options& options,
                      const std::vector<FleetBatch>& traced) {
  const std::pair<const char*, std::vector<double> FleetBatch::*> commands[] =
      {{"transport.send_app", &FleetBatch::send_us},
       {"transport.basic_checkpoint", &FleetBatch::checkpoint_us}};
  std::ofstream out(options.out_dir + "/trace_" + options.workload + "_seed" +
                    std::to_string(options.seed) + ".json");
  out << "{";
  for (const auto& [name, field] : commands) {
    Histogram hist;
    for (const double us : pooled(traced, field))
      hist.add(static_cast<std::int64_t>(us * 1e3));
    out << (name == commands[0].first ? "" : ",\n") << '"' << name
        << "\": " << hist.to_json();
  }
  Histogram kill;
  for (const double ms : pooled(traced, &FleetBatch::kill_ms))
    kill.add(static_cast<std::int64_t>(ms * 1e6));
  out << ",\n\"transport.kill_and_restart\": " << kill.to_json() << "}\n";
}

}  // namespace

Result run_fleet(const Options& options) {
  Result result;
  std::vector<FleetBatch> plain, traced;
  const std::int64_t start = now_ns();
  for (std::uint64_t k = 0;
       k == 0 || (result.correct &&
                  static_cast<double>(now_ns() - start) / 1e9 < options.seconds);
       ++k) {
    const std::uint64_t seed = batch_seed(options.seed, k);
    plain.push_back(run_batch(options, seed, result));
    if (options.trace) traced.push_back(run_batch(options, seed, result));
  }

  double plain_window_s = 0;
  for (const FleetBatch& b : plain) {
    result.attempted += b.ops;
    result.failed += b.failed_ops;
    plain_window_s += b.window_s;
  }
  const std::vector<FleetBatch>& measured = options.trace ? traced : plain;
  const FleetBatch& first = measured.front();

  std::map<std::string, double> v;
  if (!options.trace) {
    std::vector<double> setups = setup_samples(options, kSetupRepeats, result);
    for (const FleetBatch& b : plain) setups.push_back(b.setup_s);
    v["setup_s"] = median(setups);
    // All deliveries over all timed-window time (see sim_workloads.cpp).
    double deliveries = 0;
    for (const FleetBatch& b : plain)
      deliveries += static_cast<double>(b.deliveries);
    v["deliveries_per_s"] = deliveries / plain_window_s;
    const std::vector<double> send = pooled(plain, &FleetBatch::send_us);
    v["cmd_latency_mean_us"] = mean(send);
    result.note("send_app round trip p50 / p99 (us)",
                std::to_string(median(send)) + " / " +
                    std::to_string(quantile(send, 0.99)));
    v["recovery_p50_ms"] = median(pooled(plain, &FleetBatch::kill_ms));
    v["peak_rss_mb"] = first.rss_mb;
    std::vector<double> peaks;
    for (const FleetBatch& b : plain)
      peaks.push_back(static_cast<double>(b.peak_stored));
    v["stored_ckpts_peak"] = median(peaks);
    emit(end_to_end_catalog(), v, result);
  } else {
    const std::vector<double> send = pooled(traced, &FleetBatch::send_us);
    double ops = 0, parent = 0, worker = 0, ctx = 0, bytes = 0, window_s = 0;
    for (const FleetBatch& b : traced) {
      ops += static_cast<double>(b.ops);
      parent += b.parent_cpu_s;
      worker += b.worker_cpu_s;
      ctx += b.ctx_switches;
      bytes += static_cast<double>(b.log_bytes);
      window_s += b.window_s;
    }
    const auto per_op = [ops](double total) { return total / ops; };
    v["transport.send_cmd_p99_us"] = quantile(send, 0.99);
    v["transport.send_cmd_p999_us"] = quantile(send, 0.999);
    v["transport.send_cmd_samples"] = static_cast<double>(send.size());
    v["transport.checkpoint_cmd_us"] =
        median(pooled(traced, &FleetBatch::checkpoint_us));
    v["transport.kill_restart_ms"] = median(pooled(traced, &FleetBatch::kill_ms));
    v["transport.parent_cpu_per_op_us"] = 1e6 * per_op(parent);
    v["transport.worker_cpu_per_op_us"] = 1e6 * per_op(worker);
    v["transport.ctx_switches_per_op"] = per_op(ctx);
    v["transport.log_bytes_per_op"] = per_op(bytes);
    v["transport.replay_s"] = median(each(traced, &FleetBatch::replay_s));
    v["ccp.verify_s"] = median(each(traced, &FleetBatch::verify_s));
    v["ckpt.forced_per_delivery"] =
        static_cast<double>(first.forced) / static_cast<double>(first.deliveries);
    v["core.gc.collected"] = static_cast<double>(first.collected);
    v["recovery.sessions"] = static_cast<double>(first.sessions);
    // Traced and untraced batches ran the same input seeds in pairs.
    v["trace.overhead_ratio"] = window_s / plain_window_s;
    emit(per_layer_catalog(), v, result);
    write_histograms(options, traced);
  }
  result.note("processes", std::to_string(kProcesses));
  result.note("commands per batch", std::to_string(kCommands));
  result.note("batches", std::to_string(measured.size()));
  result.note("deliveries per batch", std::to_string(first.deliveries));
  result.note("recovery sessions per batch", std::to_string(first.sessions));
  result.note("media", "mmap, sync durability");

  return result;
}

}  // namespace e2e
