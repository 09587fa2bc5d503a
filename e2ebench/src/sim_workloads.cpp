// The simulated workloads: sim_steady_n64 and sim_churn_n8.
//
// Both run FDAS with RDT-LGC under the uniform workload.  A run repeats
// batches, each on its own input seed, until its time is up.  An untraced
// batch drives a harness::System in run_until slices.  A traced batch builds
// the same stack from the public constructors with timing decorators at the
// transport, protocol and collector seams, and steps it one event at a time;
// the trace run checks that it reproduces the untraced batch's counts
// exactly.
#include <algorithm>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ccp/analysis.hpp"
#include "ccp/precedence.hpp"
#include "ccp/recorder.hpp"
#include "ckpt/mmap_backend.hpp"
#include "ckpt/node.hpp"
#include "ckpt/protocol.hpp"
#include "core/rdt_lgc.hpp"
#include "harness/system.hpp"
#include "recovery/recovery_manager.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "transport/transport.hpp"
#include "util/rng.hpp"
#include "workload/workload.hpp"
#include "workloads.hpp"

namespace e2e {
namespace {

using namespace rdtgc;

struct SimSpec {
  std::size_t n;
  SimTime duration;  ///< workload horizon of one batch, in ticks
  SimTime slice;     ///< one driver command: run_until this many ticks on
  bool churn;        ///< mmap media + kill/reopen/rejoin failures
  bool probes;       ///< probe one failure per process after the checks
};

constexpr SimTime kFailureMeanGap = 20000;
constexpr double kTwoProcessFailure = 0.25;
/// Extra set-ups per untraced run, on top of one per batch.
constexpr int kSetupRepeats = 15;

SimSpec spec_of(const std::string& workload) {
  if (workload == "sim_steady_n64") return {64, 20000, 100, false, true};
  return {8, 200000, 1000, true, false};
}

// ---- Tracing decorators -----------------------------------------------------

/// Every span and counter of a traced batch.
struct SimTrace {
  Tracer tracer;
  SpanStat step, deliver, activity, net_send;
  SpanStat must_force, on_send, on_deliver, on_checkpoint;
  SpanStat gc_new_deps, gc_ckpt_stored, put_record;
  SpanStat restart, session;
  /// A workload activity is open from the moment the driver resolves its
  /// node until its step ends.
  bool activity_open = false;
  /// Checkpoint put+record window: opens when must_force returns true (or
  /// an activity starts) and closes at on_checkpoint, minus collector time.
  bool put_open = false;
  std::int64_t put_start = 0;
  std::int64_t put_gc = 0;
  std::uint64_t forced = 0, basic = 0;
  std::size_t queue_depth_max = 0;

  void reset_batch_counts() {
    forced = basic = 0;
    queue_depth_max = 0;
  }
};

/// Times sim::Network::send and each delivery sink (the node's receive
/// handler) at the transport seam.
class TimedTransport final : public transport::Transport {
 public:
  TimedTransport(sim::Network& network, SimTrace& trace)
      : network_(network), trace_(trace) {}

  void connect(ProcessId p, transport::DeliveryFn sink) override {
    network_.connect(p, [this, sink = std::move(sink)](const sim::Message& m) {
      trace_.tracer.open(now_ns());
      sink(m);
      trace_.tracer.close(now_ns(), trace_.deliver);
    });
  }
  void disconnect(ProcessId p) override { network_.disconnect(p); }
  sim::MessageId send(sim::Message m) override {
    const std::int64_t t0 = now_ns();
    const sim::MessageId id = network_.send(std::move(m));
    trace_.tracer.leaf(now_ns() - t0, trace_.net_send);
    return id;
  }
  sim::Message make_message() override { return network_.make_message(); }

 private:
  sim::Network& network_;
  SimTrace& trace_;
};

class TimedProtocol final : public ckpt::CheckpointingProtocol {
 public:
  TimedProtocol(std::unique_ptr<ckpt::CheckpointingProtocol> inner,
                SimTrace& trace)
      : inner_(std::move(inner)), trace_(trace) {}

  void initialize(ProcessId self, std::size_t n) override {
    inner_->initialize(self, n);
  }
  std::size_t control_words() const override {
    return inner_->control_words();
  }
  void on_send(ProcessId dst, std::vector<sim::ControlWord>& out) override {
    trace_.put_open = false;  // the activity is a send, not a checkpoint
    const std::int64_t t0 = now_ns();
    inner_->on_send(dst, out);
    trace_.tracer.leaf(now_ns() - t0, trace_.on_send);
  }
  bool must_force(const causality::DependencyVector& dv, const sim::Message& m,
                  bool sent_since_checkpoint) const override {
    const std::int64_t t0 = now_ns();
    const bool force = inner_->must_force(dv, m, sent_since_checkpoint);
    const std::int64_t t1 = now_ns();
    trace_.tracer.leaf(t1 - t0, trace_.must_force);
    if (force) {
      trace_.put_open = true;
      trace_.put_start = t1;
      trace_.put_gc = 0;
    }
    return force;
  }
  void on_deliver(const sim::Message& m) override {
    const std::int64_t t0 = now_ns();
    inner_->on_deliver(m);
    trace_.tracer.leaf(now_ns() - t0, trace_.on_deliver);
  }
  void on_checkpoint(ccp::CheckpointKind kind) override {
    const std::int64_t t0 = now_ns();
    if (trace_.put_open) {
      trace_.tracer.leaf(t0 - trace_.put_start - trace_.put_gc,
                         trace_.put_record);
      trace_.put_open = false;
    }
    if (kind == ccp::CheckpointKind::kForced) ++trace_.forced;
    if (kind == ccp::CheckpointKind::kBasic) ++trace_.basic;
    inner_->on_checkpoint(kind);
    trace_.tracer.leaf(now_ns() - t0, trace_.on_checkpoint);
  }
  void on_rollback() override { inner_->on_rollback(); }
  bool ensures_rdt() const override { return inner_->ensures_rdt(); }
  bool ensures_no_useless() const override {
    return inner_->ensures_no_useless();
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<ckpt::CheckpointingProtocol> inner_;
  SimTrace& trace_;
};

class TimedGc final : public ckpt::GarbageCollector {
 public:
  TimedGc(std::unique_ptr<ckpt::GarbageCollector> inner, SimTrace& trace)
      : inner_(std::move(inner)), trace_(trace) {}

  void initialize(ProcessId self, std::size_t n,
                  ckpt::ShardedCheckpointStore& store) override {
    inner_->initialize(self, n, store);
  }
  void on_new_dependency(ProcessId j) override {
    const std::int64_t t0 = now_ns();
    inner_->on_new_dependency(j);
    trace_.tracer.leaf(now_ns() - t0, trace_.gc_new_deps);
  }
  void on_new_dependencies(std::span<const ProcessId> changed) override {
    const std::int64_t t0 = now_ns();
    inner_->on_new_dependencies(changed);
    trace_.tracer.leaf(now_ns() - t0, trace_.gc_new_deps);
  }
  void on_checkpoint_stored(CheckpointIndex index) override {
    const std::int64_t t0 = now_ns();
    inner_->on_checkpoint_stored(index);
    const std::int64_t duration = now_ns() - t0;
    trace_.tracer.leaf(duration, trace_.gc_ckpt_stored);
    trace_.put_gc += duration;
  }
  void on_rollback(const ckpt::RollbackInfo& info,
                   const causality::DependencyVector& dv) override {
    inner_->on_rollback(info, dv);
  }
  void on_peer_recovery(const std::vector<IntervalIndex>& li,
                        const causality::DependencyVector& dv) override {
    inner_->on_peer_recovery(li, dv);
  }
  void on_attach(const causality::DependencyVector& dv) override {
    inner_->on_attach(dv);
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<ckpt::GarbageCollector> inner_;
  SimTrace& trace_;
};

// ---- The two stacks ---------------------------------------------------------

/// What a batch needs from a simulated system.
class Stack {
 public:
  virtual ~Stack() = default;
  virtual sim::Simulator& simulator() = 0;
  virtual sim::Network& network() = 0;
  virtual ccp::CcpRecorder& recorder() = 0;
  virtual ckpt::Node& node(ProcessId p) = 0;
  /// Kill p and warm-restart it from its media.
  virtual void restart(ProcessId p) = 0;
};

class SystemStack final : public Stack {
 public:
  explicit SystemStack(const harness::SystemConfig& config) : system_(config) {}
  sim::Simulator& simulator() override { return system_.simulator(); }
  sim::Network& network() override { return system_.network(); }
  ccp::CcpRecorder& recorder() override { return system_.recorder(); }
  ckpt::Node& node(ProcessId p) override { return system_.node(p); }
  void restart(ProcessId p) override { system_.restart_node(p); }

 private:
  harness::System system_;
};

/// harness::System rebuilt from public constructors, with the decorators in
/// place.  Construction order and the network seed follow System exactly;
/// the trace run's count comparison catches any drift.
class TracedStack final : public Stack {
 public:
  TracedStack(const harness::SystemConfig& config, SimTrace& trace)
      : config_(config),
        trace_(trace),
        recorder_(config.process_count),
        network_(simulator_, util::Rng(config.seed ^ 0x6e6574ULL),
                 config.network),
        transport_(network_, trace) {
    for (std::size_t p = 0; p < config.process_count; ++p)
      nodes_.push_back(make_node(static_cast<ProcessId>(p),
                                 config.node.storage.open_mode));
  }
  sim::Simulator& simulator() override { return simulator_; }
  sim::Network& network() override { return network_; }
  ccp::CcpRecorder& recorder() override { return recorder_; }
  ckpt::Node& node(ProcessId p) override {
    return *nodes_[static_cast<std::size_t>(p)];
  }
  void restart(ProcessId p) override {
    nodes_[static_cast<std::size_t>(p)].reset();
    network_.disconnect(p);
    nodes_[static_cast<std::size_t>(p)] =
        make_node(p, ckpt::OpenMode::kAttach);
  }

 private:
  std::unique_ptr<ckpt::Node> make_node(ProcessId p, ckpt::OpenMode mode) {
    ckpt::Node::Config node_config = config_.node;
    node_config.storage.open_mode = mode;
    return std::make_unique<ckpt::Node>(
        p, config_.process_count, simulator_, transport_, recorder_,
        std::make_unique<TimedProtocol>(ckpt::make_protocol(config_.protocol),
                                        trace_),
        std::make_unique<TimedGc>(
            std::make_unique<core::RdtLgc>(
                core::RdtLgc::RollbackSearch::kBinary),
            trace_),
        node_config);
  }

  harness::SystemConfig config_;
  SimTrace& trace_;
  sim::Simulator simulator_;
  ccp::CcpRecorder recorder_;
  sim::Network network_;
  TimedTransport transport_;
  std::vector<std::unique_ptr<ckpt::Node>> nodes_;
};

// ---- One batch ----------------------------------------------------------------

/// Counts of one batch, all from sources that survive restarts: the network,
/// the simulator, the persisted store statistics, and node counters
/// harvested before each kill.
struct Counts {
  std::uint64_t sent = 0, delivered = 0, lost = 0, dropped_in_flight = 0;
  std::uint64_t events = 0, activities = 0;
  std::uint64_t forced = 0, basic = 0;
  std::uint64_t collected = 0;
  std::uint64_t failure_events = 0, sessions = 0, discarded = 0;
  std::uint64_t group_commits = 0, syncs = 0;
  std::size_t peak_stored = 0;
  std::vector<std::vector<CheckpointIndex>> stored;
  bool operator==(const Counts&) const = default;
};

struct Batch {
  Counts counts;
  double setup_s = 0, run_s = 0, verify_s = 0, rss_mb = 0;
  std::vector<double> slice_us;    ///< untraced: one per run_until slice
  std::vector<double> event_ms;    ///< failure event: restart + session
  std::vector<double> restart_ms;  ///< restart (churn) or rollback (probe)
  std::vector<double> session_ms;
};

/// Add the incarnation-local counters of a node that is about to die (or of
/// a live node at the end of the batch).
void harvest(ckpt::Node& node, Counts& counts) {
  counts.forced += node.counters().forced_checkpoints;
  counts.basic += node.counters().basic_checkpoints;
  const ckpt::ShardedCheckpointStore& store = node.store();
  if (store.pipeline() != nullptr) counts.group_commits += store.pipeline()->commits();
  for (std::size_t s = 0; s < store.shard_count(); ++s)
    if (const auto* mmap =
            dynamic_cast<const ckpt::MmapFileBackend*>(&store.durable_shard(s)))
      counts.syncs += mmap->msyncs();
}

harness::SystemConfig system_config(const SimSpec& spec, std::uint64_t seed,
                                    const std::string& dir) {
  harness::SystemConfig config;
  config.process_count = spec.n;
  config.protocol = ckpt::ProtocolKind::kFdas;
  config.gc = harness::GcChoice::kRdtLgc;
  config.seed = seed;
  if (spec.churn) {
    config.node.storage.kind = ckpt::StorageBackendKind::kMmapFile;
    config.node.storage.directory = dir;
  }
  return config;
}

/// Kill/reopen/rejoin failures at exponential gaps, one or two processes
/// each; each event restarts every faulty process, then runs one session.
class FailureSchedule {
 public:
  FailureSchedule(Stack& stack, recovery::RecoveryManager& manager,
                  const SimSpec& spec, std::uint64_t seed, SimTrace* trace,
                  Batch& batch)
      : stack_(stack),
        manager_(manager),
        spec_(spec),
        rng_(seed ^ 0x5eedf00dULL),
        trace_(trace),
        batch_(batch) {}

  void start() { schedule_next(); }

 private:
  void schedule_next() {
    const auto gap = static_cast<SimTime>(std::max(
        1.0, rng_.exponential(static_cast<double>(kFailureMeanGap))));
    const SimTime when =
        std::max(stack_.simulator().now(), spec_.duration / 20) + gap;
    if (when > spec_.duration) return;
    stack_.simulator().at(when, [this] {
      std::vector<ProcessId> faulty{
          static_cast<ProcessId>(rng_.uniform(spec_.n))};
      if (rng_.bernoulli(kTwoProcessFailure)) {
        ProcessId second = faulty.front();
        while (second == faulty.front())
          second = static_cast<ProcessId>(rng_.uniform(spec_.n));
        faulty.push_back(second);
      }
      fire(faulty);
      schedule_next();
    });
  }

  void fire(const std::vector<ProcessId>& faulty) {
    const std::int64_t a = now_ns();
    if (trace_ != nullptr) trace_->tracer.open(a);
    for (const ProcessId p : faulty) {
      harvest(stack_.node(p), batch_.counts);
      stack_.restart(p);
    }
    const std::int64_t b = now_ns();
    if (trace_ != nullptr) {
      trace_->tracer.close(b, trace_->restart);
      trace_->tracer.open(b);
    }
    const recovery::RecoveryOutcome outcome = manager_.recover(faulty);
    const std::int64_t c = now_ns();
    if (trace_ != nullptr) trace_->tracer.close(c, trace_->session);
    ++batch_.counts.failure_events;
    ++batch_.counts.sessions;
    batch_.counts.discarded += outcome.checkpoints_discarded;
    batch_.event_ms.push_back(static_cast<double>(c - a) / 1e6);
    batch_.restart_ms.push_back(static_cast<double>(b - a) / 1e6);
    batch_.session_ms.push_back(static_cast<double>(c - b) / 1e6);
  }

  Stack& stack_;
  recovery::RecoveryManager& manager_;
  const SimSpec& spec_;
  util::Rng rng_;
  SimTrace* trace_;
  Batch& batch_;
};

/// Post-run correctness checks (outside the timed window).
void verify(const SimSpec& spec, Stack& stack, Result& result) {
  const auto n = static_cast<ProcessId>(spec.n);
  for (ProcessId p = 0; p < n; ++p)
    result.check_bound(p, stack.node(p).store().count(), spec.n);
  const ccp::CcpRecorder& recorder = stack.recorder();
  if (!spec.churn) {
    for (ProcessId p = 0; p < n; ++p)
      result.check(stack.node(p).store().stored_indices() ==
                       ccp::retained_corollary1(recorder, p),
                   "a stored set differs from the Corollary-1 set");
    return;
  }
  const bool no_orphans = recorder.audit_no_orphans();
  result.check(no_orphans, "an orphan receive survived the churn");
  if (!no_orphans) return;
  const ccp::CausalGraph causal(recorder);
  const auto obsolete = ccp::obsolete_theorem1(recorder, causal);
  for (ProcessId p = 0; p < n; ++p) {
    const auto& flags = obsolete[static_cast<std::size_t>(p)];
    for (std::size_t g = 0; g < flags.size(); ++g)
      result.check(flags[g] || stack.node(p).store().contains(
                                   static_cast<CheckpointIndex>(g)),
                   "a non-obsolete checkpoint was collected (Theorem 1)");
  }
}

/// Steady workload only: after the checks, fail every process in turn (in-
/// memory media cannot restart, so the failure is the crash-equivalent
/// rollback to the last stable checkpoint) and run a session for each.
void probe_recovery(const SimSpec& spec, Stack& stack,
                    recovery::RecoveryManager& manager, Batch& batch) {
  for (std::size_t k = 0; k < spec.n; ++k) {
    const auto p = static_cast<ProcessId>(k);
    const std::int64_t a = now_ns();
    stack.node(p).rollback_to(stack.recorder().last_stable(p), std::nullopt);
    const std::int64_t b = now_ns();
    const recovery::RecoveryOutcome outcome = manager.recover({p});
    const std::int64_t c = now_ns();
    batch.event_ms.push_back(static_cast<double>(c - a) / 1e6);
    batch.restart_ms.push_back(static_cast<double>(b - a) / 1e6);
    batch.session_ms.push_back(static_cast<double>(c - b) / 1e6);
    ++batch.counts.sessions;
    batch.counts.discarded += outcome.checkpoints_discarded;
  }
}

/// A system built and started, up to its first timed operation.  Members
/// are destroyed in reverse order, so the stack outlives its users.
struct Rig {
  std::unique_ptr<Stack> stack;
  std::unique_ptr<workload::WorkloadDriver> driver;
  std::unique_ptr<recovery::RecoveryManager> manager;
  std::unique_ptr<FailureSchedule> failures;
};

Rig build(const SimSpec& spec, const harness::SystemConfig& config,
          std::uint64_t seed, SimTrace* trace, Batch& batch) {
  Rig rig;
  if (trace != nullptr)
    rig.stack = std::make_unique<TracedStack>(config, *trace);
  else
    rig.stack = std::make_unique<SystemStack>(config);
  Stack* s = rig.stack.get();
  const workload::NodeProvider plain = [s](ProcessId p) -> ckpt::Node& {
    return s->node(p);
  };
  workload::NodeProvider driver_nodes = plain;
  if (trace != nullptr) {
    driver_nodes = [s, trace](ProcessId p) -> ckpt::Node& {
      if (!trace->activity_open && trace->tracer.active()) {
        const std::int64_t t = now_ns();
        trace->tracer.open(t);
        trace->activity_open = true;
        trace->put_open = true;  // a basic checkpoint may follow
        trace->put_start = t;
        trace->put_gc = 0;
      }
      return s->node(p);
    };
  }
  workload::WorkloadConfig wl;
  wl.kind = workload::WorkloadKind::kUniform;
  wl.seed = seed * 7919 + 13;
  rig.driver = std::make_unique<workload::WorkloadDriver>(
      s->simulator(), driver_nodes, spec.n, wl);
  rig.manager = std::make_unique<recovery::RecoveryManager>(
      s->simulator(), s->network(), s->recorder(), plain,
      recovery::RecoveryManager::Config{});
  rig.failures = std::make_unique<FailureSchedule>(*s, *rig.manager, spec,
                                                   seed, trace, batch);
  rig.driver->start(spec.duration);
  if (spec.churn) rig.failures->start();
  return rig;
}

/// Set-up times of `repeats` more systems built and torn down without
/// running, so the reported set-up median rests on more samples.
std::vector<double> setup_samples(const SimSpec& spec, const Options& options,
                                  int repeats) {
  std::vector<double> out;
  for (int i = 0; i < repeats; ++i) {
    const std::string dir = spec.churn ? fresh_media_dir(options) : "";
    Batch scratch;
    const std::int64_t t0 = now_ns();
    const Rig rig = build(spec, system_config(spec, options.seed, dir),
                          options.seed, nullptr, scratch);
    out.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  return out;
}

Batch run_batch(const SimSpec& spec, const Options& options, std::uint64_t seed,
                SimTrace* trace, Result& result) {
  Batch batch;
  const harness::SystemConfig config = system_config(
      spec, seed, spec.churn ? fresh_media_dir(options) : "");

  const std::int64_t t0 = now_ns();
  const Rig rig = build(spec, config, seed, trace, batch);
  Stack* s = rig.stack.get();
  workload::WorkloadDriver& driver = *rig.driver;
  recovery::RecoveryManager& manager = *rig.manager;
  const std::int64_t t1 = now_ns();
  sim::Simulator& simulator = s->simulator();
  if (trace == nullptr) {
    SimTime next = 0;
    while (simulator.pending() > 0) {
      next += spec.slice;
      const std::int64_t a = now_ns();
      simulator.run_until(next);
      batch.slice_us.push_back(static_cast<double>(now_ns() - a) / 1e3);
    }
  } else {
    Tracer& tracer = trace->tracer;
    std::int64_t t = t1;
    while (simulator.pending() > 0) {
      tracer.open(t);
      simulator.step();
      const std::int64_t end = now_ns();
      if (trace->activity_open) {
        tracer.close(end, trace->activity);
        trace->activity_open = false;
      }
      trace->put_open = false;
      tracer.close(end, trace->step);
      trace->queue_depth_max =
          std::max(trace->queue_depth_max, simulator.pending());
      t = end;
    }
  }
  const std::int64_t t2 = now_ns();
  batch.setup_s = static_cast<double>(t1 - t0) / 1e9;
  batch.run_s = static_cast<double>(t2 - t1) / 1e9;
  batch.rss_mb = peak_rss_mb();

  Counts& counts = batch.counts;
  const sim::Network::Stats& net = s->network().stats();
  counts.sent = net.sent;
  counts.delivered = net.delivered;
  counts.lost = net.lost;
  counts.dropped_in_flight = net.dropped_in_flight;
  counts.events = simulator.events_processed();
  counts.activities = driver.activities();
  for (std::size_t p = 0; p < spec.n; ++p) {
    ckpt::Node& node = s->node(static_cast<ProcessId>(p));
    harvest(node, counts);
    counts.collected += node.store().stats().collected;
    counts.peak_stored =
        std::max(counts.peak_stored, node.store().stats().peak_count);
    counts.stored.push_back(node.store().stored_indices());
  }

  const std::int64_t v0 = now_ns();
  verify(spec, *s, result);
  batch.verify_s = static_cast<double>(now_ns() - v0) / 1e9;
  if (spec.probes) probe_recovery(spec, *s, manager, batch);
  return batch;
}

void describe(const SimSpec& spec, const Counts& c, Result& result) {
  result.note("processes", std::to_string(spec.n));
  result.note("sim ticks per batch", std::to_string(spec.duration));
  result.note("media", spec.churn ? "mmap, sync durability"
                                  : "in-memory");
  result.note("deliveries per batch", std::to_string(c.delivered));
  result.note("sends per batch", std::to_string(c.sent));
  result.note("events per batch", std::to_string(c.events));
  result.note("forced / basic checkpoints",
              std::to_string(c.forced) + " / " + std::to_string(c.basic));
  result.note("collected", std::to_string(c.collected));
  result.note("failure events / sessions",
              std::to_string(c.failure_events) + " / " +
                  std::to_string(c.sessions));
}

void write_histograms(const Options& options, const SimTrace& trace) {
  const std::string path = options.out_dir + "/trace_" + options.workload +
                           "_seed" + std::to_string(options.seed) + ".json";
  std::ofstream out(path);
  const std::pair<const char*, const SpanStat*> spans[] = {
      {"sim.step", &trace.step},
      {"sim.network.send", &trace.net_send},
      {"ckpt.deliver", &trace.deliver},
      {"ckpt.activity", &trace.activity},
      {"ckpt.checkpoint_put_record", &trace.put_record},
      {"protocol.must_force", &trace.must_force},
      {"protocol.on_send", &trace.on_send},
      {"protocol.on_deliver", &trace.on_deliver},
      {"protocol.on_checkpoint", &trace.on_checkpoint},
      {"core.gc.new_dependencies", &trace.gc_new_deps},
      {"core.gc.checkpoint_stored", &trace.gc_ckpt_stored},
      {"recovery.restart", &trace.restart},
      {"recovery.session", &trace.session},
  };
  out << "{";
  bool first = true;
  for (const auto& [name, stat] : spans) {
    out << (first ? "" : ",\n") << '"' << name << "\": {\"self_ns\": "
        << stat->self_ns << ", \"durations\": " << stat->hist.to_json()
        << "}";
    first = false;
  }
  out << "}\n";
}

void report_untraced(const SimSpec& spec, const std::vector<Batch>& batches,
                     std::vector<double> setups, Result& result) {
  // Throughput is all deliveries over all timed-window time: on a host whose
  // speed drifts in phases of a second or two, this moves smoothly with the
  // mix of phases, where a median over batches jumps between them.
  double delivered = 0, run_s = 0;
  for (const Batch& b : batches) {
    delivered += static_cast<double>(b.counts.delivered);
    run_s += b.run_s;
  }
  const Counts& c = batches.front().counts;
  std::map<std::string, double> v;
  for (const Batch& b : batches) setups.push_back(b.setup_s);
  v["setup_s"] = median(setups);
  v["deliveries_per_s"] = delivered / run_s;
  const std::vector<double> slices = pooled(batches, &Batch::slice_us);
  v["cmd_latency_mean_us"] = mean(slices);
  result.note("run_until slice p50 / p99 (us)",
              std::to_string(median(slices)) + " / " +
                  std::to_string(quantile(slices, 0.99)));
  v["recovery_p50_ms"] = median(pooled(batches, &Batch::event_ms));
  v["peak_rss_mb"] = batches.front().rss_mb;
  std::vector<double> peaks;
  for (const Batch& b : batches)
    peaks.push_back(static_cast<double>(b.counts.peak_stored));
  v["stored_ckpts_peak"] = median(peaks);
  emit(end_to_end_catalog(), v, result);
  describe(spec, c, result);
  result.note("batches", std::to_string(batches.size()));
}

void report_traced(const SimSpec& spec, const Options& options,
                   const std::vector<Batch>& plain,
                   const std::vector<Batch>& traced, const SimTrace& t,
                   Result& result) {
  // Counts are batch 0's, which every run with this seed repeats exactly;
  // times cover every traced batch.
  const Counts& c = traced.front().counts;
  double wall = 0, plain_wall = 0, events = 0;
  for (const Batch& b : traced) {
    wall += 1e9 * b.run_s;
    events += static_cast<double>(b.counts.events);
  }
  for (const Batch& b : plain) plain_wall += 1e9 * b.run_s;
  std::map<std::string, double> v;
  v["sim.step_self_ns"] = t.step.self_mean_ns();
  v["sim.host_ns_per_event"] = wall / events;
  v["sim.events"] = static_cast<double>(c.events);
  v["sim.queue_depth_max"] = static_cast<double>(t.queue_depth_max);
  v["sim.network.send_ns"] = t.net_send.mean_ns();
  v["core.gc.new_dependencies_ns"] = t.gc_new_deps.mean_ns();
  v["core.gc.checkpoint_stored_ns"] = t.gc_ckpt_stored.mean_ns();
  v["core.gc.collected"] = static_cast<double>(c.collected);
  v["ckpt.deliver_ns"] = t.deliver.mean_ns();
  v["ckpt.deliver_self_ns"] = t.deliver.self_mean_ns();
  v["ckpt.activity_ns"] = t.activity.mean_ns();
  v["ckpt.checkpoint_put_record_ns"] = t.put_record.mean_ns();
  v["ckpt.forced_per_delivery"] =
      static_cast<double>(c.forced) / static_cast<double>(c.delivered);
  v["ckpt.store.group_commits"] = static_cast<double>(c.group_commits);
  v["ckpt.store.syncs"] = static_cast<double>(c.syncs);
  v["protocol.must_force_ns"] = t.must_force.mean_ns();
  v["protocol.on_send_ns"] = t.on_send.mean_ns();
  v["protocol.on_deliver_ns"] = t.on_deliver.mean_ns();
  v["recovery.restart_ms"] = median(pooled(traced, &Batch::restart_ms));
  v["recovery.session_ms"] = median(pooled(traced, &Batch::session_ms));
  v["recovery.sessions"] = static_cast<double>(c.sessions);
  v["recovery.checkpoints_discarded"] = static_cast<double>(c.discarded);
  v["recovery.dropped_in_flight"] = static_cast<double>(c.dropped_in_flight);
  v["ccp.verify_s"] = median(each(traced, &Batch::verify_s));

  // Layer budget: self time per layer over all traced batches, as a share of
  // their total wall time.  Workload generation and the recorder have no
  // seam of their own; their time lands in the span that called them.
  const auto share = [wall](double ns) { return ns / wall; };
  const double sim_self =
      static_cast<double>(t.step.self_ns + t.net_send.self_ns);
  const double ckpt_self = static_cast<double>(
      t.deliver.self_ns + t.activity.self_ns + t.put_record.self_ns);
  const double protocol_self =
      static_cast<double>(t.must_force.self_ns + t.on_send.self_ns +
                          t.on_deliver.self_ns + t.on_checkpoint.self_ns);
  const double core_self =
      static_cast<double>(t.gc_new_deps.self_ns + t.gc_ckpt_stored.self_ns);
  const double recovery_self =
      static_cast<double>(t.restart.self_ns + t.session.self_ns);
  v["budget.sim_share"] = share(sim_self);
  v["budget.ckpt_share"] = share(ckpt_self);
  v["budget.protocol_share"] = share(protocol_self);
  v["budget.core_share"] = share(core_self);
  v["budget.recovery_share"] = share(recovery_self);
  const double self_sum = share(sim_self + ckpt_self + protocol_self +
                                core_self + recovery_self);
  v["budget.self_sum_ratio"] = self_sum;
  // Traced and untraced batches ran the same input seeds in pairs.
  v["trace.overhead_ratio"] = wall / plain_wall;
  emit(per_layer_catalog(), v, result);
  describe(spec, c, result);
  result.note("traced batches", std::to_string(traced.size()));
  result.check(self_sum > 0.9 && self_sum < 1.1,
               "per-layer self times do not sum to within 10% of the traced "
               "wall time");
  write_histograms(options, t);
}

}  // namespace

Result run_sim(const Options& options) {
  const SimSpec spec = spec_of(options.workload);
  Result result;
  std::vector<Batch> plain, traced;
  SimTrace trace;
  const std::int64_t start = now_ns();
  const auto elapsed = [start] {
    return static_cast<double>(now_ns() - start) / 1e9;
  };
  for (std::uint64_t k = 0; k == 0 || elapsed() < options.seconds; ++k) {
    const std::uint64_t seed = batch_seed(options.seed, k);
    plain.push_back(run_batch(spec, options, seed, nullptr, result));
    if (options.trace) {
      trace.reset_batch_counts();
      traced.push_back(run_batch(spec, options, seed, &trace, result));
      const Counts& tc = traced.back().counts;
      result.check(tc == plain.back().counts,
                   "the traced batch did not reproduce the untraced counts");
      result.check(trace.forced == tc.forced && trace.basic == tc.basic,
                   "protocol-seam checkpoint counts differ from node counts");
    }
  }

  for (const Batch& b : plain)
    result.attempted += b.counts.activities + b.counts.failure_events +
                        (spec.probes ? spec.n : 0);
  if (options.trace)
    report_traced(spec, options, plain, traced, trace, result);
  else
    report_untraced(spec, plain,
                    setup_samples(spec, options, kSetupRepeats), result);
  return result;
}

}  // namespace e2e
