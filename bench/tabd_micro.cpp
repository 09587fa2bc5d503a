// T-D: micro-benchmarks for the complexity claims of §4.5.
//
//  * all Algorithm-1 procedures are O(1); the receive/checkpoint handlers
//    are O(n) dominated by dependency-vector propagation;
//  * the Algorithm-3 rollback rebuild is O(n log n) with binary search over
//    the stored checkpoints, versus O(n^2) for the linear scan;
//  * the offline analyses (R-graph construction, Lemma-1 lines, Theorem-1
//    characterization) scale with the recorded history;
//  * the recorder's rollback does not: it costs O(undone events);
//  * the fleet's socket receive path costs the bytes it reads, not the
//    kMaxFrameBytes bound of its buffer.
#include <benchmark/benchmark.h>
#include <sys/socket.h>

#include <memory>
#include <string>
#include <utility>

#include "bench_common.hpp"

#include "causality/dependency_vector.hpp"
#include "ccp/analysis.hpp"
#include "ccp/precedence.hpp"
#include "ccp/recorder.hpp"
#include "ccp/zigzag.hpp"
#include "ckpt/protocol.hpp"
#include "ckpt/sharded_checkpoint_store.hpp"
#include "ckpt/storage_backend.hpp"
#include "core/rdt_lgc.hpp"
#include "core/uc_table.hpp"
#include "harness/sweep.hpp"
#include "harness/system.hpp"
#include "metrics/storage_probe.hpp"
#include "recovery/recovery_manager.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "transport/uds.hpp"
#include "transport/wire.hpp"
#include "util/rng.hpp"
#include "workload/workload.hpp"

using namespace rdtgc;

namespace {

void BM_DvMerge(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  causality::DependencyVector mine(n), msg(n);
  for (std::size_t j = 0; j < n; ++j) msg.at(static_cast<ProcessId>(j)) = 1;
  for (auto _ : state) {
    causality::DependencyVector dv = mine;
    benchmark::DoNotOptimize(dv.merge(msg));
  }
}
BENCHMARK(BM_DvMerge)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

void BM_DvMergeInto(benchmark::State& state) {
  // The zero-allocation variant: same worst case (every entry raised), the
  // changed set written into a reusable scratch buffer.
  const auto n = static_cast<std::size_t>(state.range(0));
  causality::DependencyVector mine(n), msg(n);
  for (std::size_t j = 0; j < n; ++j) msg.at(static_cast<ProcessId>(j)) = 1;
  causality::ChangedSet changed(n);
  causality::DependencyVector dv = mine;
  for (auto _ : state) {
    dv = mine;  // same-size copy assignment: reuses the buffer
    dv.merge_into(msg, changed);
    benchmark::DoNotOptimize(changed.size());
  }
}
BENCHMARK(BM_DvMergeInto)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

void BM_UcTableReleaseLink(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  core::UcTable table(n, [](CheckpointIndex) {});
  table.new_ccb(0, 0);
  for (auto _ : state) {
    // Algorithm 2's receive pair on a rotating peer: O(1) each (§4.5).
    for (ProcessId j = 1; j < static_cast<ProcessId>(n); ++j) {
      table.release(j);
      table.link(j, 0);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n - 1));
}
BENCHMARK(BM_UcTableReleaseLink)->Arg(4)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

void BM_UcTableRebind(benchmark::State& state) {
  // The same n-1 peer rebinding as BM_UcTableReleaseLink, coalesced into one
  // rebind_to pass (single ±k CCB refcount adjustment).  The self CCB is
  // swapped every iteration so each rebind really moves every peer (without
  // the swap, rebind_to's already-bound fast path would measure a no-op);
  // the swap's release+new_ccb cost is charged to the batched side.
  const auto n = static_cast<std::size_t>(state.range(0));
  core::UcTable table(n, [](CheckpointIndex) {});
  table.new_ccb(0, 0);
  std::vector<ProcessId> peers;
  for (ProcessId j = 1; j < static_cast<ProcessId>(n); ++j) peers.push_back(j);
  table.rebind_to({peers.data(), peers.size()}, 0);
  CheckpointIndex next = 1;
  for (auto _ : state) {
    table.release(0);
    table.new_ccb(0, next);  // the old CCB dies when the last peer leaves it
    next = next == 0 ? 1 : 0;
    table.rebind_to({peers.data(), peers.size()}, 0);
    benchmark::DoNotOptimize(&table);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n - 1));
}
BENCHMARK(BM_UcTableRebind)->Arg(4)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

void BM_CheckpointPath(benchmark::State& state) {
  // Full middleware checkpoint operation (store + GC hook + DV increment).
  const auto n = static_cast<std::size_t>(state.range(0));
  harness::SystemConfig config;
  config.process_count = n;
  config.network.manual = true;
  config.gc = harness::GcChoice::kRdtLgc;
  harness::System system(config);
  for (auto _ : state) system.node(0).take_basic_checkpoint();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CheckpointPath)->Arg(4)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

void BM_ReceivePath(benchmark::State& state) {
  // Checkpoint at the sender + send + delivery at the receiver: the
  // receiver-side work is the paper's O(n) receive handler with a fresh
  // dependency every time.
  const auto n = static_cast<std::size_t>(state.range(0));
  harness::SystemConfig config;
  config.process_count = n;
  config.network.manual = true;
  config.gc = harness::GcChoice::kRdtLgc;
  harness::System system(config);
  for (auto _ : state) {
    system.node(1).take_basic_checkpoint();
    const auto id = system.node(1).send_app_message(0);
    system.network().deliver_now(id);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReceivePath)->Arg(4)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

// The simulator core alone, no nodes: one steady-state send (a recycled
// shell with a same-size n-wide DV copy) plus one Simulator::step delivering
// to a no-op sink, with n messages kept in flight.  This is the per-delivery
// cost the event queue and in-flight slab add under every simulated run.
void BM_SimDelivery(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::Simulator simulator;
  sim::Network network(simulator, util::Rng(3), {});
  for (std::size_t p = 0; p < n; ++p)
    network.connect(static_cast<ProcessId>(p), [](const sim::Message&) {});
  const causality::DependencyVector dv(n);
  std::size_t next = 0;
  const auto send_one = [&] {
    sim::Message m = network.make_message();
    m.src = static_cast<ProcessId>(next);
    next = (next + 1) % n;
    m.dst = static_cast<ProcessId>(next);
    m.dv = dv;
    return network.send(std::move(m));
  };
  for (std::size_t i = 0; i < n; ++i) send_one();
  for (auto _ : state) {
    benchmark::DoNotOptimize(send_one());
    benchmark::DoNotOptimize(simulator.step());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimDelivery)->Arg(4)->Arg(64);

// Worst-case receive at the GC layer — every delivery raises all n-1 peer
// entries right after a local checkpoint, so every UC entry rebinds and the
// abandoned checkpoint is eliminated through the store.  The Batched/PerPeer
// pair makes the old-vs-new delta of the coalesced entry point visible.
void BM_ReceiveBatch(benchmark::State& state, bool batched) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ckpt::ShardedCheckpointStore store(0);
  core::RdtLgc lgc;
  lgc.initialize(0, n, store);
  causality::DependencyVector dv(n), msg(n);
  causality::ChangedSet changed(n);
  CheckpointIndex index = 0;
  IntervalIndex tick = 0;
  store.put(ckpt::StoredCheckpoint{index, dv, 0, 1});
  lgc.on_checkpoint_stored(index);
  dv.at(0) += 1;
  for (auto _ : state) {
    ++index;
    store.put(ckpt::StoredCheckpoint{index, dv, 0, 1});
    lgc.on_checkpoint_stored(index);
    dv.at(0) += 1;
    ++tick;
    for (ProcessId j = 1; j < static_cast<ProcessId>(n); ++j)
      msg.at(j) = tick;
    if (batched) {
      dv.merge_into(msg, changed);
      lgc.on_new_dependencies(changed.span());
    } else {
      const std::vector<ProcessId> per_peer = dv.merge(msg);
      for (const ProcessId j : per_peer) lgc.on_new_dependency(j);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n - 1));
}
void BM_ReceivePathBatched(benchmark::State& state) {
  BM_ReceiveBatch(state, true);
}
void BM_ReceivePathPerPeer(benchmark::State& state) {
  BM_ReceiveBatch(state, false);
}
BENCHMARK(BM_ReceivePathBatched)->Arg(4)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);
BENCHMARK(BM_ReceivePathPerPeer)->Arg(4)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

// ---- Protocol seam cost ---------------------------------------------------
//
// One checkpoint + send + delivery per iteration through each protocol
// behind the piggyback seam: the delta against Uncoordinated is the price
// of that protocol's on_send control fill, must_force query, and
// on_deliver merge.  FINE is the widest (n+1 control words per message);
// the scalar-clock protocols should be indistinguishable from the DV-only
// family at any n.
void BM_ProtocolSeam(benchmark::State& state, ckpt::ProtocolKind kind) {
  const auto n = static_cast<std::size_t>(state.range(0));
  harness::SystemConfig config;
  config.process_count = n;
  config.network.manual = true;
  config.protocol = kind;
  config.gc = harness::GcChoice::kRdtLgc;
  harness::System system(config);
  for (auto _ : state) {
    system.node(1).take_basic_checkpoint();
    const auto id = system.node(1).send_app_message(0);
    system.network().deliver_now(id);
  }
  state.SetItemsProcessed(state.iterations());
}
void BM_ProtocolUncoordinated(benchmark::State& state) {
  BM_ProtocolSeam(state, ckpt::ProtocolKind::kUncoordinated);
}
void BM_ProtocolFdas(benchmark::State& state) {
  BM_ProtocolSeam(state, ckpt::ProtocolKind::kFdas);
}
void BM_ProtocolBcs(benchmark::State& state) {
  BM_ProtocolSeam(state, ckpt::ProtocolKind::kBcs);
}
void BM_ProtocolFine(benchmark::State& state) {
  BM_ProtocolSeam(state, ckpt::ProtocolKind::kFine);
}
BENCHMARK(BM_ProtocolUncoordinated)->Arg(4)->Arg(64)->Arg(256);
BENCHMARK(BM_ProtocolFdas)->Arg(4)->Arg(64)->Arg(256);
BENCHMARK(BM_ProtocolBcs)->Arg(4)->Arg(64)->Arg(256);
BENCHMARK(BM_ProtocolFine)->Arg(4)->Arg(64)->Arg(256);

// ---- Store put/collect churn ----------------------------------------------
//
// The sliding-window churn every collector produces, on the in-memory
// per-process store with no GC above it: Arg is the live window, and each
// iteration stores one checkpoint and collects the oldest live one, so the
// time per iteration is ns per put+collect pair.  The flat store's collect
// is an erase-shift of the window, so the cost grows with Arg; under
// RDT-LGC the window is at most n (§4.5).

void BM_StoreChurn(benchmark::State& state) {
  const auto window = static_cast<CheckpointIndex>(state.range(0));
  ckpt::ShardedCheckpointStore store(0);
  causality::DependencyVector dv(4);
  CheckpointIndex next = 0;
  for (; next < window; ++next) store.put(next, dv, 0, 1);
  for (auto _ : state) {
    store.collect(next - window);
    store.put(next, dv, 0, 1);
    benchmark::DoNotOptimize(store.count());
    ++next;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreChurn)->Arg(4)->Arg(64)->Arg(512);

/// Put+collect pairs per iteration of the backend churn families below.
constexpr int kChurnBatch = 64;

// ---- Storage-backend families --------------------------------------------
//
// The same sliding-window churn as BM_StoreChurn, and the reopen+recover
// cycle of a restart, per persistence backend (ckpt/storage_backend.hpp):
// the deltas against the in-memory families price what durability costs on
// the hot path, and the recover families price the recovery path itself —
// the figure the rollback analyses care about.  Media live under TMPDIR
// (point it at a tmpfs to bench the store, not the disk).

ckpt::StorageConfig backend_config(ckpt::StorageBackendKind kind) {
  ckpt::StorageConfig config;
  config.kind = kind;
  if (kind != ckpt::StorageBackendKind::kInMemory)
    config.directory = bench::scratch_dir("run");
  return config;
}

void BM_BackendChurn(benchmark::State& state, ckpt::StorageBackendKind kind) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ckpt::ShardedCheckpointStore store(
      0, ckpt::ShardedCheckpointStore::kDefaultShardCount,
      ckpt::StoreConcurrency::kUnsynchronized, backend_config(kind));
  causality::DependencyVector dv(n);
  CheckpointIndex next = 0;
  constexpr CheckpointIndex window = 16;
  for (; next < window; ++next) store.put(next, dv, 0, 1);
  for (CheckpointIndex g = 0; g < window / 2; ++g) store.collect(g);
  for (auto _ : state) {
    for (int k = 0; k < kChurnBatch; ++k) {
      store.put(next, dv, 0, 1);
      store.collect(next - window / 2);
      ++next;
    }
  }
  state.SetItemsProcessed(state.iterations() * kChurnBatch);
}
void BM_BackendChurnMemory(benchmark::State& state) {
  BM_BackendChurn(state, ckpt::StorageBackendKind::kInMemory);
}
void BM_BackendChurnMmap(benchmark::State& state) {
  BM_BackendChurn(state, ckpt::StorageBackendKind::kMmapFile);
}
void BM_BackendChurnLog(benchmark::State& state) {
  BM_BackendChurn(state, ckpt::StorageBackendKind::kLogStructured);
}
BENCHMARK(BM_BackendChurnMemory)->Arg(4)->Arg(64);
BENCHMARK(BM_BackendChurnMmap)->Arg(4)->Arg(64);
BENCHMARK(BM_BackendChurnLog)->Arg(4)->Arg(64);

// Reopen-from-disk cost: Arg live checkpoints survive (after a churn that
// also left an equal measure of dead records/slots on the medium, as a real
// GC would); each iteration attaches to the media and runs the full
// recover() rebuild — the storage half of an Algorithm-3 restart.
void BM_RollbackRecover(benchmark::State& state,
                        ckpt::StorageBackendKind kind) {
  const auto live = static_cast<CheckpointIndex>(state.range(0));
  ckpt::StorageConfig config = backend_config(kind);
  {
    ckpt::ShardedCheckpointStore store(
        0, ckpt::ShardedCheckpointStore::kDefaultShardCount,
        ckpt::StoreConcurrency::kUnsynchronized, config);
    causality::DependencyVector dv(8);
    for (CheckpointIndex i = 0; i < 2 * live; ++i) store.put(i, dv, 0, 1);
    for (CheckpointIndex g = 0; g < live; ++g) store.collect(g);
    store.flush();
  }
  config.open_mode = ckpt::OpenMode::kAttach;
  for (auto _ : state) {
    ckpt::ShardedCheckpointStore store(
        0, ckpt::ShardedCheckpointStore::kDefaultShardCount,
        ckpt::StoreConcurrency::kUnsynchronized, config);
    benchmark::DoNotOptimize(store.recover());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(live));
}
void BM_RollbackRecoverMmap(benchmark::State& state) {
  BM_RollbackRecover(state, ckpt::StorageBackendKind::kMmapFile);
}
void BM_RollbackRecoverLog(benchmark::State& state) {
  BM_RollbackRecover(state, ckpt::StorageBackendKind::kLogStructured);
}
BENCHMARK(BM_RollbackRecoverMmap)->Arg(64)->Arg(512);
BENCHMARK(BM_RollbackRecoverLog)->Arg(64)->Arg(512);

// ---- Warm-restart families ------------------------------------------------
//
// The middleware half on top of BM_RollbackRecover: a whole ckpt::Node dies
// and its replacement attaches to the same media (OpenMode::kAttach through
// harness::System::restart_node).  BM_NodeAttach isolates the attach itself
// — store recover, per-checkpoint certification against the recorder, UC
// rebuild — scaled by Arg surviving checkpoints (GC off, no messages).
// BM_ChurnRestart prices one full kill/reopen/rejoin churn cycle under
// FDAS + RDT-LGC with a real communication history: restart plus the
// recovery session that rejoins the fleet.

void BM_NodeAttach(benchmark::State& state, ckpt::StorageBackendKind kind) {
  const auto live = static_cast<std::int64_t>(state.range(0));
  harness::SystemConfig config;
  config.process_count = 2;
  config.gc = harness::GcChoice::kNone;  // every checkpoint survives
  config.node.storage = backend_config(kind);
  harness::System system(config);
  for (std::int64_t k = 1; k < live; ++k) {
    system.simulator().run_until(system.simulator().now() + 1);
    system.node(0).take_basic_checkpoint();
  }
  for (auto _ : state) {
    system.restart_node(0);
    benchmark::DoNotOptimize(system.node(0).current_interval());
  }
  state.SetItemsProcessed(state.iterations() * live);
}
void BM_NodeAttachMmap(benchmark::State& state) {
  BM_NodeAttach(state, ckpt::StorageBackendKind::kMmapFile);
}
void BM_NodeAttachLog(benchmark::State& state) {
  BM_NodeAttach(state, ckpt::StorageBackendKind::kLogStructured);
}
BENCHMARK(BM_NodeAttachMmap)->Arg(16)->Arg(128);
BENCHMARK(BM_NodeAttachLog)->Arg(16)->Arg(128);

void BM_ChurnRestart(benchmark::State& state,
                     ckpt::StorageBackendKind kind) {
  constexpr std::size_t kProcesses = 4;
  harness::SystemConfig config;
  config.process_count = kProcesses;
  config.gc = harness::GcChoice::kRdtLgc;
  config.node.storage = backend_config(kind);
  harness::System system(config);
  workload::WorkloadConfig wl;
  wl.seed = 5;
  workload::WorkloadDriver driver(system.simulator(), system.node_provider(),
                                  kProcesses, wl);
  driver.start(2000);
  system.simulator().run();
  recovery::RecoveryManager manager(system.simulator(), system.network(),
                                    system.recorder(),
                                    system.node_provider(), {});
  ProcessId p = 0;
  for (auto _ : state) {
    system.restart_node(p);
    const auto outcome = manager.recover({p});
    benchmark::DoNotOptimize(outcome.line.data());
    p = static_cast<ProcessId>((p + 1) % kProcesses);
  }
  state.SetItemsProcessed(state.iterations());
}
void BM_ChurnRestartMmap(benchmark::State& state) {
  BM_ChurnRestart(state, ckpt::StorageBackendKind::kMmapFile);
}
void BM_ChurnRestartLog(benchmark::State& state) {
  BM_ChurnRestart(state, ckpt::StorageBackendKind::kLogStructured);
}
BENCHMARK(BM_ChurnRestartMmap);
BENCHMARK(BM_ChurnRestartLog);

void rollback_setup(std::size_t n, ckpt::ShardedCheckpointStore& store,
                    core::RdtLgc& lgc) {
  lgc.initialize(0, n, store);
  for (std::size_t k = 0; k < n; ++k) {
    causality::DependencyVector dv(n);
    // dv[f] jumps from 0 to 2 after index f: each peer pins a distinct
    // checkpoint, the worst case for the rebuild.
    for (ProcessId f = 1; f < static_cast<ProcessId>(n); ++f)
      dv.at(f) = (static_cast<ProcessId>(k) > f) ? 2 : 0;
    store.put(ckpt::StoredCheckpoint{static_cast<CheckpointIndex>(k), dv, 0, 1});
    lgc.on_checkpoint_stored(static_cast<CheckpointIndex>(k));
    // A fresh dependency from a distinct peer pins this checkpoint, so the
    // store keeps all n checkpoints (the Figure-5 worst case).
    if (k + 1 < n) lgc.on_new_dependency(static_cast<ProcessId>(k + 1));
  }
}

void BM_RollbackRebuild(benchmark::State& state, core::RdtLgc::RollbackSearch
                                                     search) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ckpt::ShardedCheckpointStore store(0);
  core::RdtLgc lgc(search);
  rollback_setup(n, store, lgc);
  causality::DependencyVector dv(n);
  for (ProcessId f = 0; f < static_cast<ProcessId>(n); ++f) dv.at(f) = 1;
  const ckpt::RollbackInfo info{static_cast<CheckpointIndex>(n - 1),
                                std::nullopt};
  lgc.on_rollback(info, dv);  // warm-up: reach the steady pinned state
  for (auto _ : state) lgc.on_rollback(info, dv);
  state.SetItemsProcessed(state.iterations());
}
void BM_RollbackBinary(benchmark::State& state) {
  BM_RollbackRebuild(state, core::RdtLgc::RollbackSearch::kBinary);
}
void BM_RollbackLinear(benchmark::State& state) {
  BM_RollbackRebuild(state, core::RdtLgc::RollbackSearch::kLinear);
}
BENCHMARK(BM_RollbackBinary)->Arg(16)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);
BENCHMARK(BM_RollbackLinear)->Arg(16)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

// The CCP recorder's half of a rollback against the length of the recorded
// history: Arg messages are recorded at n=8 (each sent and delivered), then
// each iteration rolls process 0 back over its volatile interval (two sends,
// two receives) and re-records that interval.  The per-process undo chains
// make this flat in Arg; a scan over every recorded message grows linearly.
//
// Each iteration records four fresh messages.  Their ids are reserved right
// after the history, so messages() never reallocates inside the timed
// region (a 64 MiB copy there would swamp the undo); the run is fixed at one
// pool's worth of iterations, so the history is built exactly once.
constexpr std::size_t kRecorderProcesses = 8;
constexpr sim::MessageId kIntervalMessages = 4;
constexpr std::int64_t kRecorderIterations = 16384;
constexpr sim::MessageId kPooledIds =
    static_cast<sim::MessageId>(kRecorderIterations + 1) * kIntervalMessages;

void record_delivered(ccp::CcpRecorder& recorder, sim::MessageId id,
                      ProcessId src, ProcessId dst) {
  sim::Message m;  // empty dv and control: no allocation
  m.id = id;
  m.src = src;
  m.dst = dst;
  m.send_interval = recorder.last_stable(src) + 1;
  recorder.record_send(m, 0);
  recorder.record_receive(m, recorder.last_stable(dst) + 1, 0);
}

/// Process 0's volatile interval, on ids [id, id + kIntervalMessages).
void record_volatile_interval(ccp::CcpRecorder& recorder, sim::MessageId id) {
  record_delivered(recorder, id, 0, 1);
  record_delivered(recorder, id + 1, 0, 2);
  record_delivered(recorder, id + 2, 1, 0);
  record_delivered(recorder, id + 3, 2, 0);
}

/// `messages` delivered messages, then c_0^1 (the rollback target), then
/// kPooledIds unsent ids starting at `pool`.
std::unique_ptr<ccp::CcpRecorder> recorded_history(std::size_t messages,
                                                   sim::MessageId& pool) {
  auto recorder = std::make_unique<ccp::CcpRecorder>(kRecorderProcesses);
  causality::DependencyVector dv(kRecorderProcesses);
  for (std::size_t p = 0; p < kRecorderProcesses; ++p)
    recorder->record_checkpoint(static_cast<ProcessId>(p), 0, dv,
                                ccp::CheckpointKind::kInitial, 0);
  for (std::size_t k = 0; k < messages; ++k)
    record_delivered(*recorder, recorder->new_message_id(),
                     static_cast<ProcessId>(k % kRecorderProcesses),
                     static_cast<ProcessId>((k + 1) % kRecorderProcesses));
  dv.at(0) = 1;
  recorder->record_checkpoint(0, 1, dv, ccp::CheckpointKind::kBasic, 0);
  pool = recorder->new_message_id();
  for (sim::MessageId k = 1; k < kPooledIds; ++k) recorder->new_message_id();
  return recorder;
}

void BM_RollbackRecorder(benchmark::State& state) {
  const auto messages = static_cast<std::size_t>(state.range(0));
  sim::MessageId next = 0;
  const auto recorder = recorded_history(messages, next);
  record_volatile_interval(*recorder, next);
  for (auto _ : state) {
    next += kIntervalMessages;
    recorder->record_rollback(0, 1, 0);
    record_volatile_interval(*recorder, next);
    benchmark::DoNotOptimize(recorder->stats().messages_rolled_back);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RollbackRecorder)
    ->Arg(1000)
    ->Arg(100000)
    ->Arg(1000000)
    ->Iterations(kRecorderIterations);

/// One recorded history shared by the analysis benchmarks.
const harness::System& recorded_run() {
  static harness::System* system = [] {
    auto* s = new harness::System([] {
      harness::SystemConfig config;
      config.process_count = 8;
      config.gc = harness::GcChoice::kNone;
      return config;
    }());
    workload::WorkloadConfig wl;
    workload::WorkloadDriver driver(s->simulator(), s->node_ptrs(), wl);
    driver.start(4000);
    s->simulator().run();
    return s;
  }();
  return *system;
}

void BM_ZigzagAnalysisBuild(benchmark::State& state) {
  const auto& system = recorded_run();
  for (auto _ : state) {
    ccp::ZigzagAnalysis zigzag(system.recorder());
    benchmark::DoNotOptimize(zigzag.node_count());
  }
}
BENCHMARK(BM_ZigzagAnalysisBuild);

void BM_CausalGraphBuild(benchmark::State& state) {
  const auto& system = recorded_run();
  for (auto _ : state) {
    ccp::CausalGraph causal(system.recorder());
    benchmark::DoNotOptimize(&causal);
  }
}
BENCHMARK(BM_CausalGraphBuild);

void BM_RecoveryLineLemma1(benchmark::State& state) {
  const auto& system = recorded_run();
  const ccp::DvPrecedence causal(system.recorder());
  std::vector<bool> faulty(8, false);
  faulty[3] = true;
  for (auto _ : state)
    benchmark::DoNotOptimize(
        ccp::recovery_line_lemma1(system.recorder(), causal, faulty));
}
BENCHMARK(BM_RecoveryLineLemma1);

void BM_Theorem1Characterization(benchmark::State& state) {
  const auto& system = recorded_run();
  const ccp::DvPrecedence causal(system.recorder());
  for (auto _ : state)
    benchmark::DoNotOptimize(
        ccp::obsolete_theorem1(system.recorder(), causal));
}
BENCHMARK(BM_Theorem1Characterization);

// ---- FleetRunner thread scaling ------------------------------------------
//
// A 32-seed sweep of a small RDT-LGC simulation (the determinism-test
// workload) across 1/2/4/8 workers.  Wall-clock (UseRealTime) is the figure
// of merit: the sweep is embarrassingly parallel, so on a k-core host the
// 8-worker family should approach min(k, 8)x the 1-worker family.  The pool
// is built once per family; each iteration dispatches one whole batch, so
// batch setup/teardown (queue dealing, wakeup, join) is charged to the
// measurement exactly as a driver pays it.
void BM_FleetRunner(benchmark::State& state) {
  harness::FleetRunner fleet(
      {.workers = static_cast<std::size_t>(state.range(0))});
  const std::vector<std::uint64_t> seeds = harness::seed_range(100, 32);
  const auto body = [](std::uint64_t seed,
                       harness::WorkerContext&) -> harness::SweepRun {
    harness::SystemConfig config;
    config.process_count = 4;
    config.gc = harness::GcChoice::kRdtLgc;
    config.seed = seed;
    harness::System system(config);
    workload::WorkloadConfig wl;
    wl.seed = seed * 31 + 7;
    workload::WorkloadDriver driver(system.simulator(), system.node_ptrs(),
                                    wl);
    driver.start(1500);
    metrics::StorageProbe probe(system.simulator(),
                                std::as_const(system).node_ptrs());
    probe.start(25, 1500);
    system.simulator().run();
    harness::SweepRun run;
    run.storage = probe.global_series().stat();
    run.final_storage = static_cast<double>(system.total_stored());
    run.collected = system.total_collected();
    return run;
  };
  for (auto _ : state) {
    const std::vector<harness::SweepRun> runs =
        harness::run_seed_sweep(fleet, seeds, body);
    benchmark::DoNotOptimize(runs.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(seeds.size()));
}
BENCHMARK(BM_FleetRunner)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime();

// One Data frame of Arg bytes (a DV wide enough to fill it) sent and
// received over a SOCK_SEQPACKET socketpair: the per-frame socket cost of
// the fleet, parent and worker alike.  The receive buffer is
// kMaxFrameBytes, so a receive that touched all of it (a zero-fill) would
// cost the same ~1 MiB of writes at every Arg.
void BM_RecvFrame(benchmark::State& state) {
  const auto frame_bytes = static_cast<std::size_t>(state.range(0));
  // Header, send_interval, bytes, and the DV and control-word counts.
  constexpr std::size_t kDataOverhead = transport::kWireHeaderBytes + 20;
  transport::DataBody body;
  body.send_interval = 7;
  body.dv.assign((frame_bytes - kDataOverhead) / sizeof(IntervalIndex), 3);
  transport::FrameMeta meta;
  meta.src = 0;
  meta.dst = 1;
  transport::WireBuffer frame;
  transport::encode_data(frame, meta, body);
  if (frame.size() != frame_bytes) {
    state.SkipWithError("frame size does not match Arg");
    return;
  }
  int fds[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_SEQPACKET | SOCK_CLOEXEC, 0, fds) != 0) {
    state.SkipWithError("socketpair failed");
    return;
  }
  const transport::Fd tx(fds[0]);
  const transport::Fd rx(fds[1]);
  transport::RecvBuffer buf;
  for (auto _ : state) {
    if (!transport::send_frame(tx.get(), frame, 1000) ||
        transport::recv_frame(rx.get(), buf, 1000) !=
            transport::RecvStatus::kFrame) {
      state.SkipWithError("socketpair round trip failed");
      break;
    }
    benchmark::DoNotOptimize(buf.frame().data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(frame_bytes));
}
BENCHMARK(BM_RecvFrame)->Arg(100)->Arg(4096);

}  // namespace

// main() is supplied by benchmark::benchmark_main (see bench/CMakeLists.txt).
