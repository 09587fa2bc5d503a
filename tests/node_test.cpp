// Unit tests for the checkpointing middleware (ckpt::Node): dependency-
// vector bookkeeping, the Algorithm-4 event order, counters, and contracts.
// Also covers the harness Scenario/System wiring, and the equivalence of
// recorder-equipped and recorder-less Nodes.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "ccp/recorder.hpp"
#include "ckpt/node.hpp"
#include "core/rdt_lgc.hpp"
#include "harness/scenario.hpp"
#include "harness/system.hpp"
#include "helpers.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace rdtgc {
namespace {

harness::SystemConfig manual_config(std::size_t n) {
  harness::SystemConfig config;
  config.process_count = n;
  config.protocol = ckpt::ProtocolKind::kFdas;
  config.gc = harness::GcChoice::kNone;
  config.network.manual = true;
  return config;
}

TEST(Node, TakesInitialCheckpointOnConstruction) {
  harness::System system(manual_config(3));
  for (ProcessId p = 0; p < 3; ++p) {
    EXPECT_TRUE(system.node(p).store().contains(0));
    EXPECT_EQ(system.node(p).dv()[p], 1);  // interval 1 after s^0
    EXPECT_EQ(system.node(p).current_interval(), 1);
    EXPECT_EQ(system.node(p).last_checkpoint_index(), 0);
    EXPECT_EQ(system.recorder().checkpoint(p, 0).kind,
              ccp::CheckpointKind::kInitial);
  }
}

TEST(Node, SendPiggybacksCurrentVector) {
  harness::System system(manual_config(2));
  system.node(0).take_basic_checkpoint();
  const auto id = system.node(0).send_app_message(1, 32);
  const auto& m = system.recorder().messages()[id - 1];
  EXPECT_EQ(m.send_interval, 2);
  EXPECT_EQ(m.src, 0);
  EXPECT_EQ(m.dst, 1);
  EXPECT_TRUE(system.node(0).sent_since_checkpoint());
}

TEST(Node, ReceiveMergesAndCountersTrack) {
  harness::System system(manual_config(2));
  system.node(1).take_basic_checkpoint();
  const auto id = system.node(1).send_app_message(0);
  system.network().deliver_now(id);
  EXPECT_EQ(system.node(0).dv()[1], 2);
  EXPECT_EQ(system.node(0).counters().messages_received, 1u);
  EXPECT_EQ(system.node(1).counters().messages_sent, 1u);
  EXPECT_EQ(system.node(1).counters().basic_checkpoints, 1u);
}

TEST(Node, CheckpointClearsSentFlag) {
  harness::System system(manual_config(2));
  system.node(0).send_app_message(1);
  EXPECT_TRUE(system.node(0).sent_since_checkpoint());
  system.node(0).take_basic_checkpoint();
  EXPECT_FALSE(system.node(0).sent_since_checkpoint());
}

TEST(Node, SelfSendRejected) {
  harness::System system(manual_config(2));
  EXPECT_THROW(system.node(0).send_app_message(0), util::ContractViolation);
}

TEST(Node, RollbackToUnknownCheckpointRejected) {
  harness::System system(manual_config(2));
  EXPECT_THROW(system.node(0).rollback_to(5, std::nullopt),
               util::ContractViolation);
}

TEST(Node, RollbackRestoresDvAndBumpsCounters) {
  harness::System system(manual_config(2));
  system.node(1).take_basic_checkpoint();
  const auto id = system.node(1).send_app_message(0);
  system.network().deliver_now(id);      // p0 learns p1's interval 2
  system.node(0).take_basic_checkpoint();  // s_0^1 records that knowledge
  system.node(0).take_basic_checkpoint();  // s_0^2

  system.node(0).rollback_to(1, std::nullopt);
  EXPECT_EQ(system.node(0).dv()[0], 2);  // DV(s^1)[0]+1
  EXPECT_EQ(system.node(0).dv()[1], 2);  // restored knowledge survives
  EXPECT_EQ(system.node(0).counters().rollbacks, 1u);
  EXPECT_FALSE(system.node(0).store().contains(2));
  EXPECT_FALSE(system.node(0).sent_since_checkpoint());
}

TEST(Node, CheckpointBytesConfigurable) {
  harness::SystemConfig config = manual_config(2);
  config.node.checkpoint_bytes = 128;
  harness::System system(config);
  EXPECT_EQ(system.node(0).store().bytes(), 128u);
  system.node(0).take_basic_checkpoint();
  EXPECT_EQ(system.node(0).store().bytes(), 256u);
}

TEST(System, RejectsRdtLgcAccessorOnNoGcSystems) {
  harness::System system(manual_config(2));
  EXPECT_THROW(system.rdt_lgc(0), util::ContractViolation);
}

TEST(System, TotalsAggregate) {
  harness::System system(manual_config(3));
  EXPECT_EQ(system.total_stored(), 3u);
  EXPECT_EQ(system.total_collected(), 0u);
  EXPECT_EQ(system.process_count(), 3u);
}

TEST(System, GcChoiceNames) {
  EXPECT_EQ(harness::gc_choice_name(harness::GcChoice::kNone), "none");
  EXPECT_EQ(harness::gc_choice_name(harness::GcChoice::kRdtLgc), "RDT-LGC");
  EXPECT_EQ(harness::gc_choice_name(harness::GcChoice::kRdtLgcLinear),
            "RDT-LGC(linear)");
}

TEST(Scenario, LabelsMapToMessageIds) {
  harness::Scenario scenario(2, ckpt::ProtocolKind::kUncoordinated,
                             harness::GcChoice::kNone);
  scenario.send(0, 1, "a");
  scenario.send(0, 1, "b");
  EXPECT_NE(scenario.message_id("a"), scenario.message_id("b"));
  EXPECT_THROW(scenario.message_id("c"), util::ContractViolation);
  EXPECT_THROW(scenario.send(0, 1, "a"), util::ContractViolation);  // reuse
}

TEST(Scenario, StepsAdvanceSimulatedTime) {
  harness::Scenario scenario(2, ckpt::ProtocolKind::kUncoordinated,
                             harness::GcChoice::kNone);
  const SimTime before = scenario.system().simulator().now();
  scenario.checkpoint(0);
  scenario.send(0, 1, "m");
  scenario.deliver("m");
  EXPECT_EQ(scenario.system().simulator().now(), before + 3);
}

TEST(Node, ForcedCheckpointCountedSeparately) {
  harness::Scenario scenario(2, ckpt::ProtocolKind::kFdi,
                             harness::GcChoice::kNone);
  scenario.checkpoint(1);
  scenario.send(1, 0, "m");
  scenario.deliver("m");  // FDI forces at p0
  EXPECT_EQ(scenario.node(0).counters().forced_checkpoints, 1u);
  EXPECT_EQ(scenario.node(0).counters().basic_checkpoints, 0u);
  EXPECT_EQ(scenario.recorder().checkpoint(0, 1).kind,
            ccp::CheckpointKind::kForced);
}

// ---- Recorder-less nodes --------------------------------------------------

/// What a run decided, per process and per delivery.
struct RunDigest {
  std::vector<std::string> dvs;
  std::vector<std::vector<CheckpointIndex>> stored;
  std::vector<std::string> uc;
  std::vector<std::vector<std::uint64_t>> counters;
  std::vector<bool> forced;  ///< per delivery, in delivery order
  std::uint64_t collected = 0;
};

/// One seeded run of n FDAS + RDT-LGC Nodes over mmap media and a manual
/// sim::Network: random sends, basic checkpoints and deliveries (a random
/// parked message each), with one warm restart of process 1 halfway —
/// destroy, disconnect, re-attach.  `recorder` null builds recorder-less
/// Nodes.
RunDigest run_scripted(ccp::CcpRecorder* recorder, const std::string& dir) {
  constexpr std::size_t n = 4;
  sim::Simulator simulator;
  sim::Network::Config net_config;
  net_config.manual = true;
  sim::Network network(simulator, util::Rng(5), net_config);
  const auto make_node = [&](ProcessId p, ckpt::OpenMode mode) {
    ckpt::Node::Config config;
    config.storage.kind = ckpt::StorageBackendKind::kMmapFile;
    config.storage.directory = dir;
    config.storage.open_mode = mode;
    auto protocol = ckpt::make_protocol(ckpt::ProtocolKind::kFdas);
    auto gc = std::make_unique<core::RdtLgc>();
    if (recorder == nullptr)
      return std::make_unique<ckpt::Node>(p, n, simulator, network,
                                          std::move(protocol), std::move(gc),
                                          config);
    return std::make_unique<ckpt::Node>(p, n, simulator, network, *recorder,
                                        std::move(protocol), std::move(gc),
                                        config);
  };
  std::vector<std::unique_ptr<ckpt::Node>> nodes;
  for (std::size_t p = 0; p < n; ++p)
    nodes.push_back(make_node(static_cast<ProcessId>(p),
                              ckpt::OpenMode::kFresh));

  RunDigest digest;
  util::Rng rng(11);
  for (int step = 0; step < 1200; ++step) {
    if (step == 600) {
      // Checkpoint first, so the dead incarnation's volatile interval holds
      // no send: the restart then orphans nothing.
      nodes[1]->take_basic_checkpoint();
      nodes[1].reset();
      network.disconnect(1);
      nodes[1] = make_node(1, ckpt::OpenMode::kAttach);
    }
    const auto p = static_cast<ProcessId>(rng.uniform(n));
    const double roll = rng.uniform01();
    const std::vector<sim::MessageId> parked = network.parked();
    if (roll < 0.4 || parked.empty()) {
      auto dst = static_cast<ProcessId>(rng.uniform(n - 1));
      if (dst >= p) ++dst;
      nodes[static_cast<std::size_t>(p)]->send_app_message(dst);
    } else if (roll < 0.5) {
      nodes[static_cast<std::size_t>(p)]->take_basic_checkpoint();
    } else {
      const sim::MessageId id = parked[rng.uniform(parked.size())];
      std::uint64_t forced_before = 0;
      for (const auto& node : nodes)
        forced_before += node->counters().forced_checkpoints;
      network.deliver_now(id);
      std::uint64_t forced_after = 0;
      for (const auto& node : nodes)
        forced_after += node->counters().forced_checkpoints;
      digest.forced.push_back(forced_after != forced_before);
    }
  }

  for (const auto& node : nodes) {
    digest.dvs.push_back(node->dv().to_string());
    digest.stored.push_back(node->store().stored_indices());
    const auto& lgc = dynamic_cast<const core::RdtLgc&>(node->gc());
    digest.uc.push_back(lgc.uc().to_string());
    const ckpt::Node::Counters& c = node->counters();
    digest.counters.push_back({c.basic_checkpoints, c.forced_checkpoints,
                               c.messages_sent, c.messages_received,
                               c.rollbacks});
    digest.collected += node->store().stats().collected;
  }
  return digest;
}

TEST(NodeWithoutRecorder, DecidesExactlyAsWithRecorder) {
  test::ScratchDir with_dir("node_recorded");
  test::ScratchDir without_dir("node_unrecorded");
  ccp::CcpRecorder recorder(4);
  const RunDigest with = run_scripted(&recorder, with_dir.path());
  const RunDigest without = run_scripted(nullptr, without_dir.path());

  // The recorder really observed the run, restart included.
  EXPECT_EQ(recorder.stats().restarts, 1u);
  EXPECT_FALSE(recorder.messages().empty());
  // The workload exercised forced checkpoints and collection.
  EXPECT_GT(std::count(with.forced.begin(), with.forced.end(), true), 0);
  EXPECT_GT(with.collected, 0u);

  EXPECT_EQ(with.forced, without.forced);
  EXPECT_EQ(with.dvs, without.dvs);
  EXPECT_EQ(with.stored, without.stored);
  EXPECT_EQ(with.uc, without.uc);
  EXPECT_EQ(with.counters, without.counters);
  EXPECT_EQ(with.collected, without.collected);
}

}  // namespace
}  // namespace rdtgc
