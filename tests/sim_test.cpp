// Unit tests for the discrete-event simulator and the network model, plus a
// golden pin of one whole-system run's event order.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "harness/system.hpp"
#include "recovery/failure_injector.hpp"
#include "recovery/recovery_manager.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "workload/workload.hpp"

namespace rdtgc::sim {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator simulator;
  std::vector<int> order;
  simulator.at(30, [&] { order.push_back(3); });
  simulator.at(10, [&] { order.push_back(1); });
  simulator.at(20, [&] { order.push_back(2); });
  simulator.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(simulator.now(), 30u);
  EXPECT_EQ(simulator.events_processed(), 3u);
}

TEST(Simulator, SameTimeEventsFifo) {
  Simulator simulator;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) simulator.at(5, [&, i] { order.push_back(i); });
  simulator.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator simulator;
  int fired = 0;
  simulator.at(1, [&] {
    ++fired;
    simulator.after(5, [&] { ++fired; });
  });
  simulator.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(simulator.now(), 6u);
}

TEST(Simulator, RejectsPastScheduling) {
  Simulator simulator;
  simulator.at(10, [] {});
  simulator.run();
  EXPECT_THROW(simulator.at(5, [] {}), util::ContractViolation);
}

TEST(Simulator, RunUntilLeavesLaterEventsPending) {
  Simulator simulator;
  int fired = 0;
  simulator.at(5, [&] { ++fired; });
  simulator.at(15, [&] { ++fired; });
  simulator.run_until(10);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(simulator.now(), 10u);
  EXPECT_EQ(simulator.pending(), 1u);
  simulator.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunWithEventBudget) {
  Simulator simulator;
  int fired = 0;
  for (int i = 1; i <= 5; ++i) simulator.at(static_cast<SimTime>(i), [&] { ++fired; });
  EXPECT_EQ(simulator.run(3), 3u);
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, StepReturnsFalseWhenEmpty) {
  Simulator simulator;
  EXPECT_FALSE(simulator.step());
}

// ---- Typed targets and closure slots ------------------------------------

/// Typed target that logs "<name><arg>" into a shared order log.
struct LogTarget final : Simulator::Target {
  LogTarget(std::string name, std::vector<std::string>& log)
      : name(std::move(name)), log(log) {}
  void fire(std::uint64_t arg) override {
    log.push_back(name + std::to_string(arg));
  }
  std::string name;
  std::vector<std::string>& log;
};

TEST(SimulatorQueue, TypedAndClosureEventsInterleaveInTimeSeqOrder) {
  Simulator simulator;
  std::vector<std::string> log;
  LogTarget a("a", log), b("b", log);
  auto closure = [&](int i) { return [&, i] { log.push_back("c" + std::to_string(i)); }; };
  simulator.at(20, a, 0);
  simulator.at(10, closure(0));
  simulator.at(10, b, 1);
  simulator.at(20, closure(1));
  simulator.at(10, a, 2);
  simulator.at(5, closure(2));
  simulator.at(20, b, 3);
  simulator.at(10, closure(3));
  EXPECT_EQ(simulator.pending(), 8u);
  simulator.run();
  // By time, then FIFO in scheduling order across both kinds.
  EXPECT_EQ(log, (std::vector<std::string>{"c2", "c0", "b1", "a2", "c3", "a0",
                                           "c1", "b3"}));
  EXPECT_EQ(simulator.events_processed(), 8u);
  EXPECT_EQ(simulator.pending(), 0u);
}

TEST(SimulatorQueue, RunUntilStopsWithTypedEventsPending) {
  Simulator simulator;
  std::vector<std::string> log;
  LogTarget a("a", log);
  simulator.at(5, a, 1);
  simulator.at(10, a, 2);
  simulator.at(11, a, 3);
  simulator.at(30, a, 4);
  simulator.run_until(10);  // inclusive bound
  EXPECT_EQ(log, (std::vector<std::string>{"a1", "a2"}));
  EXPECT_EQ(simulator.now(), 10u);
  EXPECT_EQ(simulator.pending(), 2u);
  simulator.run_until(20);
  EXPECT_EQ(log, (std::vector<std::string>{"a1", "a2", "a3"}));
  EXPECT_EQ(simulator.now(), 20u);
  EXPECT_EQ(simulator.pending(), 1u);
  EXPECT_THROW(simulator.at(19, a, 5), util::ContractViolation);
  simulator.run();
  EXPECT_EQ(log.back(), "a4");
  EXPECT_EQ(simulator.now(), 30u);
}

TEST(SimulatorQueue, ClosureSlotIsReusedAndNeverRunsTheStaleAction) {
  Simulator simulator;
  int first = 0, second = 0, third = 0;
  simulator.at(1, [&] {
    ++first;
    // The running action's slot is already released: this reuses it.
    simulator.after(1, [&] { ++second; });
  });
  simulator.run();
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 1);
  // The slot came free again; a third action takes it and only it runs.
  simulator.at(5, [&] { ++third; });
  simulator.run();
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 1);
  EXPECT_EQ(third, 1);
  EXPECT_EQ(simulator.events_processed(), 3u);
  EXPECT_FALSE(simulator.step());
}

TEST(SimulatorQueue, ThrowingActionLeavesQueueConsistent) {
  Simulator simulator;
  int ran = 0;
  simulator.at(1, [] { throw std::runtime_error("boom"); });
  simulator.at(2, [&] { ++ran; });
  EXPECT_THROW(simulator.step(), std::runtime_error);
  EXPECT_EQ(simulator.pending(), 1u);
  EXPECT_EQ(simulator.now(), 1u);
  EXPECT_EQ(simulator.events_processed(), 1u);
  // The thrower's slot was released; reusing it must not resurrect it.
  simulator.at(3, [&] { ran += 10; });
  EXPECT_TRUE(simulator.step());
  EXPECT_EQ(ran, 1);
  EXPECT_TRUE(simulator.step());
  EXPECT_EQ(ran, 11);
  EXPECT_FALSE(simulator.step());
  EXPECT_EQ(simulator.events_processed(), 3u);
}

TEST(SimulatorQueue, TargetMaySchedulePastHeapGrowthFromInsideFire) {
  // fire() schedules enough events to reallocate the heap several times.
  struct Fanout final : Simulator::Target {
    explicit Fanout(Simulator& s) : simulator(s) {}
    void fire(std::uint64_t arg) override {
      fired.push_back(arg);
      if (arg == 0)
        for (std::uint64_t k = 1; k <= 1000; ++k) simulator.at(2, *this, k);
    }
    Simulator& simulator;
    std::vector<std::uint64_t> fired;
  };
  Simulator simulator;
  Fanout target(simulator);
  simulator.at(1, target, 0);
  simulator.run();
  ASSERT_EQ(target.fired.size(), 1001u);
  for (std::uint64_t k = 0; k <= 1000; ++k) EXPECT_EQ(target.fired[k], k);
}

Message make_message(ProcessId src, ProcessId dst) {
  Message m;
  m.src = src;
  m.dst = dst;
  m.dv = causality::DependencyVector(2);
  m.bytes = 10;
  return m;
}

TEST(Network, DeliversWithinDelayBounds) {
  Simulator simulator;
  Network::Config config;
  config.min_delay = 3;
  config.max_delay = 7;
  Network network(simulator, util::Rng(1), config);
  SimTime delivered_at = 0;
  network.connect(1, [&](const Message&) { delivered_at = simulator.now(); });
  network.connect(0, [](const Message&) {});
  network.send(make_message(0, 1));
  simulator.run();
  EXPECT_GE(delivered_at, 3u);
  EXPECT_LE(delivered_at, 7u);
  EXPECT_EQ(network.stats().sent, 1u);
  EXPECT_EQ(network.stats().delivered, 1u);
  EXPECT_EQ(network.stats().bytes_sent, 10u);
}

TEST(Network, LosesMessagesWhenConfigured) {
  Simulator simulator;
  Network::Config config;
  config.loss_probability = 1.0;
  Network network(simulator, util::Rng(1), config);
  int received = 0;
  network.connect(1, [&](const Message&) { ++received; });
  for (int i = 0; i < 20; ++i) network.send(make_message(0, 1));
  simulator.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(network.stats().lost, 20u);
}

TEST(Network, FifoOrdersPerChannel) {
  Simulator simulator;
  Network::Config config;
  config.min_delay = 1;
  config.max_delay = 50;
  config.fifo = true;
  Network network(simulator, util::Rng(3), config);
  std::vector<MessageId> received;
  network.connect(1, [&](const Message& m) { received.push_back(m.id); });
  std::vector<MessageId> sent;
  for (int i = 0; i < 20; ++i) sent.push_back(network.send(make_message(0, 1)));
  simulator.run();
  EXPECT_EQ(received, sent);
}

TEST(Network, SinkMaySendPastSlabGrowthDuringDelivery) {
  // The delivery event releases its slab slot before the sink runs; a sink
  // that sends enough to reallocate the slab must still see its own message
  // intact, and every message sent from inside it must arrive intact.
  Simulator simulator;
  Network network(simulator, util::Rng(9), {});
  std::vector<MessageId> sent;
  std::vector<std::pair<MessageId, IntervalIndex>> received;
  network.connect(0, [](const Message&) {});
  network.connect(1, [&](const Message& m) {
    received.emplace_back(m.id, m.dv[1]);
    if (m.id != 1) return;
    for (IntervalIndex k = 0; k < 500; ++k) {
      Message out = make_message(0, 1);
      out.dv.at(1) = k + 2;
      sent.push_back(network.send(std::move(out)));
    }
    EXPECT_EQ(m.id, 1u);  // still the message being delivered
    EXPECT_EQ(m.dv[1], 1u);
  });
  Message first = make_message(0, 1);
  first.dv.at(1) = 1;
  EXPECT_EQ(network.send(std::move(first)), 1u);
  simulator.run();
  ASSERT_EQ(received.size(), 501u);
  EXPECT_EQ(received.front(), (std::pair<MessageId, IntervalIndex>{1, 1}));
  for (const auto& [id, stamp] : received)
    EXPECT_EQ(stamp, id) << "message " << id << " arrived with a stale DV";
  EXPECT_EQ(network.stats().delivered, 501u);
  EXPECT_EQ(network.in_flight(), 0u);
}

TEST(Network, FifoHoldsForSendersBeyondConnectedRange) {
  // The FIFO channel matrix grows with connect(), and also on demand for a
  // sender id no connect() has covered yet.
  Simulator simulator;
  Network::Config config;
  config.min_delay = 1;
  config.max_delay = 50;
  config.fifo = true;
  Network network(simulator, util::Rng(5), config);
  std::vector<MessageId> received;
  network.connect(0, [&](const Message& m) { received.push_back(m.id); });
  std::vector<MessageId> sent;
  for (int i = 0; i < 20; ++i) sent.push_back(network.send(make_message(7, 0)));
  network.connect(3, [](const Message&) {});
  for (int i = 0; i < 20; ++i) sent.push_back(network.send(make_message(7, 0)));
  simulator.run();
  EXPECT_EQ(received, sent);
}

TEST(Network, OutOfOrderPossibleWithoutFifo) {
  Simulator simulator;
  Network::Config config;
  config.min_delay = 1;
  config.max_delay = 50;
  Network network(simulator, util::Rng(3), config);
  std::vector<MessageId> received;
  network.connect(1, [&](const Message& m) { received.push_back(m.id); });
  std::vector<MessageId> sent;
  for (int i = 0; i < 30; ++i) sent.push_back(network.send(make_message(0, 1)));
  simulator.run();
  ASSERT_EQ(received.size(), sent.size());
  EXPECT_NE(received, sent);  // overwhelmingly likely with 30 msgs over [1,50]
}

TEST(Network, DropInFlightDiscardsScheduledDeliveries) {
  Simulator simulator;
  Network network(simulator, util::Rng(1), {});
  int received = 0;
  network.connect(1, [&](const Message&) { ++received; });
  network.send(make_message(0, 1));
  network.send(make_message(0, 1));
  EXPECT_EQ(network.in_flight(), 2u);
  network.drop_in_flight();
  simulator.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(network.stats().dropped_in_flight, 2u);
  EXPECT_EQ(network.in_flight(), 0u);
}

TEST(Network, PauseHoldsAndResumeDelivers) {
  Simulator simulator;
  Network network(simulator, util::Rng(1), {});
  int received = 0;
  network.connect(1, [&](const Message&) { ++received; });
  network.pause();
  network.send(make_message(0, 1));
  simulator.run();
  EXPECT_EQ(received, 0);  // frozen
  network.resume();
  simulator.run();
  EXPECT_EQ(received, 1);
}

TEST(Network, PauseCatchesSurfacingDeliveries) {
  Simulator simulator;
  Network network(simulator, util::Rng(1), {});
  int received = 0;
  network.connect(1, [&](const Message&) { ++received; });
  network.send(make_message(0, 1));  // scheduled before the pause
  network.pause();
  simulator.run();  // delivery event fires but must be held
  EXPECT_EQ(received, 0);
  network.resume();
  simulator.run();
  EXPECT_EQ(received, 1);
}

TEST(Network, ManualModeParksAndDeliversOnDemand) {
  Simulator simulator;
  Network::Config config;
  config.manual = true;
  Network network(simulator, util::Rng(1), config);
  std::vector<MessageId> received;
  network.connect(1, [&](const Message& m) { received.push_back(m.id); });
  const MessageId a = network.send(make_message(0, 1));
  const MessageId b = network.send(make_message(0, 1));
  simulator.run();
  EXPECT_TRUE(received.empty());
  EXPECT_EQ(network.parked(), (std::vector<MessageId>{a, b}));
  network.deliver_now(b);  // out of order on purpose
  network.deliver_now(a);
  EXPECT_EQ(received, (std::vector<MessageId>{b, a}));
  EXPECT_TRUE(network.parked().empty());
}

TEST(Network, ManualDeliverUnknownIdRejected) {
  Simulator simulator;
  Network::Config config;
  config.manual = true;
  Network network(simulator, util::Rng(1), config);
  network.connect(1, [](const Message&) {});
  EXPECT_THROW(network.deliver_now(99), util::ContractViolation);
}

TEST(Network, PreservesCallerAssignedIds) {
  Simulator simulator;
  Network network(simulator, util::Rng(1), {});
  MessageId seen = 0;
  network.connect(1, [&](const Message& m) { seen = m.id; });
  Message m = make_message(0, 1);
  m.id = 4242;
  network.send(std::move(m));
  simulator.run();
  EXPECT_EQ(seen, 4242u);
}

TEST(Network, RejectsSendToUnconnectedDestination) {
  Simulator simulator;
  Network network(simulator, util::Rng(1), {});
  EXPECT_THROW(network.send(make_message(0, 1)), util::ContractViolation);
}

TEST(Network, RejectsDoubleConnect) {
  Simulator simulator;
  Network network(simulator, util::Rng(1), {});
  network.connect(0, [](const Message&) {});
  EXPECT_THROW(network.connect(0, [](const Message&) {}),
               util::ContractViolation);
}

// ---- Golden determinism pin ----------------------------------------------
//
// One seeded n=8 System (uniform workload, 2% loss, a FailureInjector driving
// recovery sessions that pause, resume and drop in-flight messages), run to
// completion on in-memory media.  The expected values were recorded from the
// std::function priority-queue simulator this queue replaced: any change to
// the (time, seq) event order shows up here, not just invariant breakage.

struct GoldenProcess {
  std::vector<CheckpointIndex> stored;
  std::vector<IntervalIndex> dv;
};

struct GoldenRun {
  bool fifo;
  std::uint64_t events;
  Network::Stats stats;
  std::size_t sessions;
  std::size_t recorded_messages;
  std::size_t recorded_checkpoints;
  std::vector<GoldenProcess> processes;
};

class SimGolden : public ::testing::TestWithParam<GoldenRun> {};

TEST_P(SimGolden, SeededSystemRunReproducesPinnedEventOrder) {
  const GoldenRun& want = GetParam();
  constexpr std::size_t kN = 8;
  harness::SystemConfig config;
  config.process_count = kN;
  config.seed = 2026;
  config.network.loss_probability = 0.02;
  config.network.fifo = want.fifo;
  harness::System system(config);

  workload::WorkloadConfig wl;
  wl.seed = 77;
  workload::WorkloadDriver driver(system.simulator(), system.node_ptrs(), wl);
  driver.start(4000);
  recovery::RecoveryManager manager(system.simulator(), system.network(),
                                    system.recorder(), system.node_ptrs(), {});
  recovery::FailureInjector::Config fc;
  fc.mean_interval = 1000;
  fc.seed = 5;
  recovery::FailureInjector injector(system.simulator(), manager, kN, fc);
  injector.start(4000);
  system.simulator().run();

  EXPECT_EQ(system.simulator().events_processed(), want.events);
  const Network::Stats& stats = system.network().stats();
  EXPECT_EQ(stats.sent, want.stats.sent);
  EXPECT_EQ(stats.delivered, want.stats.delivered);
  EXPECT_EQ(stats.lost, want.stats.lost);
  EXPECT_EQ(stats.dropped_in_flight, want.stats.dropped_in_flight);
  EXPECT_EQ(stats.bytes_sent, want.stats.bytes_sent);
  EXPECT_EQ(injector.outcomes().size(), want.sessions);
  EXPECT_EQ(system.recorder().messages().size(), want.recorded_messages);
  std::size_t checkpoints = 0;
  for (ProcessId p = 0; p < static_cast<ProcessId>(kN); ++p)
    checkpoints += system.recorder().checkpoints(p).size();
  EXPECT_EQ(checkpoints, want.recorded_checkpoints);
  ASSERT_EQ(want.processes.size(), kN);
  for (ProcessId p = 0; p < static_cast<ProcessId>(kN); ++p) {
    const GoldenProcess& gp = want.processes[static_cast<std::size_t>(p)];
    EXPECT_EQ(system.node(p).store().stored_indices(), gp.stored) << "p" << p;
    const auto entries = system.node(p).dv().entries();
    EXPECT_EQ(std::vector<IntervalIndex>(entries.begin(), entries.end()), gp.dv)
        << "p" << p;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Pinned, SimGolden,
    ::testing::Values(
        GoldenRun{false,
                  6125,
                  {2748, 2681, 54, 13, 2748},
                  4,
                  2748,
                  1834,
                  {{{249}, {250, 223, 230, 223, 213, 225, 230, 224}},
                   {{220, 221, 223, 224}, {250, 225, 230, 223, 213, 226, 230, 224}},
                   {{228, 231}, {248, 223, 232, 223, 213, 227, 235, 224}},
                   {{222, 223}, {248, 223, 232, 224, 213, 227, 235, 224}},
                   {{213}, {247, 224, 230, 222, 214, 226, 230, 223}},
                   {{223, 227}, {250, 223, 230, 223, 213, 228, 230, 224}},
                   {{230, 234, 235}, {248, 223, 231, 223, 213, 227, 236, 223}},
                   {{222, 223, 224}, {248, 223, 232, 223, 213, 227, 235, 225}}}},
        GoldenRun{true,
                  6125,
                  {2748, 2681, 54, 13, 2748},
                  4,
                  2748,
                  1837,
                  {{{251}, {252, 223, 230, 223, 212, 226, 231, 224}},
                   {{220, 221, 223, 224}, {252, 225, 230, 223, 212, 227, 231, 224}},
                   {{228, 231}, {250, 223, 232, 223, 212, 228, 236, 224}},
                   {{222, 223}, {250, 223, 232, 224, 212, 228, 236, 224}},
                   {{212}, {249, 224, 230, 222, 213, 227, 231, 223}},
                   {{224, 228}, {252, 223, 230, 223, 212, 229, 231, 224}},
                   {{231, 235, 236}, {250, 223, 231, 223, 212, 228, 237, 223}},
                   {{222, 223, 224}, {250, 223, 232, 223, 212, 228, 236, 225}}}}),
    [](const ::testing::TestParamInfo<GoldenRun>& info) {
      return std::string(info.param.fifo ? "Fifo" : "Unordered");
    });

}  // namespace
}  // namespace rdtgc::sim
