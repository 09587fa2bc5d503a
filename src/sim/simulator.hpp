// Deterministic discrete-event simulator.
//
// This is the substrate for the paper's system model (§2): an asynchronous
// message-passing system with no bound on relative speeds.  The simulator is
// single-threaded and fully deterministic: events fire in (time, insertion
// sequence) order, so a (seed, configuration) pair reproduces an execution
// bit-for-bit.  The checkpointing and garbage-collection algorithms never read
// the clock — simulated time exists only to order events and drive workloads.
//
// The queue is a flat binary heap of 32-byte POD entries {time, seq, target,
// arg}; no event allocates once the heap's capacity is warm.  An event is
// either
//  * typed — at(t, target, arg) fires `target.fire(arg)`.  The hot event
//    sources implement Target: sim::Network (arg = the in-flight message's
//    slot in its slab) and workload::WorkloadDriver (arg = the process);
//  * a closure — at(t, action) parks the action in a recycled slot vector
//    and queues {t, seq, nullptr, slot}.  Failure injectors, GC drivers,
//    probes and tests use this path.
//
// Slot lifetime rules:
//  * a closure slot is released, and its action moved out, BEFORE the action
//    runs, so a slot the action itself re-fills never aliases the running
//    action, and an action that throws leaves no slot or heap entry behind;
//  * a Target must outlive every event queued for it;
//  * the heap and the closure slots may reallocate whenever an event is
//    scheduled, including from inside fire() or an action: neither may hold
//    a reference into the simulator's storage across a call that schedules.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "causality/types.hpp"

namespace rdtgc::sim {

/// Single-threaded discrete-event scheduler.
class Simulator {
 public:
  using Action = std::function<void()>;

  /// Receiver of typed events: at(t, target, arg) calls target.fire(arg).
  class Target {
   public:
    virtual void fire(std::uint64_t arg) = 0;

   protected:
    ~Target() = default;
  };

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  SimTime now() const { return now_; }

  /// Schedule `fn` at absolute time `t` (>= now()).
  void at(SimTime t, Action fn);

  /// Schedule `target.fire(arg)` at absolute time `t` (>= now()).
  void at(SimTime t, Target& target, std::uint64_t arg);

  /// Schedule `fn` `delay` ticks from now.
  void after(SimTime delay, Action fn) { at(now_ + delay, std::move(fn)); }

  /// Execute the next pending event. Returns false when the queue is empty.
  bool step();

  /// Run until the queue empties or `max_events` have been processed.
  /// Returns the number of events processed by this call.
  std::size_t run(std::size_t max_events = SIZE_MAX);

  /// Run events with time <= t (leaves later events pending); advances the
  /// clock to exactly `t` even if the queue drains first.
  void run_until(SimTime t);

  std::uint64_t events_processed() const { return processed_; }
  std::size_t pending() const { return heap_.size(); }

 private:
  struct Entry {
    SimTime time;
    std::uint64_t seq;  // tie-break: FIFO among same-time events
    Target* target;     // nullptr: closure event, arg is its slot
    std::uint64_t arg;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  void push(SimTime t, Target* target, std::uint64_t arg);
  void run_action(std::uint64_t slot);

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::vector<Entry> heap_;  // min-heap on (time, seq) under Later
  std::vector<Action> actions_;            // closure slots
  std::vector<std::uint64_t> free_actions_;  // released closure slots
};

}  // namespace rdtgc::sim
