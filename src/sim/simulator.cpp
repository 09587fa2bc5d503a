#include "sim/simulator.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"

namespace rdtgc::sim {

void Simulator::push(SimTime t, Target* target, std::uint64_t arg) {
  heap_.push_back(Entry{t, next_seq_++, target, arg});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void Simulator::at(SimTime t, Action fn) {
  RDTGC_EXPECTS(t >= now_);
  RDTGC_EXPECTS(fn != nullptr);
  std::uint64_t slot;
  if (free_actions_.empty()) {
    slot = actions_.size();
    actions_.push_back(std::move(fn));
  } else {
    slot = free_actions_.back();
    free_actions_.pop_back();
    actions_[slot] = std::move(fn);
  }
  push(t, nullptr, slot);
}

void Simulator::at(SimTime t, Target& target, std::uint64_t arg) {
  RDTGC_EXPECTS(t >= now_);
  push(t, &target, arg);
}

void Simulator::run_action(std::uint64_t slot) {
  // Move out and release the slot first: the action may schedule closures
  // (reusing this slot or growing the vector), and a throw must not leak it.
  Action fn = std::move(actions_[slot]);
  actions_[slot] = nullptr;
  free_actions_.push_back(slot);
  fn();
}

bool Simulator::step() {
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Entry e = heap_.back();
  heap_.pop_back();
  RDTGC_ASSERT(e.time >= now_);
  now_ = e.time;
  ++processed_;
  if (e.target != nullptr) {
    e.target->fire(e.arg);
  } else {
    run_action(e.arg);
  }
  return true;
}

std::size_t Simulator::run(std::size_t max_events) {
  std::size_t count = 0;
  while (count < max_events && step()) ++count;
  return count;
}

void Simulator::run_until(SimTime t) {
  RDTGC_EXPECTS(t >= now_);
  while (!heap_.empty() && heap_.front().time <= t) step();
  now_ = t;
}

}  // namespace rdtgc::sim
