#include "recovery/recovery_manager.hpp"

#include "ccp/zigzag.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace rdtgc::recovery {

RecoveryManager::RecoveryManager(sim::Simulator& simulator,
                                 sim::Network& network,
                                 ccp::CcpRecorder& recorder,
                                 std::vector<ckpt::Node*> nodes, Config config)
    : RecoveryManager(simulator, network, recorder,
                      [nodes](ProcessId p) -> ckpt::Node& {
                        return *nodes[static_cast<std::size_t>(p)];
                      },
                      config) {
  RDTGC_EXPECTS(nodes.size() == n_);
  for (const ckpt::Node* node : nodes) RDTGC_EXPECTS(node != nullptr);
}

RecoveryManager::RecoveryManager(sim::Simulator& simulator,
                                 sim::Network& network,
                                 ccp::CcpRecorder& recorder,
                                 NodeProvider nodes, Config config)
    : simulator_(simulator),
      network_(network),
      recorder_(recorder),
      n_(recorder.process_count()),
      provider_(std::move(nodes)),
      config_(config) {
  RDTGC_EXPECTS(provider_ != nullptr);
}

SessionPlan RecoveryManager::plan(const std::vector<ProcessId>& faulty) const {
  RDTGC_EXPECTS(!faulty.empty());
  std::vector<bool> faulty_mask(n_, false);
  for (const ProcessId f : faulty) {
    RDTGC_EXPECTS(f >= 0 && static_cast<std::size_t>(f) < n_);
    faulty_mask[static_cast<std::size_t>(f)] = true;
  }
  std::vector<const ckpt::Node*> nodes(n_);
  for (std::size_t p = 0; p < n_; ++p)
    nodes[p] = &provider_(static_cast<ProcessId>(p));
  if (config_.line_algorithm == LineAlgorithm::kLemma1)
    return lemma1_plan(std::move(faulty_mask), NodeDvs{nodes});

  SessionPlan plan;
  plan.line = ccp::ZigzagAnalysis(recorder_).recovery_line(faulty_mask);
  plan.li.resize(n_);
  for (std::size_t j = 0; j < n_; ++j)
    plan.li[j] = li_entry(plan.line[j], nodes[j]->last_checkpoint_index());
  plan.faulty_mask = std::move(faulty_mask);
  return plan;
}

RecoveryManager::ApplyResult RecoveryManager::apply_to(const SessionPlan& plan,
                                                       ProcessId p) {
  const auto idx = static_cast<std::size_t>(p);
  RDTGC_EXPECTS(idx < plan.line.size());
  ckpt::Node& node = provider_(p);
  const CheckpointIndex last = node.last_checkpoint_index();
  ApplyResult result;
  // Definition 5 metric: general checkpoints rolled back (the volatile
  // state counts as c^{last+1}).
  result.general_checkpoints_rolled_back +=
      static_cast<std::uint64_t>((last + 1) - plan.line[idx]);
  if (plan.line[idx] <= last) {
    // The line must name a checkpoint that is actually recoverable; the
    // GC safety results guarantee it was never collected.
    RDTGC_ASSERT(node.store().contains(plan.line[idx]));
    const std::uint64_t before = node.store().stats().discarded;
    node.rollback_to(plan.line[idx],
                     config_.global_information
                         ? std::optional<std::vector<IntervalIndex>>(plan.li)
                         : std::nullopt);
    result.checkpoints_discarded += node.store().stats().discarded - before;
    result.rolled = true;
  } else if (config_.global_information) {
    node.peer_recovery(plan.li);
  }
  return result;
}

RecoveryOutcome RecoveryManager::execute(const SessionPlan& session) {
  ++stats_.sessions;
  // Stop the world; in-transit messages are excluded from the CCP.
  network_.pause();
  network_.drop_in_flight();

  RecoveryOutcome outcome;
  outcome.line = session.line;
  for (std::size_t p = 0; p < n_; ++p) {
    const ApplyResult applied = apply_to(session, static_cast<ProcessId>(p));
    outcome.checkpoints_discarded += applied.checkpoints_discarded;
    outcome.general_checkpoints_rolled_back +=
        applied.general_checkpoints_rolled_back;
    if (applied.rolled) outcome.rolled_back.push_back(static_cast<ProcessId>(p));
  }

  stats_.checkpoints_discarded += outcome.checkpoints_discarded;
  stats_.general_checkpoints_rolled_back +=
      outcome.general_checkpoints_rolled_back;

  network_.resume();
  RDTGC_INFO("recovery session at t=" << simulator_.now() << ": "
             << outcome.rolled_back.size() << " processes rolled back");
  return outcome;
}

}  // namespace rdtgc::recovery
