// Workload generators: the "practical environment" the paper's conclusion
// asks for.  Each process performs activities at exponentially-distributed
// gaps; an activity is either a basic checkpoint (with configurable
// probability — the paper's autonomous checkpoints) or one or more message
// sends whose destinations depend on the communication shape.
//
// Benign shapes:
//  * kUniform      — random peer (homogeneous gossip);
//  * kRing         — fixed successor (pipeline);
//  * kClientServer — process 0 is a server: clients talk to it, it answers
//                    round-robin;
//  * kBroadcast    — occasionally send to everyone (fan-out heavy, spreads
//                    causal knowledge fast);
//  * kBursty       — uniform destinations but alternating active/idle
//                    phases (stale knowledge persists through idleness).
//
// Adversarial shapes (the comparison grid's stress row — each targets a
// known weak spot of the CIC protocols under test):
//  * kHeavyTail    — Pareto-distributed fan-out: mostly unicast, rare bursts
//                    to many peers at once (a gossip storm spreads one
//                    process's stale clock everywhere in one step);
//  * kTokenBucket  — sends gated by a per-process token bucket refilled in
//                    simulated time: drained buckets silence a process while
//                    its peers advance, then a full bucket releases a
//                    clustered burst (long asymmetric silence is exactly
//                    what makes index-based/clock conditions fire);
//  * kHotspot      — most traffic aims at process 0: the hotspot's knowledge
//                    races ahead while the spokes exchange nothing directly,
//                    maximizing knowledge imbalance;
//  * kCascade      — deterministic left/right neighbor alternation: adjacent
//                    pairs exchange crossing messages with checkpoints in
//                    between — the domino pattern of Figure 2, statistically.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ckpt/node.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace rdtgc::workload {

enum class WorkloadKind {
  kUniform,
  kRing,
  kClientServer,
  kBroadcast,
  kBursty,
  kHeavyTail,
  kTokenBucket,
  kHotspot,
  kCascade,
};

/// Every kind, in declaration order — single source for sweeps and tests
/// (mirrors ckpt::all_protocol_kinds()).
inline constexpr std::array<WorkloadKind, 9> kAllWorkloadKinds = {
    WorkloadKind::kUniform,     WorkloadKind::kRing,
    WorkloadKind::kClientServer, WorkloadKind::kBroadcast,
    WorkloadKind::kBursty,      WorkloadKind::kHeavyTail,
    WorkloadKind::kTokenBucket, WorkloadKind::kHotspot,
    WorkloadKind::kCascade};

constexpr const std::array<WorkloadKind, 9>& all_workload_kinds() {
  return kAllWorkloadKinds;
}

std::string workload_kind_name(WorkloadKind kind);

struct WorkloadConfig {
  WorkloadKind kind = WorkloadKind::kUniform;
  SimTime mean_gap = 10;             ///< mean time between activities
  double checkpoint_probability = 0.2;  ///< activity is a basic checkpoint
  double broadcast_fraction = 0.1;   ///< kBroadcast: chance of full fan-out
  std::uint64_t burst_length = 20;   ///< kBursty: activities per phase
  std::uint64_t idle_factor = 10;    ///< kBursty: idle gap multiplier
  double pareto_alpha = 1.5;         ///< kHeavyTail: tail exponent (smaller
                                     ///  = heavier fan-out tail)
  double hotspot_fraction = 0.8;     ///< kHotspot: spoke traffic aimed at p0
  double bucket_rate = 0.4;          ///< kTokenBucket: tokens per mean_gap
  std::uint64_t bucket_capacity = 8; ///< kTokenBucket: burst size cap
  std::uint64_t seed = 42;
};

/// Validates EVERY field of `config` (precondition checks; throws
/// util::ContractViolation).  The single authority — both driver
/// constructors call it, and new shape parameters must be covered here so
/// they cannot drift unchecked.
void validate(const WorkloadConfig& config);

/// Restart-safe process accessor (harness::System::node_provider): the
/// driver resolves the CURRENT Node of p at every activity, so a process
/// replaced by a warm restart keeps receiving its schedule.
using NodeProvider = std::function<ckpt::Node&(ProcessId)>;

/// Activities are typed simulator events: process p's next activity is
/// `fire(p)` on this driver, so the steady-state schedule allocates nothing.
class WorkloadDriver final : private sim::Simulator::Target {
 public:
  WorkloadDriver(sim::Simulator& simulator, std::vector<ckpt::Node*> nodes,
                 WorkloadConfig config);

  /// Restart-safe variant: activities resolve processes through `nodes`
  /// instead of holding borrowed pointers that a restart would dangle.
  WorkloadDriver(sim::Simulator& simulator, NodeProvider nodes,
                 std::size_t process_count, WorkloadConfig config);

  /// Schedule activities for every process until simulated time `until`.
  /// Call once per driver.
  void start(SimTime until);

  std::uint64_t activities() const { return activities_; }

 private:
  /// Process p's activity event: perform it, then schedule p's next one.
  void fire(std::uint64_t p) override;
  void schedule_activity(std::size_t p);
  void perform_activity(std::size_t p);
  void heavy_tail_fan_out(std::size_t p, ckpt::Node& node);
  bool take_token(std::size_t p);
  ProcessId pick_destination(std::size_t p);
  ckpt::Node& node_at(std::size_t p);

  sim::Simulator& simulator_;
  std::vector<ckpt::Node*> nodes_;  ///< empty when provider_ is set
  NodeProvider provider_;           ///< null for the borrowed-pointer ctor
  std::size_t process_count_;
  WorkloadConfig config_;
  std::vector<util::Rng> rng_;            // per process
  std::vector<std::uint64_t> phase_pos_;  // kBursty/kCascade bookkeeping
  std::vector<ProcessId> rr_next_;        // kClientServer round robin
  std::vector<double> tokens_;            // kTokenBucket: current fill
  std::vector<SimTime> last_refill_;      // kTokenBucket: last refill time
  SimTime until_ = 0;                     // start() horizon
  bool started_ = false;
  std::uint64_t activities_ = 0;
};

}  // namespace rdtgc::workload
