#include "workload/workload.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace rdtgc::workload {

std::string workload_kind_name(WorkloadKind kind) {
  switch (kind) {  // no default: -Wswitch flags a new unhandled kind
    case WorkloadKind::kUniform:
      return "uniform";
    case WorkloadKind::kRing:
      return "ring";
    case WorkloadKind::kClientServer:
      return "client-server";
    case WorkloadKind::kBroadcast:
      return "broadcast";
    case WorkloadKind::kBursty:
      return "bursty";
    case WorkloadKind::kHeavyTail:
      return "heavy-tail";
    case WorkloadKind::kTokenBucket:
      return "token-bucket";
    case WorkloadKind::kHotspot:
      return "hotspot";
    case WorkloadKind::kCascade:
      return "cascade";
  }
  throw util::ContractViolation("workload_kind_name: unhandled WorkloadKind " +
                                std::to_string(static_cast<int>(kind)));
}

void validate(const WorkloadConfig& config) {
  RDTGC_EXPECTS(config.mean_gap >= 1);
  RDTGC_EXPECTS(config.checkpoint_probability >= 0.0 &&
                config.checkpoint_probability <= 1.0);
  RDTGC_EXPECTS(config.broadcast_fraction >= 0.0 &&
                config.broadcast_fraction <= 1.0);
  // 0 would divide by zero in the phase computation / degenerate kBursty to
  // permanent idleness.
  RDTGC_EXPECTS(config.burst_length >= 1);
  RDTGC_EXPECTS(config.idle_factor >= 1);
  RDTGC_EXPECTS(config.pareto_alpha > 0.0);
  RDTGC_EXPECTS(config.hotspot_fraction >= 0.0 &&
                config.hotspot_fraction <= 1.0);
  RDTGC_EXPECTS(config.bucket_rate > 0.0);
  RDTGC_EXPECTS(config.bucket_capacity >= 1);
}

WorkloadDriver::WorkloadDriver(sim::Simulator& simulator,
                               std::vector<ckpt::Node*> nodes,
                               WorkloadConfig config)
    : simulator_(simulator),
      nodes_(std::move(nodes)),
      process_count_(nodes_.size()),
      config_(config),
      phase_pos_(nodes_.size(), 0),
      rr_next_(nodes_.size(), 1),
      tokens_(nodes_.size(),
              static_cast<double>(config.bucket_capacity)),
      last_refill_(nodes_.size(), 0) {
  RDTGC_EXPECTS(process_count_ >= 2);
  validate(config_);
  util::Rng root(config_.seed);
  rng_.reserve(process_count_);
  for (std::size_t p = 0; p < process_count_; ++p)
    rng_.push_back(root.split());
}

WorkloadDriver::WorkloadDriver(sim::Simulator& simulator, NodeProvider nodes,
                               std::size_t process_count,
                               WorkloadConfig config)
    : simulator_(simulator),
      provider_(std::move(nodes)),
      process_count_(process_count),
      config_(config),
      phase_pos_(process_count, 0),
      rr_next_(process_count, 1),
      tokens_(process_count, static_cast<double>(config.bucket_capacity)),
      last_refill_(process_count, 0) {
  RDTGC_EXPECTS(provider_ != nullptr);
  RDTGC_EXPECTS(process_count_ >= 2);
  validate(config_);
  util::Rng root(config_.seed);
  rng_.reserve(process_count_);
  for (std::size_t p = 0; p < process_count_; ++p)
    rng_.push_back(root.split());
}

ckpt::Node& WorkloadDriver::node_at(std::size_t p) {
  return provider_ ? provider_(static_cast<ProcessId>(p)) : *nodes_[p];
}

void WorkloadDriver::start(SimTime until) {
  RDTGC_EXPECTS(!started_);
  started_ = true;
  until_ = until;
  for (std::size_t p = 0; p < process_count_; ++p) schedule_activity(p);
}

void WorkloadDriver::fire(std::uint64_t p) {
  perform_activity(static_cast<std::size_t>(p));
  schedule_activity(static_cast<std::size_t>(p));
}

void WorkloadDriver::schedule_activity(std::size_t p) {
  double mean = static_cast<double>(config_.mean_gap);
  if (config_.kind == WorkloadKind::kBursty) {
    const std::uint64_t phase = phase_pos_[p] / config_.burst_length;
    if (phase % 2 == 1) mean *= static_cast<double>(config_.idle_factor);
  }
  const auto gap =
      static_cast<SimTime>(std::max(1.0, rng_[p].exponential(mean)));
  const SimTime when = simulator_.now() + gap;
  if (when > until_) return;
  simulator_.at(when, *this, p);
}

void WorkloadDriver::perform_activity(std::size_t p) {
  ++activities_;
  ++phase_pos_[p];
  ckpt::Node& node = node_at(p);
  if (rng_[p].bernoulli(config_.checkpoint_probability)) {
    node.take_basic_checkpoint();
    return;
  }
  switch (config_.kind) {
    case WorkloadKind::kBroadcast:
      if (rng_[p].bernoulli(config_.broadcast_fraction)) {
        for (std::size_t q = 0; q < process_count_; ++q)
          if (q != p) node.send_app_message(static_cast<ProcessId>(q));
        return;
      }
      break;
    case WorkloadKind::kHeavyTail:
      heavy_tail_fan_out(p, node);
      return;
    case WorkloadKind::kTokenBucket:
      // An empty bucket silences the activity entirely: the process keeps
      // checkpointing (branch above) while sending nothing — the knowledge
      // gap the shape is after.
      if (!take_token(p)) return;
      break;
    default:
      break;
  }
  node.send_app_message(pick_destination(p));
}

void WorkloadDriver::heavy_tail_fan_out(std::size_t p, ckpt::Node& node) {
  // Discrete Pareto fan-out: k = floor(U^{-1/alpha}), capped at all peers.
  // Mostly 1; with alpha = 1.5 roughly one activity in three fans to 2+ and
  // one in thirty to 10+ (given enough peers).
  const double u = std::max(rng_[p].uniform01(), 1e-12);
  const double raw = std::pow(u, -1.0 / config_.pareto_alpha);
  const auto fan = static_cast<std::size_t>(std::min(
      raw, static_cast<double>(process_count_ - 1)));
  // `fan` distinct peers: a contiguous run of the peer list (everyone but p)
  // from a random start — distinct by construction, cheap, deterministic.
  const std::size_t peers = process_count_ - 1;
  const std::size_t start = rng_[p].uniform(peers);
  for (std::size_t i = 0; i < std::max<std::size_t>(fan, 1); ++i) {
    auto dst = static_cast<ProcessId>((start + i) % peers);
    if (dst >= static_cast<ProcessId>(p)) ++dst;
    node.send_app_message(dst);
  }
}

bool WorkloadDriver::take_token(std::size_t p) {
  // Continuous refill in simulated time: bucket_rate tokens per mean_gap.
  const SimTime now = simulator_.now();
  const double elapsed = static_cast<double>(now - last_refill_[p]);
  last_refill_[p] = now;
  tokens_[p] = std::min(
      static_cast<double>(config_.bucket_capacity),
      tokens_[p] + elapsed * config_.bucket_rate /
                       static_cast<double>(config_.mean_gap));
  if (tokens_[p] < 1.0) return false;
  tokens_[p] -= 1.0;
  return true;
}

ProcessId WorkloadDriver::pick_destination(std::size_t p) {
  const std::size_t n = process_count_;
  switch (config_.kind) {
    case WorkloadKind::kRing:
      return static_cast<ProcessId>((p + 1) % n);
    case WorkloadKind::kClientServer: {
      if (p != 0) return 0;
      // Server answers clients round-robin.
      ProcessId dst = rr_next_[0];
      rr_next_[0] = static_cast<ProcessId>(1 + (dst % (n - 1)));
      return dst;
    }
    case WorkloadKind::kHotspot: {
      if (p != 0 && rng_[p].bernoulli(config_.hotspot_fraction)) return 0;
      auto dst = static_cast<ProcessId>(rng_[p].uniform(n - 1));
      if (dst >= static_cast<ProcessId>(p)) ++dst;
      return dst;
    }
    case WorkloadKind::kCascade: {
      // Deterministic left/right alternation: p and p+1 keep exchanging
      // crossing messages (p's right turn meets p+1's left turn), which with
      // interleaved basic checkpoints reproduces Figure 2's domino weave.
      const bool right = phase_pos_[p] % 2 == 0;
      return static_cast<ProcessId>(right ? (p + 1) % n : (p + n - 1) % n);
    }
    case WorkloadKind::kUniform:
    case WorkloadKind::kBroadcast:
    case WorkloadKind::kBursty:
    case WorkloadKind::kHeavyTail:
    case WorkloadKind::kTokenBucket: {
      auto dst = static_cast<ProcessId>(rng_[p].uniform(n - 1));
      if (dst >= static_cast<ProcessId>(p)) ++dst;
      return dst;
    }
  }
  throw util::ContractViolation(
      "pick_destination: unhandled WorkloadKind " +
      std::to_string(static_cast<int>(config_.kind)));
}

}  // namespace rdtgc::workload
