#include "sim/network.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"

namespace rdtgc::sim {

Network::Network(Simulator& simulator, util::Rng rng, Config config)
    : simulator_(simulator),
      rng_(rng),
      config_(config),
      delay_span_(config.max_delay - config.min_delay + 1) {
  RDTGC_EXPECTS(config_.min_delay <= config_.max_delay);
  RDTGC_EXPECTS(config_.min_delay >= 1);  // zero-delay would break causal order
  RDTGC_EXPECTS(config_.loss_probability >= 0.0 &&
                config_.loss_probability <= 1.0);
}

void Network::connect(ProcessId p, DeliveryFn sink) {
  RDTGC_EXPECTS(p >= 0);
  RDTGC_EXPECTS(sink != nullptr);
  if (static_cast<std::size_t>(p) >= sinks_.size())
    sinks_.resize(static_cast<std::size_t>(p) + 1);
  RDTGC_EXPECTS(sinks_[static_cast<std::size_t>(p)] == nullptr);
  sinks_[static_cast<std::size_t>(p)] = std::move(sink);
  if (config_.fifo) grow_channels(sinks_.size());
}

void Network::grow_channels(std::size_t width) {
  if (width <= channel_width_) return;
  std::vector<SimTime> grown(width * width, 0);
  for (std::size_t src = 0; src < channel_width_; ++src)
    std::copy_n(last_delivery_.begin() +
                    static_cast<std::ptrdiff_t>(src * channel_width_),
                channel_width_,
                grown.begin() + static_cast<std::ptrdiff_t>(src * width));
  last_delivery_ = std::move(grown);
  channel_width_ = width;
}

void Network::disconnect(ProcessId p) {
  RDTGC_EXPECTS(p >= 0 && static_cast<std::size_t>(p) < sinks_.size() &&
                sinks_[static_cast<std::size_t>(p)] != nullptr);
  sinks_[static_cast<std::size_t>(p)] = nullptr;
  if (static_cast<std::size_t>(p) >= process_epoch_.size())
    process_epoch_.resize(static_cast<std::size_t>(p) + 1, 0);
  // Scheduled deliveries touching p are discarded when they surface (their
  // slot's recorded epoch went stale); parked and held messages are purged
  // here.
  ++process_epoch_[static_cast<std::size_t>(p)];
  const auto touches_p = [p](const Message& m) {
    return m.src == p || m.dst == p;
  };
  for (std::vector<Message>* queue : {&held_, &mailbox_}) {
    const auto dead = std::stable_partition(
        queue->begin(), queue->end(),
        [&](const Message& m) { return !touches_p(m); });
    const auto dropped = static_cast<std::uint64_t>(queue->end() - dead);
    stats_.dropped_in_flight += dropped;
    RDTGC_ASSERT(in_flight_ >= dropped);
    in_flight_ -= dropped;
    queue->erase(dead, queue->end());
  }
}

Message Network::make_message() {
  // Fresh value-initialized shell that steals only the recycled DV and
  // control buffers (the caller overwrites their contents, reusing the
  // capacity) — every other field gets its default, even ones added later.
  Message m;
  m.dv = std::move(recycled_.dv);
  m.control = std::move(recycled_.control);
  m.control.clear();  // capacity survives; stale words must not
  return m;
}

MessageId Network::send(Message m) {
  RDTGC_EXPECTS(m.dst >= 0 &&
                static_cast<std::size_t>(m.dst) < sinks_.size() &&
                sinks_[static_cast<std::size_t>(m.dst)] != nullptr);
  // Keep a caller-assigned id (the recorder hands them out so analyses can
  // link messages); assign one only for bare messages.
  if (m.id == 0) m.id = next_id_++;
  m.sent_at = simulator_.now();
  ++stats_.sent;
  stats_.bytes_sent += m.bytes;

  if (rng_.bernoulli(config_.loss_probability)) {
    ++stats_.lost;
    return m.id;
  }
  if (config_.manual) {
    ++in_flight_;
    mailbox_.push_back(std::move(m));
    return mailbox_.back().id;
  }
  if (paused_) {
    held_.push_back(std::move(m));
    ++in_flight_;
    return held_.back().id;
  }
  const MessageId id = m.id;
  schedule(std::move(m));
  return id;
}

void Network::schedule(Message m) {
  SimTime when = simulator_.now() + config_.min_delay +
                 static_cast<SimTime>(rng_.uniform(delay_span_));
  if (config_.fifo) {
    RDTGC_EXPECTS(m.src >= 0);
    const auto src = static_cast<std::size_t>(m.src);
    grow_channels(src + 1);
    SimTime& last =
        last_delivery_[src * channel_width_ + static_cast<std::size_t>(m.dst)];
    when = std::max(when, last);
    last = when;
  }
  ++in_flight_;
  std::uint64_t slot;
  if (free_slots_.empty()) {
    slot = slots_.size();
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  InFlight& f = slots_[slot];
  f.epoch = epoch_;
  f.src_epoch = process_epoch(m.src);
  f.dst_epoch = process_epoch(m.dst);
  f.message = std::move(m);
  simulator_.at(when, *this, slot);
}

void Network::fire(std::uint64_t slot) {
  // Move the message out and release the slot before anything else: the
  // sink may send, which can reuse this slot or grow (reallocate) the slab.
  InFlight& f = slots_[slot];
  Message m = std::move(f.message);
  const bool stale_global = f.epoch != epoch_;
  const bool stale_endpoint = f.src_epoch != process_epoch(m.src) ||
                              f.dst_epoch != process_epoch(m.dst);
  free_slots_.push_back(slot);
  if (stale_global) {
    // drop_in_flight() already reset the counter for this epoch.
    ++stats_.dropped_in_flight;
    return;
  }
  RDTGC_ASSERT(in_flight_ > 0);
  --in_flight_;
  if (stale_endpoint) {
    // An endpoint's process died (disconnect) after this delivery was
    // scheduled: the message was in flight at the death and is lost.
    // Unlike the global-epoch path the counter was NOT reset, so this
    // message still counts against it.
    ++stats_.dropped_in_flight;
    return;
  }
  if (paused_) {
    // Delivery surfaced while frozen: requeue for resume().
    held_.push_back(std::move(m));
    ++in_flight_;
    return;
  }
  ++stats_.delivered;
  sinks_[static_cast<std::size_t>(m.dst)](m);
  recycled_ = std::move(m);  // hand the DV buffer back to the next sender
}

void Network::drop_in_flight() {
  ++epoch_;  // invalidates scheduled deliveries
  stats_.dropped_in_flight += held_.size() + mailbox_.size();
  held_.clear();
  mailbox_.clear();
  in_flight_ = 0;
}

void Network::deliver_now(MessageId id) {
  RDTGC_EXPECTS(config_.manual);
  auto it = std::find_if(mailbox_.begin(), mailbox_.end(),
                         [id](const Message& m) { return m.id == id; });
  RDTGC_EXPECTS(it != mailbox_.end());
  // Move, don't copy: the message carries a size-n dependency vector and
  // this is the benchmarked receive path.
  Message m = std::move(*it);
  mailbox_.erase(it);
  RDTGC_ASSERT(in_flight_ > 0);
  --in_flight_;
  ++stats_.delivered;
  sinks_[static_cast<std::size_t>(m.dst)](m);
  recycled_ = std::move(m);  // hand the DV buffer back to the next sender
}

std::vector<MessageId> Network::parked() const {
  std::vector<MessageId> out;
  out.reserve(mailbox_.size());
  for (const Message& m : mailbox_) out.push_back(m.id);
  return out;
}

void Network::pause() { paused_ = true; }

void Network::resume() {
  paused_ = false;
  std::vector<Message> held = std::move(held_);
  held_.clear();
  in_flight_ -= held.size();
  for (auto& m : held) schedule(std::move(m));
}

}  // namespace rdtgc::sim
