// Message transport for the simulated asynchronous system.
//
// Models the paper's channel assumptions (§2): messages may be delayed
// arbitrarily, lost, and delivered out of order (FIFO can be enabled for
// experiments that want it, but no algorithm here depends on it).  Supports
// dropping all in-flight messages, which the recovery manager uses to model
// the paper's rule that recovery lines exclude in-transit messages.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/message.hpp"
#include "sim/simulator.hpp"
#include "transport/transport.hpp"
#include "util/rng.hpp"

namespace rdtgc::sim {

/// Delivery sink for a destination process.
using DeliveryFn = transport::DeliveryFn;

/// The deterministic reference implementation of transport::Transport:
/// every in-simulator run speaks to it through the trait's narrow waist,
/// and a recorded socket run (transport::UdsTransport) is certified by
/// replaying its merged event log through this class in manual mode
/// (transport/replay.hpp).
///
/// A scheduled message waits in a recycled slot of an in-flight slab,
/// together with the epochs it was sent under; its delivery is a typed
/// simulator event whose argument is the slot number (Simulator::Target).
/// The slot is released before the sink runs, so a sink that sends (and
/// grows the slab) never invalidates the message being delivered.
class Network final : public transport::Transport, private Simulator::Target {
 public:
  struct Config {
    SimTime min_delay = 1;   ///< inclusive lower bound on transit time
    SimTime max_delay = 10;  ///< inclusive upper bound on transit time
    double loss_probability = 0.0;
    bool fifo = false;  ///< enforce per-channel FIFO delivery order
    /// Manual mode: sends are parked in a mailbox and delivered only by
    /// deliver_now() — used to script exact checkpoint-and-communication
    /// patterns (the paper's figures).
    bool manual = false;
  };

  struct Stats {
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
    std::uint64_t lost = 0;             ///< dropped by the loss model
    std::uint64_t dropped_in_flight = 0;  ///< dropped by drop_in_flight()
    std::uint64_t bytes_sent = 0;
  };

  Network(Simulator& simulator, util::Rng rng, Config config);

  /// Register the delivery callback for process `p`.  Must be called once per
  /// destination before any send to it (again after disconnect(p)).
  void connect(ProcessId p, DeliveryFn sink) override;

  /// Unregister process `p` (its process died — harness::System's
  /// restart_node drives this): the sink slot frees for a reconnect, and
  /// every message in flight to or from p is dropped — parked/held ones
  /// immediately, scheduled ones when their delivery event surfaces (p's
  /// epoch is bumped, so the slot's recorded epoch no longer matches and the
  /// event discards it, exactly like the drop_in_flight() path).  Counted in
  /// stats().dropped_in_flight.
  void disconnect(ProcessId p) override;

  /// Send `m` (id and sent_at are assigned here).  Returns the message id.
  MessageId send(Message m) override;

  /// A blank message shell whose dependency-vector buffer is recycled from
  /// the most recently delivered message: filling it with a same-size DV
  /// copy performs no heap allocation.  Senders on the hot path should
  /// start from this instead of a default-constructed Message.
  Message make_message() override;

  /// Drop every message currently in flight (used during recovery sessions).
  /// Scheduled deliveries stay queued until they surface; their slots carry
  /// the old global epoch and are discarded then.
  void drop_in_flight();

  /// Manual mode: deliver a parked message immediately (synchronously).
  void deliver_now(MessageId id);

  /// Manual mode: parked message ids, in send order.
  std::vector<MessageId> parked() const;

  /// Pause delivery: messages sent while paused are queued as in-flight but
  /// no delivery fires until resume().  Used to freeze the system while the
  /// recovery manager runs.
  void pause();
  void resume();

  const Stats& stats() const { return stats_; }
  std::uint64_t in_flight() const { return in_flight_; }

 private:
  /// A scheduled message and the epochs it must still match on delivery.
  struct InFlight {
    Message message;
    std::uint64_t epoch = 0;      ///< global epoch (drop_in_flight)
    std::uint64_t src_epoch = 0;  ///< process_epoch(message.src)
    std::uint64_t dst_epoch = 0;  ///< process_epoch(message.dst)
  };

  /// Delivery event of slab slot `slot` (Simulator::Target).
  void fire(std::uint64_t slot) override;
  /// Draw m's transit delay (clamped behind its channel in FIFO mode), park
  /// it in a free slot and queue its delivery event.
  void schedule(Message m);
  /// FIFO mode: widen last_delivery_ to `width` × `width` channels.
  void grow_channels(std::size_t width);

  /// Current epoch of process p (0 until the first disconnect bumps it).
  std::uint64_t process_epoch(ProcessId p) const {
    return static_cast<std::size_t>(p) < process_epoch_.size()
               ? process_epoch_[static_cast<std::size_t>(p)]
               : 0;
  }

  Simulator& simulator_;
  util::Rng rng_;
  Config config_;
  SimTime delay_span_;  ///< transit delays are min_delay + [0, delay_span_)
  std::vector<DeliveryFn> sinks_;
  Stats stats_;
  MessageId next_id_ = 1;
  /// Epoch counter: bumping it invalidates all scheduled deliveries.
  std::uint64_t epoch_ = 0;
  /// Per-process epochs: disconnect(p) bumps entry p, invalidating every
  /// scheduled delivery whose source or destination is p (grown lazily —
  /// absent entries are epoch 0).
  std::vector<std::uint64_t> process_epoch_;
  std::uint64_t in_flight_ = 0;
  bool paused_ = false;
  /// Messages sent while paused, delivered on resume().
  std::vector<Message> held_;
  /// Manual-mode mailbox, in send order.
  std::vector<Message> mailbox_;
  /// Shell of the last delivered message; make_message() hands its DV
  /// buffer back to the next sender (allocation-free steady state).
  Message recycled_;
  /// Scheduled messages, indexed by slot; free_slots_ lists released ones.
  std::vector<InFlight> slots_;
  std::vector<std::uint64_t> free_slots_;
  /// FIFO mode: last scheduled delivery time of channel (src, dst), at
  /// src * channel_width_ + dst; connect() grows the matrix with n.
  std::vector<SimTime> last_delivery_;
  std::size_t channel_width_ = 0;
};

}  // namespace rdtgc::sim
