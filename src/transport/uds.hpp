// Unix-domain SOCK_SEQPACKET plumbing and the worker-side Transport.
//
// SOCK_SEQPACKET is the paper's reliable channel made real: connection-
// oriented (so a dead peer is an error, not silence), sequenced (per-socket
// FIFO — the paper's channels need no FIFO, so this is strictly stronger),
// and message-boundary-preserving (one wire frame = one datagram, no
// re-framing layer).  Crash semantics also line up: when a worker is
// SIGKILLed, datagrams still queued in ITS socket buffers vanish with the
// process — exactly the paper's rule that messages in transit at a failure
// are lost (recovery lines exclude them).
//
// The free functions wrap the syscalls with the retry/deadline discipline
// the chaos tests need (bounded EADDRINUSE rebinds, connect retries while
// the parent is still coming up, poll timeouts everywhere so a hung peer
// fails the run instead of hanging CI).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>

#include "transport/transport.hpp"
#include "transport/wire.hpp"

namespace rdtgc::transport {

/// RAII file descriptor.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }
  Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void reset();

 private:
  int fd_ = -1;
};

/// Bind + listen a SEQPACKET socket at `path`.  A stale socket file (a
/// previous run died without cleanup) yields EADDRINUSE: retried up to
/// `max_attempts` times, unlinking the stale path between attempts.
/// Returns an invalid Fd on exhaustion.
Fd uds_listen(const std::string& path, int backlog, int max_attempts = 5);

/// Connect to `path`, retrying ENOENT/ECONNREFUSED with `backoff_ms` sleeps
/// while the listener is still coming up (slow-spawn deflake).  Returns an
/// invalid Fd on exhaustion.
Fd uds_connect(const std::string& path, int max_attempts = 100,
               int backoff_ms = 20);

/// Accept one connection, waiting at most `timeout_ms`.  Invalid on timeout.
Fd uds_accept(int listen_fd, int timeout_ms);

enum class RecvStatus : std::uint8_t {
  kFrame,    ///< one datagram read into the buffer
  kTimeout,  ///< nothing arrived within the deadline
  kClosed,   ///< orderly EOF — the peer closed
  kError,    ///< socket error (a SIGKILLed peer surfaces here or as kClosed)
};

class RecvBuffer;

/// Receive one datagram (<= kMaxFrameBytes) into `buf`, waiting at most
/// `timeout_ms` (-1 = forever).  On kFrame, buf.frame() spans exactly the
/// datagram's bytes.
RecvStatus recv_frame(int fd, RecvBuffer& buf, int timeout_ms);

/// The receive buffer of one socket owner: kMaxFrameBytes allocated once
/// and never cleared.  recv_frame writes only the datagram it reads, and
/// frame() spans only those bytes, so nothing stale past a shorter frame is
/// ever visible; pages beyond the largest frame received stay untouched
/// (and non-resident).
class RecvBuffer {
 public:
  RecvBuffer()
      : bytes_(std::make_unique_for_overwrite<std::uint8_t[]>(kMaxFrameBytes)) {}

  /// The datagram of the last kFrame receive (empty before the first).
  std::span<const std::uint8_t> frame() const { return {bytes_.get(), size_}; }

 private:
  friend RecvStatus recv_frame(int fd, RecvBuffer& buf, int timeout_ms);

  std::unique_ptr<std::uint8_t[]> bytes_;
  std::size_t size_ = 0;
};

/// Send one datagram, blocking (with poll) up to `timeout_ms` on
/// backpressure.  False on error or deadline — the peer is gone or stuck.
bool send_frame(int fd, std::span<const std::uint8_t> frame, int timeout_ms);

/// One non-blocking send attempt: 1 = sent, 0 = would block, -1 = dead peer.
int try_send_frame(int fd, std::span<const std::uint8_t> frame);

/// Worker-side Transport over the single socket to the fleet parent.
///
/// The endpoint serves exactly one process: connect() registers the local
/// Node's sink, send() encodes the outgoing sim::Message as a Data frame
/// stamped (self, incarnation, seq) and hands it to the send buffer.  The
/// hot path NEVER blocks on the socket: frames go out with non-blocking
/// writes and queue in `out_` under backpressure (Micro-Checkpointing's
/// output-buffering discipline); the worker loop flushes the queue whenever
/// the socket drains, and flush_blocking() empties it at quiesce points.
class UdsTransport final : public Transport {
 public:
  UdsTransport(int fd, ProcessId self, std::uint32_t incarnation);

  void connect(ProcessId p, DeliveryFn sink) override;
  void disconnect(ProcessId p) override;
  sim::MessageId send(sim::Message m) override;
  sim::Message make_message() override;

  /// Deliver an inbound application message to the local sink, then recycle
  /// its DV buffer into make_message().
  void deliver(sim::Message m);

  /// Queue an already-encoded non-Data frame behind everything already
  /// buffered, preserving the event order the parent's log relies on.
  void enqueue_frame(const WireBuffer& frame);

  /// Push queued frames with non-blocking writes; false if the peer died.
  bool flush();
  /// Drain the queue completely, blocking up to `timeout_ms` per frame.
  bool flush_blocking(int timeout_ms);
  bool pending() const { return !out_.empty(); }

  std::uint64_t next_seq() { return ++seq_; }
  std::uint64_t last_seq() const { return seq_; }
  std::uint32_t incarnation() const { return incarnation_; }
  ProcessId self() const { return self_; }

 private:
  int fd_;
  ProcessId self_;
  std::uint32_t incarnation_;
  std::uint64_t seq_ = 0;  ///< per-incarnation frame sequence (1-based)
  DeliveryFn sink_;
  std::deque<WireBuffer> out_;
  /// Spare buffers recycled from flushed frames, so steady-state sends
  /// allocate nothing once the queue's high-water mark is reached.
  std::deque<WireBuffer> spare_;
  WireBuffer scratch_;
  DataBody data_scratch_;
  sim::Message recycled_;
};

}  // namespace rdtgc::transport
