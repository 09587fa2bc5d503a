#include "transport/uds.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "util/check.hpp"

namespace rdtgc::transport {

namespace {

bool fill_sockaddr(const std::string& path, sockaddr_un& addr) {
  if (path.size() >= sizeof(addr.sun_path)) return false;
  std::memset(&addr, 0, sizeof addr);
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return true;
}

void sleep_ms(int ms) {
  timespec ts{ms / 1000, static_cast<long>(ms % 1000) * 1000000L};
  ::nanosleep(&ts, nullptr);
}

}  // namespace

void Fd::reset() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

Fd uds_listen(const std::string& path, int backlog, int max_attempts) {
  sockaddr_un addr{};
  if (!fill_sockaddr(path, addr)) return Fd();
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    Fd fd(::socket(AF_UNIX, SOCK_SEQPACKET | SOCK_CLOEXEC, 0));
    if (!fd.valid()) return Fd();
    if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
               sizeof addr) == 0) {
      if (::listen(fd.get(), backlog) == 0) return fd;
      return Fd();
    }
    if (errno != EADDRINUSE) return Fd();
    // A stale socket file from a dead previous run: remove it and rebind.
    ::unlink(path.c_str());
    sleep_ms(10);
  }
  return Fd();
}

Fd uds_connect(const std::string& path, int max_attempts, int backoff_ms) {
  sockaddr_un addr{};
  if (!fill_sockaddr(path, addr)) return Fd();
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    Fd fd(::socket(AF_UNIX, SOCK_SEQPACKET | SOCK_CLOEXEC, 0));
    if (!fd.valid()) return Fd();
    if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) == 0) {
      return fd;
    }
    // The parent may not have bound/listened yet (slow spawn): back off and
    // retry on the errors that mean "not up yet", fail fast otherwise.
    if (errno != ENOENT && errno != ECONNREFUSED && errno != EAGAIN)
      return Fd();
    sleep_ms(backoff_ms);
  }
  return Fd();
}

Fd uds_accept(int listen_fd, int timeout_ms) {
  pollfd pfd{listen_fd, POLLIN, 0};
  for (;;) {
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc < 0 && errno == EINTR) continue;
    if (rc <= 0) return Fd();  // timeout or poll error
    const int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0 && (errno == EINTR || errno == EAGAIN)) continue;
    return Fd(fd);
  }
}

RecvStatus recv_frame(int fd, RecvBuffer& buf, int timeout_ms) {
  pollfd pfd{fd, POLLIN, 0};
  for (;;) {
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc < 0 && errno == EINTR) continue;
    if (rc == 0) return RecvStatus::kTimeout;
    if (rc < 0) return RecvStatus::kError;
    const ssize_t n = ::recv(fd, buf.bytes_.get(), kMaxFrameBytes, 0);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      return RecvStatus::kError;
    }
    if (n == 0) return RecvStatus::kClosed;
    buf.size_ = static_cast<std::size_t>(n);
    return RecvStatus::kFrame;
  }
}

bool send_frame(int fd, std::span<const std::uint8_t> frame, int timeout_ms) {
  for (;;) {
    const int rc = try_send_frame(fd, frame);
    if (rc > 0) return true;
    if (rc < 0) return false;
    pollfd pfd{fd, POLLOUT, 0};
    const int prc = ::poll(&pfd, 1, timeout_ms);
    if (prc < 0 && errno == EINTR) continue;
    if (prc <= 0) return false;  // deadline: the peer is stuck
  }
}

int try_send_frame(int fd, std::span<const std::uint8_t> frame) {
  // SEQPACKET datagrams are all-or-nothing: no partial-send bookkeeping.
  const ssize_t n =
      ::send(fd, frame.data(), frame.size(), MSG_DONTWAIT | MSG_NOSIGNAL);
  if (n >= 0) {
    RDTGC_ASSERT(static_cast<std::size_t>(n) == frame.size());
    return 1;
  }
  if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
  if (errno == EINTR) return 0;  // retried on the next flush
  return -1;
}

UdsTransport::UdsTransport(int fd, ProcessId self, std::uint32_t incarnation)
    : fd_(fd), self_(self), incarnation_(incarnation) {
  RDTGC_EXPECTS(fd >= 0 && self >= 0);
}

void UdsTransport::connect(ProcessId p, DeliveryFn sink) {
  RDTGC_EXPECTS(p == self_);  // a worker endpoint serves exactly its process
  RDTGC_EXPECTS(sink != nullptr);
  RDTGC_EXPECTS(sink_ == nullptr);
  sink_ = std::move(sink);
}

void UdsTransport::disconnect(ProcessId p) {
  RDTGC_EXPECTS(p == self_);
  sink_ = nullptr;
}

sim::MessageId UdsTransport::send(sim::Message m) {
  RDTGC_EXPECTS(m.src == self_ && m.dst >= 0 && m.dst != self_);
  data_scratch_.send_interval = m.send_interval;
  data_scratch_.bytes = m.bytes;
  data_scratch_.dv.assign(m.dv.entries().begin(), m.dv.entries().end());
  data_scratch_.control.assign(m.control.begin(), m.control.end());
  FrameMeta meta;
  meta.src = self_;
  meta.dst = m.dst;
  meta.incarnation = incarnation_;
  meta.seq = next_seq();
  encode_data(scratch_, meta, data_scratch_);
  enqueue_frame(scratch_);
  flush();  // opportunistic; never blocks
  recycled_ = std::move(m);  // hand the DV buffer back to the next sender
  return recycled_.id;
}

sim::Message UdsTransport::make_message() {
  sim::Message m;
  m.dv = std::move(recycled_.dv);
  m.control = std::move(recycled_.control);
  m.control.clear();  // capacity survives; stale words must not
  return m;
}

void UdsTransport::deliver(sim::Message m) {
  RDTGC_EXPECTS(sink_ != nullptr && m.dst == self_);
  sink_(m);
  recycled_ = std::move(m);
}

void UdsTransport::enqueue_frame(const WireBuffer& frame) {
  WireBuffer slot;
  if (!spare_.empty()) {
    slot = std::move(spare_.front());
    spare_.pop_front();
  }
  slot.assign(frame.begin(), frame.end());
  out_.push_back(std::move(slot));
}

bool UdsTransport::flush() {
  while (!out_.empty()) {
    const int rc = try_send_frame(fd_, out_.front());
    if (rc == 0) return true;  // backpressure: keep buffering
    if (rc < 0) return false;
    spare_.push_back(std::move(out_.front()));
    out_.pop_front();
  }
  return true;
}

bool UdsTransport::flush_blocking(int timeout_ms) {
  while (!out_.empty()) {
    if (!send_frame(fd_, out_.front(), timeout_ms)) return false;
    spare_.push_back(std::move(out_.front()));
    out_.pop_front();
  }
  return true;
}

}  // namespace rdtgc::transport
