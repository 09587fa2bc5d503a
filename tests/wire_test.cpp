// Wire-format property tests (ISSUE satellite: serialization hardening).
//
// Four layers:
//  1. exact round-trips of every frame kind, including the edge vectors the
//     fleet will actually produce (empty DV, single entry, kMaxWireProcesses
//     entries, INT32_MAX / negative indices);
//  2. structured corruption — every truncation prefix, trailing bytes,
//     patched magic/version/kind/length/count fields — must produce the
//     documented WireError, never kOk and never UB (the CI ASan/UBSan leg
//     runs this test under sanitizers);
//  3. fuzz — random garbage buffers and random bit-flips of valid frames
//     must decode without crashing;
//  4. the socket receive path — recv_frame over a SEQPACKET socketpair
//     yields exactly each datagram's bytes from a buffer that is never
//     cleared, and decodes in place.
//
// The event-log line codec gets the same round-trip + malformed-line
// treatment: it is the artifact a chaos failure leaves behind, so a parser
// crash would destroy the evidence.
#include <sys/socket.h>

#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "transport/event_log.hpp"
#include "transport/uds.hpp"
#include "transport/wire.hpp"

namespace rdtgc::transport {
namespace {

FrameMeta meta(ProcessId src, ProcessId dst, std::uint32_t inc,
               std::uint64_t seq) {
  FrameMeta m;
  m.src = src;
  m.dst = dst;
  m.incarnation = inc;
  m.seq = seq;
  return m;
}

void expect_header(const DecodedFrame& f, FrameKind kind, const FrameMeta& m) {
  EXPECT_EQ(f.header.kind(), kind);
  EXPECT_EQ(f.header.src, m.src);
  EXPECT_EQ(f.header.dst, m.dst);
  EXPECT_EQ(f.header.incarnation, m.incarnation);
  EXPECT_EQ(f.header.seq, m.seq);
}

/// DVs that exercise the vector codec's corners.
std::vector<std::vector<IntervalIndex>> edge_dvs() {
  return {
      {},
      {0},
      {1, 0, 7},
      {std::numeric_limits<IntervalIndex>::max(), 0,
       std::numeric_limits<IntervalIndex>::max()},
      {-1, -2147483647, 5},  // kNoCheckpoint-style sentinels survive
      std::vector<IntervalIndex>(kMaxWireProcesses, 42),
  };
}

TEST(WireRoundTrip, HelloAllEdgeVectors) {
  WireBuffer buf;
  DecodedFrame f;
  for (const auto& dv : edge_dvs()) {
    HelloBody b;
    b.last_index = 123;
    b.dv = dv;
    const FrameMeta m = meta(3, -1, 7, 99);
    encode_hello(buf, m, b);
    ASSERT_EQ(decode_frame(buf, f), WireError::kOk);
    expect_header(f, FrameKind::kHello, m);
    EXPECT_EQ(f.hello.last_index, 123);
    EXPECT_EQ(f.hello.dv, dv);
  }
}

TEST(WireRoundTrip, Data) {
  WireBuffer buf;
  DecodedFrame f;
  DataBody b;
  b.send_interval = 17;
  b.bytes = 0xDEADBEEFCAFEULL;
  b.dv = {4, 17, 0, 2};
  const FrameMeta m = meta(1, 2, 0, 5);
  encode_data(buf, m, b);
  ASSERT_EQ(decode_frame(buf, f), WireError::kOk);
  expect_header(f, FrameKind::kData, m);
  EXPECT_EQ(f.data.send_interval, 17);
  EXPECT_EQ(f.data.bytes, 0xDEADBEEFCAFEULL);
  EXPECT_EQ(f.data.dv, b.dv);
  EXPECT_TRUE(f.data.control.empty());
}

TEST(WireRoundTrip, DataControlWordEdgeVectors) {
  // The protocol payload: every control-width corner the zoo produces —
  // none (DV-only family), one word (BCS/FI), n+1 (FINE), and the wire cap.
  WireBuffer buf;
  DecodedFrame f;
  for (const auto& control : std::vector<std::vector<std::uint32_t>>{
           {},
           {0},
           {0xFFFFFFFFu},
           {7, 0, 1, 2, 3},
           std::vector<std::uint32_t>(kMaxControlWords, 0xA5A5A5A5u),
       }) {
    DataBody b;
    b.send_interval = 3;
    b.bytes = 11;
    b.dv = {1, 2, 3};
    b.control = control;
    const FrameMeta m = meta(0, 2, 1, 9);
    encode_data(buf, m, b);
    ASSERT_EQ(decode_frame(buf, f), WireError::kOk)
        << control.size() << " control words";
    expect_header(f, FrameKind::kData, m);
    EXPECT_EQ(f.data.dv, b.dv);
    EXPECT_EQ(f.data.control, control);
  }
}

TEST(WireRoundTrip, RecvAck) {
  WireBuffer buf;
  DecodedFrame f;
  RecvAckBody b;
  b.msg_src = 2;
  b.msg_incarnation = 3;
  b.msg_seq = 0xFFFFFFFFFFFFULL;
  b.recv_interval = 9;
  b.forced = 1;
  b.dv_after = {1, 2, 3, 4};
  const FrameMeta m = meta(0, -1, 1, 12);
  encode_recv_ack(buf, m, b);
  ASSERT_EQ(decode_frame(buf, f), WireError::kOk);
  expect_header(f, FrameKind::kRecvAck, m);
  EXPECT_EQ(f.recv_ack.msg_src, 2);
  EXPECT_EQ(f.recv_ack.msg_incarnation, 3u);
  EXPECT_EQ(f.recv_ack.msg_seq, 0xFFFFFFFFFFFFULL);
  EXPECT_EQ(f.recv_ack.recv_interval, 9);
  EXPECT_EQ(f.recv_ack.forced, 1);
  EXPECT_EQ(f.recv_ack.dv_after, b.dv_after);
}

TEST(WireRoundTrip, CheckpointCmdCmdDoneState) {
  WireBuffer buf;
  DecodedFrame f;

  CheckpointBody ck;
  ck.index = 7;
  ck.kind = 2;
  ck.dv = {7, 0, 1};
  encode_checkpoint(buf, meta(2, -1, 0, 8), ck);
  ASSERT_EQ(decode_frame(buf, f), WireError::kOk);
  EXPECT_EQ(f.checkpoint.index, 7);
  EXPECT_EQ(f.checkpoint.kind, 2);
  EXPECT_EQ(f.checkpoint.dv, ck.dv);

  CmdBody cmd;
  cmd.op = static_cast<std::uint8_t>(CmdOp::kSendApp);
  cmd.target = 3;
  cmd.param = 1024;
  encode_cmd(buf, meta(-1, 2, 1, 44), cmd);
  ASSERT_EQ(decode_frame(buf, f), WireError::kOk);
  EXPECT_EQ(f.cmd.op, cmd.op);
  EXPECT_EQ(f.cmd.target, 3);
  EXPECT_EQ(f.cmd.param, 1024u);

  CmdDoneBody done;
  done.op = static_cast<std::uint8_t>(CmdOp::kQuiesce);
  done.cmd_seq = 44;
  encode_cmd_done(buf, meta(2, -1, 1, 45), done);
  ASSERT_EQ(decode_frame(buf, f), WireError::kOk);
  EXPECT_EQ(f.cmd_done.op, done.op);
  EXPECT_EQ(f.cmd_done.cmd_seq, 44u);

  StateBody st;
  st.last_index = 12;
  st.basic = 5;
  st.forced = 3;
  st.sent = 40;
  st.received = 38;
  st.rollbacks = 0;
  st.dv = {13, 9, 11, 2};
  st.stored = {0, 7, 11, 12};
  encode_state(buf, meta(1, -1, 2, 99), st);
  ASSERT_EQ(decode_frame(buf, f), WireError::kOk);
  EXPECT_EQ(f.state.last_index, 12);
  EXPECT_EQ(f.state.basic, 5u);
  EXPECT_EQ(f.state.forced, 3u);
  EXPECT_EQ(f.state.sent, 40u);
  EXPECT_EQ(f.state.received, 38u);
  EXPECT_EQ(f.state.rollbacks, 0u);
  EXPECT_EQ(f.state.dv, st.dv);
  EXPECT_EQ(f.state.stored, st.stored);
}

TEST(WireRoundTrip, RecoveryStartAllEdgeVectors) {
  WireBuffer buf;
  DecodedFrame f;
  for (const auto& dv : edge_dvs()) {
    RecoveryStartBody b;
    b.session = 0xFEEDFACE12345678ULL;
    b.attempt = 3;
    b.li = dv;
    b.line = dv;
    const FrameMeta m = meta(-1, 2, 1, 17);
    encode_recovery_start(buf, m, b);
    ASSERT_EQ(decode_frame(buf, f), WireError::kOk);
    expect_header(f, FrameKind::kRecoveryStart, m);
    EXPECT_EQ(f.recovery_start.session, b.session);
    EXPECT_EQ(f.recovery_start.attempt, 3u);
    EXPECT_EQ(f.recovery_start.li, dv);
    EXPECT_EQ(f.recovery_start.line, dv);
  }
}

TEST(WireRoundTrip, RolledBackAllEdgeVectors) {
  WireBuffer buf;
  DecodedFrame f;
  for (const auto& dv : edge_dvs()) {
    RolledBackBody b;
    b.session = 7;
    b.attempt = 0xFFFFFFFFu;
    b.rolled = 1;
    b.last_index = std::numeric_limits<CheckpointIndex>::max();
    b.dv = dv;
    b.stored = {0, 1, 2};
    const FrameMeta m = meta(1, -1, 2, 55);
    encode_rolled_back(buf, m, b);
    ASSERT_EQ(decode_frame(buf, f), WireError::kOk);
    expect_header(f, FrameKind::kRolledBack, m);
    EXPECT_EQ(f.rolled_back.session, 7u);
    EXPECT_EQ(f.rolled_back.attempt, 0xFFFFFFFFu);
    EXPECT_EQ(f.rolled_back.rolled, 1);
    EXPECT_EQ(f.rolled_back.last_index,
              std::numeric_limits<CheckpointIndex>::max());
    EXPECT_EQ(f.rolled_back.dv, dv);
    EXPECT_EQ(f.rolled_back.stored, b.stored);
  }
}

// ---- Structured corruption ------------------------------------------------

WireBuffer sample_frame() {
  WireBuffer buf;
  RecvAckBody b;
  b.msg_src = 1;
  b.msg_incarnation = 2;
  b.msg_seq = 3;
  b.recv_interval = 4;
  b.forced = 0;
  b.dv_after = {5, 6, 7};
  encode_recv_ack(buf, meta(0, -1, 2, 10), b);
  return buf;
}

void patch_u32(WireBuffer& buf, std::size_t offset, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    buf[offset + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(v >> (8 * i));
}

TEST(WireReject, EveryTruncationPrefix) {
  const WireBuffer frame = sample_frame();
  DecodedFrame f;
  for (std::size_t len = 0; len < frame.size(); ++len) {
    const std::span<const std::uint8_t> prefix(frame.data(), len);
    const WireError err = decode_frame(prefix, f);
    EXPECT_NE(err, WireError::kOk) << "prefix length " << len;
    // A prefix shorter than one header is kTooShort; past that the header's
    // redundant length field catches the cut.
    if (len < kWireHeaderBytes)
      EXPECT_EQ(err, WireError::kTooShort) << "prefix length " << len;
    else
      EXPECT_EQ(err, WireError::kBadLength) << "prefix length " << len;
  }
}

TEST(WireReject, TruncatedPayloadWithPatchedLength) {
  // Re-seal the length so the cut is invisible to the header check: the
  // payload decoder itself must detect the missing bytes.
  const WireBuffer frame = sample_frame();
  DecodedFrame f;
  for (std::size_t len = kWireHeaderBytes; len < frame.size(); ++len) {
    WireBuffer cut(frame.begin(),
                   frame.begin() + static_cast<std::ptrdiff_t>(len));
    patch_u32(cut, 4, static_cast<std::uint32_t>(cut.size()));
    EXPECT_EQ(decode_frame(cut, f), WireError::kTruncated)
        << "patched prefix length " << len;
  }
}

TEST(WireReject, TrailingBytesWithPatchedLength) {
  WireBuffer frame = sample_frame();
  frame.push_back(0xAB);
  frame.push_back(0xCD);
  patch_u32(frame, 4, static_cast<std::uint32_t>(frame.size()));
  DecodedFrame f;
  EXPECT_EQ(decode_frame(frame, f), WireError::kTrailing);
}

TEST(WireReject, AppendedBytesWithoutPatchedLength) {
  WireBuffer frame = sample_frame();
  frame.push_back(0x00);
  DecodedFrame f;
  EXPECT_EQ(decode_frame(frame, f), WireError::kBadLength);
}

TEST(WireReject, BadMagicVersionKind) {
  DecodedFrame f;
  WireBuffer frame = sample_frame();
  patch_u32(frame, 0, 0x12345678);
  EXPECT_EQ(decode_frame(frame, f), WireError::kBadMagic);

  frame = sample_frame();
  frame[8] = 0x7F;  // version low byte
  EXPECT_EQ(decode_frame(frame, f), WireError::kBadVersion);

  frame = sample_frame();
  frame[10] = 0x7F;  // kind low byte -> unknown FrameKind
  EXPECT_EQ(decode_frame(frame, f), WireError::kBadKind);
}

// ---- Version ---------------------------------------------------------------

WireBuffer recovery_start_frame() {
  WireBuffer buf;
  RecoveryStartBody b;
  b.session = 1;
  b.attempt = 0;
  b.li = {1, 0, 3};
  b.line = {0, 0, 2};
  encode_recovery_start(buf, meta(-1, 1, 0, 20), b);
  return buf;
}

WireBuffer rolled_back_frame() {
  WireBuffer buf;
  RolledBackBody b;
  b.session = 1;
  b.attempt = 0;
  b.rolled = 1;
  b.last_index = 2;
  b.dv = {1, 3, 0};
  b.stored = {0, 1, 2};
  encode_rolled_back(buf, meta(1, -1, 0, 21), b);
  return buf;
}

// The decoder accepts kWireVersion only: every older version (the pre-
// recovery v1 and the pre-control-word v2 included) and every future one is
// kBadVersion, whatever the kind.
TEST(WireCompat, VersionZeroAndFutureRejected) {
  DecodedFrame f;
  for (const WireBuffer& valid :
       {sample_frame(), recovery_start_frame(), rolled_back_frame()}) {
    for (const int version : {0, 1, 2, kWireVersion + 1}) {
      WireBuffer frame = valid;
      frame[8] = static_cast<std::uint8_t>(version);  // version low byte
      EXPECT_EQ(decode_frame(frame, f), WireError::kBadVersion)
          << "version " << version;
    }
  }
}

TEST(WireCompat, EncodersStampCurrentVersion) {
  for (const WireBuffer& frame :
       {sample_frame(), recovery_start_frame(), rolled_back_frame()}) {
    const std::uint16_t version = static_cast<std::uint16_t>(
        frame[8] | (static_cast<std::uint16_t>(frame[9]) << 8));
    EXPECT_EQ(version, kWireVersion);
  }
}

// ---- Structured corruption of the recovery frames -------------------------

TEST(WireReject, RecoveryFrameEveryTruncationPrefix) {
  DecodedFrame f;
  for (const WireBuffer& frame :
       {recovery_start_frame(), rolled_back_frame()}) {
    for (std::size_t len = 0; len < frame.size(); ++len) {
      const std::span<const std::uint8_t> prefix(frame.data(), len);
      EXPECT_NE(decode_frame(prefix, f), WireError::kOk)
          << "prefix length " << len;
      // Re-seal the length so the payload decoder itself must catch it.
      if (len >= kWireHeaderBytes) {
        WireBuffer cut(frame.begin(),
                       frame.begin() + static_cast<std::ptrdiff_t>(len));
        patch_u32(cut, 4, static_cast<std::uint32_t>(cut.size()));
        EXPECT_EQ(decode_frame(cut, f), WireError::kTruncated)
            << "patched prefix length " << len;
      }
    }
  }
}

TEST(WireReject, RecoveryStartTamperedLiCount) {
  // RecoveryStart payload: u64 session, u32 attempt, then the LI count.
  const std::size_t li_count_at = kWireHeaderBytes + 12;
  DecodedFrame f;
  WireBuffer frame = recovery_start_frame();
  patch_u32(frame, li_count_at,
            static_cast<std::uint32_t>(kMaxWireProcesses) + 1);
  EXPECT_EQ(decode_frame(frame, f), WireError::kOverlong);

  // A count that makes the LI vector swallow every remaining byte leaves
  // nothing for the line vector's count: kTruncated.
  frame = recovery_start_frame();
  patch_u32(frame, li_count_at, 7);
  EXPECT_EQ(decode_frame(frame, f), WireError::kTruncated);

  // Off-by-a-little counts shift the field boundaries; whatever the
  // misparse, it must surface as an error, never a silent reinterpretation.
  for (const std::uint32_t count : {2u, 4u, 5u}) {
    frame = recovery_start_frame();
    patch_u32(frame, li_count_at, count);
    EXPECT_NE(decode_frame(frame, f), WireError::kOk) << "count " << count;
  }

  // Overflow-proof: count * 4 wraps 32 bits.
  frame = recovery_start_frame();
  patch_u32(frame, li_count_at, 0xFFFFFFFFu);
  EXPECT_EQ(decode_frame(frame, f), WireError::kOverlong);
}

TEST(WireReject, RolledBackTamperedDvCount) {
  // RolledBack payload: u64 session, u32 attempt, u8 rolled, i32 last.
  const std::size_t dv_count_at = kWireHeaderBytes + 17;
  DecodedFrame f;
  WireBuffer frame = rolled_back_frame();
  patch_u32(frame, dv_count_at,
            static_cast<std::uint32_t>(kMaxWireProcesses) + 1);
  EXPECT_EQ(decode_frame(frame, f), WireError::kOverlong);

  frame = rolled_back_frame();
  patch_u32(frame, dv_count_at, 0xFFFFFFFFu);
  EXPECT_EQ(decode_frame(frame, f), WireError::kOverlong);

  frame = rolled_back_frame();
  patch_u32(frame, dv_count_at, 6);
  EXPECT_EQ(decode_frame(frame, f), WireError::kTruncated);
}

TEST(WireReject, OverlongVectorCount) {
  // RecvAck payload: i32 msg_src, u32 msg_inc, u64 msg_seq, i32 ri, u8
  // forced, then the dv count at header + 21.
  WireBuffer frame = sample_frame();
  patch_u32(frame, kWireHeaderBytes + 21,
            static_cast<std::uint32_t>(kMaxWireProcesses) + 1);
  DecodedFrame f;
  EXPECT_EQ(decode_frame(frame, f), WireError::kOverlong);
}

TEST(WireReject, HugeCountDoesNotOverflow) {
  // count * 4 would wrap a 32-bit size; the decoder must still reject.
  WireBuffer frame = sample_frame();
  patch_u32(frame, kWireHeaderBytes + 21, 0xFFFFFFFFu);
  DecodedFrame f;
  EXPECT_EQ(decode_frame(frame, f), WireError::kOverlong);
}

WireBuffer data_control_frame() {
  WireBuffer buf;
  DataBody b;
  b.send_interval = 2;
  b.bytes = 64;
  b.dv = {1, 2, 3};
  b.control = {7, 8};
  encode_data(buf, meta(2, 0, 1, 12), b);
  return buf;
}

TEST(WireReject, DataTamperedControlCount) {
  // Data payload: i32 send_interval, u64 bytes, dv count + entries, then
  // the control count.
  const std::size_t control_count_at = kWireHeaderBytes + 16 + 4 * 3;
  DecodedFrame f;
  WireBuffer frame = data_control_frame();
  ASSERT_EQ(decode_frame(frame, f), WireError::kOk);  // offset sanity

  frame = data_control_frame();
  patch_u32(frame, control_count_at,
            static_cast<std::uint32_t>(kMaxControlWords) + 1);
  EXPECT_EQ(decode_frame(frame, f), WireError::kOverlong);

  // Overflow-proof: count * 4 wraps 32 bits.
  frame = data_control_frame();
  patch_u32(frame, control_count_at, 0xFFFFFFFFu);
  EXPECT_EQ(decode_frame(frame, f), WireError::kOverlong);

  // Claims more words than the frame holds.
  frame = data_control_frame();
  patch_u32(frame, control_count_at, 3);
  EXPECT_EQ(decode_frame(frame, f), WireError::kTruncated);

  // Claims fewer: the surplus word is trailing garbage, not silently kept.
  frame = data_control_frame();
  patch_u32(frame, control_count_at, 1);
  EXPECT_EQ(decode_frame(frame, f), WireError::kTrailing);

  // The control section is mandatory: a frame cut right after the DV, its
  // length re-sealed, lacks the count.
  frame = data_control_frame();
  frame.resize(control_count_at);
  patch_u32(frame, 4, static_cast<std::uint32_t>(frame.size()));
  EXPECT_EQ(decode_frame(frame, f), WireError::kTruncated);
}

TEST(WireReject, OverMaxFrameBytes) {
  WireBuffer frame(kMaxFrameBytes + 1, 0);
  DecodedFrame f;
  EXPECT_EQ(decode_frame(frame, f), WireError::kBadLength);
}

// ---- Fuzz -----------------------------------------------------------------

TEST(WireFuzz, RandomGarbageNeverCrashes) {
  std::mt19937_64 rng(20260808);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<std::size_t> len(0, 512);
  DecodedFrame f;
  for (int iter = 0; iter < 5000; ++iter) {
    WireBuffer buf(len(rng));
    for (auto& b : buf) b = static_cast<std::uint8_t>(byte(rng));
    (void)decode_frame(buf, f);  // any WireError is fine; UB is not
  }
}

TEST(WireFuzz, BitFlippedValidFramesNeverCrash) {
  // Corpus: a RecvAck frame, both recovery-session frames, and a
  // control-bearing Data frame, so the mutations reach every vector field
  // the decoder parses.
  const std::vector<WireBuffer> corpus = {
      sample_frame(), recovery_start_frame(), rolled_back_frame(),
      data_control_frame()};
  std::mt19937_64 rng(4242);
  std::uniform_int_distribution<int> byte(0, 255);
  DecodedFrame f;
  for (int iter = 0; iter < 5000; ++iter) {
    WireBuffer frame = corpus[static_cast<std::size_t>(iter) % corpus.size()];
    std::uniform_int_distribution<std::size_t> pos(0, frame.size() - 1);
    const int flips = 1 + iter % 4;
    for (int k = 0; k < flips; ++k)
      frame[pos(rng)] = static_cast<std::uint8_t>(byte(rng));
    (void)decode_frame(frame, f);
  }
}

TEST(WireFuzz, RandomFramesRoundTrip) {
  std::mt19937_64 rng(777);
  std::uniform_int_distribution<IntervalIndex> entry(
      std::numeric_limits<IntervalIndex>::min(),
      std::numeric_limits<IntervalIndex>::max());
  std::uniform_int_distribution<std::size_t> width(0, 64);
  WireBuffer buf;
  DecodedFrame f;
  for (int iter = 0; iter < 2000; ++iter) {
    DataBody b;
    b.send_interval = entry(rng);
    b.bytes = rng();
    b.dv.resize(width(rng));
    for (auto& x : b.dv) x = entry(rng);
    b.control.resize(width(rng));
    for (auto& x : b.control) x = static_cast<std::uint32_t>(rng());
    const FrameMeta m = meta(static_cast<ProcessId>(rng() % 4096),
                             static_cast<ProcessId>(rng() % 4096),
                             static_cast<std::uint32_t>(rng()), rng());
    encode_data(buf, m, b);
    ASSERT_EQ(decode_frame(buf, f), WireError::kOk);
    expect_header(f, FrameKind::kData, m);
    EXPECT_EQ(f.data.send_interval, b.send_interval);
    EXPECT_EQ(f.data.bytes, b.bytes);
    ASSERT_EQ(f.data.dv, b.dv);
    ASSERT_EQ(f.data.control, b.control);
  }
}

// ---- Event-log line codec -------------------------------------------------

TEST(EventLogLines, RoundTripEveryKind) {
  std::vector<Event> events;
  {
    Event e;
    e.kind = EventKind::kAttach;
    e.p = 2;
    e.incarnation = 3;
    e.index = 9;
    e.dv = {10, 4, 9, 0};
    events.push_back(e);
  }
  {
    Event e;
    e.kind = EventKind::kSend;
    e.src = 1;
    e.src_incarnation = 0;
    e.seq = 17;
    e.dst = 3;
    e.interval = 5;
    e.bytes = 128;
    e.dv = {2, 5, 1, 0};
    events.push_back(e);
  }
  {
    Event e;
    e.kind = EventKind::kDeliver;
    e.dst = 3;
    e.incarnation = 1;
    e.src = 1;
    e.src_incarnation = 0;
    e.seq = 17;
    e.interval = 6;
    e.forced = 1;
    e.dv = {2, 5, 1, 6};
    events.push_back(e);
  }
  {
    Event e;
    e.kind = EventKind::kCheckpoint;
    e.p = 0;
    e.incarnation = 0;
    e.index = 4;
    e.ckpt_kind = 2;
    e.dv = {4, 1, 0, 0};
    events.push_back(e);
  }
  {
    Event e;
    e.kind = EventKind::kKill;
    e.p = 2;
    events.push_back(e);
  }
  {
    Event e;
    e.kind = EventKind::kUncleanKill;
    e.p = 1;
    e.seq = 17;  // the event's own index — the first uncertifiable position
    events.push_back(e);
  }
  {
    Event e;
    e.kind = EventKind::kRecoveryStart;
    e.session = 2;
    e.attempt = 1;
    e.faulty = {1, 3};
    e.li = {0, 3, 2, 1};
    e.line = {0, 2, 2, 0};
    events.push_back(e);
  }
  {
    Event e;
    e.kind = EventKind::kRolledBack;
    e.p = 3;
    e.incarnation = 2;
    e.session = 2;
    e.attempt = 1;
    e.forced = 1;  // rolled flag
    e.index = 2;
    e.dv = {0, 1, 0, 3};
    e.stored = {0, 1, 2};
    events.push_back(e);
  }
  {
    Event e;
    e.kind = EventKind::kDrop;
    e.src = 0;
    e.src_incarnation = 2;
    e.seq = 33;
    e.dst = 2;
    events.push_back(e);
  }
  {
    Event e;
    e.kind = EventKind::kState;
    e.p = 3;
    e.incarnation = 2;
    e.index = 11;
    e.basic = 4;
    e.forced_count = 2;
    e.sent = 19;
    e.received = 18;
    e.rollbacks = 0;
    e.dv = {7, 3, 9, 12};
    e.stored = {0, 8, 11};
    events.push_back(e);
  }
  for (const Event& e : events) {
    const std::string line = event_to_line(e);
    Event back;
    ASSERT_TRUE(event_from_line(line, back)) << line;
    EXPECT_EQ(event_to_line(back), line);
    EXPECT_EQ(back.kind, e.kind);
    EXPECT_EQ(back.dv, e.dv);
    EXPECT_EQ(back.stored, e.stored);
    EXPECT_EQ(back.seq, e.seq);
  }
}

TEST(EventLogLines, EmptyDvRoundTrips) {
  Event e;
  e.kind = EventKind::kAttach;
  e.p = 0;
  e.incarnation = 0;
  e.index = 0;
  e.dv = {};
  Event back;
  ASSERT_TRUE(event_from_line(event_to_line(e), back));
  EXPECT_TRUE(back.dv.empty());
}

TEST(EventLogLines, MalformedLinesRejected) {
  Event out;
  EXPECT_FALSE(event_from_line("", out));
  EXPECT_FALSE(event_from_line("bogus p=1", out));
  EXPECT_FALSE(event_from_line("kill", out));               // missing field
  EXPECT_FALSE(event_from_line("kill q=1", out));           // wrong key
  EXPECT_FALSE(event_from_line("kill p=x", out));           // not a number
  EXPECT_FALSE(event_from_line("kill p=1 extra=2", out));   // trailing token
  EXPECT_FALSE(event_from_line("attach p=1 inc=0 last=0", out));  // short
  EXPECT_FALSE(event_from_line("ukill p=1", out));          // missing at=
  EXPECT_FALSE(event_from_line("rstart session=1 attempt=0 faulty=1", out));
  EXPECT_FALSE(event_from_line(
      "rstart session=1 attempt=x faulty=1 li=0,1 line=0,0", out));
  EXPECT_FALSE(event_from_line(
      "rback p=1 inc=0 session=1 attempt=0 rolled=1 last=2 dv=1,2", out));
}

TEST(EventLogLines, FuzzedLinesNeverCrash) {
  std::mt19937_64 rng(99);
  std::uniform_int_distribution<int> ch(32, 126);
  std::uniform_int_distribution<std::size_t> len(0, 120);
  Event out;
  for (int iter = 0; iter < 5000; ++iter) {
    std::string line(len(rng), ' ');
    for (auto& c : line) c = static_cast<char>(ch(rng));
    (void)event_from_line(line, out);
  }
}

// ---- Socket receive path ---------------------------------------------------

/// A connected SOCK_SEQPACKET pair: `tx` sends, `rx` receives.
struct SeqPacketPair {
  Fd tx;
  Fd rx;
  SeqPacketPair() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_SEQPACKET | SOCK_CLOEXEC, 0, fds), 0);
    tx = Fd(fds[0]);
    rx = Fd(fds[1]);
  }
};

WireBuffer pattern_bytes(std::size_t n, std::uint8_t salt) {
  WireBuffer bytes(n);
  for (std::size_t i = 0; i < n; ++i)
    bytes[i] = static_cast<std::uint8_t>(i * 7 + salt);
  return bytes;
}

std::vector<std::uint8_t> received(const RecvBuffer& buf) {
  return {buf.frame().begin(), buf.frame().end()};
}

TEST(Uds, RecvFrameSpansExactlyEachDatagramAfterALargerOne) {
  SeqPacketPair pair;
  ASSERT_TRUE(pair.tx.valid() && pair.rx.valid());
  RecvBuffer buf;
  EXPECT_TRUE(buf.frame().empty());
  // Largest first: a buffer that is never cleared still holds its tail, so
  // each shorter frame must come back with its own length, not a stale one.
  for (const WireBuffer& sent :
       {pattern_bytes(64 * 1024, 1), pattern_bytes(40, 2),
        pattern_bytes(kWireHeaderBytes, 3)}) {
    ASSERT_TRUE(send_frame(pair.tx.get(), sent, 1000));
    ASSERT_EQ(recv_frame(pair.rx.get(), buf, 1000), RecvStatus::kFrame);
    EXPECT_EQ(buf.frame().size(), sent.size());
    EXPECT_EQ(received(buf), sent);
  }
}

TEST(Uds, DecodeFromTheReceivedSpanRoundTripsADataFrame) {
  SeqPacketPair pair;
  ASSERT_TRUE(pair.tx.valid() && pair.rx.valid());
  RecvBuffer buf;
  const WireBuffer large = pattern_bytes(4096, 5);
  ASSERT_TRUE(send_frame(pair.tx.get(), large, 1000));
  ASSERT_EQ(recv_frame(pair.rx.get(), buf, 1000), RecvStatus::kFrame);

  DataBody b;
  b.send_interval = 11;
  b.bytes = 1234;
  b.dv = {3, 11, 0, 7};
  b.control = {1, 2};
  const FrameMeta m = meta(1, 2, 4, 99);
  WireBuffer frame;
  encode_data(frame, m, b);
  ASSERT_LT(frame.size(), large.size());
  ASSERT_TRUE(send_frame(pair.tx.get(), frame, 1000));
  ASSERT_EQ(recv_frame(pair.rx.get(), buf, 1000), RecvStatus::kFrame);
  DecodedFrame f;
  ASSERT_EQ(decode_frame(buf.frame(), f), WireError::kOk);
  expect_header(f, FrameKind::kData, m);
  EXPECT_EQ(f.data.send_interval, b.send_interval);
  EXPECT_EQ(f.data.bytes, b.bytes);
  EXPECT_EQ(f.data.dv, b.dv);
  EXPECT_EQ(f.data.control, b.control);
}

TEST(Uds, EmptySocketWithZeroTimeoutReportsTimeout) {
  SeqPacketPair pair;
  ASSERT_TRUE(pair.tx.valid() && pair.rx.valid());
  RecvBuffer buf;
  EXPECT_EQ(recv_frame(pair.rx.get(), buf, 0), RecvStatus::kTimeout);
}

TEST(Uds, ClosedPeerReportsClosed) {
  SeqPacketPair pair;
  ASSERT_TRUE(pair.tx.valid() && pair.rx.valid());
  pair.tx.reset();
  RecvBuffer buf;
  EXPECT_EQ(recv_frame(pair.rx.get(), buf, 1000), RecvStatus::kClosed);
}

}  // namespace
}  // namespace rdtgc::transport
