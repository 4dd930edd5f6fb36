// Live-ingestion tests: the CRC-framed wire protocol (round-trip, torn and
// corrupt frames, resynchronization, version/length refusal), deterministic
// reconnect backoff, bounded drop-oldest queueing, replay and live-socket
// transports feeding IngestStream (dedup ledger, reconnects, save/restore),
// and the deep-overlap (K > 1) RealtimeRunner schedule — late batches a K=1
// run drops are applied with age-dependent R inflation, bitwise reproducibly
// across thread counts and through a checkpoint/resume.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "codec_reference.hpp"
#include "common/bytes.hpp"
#include "common/crc32.hpp"
#include "da/etkf.hpp"
#include "models/lorenz96.hpp"
#include "stream/checkpoint.hpp"
#include "stream/ingest/backoff.hpp"
#include "stream/ingest/ingest_queue.hpp"
#include "stream/ingest/ingest_stream.hpp"
#include "stream/ingest/socket_stream.hpp"
#include "stream/ingest/tail_stream.hpp"
#include "stream/ingest/wire.hpp"
#include "stream/realtime_runner.hpp"
#include "stream/synthetic_stream.hpp"

namespace turbda {
namespace {

using models::Lorenz96;
using models::Lorenz96Config;
namespace ingest = stream::ingest;

// --------------------------------------------------------------- fixture ---

std::string temp_path(const std::string& name) { return testing::TempDir() + name; }

/// A small deterministic batch for wire-level tests.
stream::ObsBatch make_batch(int cycle, std::size_t dim = 8) {
  stream::ObsBatch b;
  b.cycle = cycle;
  b.valid_cycles = static_cast<double>(cycle) + 1.0;
  b.arrival_cycles = static_cast<double>(cycle) + 1.0;
  b.y.resize(dim);
  for (std::size_t i = 0; i < dim; ++i)
    b.y[i] = static_cast<double>(cycle) * 100.0 + static_cast<double>(i);
  return b;
}

std::vector<double> make_truth(int cycle, std::size_t dim = 8) {
  std::vector<double> v(dim);
  for (std::size_t i = 0; i < dim; ++i)
    v[i] = static_cast<double>(cycle) * 1000.0 + static_cast<double>(i);
  return v;
}

void expect_batches_equal(const stream::ObsBatch& a, const stream::ObsBatch& b) {
  EXPECT_EQ(a.cycle, b.cycle);
  EXPECT_EQ(a.valid_cycles, b.valid_cycles);
  EXPECT_EQ(a.arrival_cycles, b.arrival_cycles);
  ASSERT_EQ(a.y.size(), b.y.size());
  EXPECT_EQ(0, std::memcmp(a.y.data(), b.y.data(), a.y.size() * sizeof(double)));
}

// ------------------------------------------------------------ wire frames ---

TEST(Wire, RoundTripAllFrameKinds) {
  const auto b = make_batch(7);
  const auto t = make_truth(7);
  std::vector<std::uint8_t> bytes;
  ingest::encode_obs_frame(b, bytes);
  ingest::encode_truth_frame(7, t, bytes);
  ingest::encode_heartbeat_frame(7, 42, bytes);

  ingest::FrameDecoder dec;
  dec.feed(bytes);
  ingest::DecodedFrame f;
  ASSERT_TRUE(dec.next(f));
  ASSERT_EQ(f.kind, ingest::FrameKind::kObs);
  expect_batches_equal(b, f.obs);
  ASSERT_TRUE(dec.next(f));
  ASSERT_EQ(f.kind, ingest::FrameKind::kTruth);
  EXPECT_EQ(f.cycle, 7);
  ASSERT_EQ(f.state.size(), t.size());
  EXPECT_EQ(0, std::memcmp(f.state.data(), t.data(), t.size() * sizeof(double)));
  ASSERT_TRUE(dec.next(f));
  ASSERT_EQ(f.kind, ingest::FrameKind::kHeartbeat);
  EXPECT_EQ(f.cycle, 7);
  EXPECT_EQ(f.seq, 42u);
  EXPECT_FALSE(dec.next(f));
  EXPECT_EQ(dec.stats().frames_decoded, 3u);
  EXPECT_EQ(dec.stats().frames_corrupt, 0u);
  EXPECT_EQ(dec.stats().heartbeats, 1u);
  EXPECT_EQ(dec.buffered(), 0u);
}

TEST(Wire, ByteAtATimeFeedingDecodesIdentically) {
  std::vector<std::uint8_t> bytes;
  for (int w = 0; w < 3; ++w) ingest::encode_obs_frame(make_batch(w), bytes);

  ingest::FrameDecoder dec;
  std::vector<stream::ObsBatch> got;
  ingest::DecodedFrame f;
  for (std::uint8_t byte : bytes) {
    dec.feed({&byte, 1});
    while (dec.next(f)) got.push_back(std::move(f.obs));
  }
  ASSERT_EQ(got.size(), 3u);
  for (int w = 0; w < 3; ++w) expect_batches_equal(make_batch(w), got[static_cast<std::size_t>(w)]);
  EXPECT_EQ(dec.stats().frames_corrupt, 0u);
  EXPECT_EQ(dec.stats().bytes_discarded, 0u);
}

TEST(Wire, CorruptFrameIsSkippedAndDecoderResyncs) {
  std::vector<std::uint8_t> bytes, middle;
  ingest::encode_obs_frame(make_batch(0), bytes);
  ingest::encode_obs_frame(make_batch(1), middle);
  middle[ingest::kWireHeaderBytes + 1] ^= 0xFFu;  // payload damage => CRC fails
  bytes.insert(bytes.end(), middle.begin(), middle.end());
  ingest::encode_obs_frame(make_batch(2), bytes);

  ingest::FrameDecoder dec;
  dec.feed(bytes);
  ingest::DecodedFrame f;
  std::vector<int> cycles;
  while (dec.next(f)) cycles.push_back(f.obs.cycle);
  ASSERT_EQ(cycles.size(), 2u);
  EXPECT_EQ(cycles[0], 0);
  EXPECT_EQ(cycles[1], 2);
  EXPECT_GE(dec.stats().frames_corrupt, 1u);
  EXPECT_GE(dec.stats().frames_resynced, 1u);
  EXPECT_GT(dec.stats().bytes_discarded, 0u);
  EXPECT_EQ(dec.last_error().code(), StatusCode::kCorruptData);
}

TEST(Wire, GarbagePrefixNeverDecodesAndGoodFrameResyncs) {
  std::vector<std::uint8_t> bytes(512);
  for (std::size_t i = 0; i < bytes.size(); ++i)
    bytes[i] = static_cast<std::uint8_t>((i * 7 + 1) % 251);

  ingest::FrameDecoder dec;
  dec.feed(bytes);
  ingest::DecodedFrame f;
  EXPECT_FALSE(dec.next(f));
  EXPECT_EQ(dec.stats().frames_decoded, 0u);
  EXPECT_GT(dec.stats().bytes_discarded, 0u);

  std::vector<std::uint8_t> good;
  ingest::encode_obs_frame(make_batch(3), good);
  dec.feed(good);
  ASSERT_TRUE(dec.next(f));
  expect_batches_equal(make_batch(3), f.obs);
  EXPECT_GE(dec.stats().frames_resynced, 1u);
}

TEST(Wire, FutureFormatVersionIsRefusedNotParsed) {
  std::vector<std::uint8_t> payload;
  payload.push_back(static_cast<std::uint8_t>(ingest::FrameKind::kHeartbeat));
  bytes::put_i32(payload, 5);
  bytes::put_u64(payload, 1);
  std::vector<std::uint8_t> bytes;
  bytes::put_u32(bytes, ingest::kWireMagic);
  bytes::put_u32(bytes, ingest::kWireVersion + 1);
  bytes::put_u64(bytes, payload.size());
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  bytes::put_u32(bytes, crc32(payload));
  ingest::encode_heartbeat_frame(9, 1, bytes);  // good frame behind the bad one

  ingest::FrameDecoder dec;
  dec.feed(bytes);
  ingest::DecodedFrame f;
  ASSERT_TRUE(dec.next(f));
  EXPECT_EQ(f.kind, ingest::FrameKind::kHeartbeat);
  EXPECT_EQ(f.cycle, 9);
  EXPECT_GE(dec.stats().frames_corrupt, 1u);
  EXPECT_EQ(dec.last_error().code(), StatusCode::kUnsupported);
}

TEST(Wire, LyingVectorLengthWithValidCrcIsSkippedAsMalformed) {
  // The frame's CRC is right but its y length claims 2^61 + 1 doubles, so
  // 8 * n wraps to 8: the decoder must count it malformed and move on to the
  // good frame behind it instead of throwing out of next().
  std::vector<std::uint8_t> payload;
  payload.push_back(static_cast<std::uint8_t>(ingest::FrameKind::kObs));
  bytes::put_i32(payload, 2);
  bytes::put_f64(payload, 2.0);
  bytes::put_f64(payload, 2.5);
  bytes::put_u64(payload, (std::uint64_t{1} << 61) + 1);
  bytes::put_f64(payload, 1.0);
  std::vector<std::uint8_t> bytes;
  bytes::put_u32(bytes, ingest::kWireMagic);
  bytes::put_u32(bytes, ingest::kWireVersion);
  bytes::put_u64(bytes, payload.size());
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  bytes::put_u32(bytes, crc32(payload));
  ingest::encode_heartbeat_frame(6, 3, bytes);

  ingest::FrameDecoder dec;
  dec.feed(bytes);
  ingest::DecodedFrame f;
  bool got = false;
  EXPECT_NO_THROW(got = dec.next(f));
  ASSERT_TRUE(got);
  EXPECT_EQ(f.kind, ingest::FrameKind::kHeartbeat);
  EXPECT_EQ(f.cycle, 6);
  EXPECT_EQ(dec.stats().frames_corrupt, 1u);
  EXPECT_EQ(dec.stats().frames_decoded, 1u);
  EXPECT_EQ(dec.last_error().code(), StatusCode::kCorruptData);
  EXPECT_NE(dec.last_error().message().find("malformed"), std::string::npos);
}

TEST(Wire, FramesAreByteIdenticalToTheReferenceEncoding) {
  // Frames encoded in place must equal the version-1 layout built the slow
  // way: separate payload, per-element f64s, byte-at-a-time CRC.
  const auto frame = [](const std::vector<std::uint8_t>& payload) {
    std::vector<std::uint8_t> f;
    bytes::put_u32(f, ingest::kWireMagic);
    bytes::put_u32(f, 1);
    bytes::put_u64(f, payload.size());
    f.insert(f.end(), payload.begin(), payload.end());
    bytes::put_u32(f, test::naive_crc32(payload));
    return f;
  };
  const stream::ObsBatch b = make_batch(7);
  std::vector<std::uint8_t> p_obs{static_cast<std::uint8_t>(ingest::FrameKind::kObs)};
  bytes::put_i32(p_obs, b.cycle);
  bytes::put_f64(p_obs, b.valid_cycles);
  bytes::put_f64(p_obs, b.arrival_cycles);
  test::naive_put_f64_span(p_obs, b.y);

  const std::vector<double> state = {1.5, -0.0, 3.0e-310, -2.25};
  std::vector<std::uint8_t> p_truth{static_cast<std::uint8_t>(ingest::FrameKind::kTruth)};
  bytes::put_i32(p_truth, 4);
  test::naive_put_f64_span(p_truth, state);

  std::vector<std::uint8_t> p_hb{static_cast<std::uint8_t>(ingest::FrameKind::kHeartbeat)};
  bytes::put_i32(p_hb, 9);
  bytes::put_u64(p_hb, 0x0102030405060708ull);

  std::vector<std::uint8_t> expect = frame(p_obs);
  const auto t = frame(p_truth);
  const auto h = frame(p_hb);
  expect.insert(expect.end(), t.begin(), t.end());
  expect.insert(expect.end(), h.begin(), h.end());

  std::vector<std::uint8_t> got;  // appended into one buffer, as a feeder does
  ingest::encode_obs_frame(b, got);
  ingest::encode_truth_frame(4, state, got);
  ingest::encode_heartbeat_frame(9, 0x0102030405060708ull, got);
  EXPECT_EQ(got, expect);
}

TEST(Wire, ImplausibleLengthIsTreatedAsCorruption) {
  std::vector<std::uint8_t> bytes;
  bytes::put_u32(bytes, ingest::kWireMagic);
  bytes::put_u32(bytes, ingest::kWireVersion);
  bytes::put_u64(bytes, ingest::kMaxFramePayloadBytes + 1);  // would wedge forever
  ingest::encode_heartbeat_frame(4, 2, bytes);

  ingest::FrameDecoder dec;
  dec.feed(bytes);
  ingest::DecodedFrame f;
  ASSERT_TRUE(dec.next(f));
  EXPECT_EQ(f.cycle, 4);
  EXPECT_GE(dec.stats().frames_corrupt, 1u);
  EXPECT_EQ(dec.last_error().code(), StatusCode::kCorruptData);
}

TEST(Wire, TornFrameRecoveredFromRetransmission) {
  // A connection died mid-frame; the reconnecting feeder retransmits the
  // whole frame. The torn prefix must be shed, the retransmission decoded.
  std::vector<std::uint8_t> whole;
  ingest::encode_obs_frame(make_batch(5), whole);
  std::vector<std::uint8_t> bytes(whole.begin(), whole.begin() + static_cast<long>(whole.size() / 2));
  bytes.insert(bytes.end(), whole.begin(), whole.end());

  ingest::FrameDecoder dec;
  dec.feed(bytes);
  ingest::DecodedFrame f;
  ASSERT_TRUE(dec.next(f));
  expect_batches_equal(make_batch(5), f.obs);
  EXPECT_FALSE(dec.next(f));
  EXPECT_GE(dec.stats().frames_corrupt, 1u);
  EXPECT_GE(dec.stats().frames_resynced, 1u);
}

// ---------------------------------------------------------------- backoff ---

TEST(Backoff, ScheduleIsDeterministicCappedAndJitterBounded) {
  ingest::BackoffConfig bc;
  bc.base_ms = 10.0;
  bc.cap_ms = 160.0;
  bc.multiplier = 2.0;
  bc.jitter_frac = 0.2;
  bc.seed = 1234;
  ingest::Backoff a(bc), b(bc);
  for (int i = 0; i < 12; ++i) {
    const double da = a.next_delay_ms();
    EXPECT_EQ(da, b.next_delay_ms()) << "attempt " << i;
    EXPECT_EQ(da, a.delay_for_attempt(static_cast<std::uint64_t>(i)));  // pure function
    const double nominal = std::min(10.0 * std::pow(2.0, i), 160.0);
    EXPECT_GE(da, nominal * 0.8);
    EXPECT_LE(da, nominal * 1.2);
  }
  EXPECT_EQ(a.attempts(), 12u);
  a.reset();
  EXPECT_EQ(a.attempts(), 0u);
  EXPECT_EQ(a.next_delay_ms(), b.delay_for_attempt(0));

  ingest::BackoffConfig plain = bc;
  plain.jitter_frac = 0.0;
  ingest::Backoff c(plain);
  EXPECT_EQ(c.next_delay_ms(), 10.0);
  EXPECT_EQ(c.next_delay_ms(), 20.0);
  EXPECT_EQ(c.delay_for_attempt(50), 160.0);  // saturates at the cap
}

// ------------------------------------------------------------ ingest queue ---

TEST(IngestQueue, DropOldestUnderBackpressure) {
  ingest::IngestQueue q(3);
  for (int w = 0; w < 5; ++w) {
    auto b = make_batch(w);
    b.arrival_cycles = 0.0;
    const bool clean = q.push(std::move(b));
    EXPECT_EQ(clean, w < 3) << "window " << w;
  }
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.drops(), 2u);
  std::vector<stream::ObsBatch> out;
  q.collect(10.0, out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].cycle, 2);  // the two oldest were evicted
  EXPECT_EQ(out[1].cycle, 3);
  EXPECT_EQ(out[2].cycle, 4);
}

TEST(IngestQueue, CollectGatesOnArrivalAndSortsByCycle) {
  ingest::IngestQueue q(8);
  // Pushed out of order; gated by virtual arrival, delivered in cycle order.
  q.push(make_batch(2));  // arrival 3.0
  q.push(make_batch(0));  // arrival 1.0
  q.push(make_batch(1));  // arrival 2.0
  std::vector<stream::ObsBatch> out;
  q.collect(2.0, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].cycle, 0);
  EXPECT_EQ(out[1].cycle, 1);
  q.collect(10.0, out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[2].cycle, 2);
  EXPECT_EQ(q.size(), 0u);
}

// ----------------------------------------------- tail replay + IngestStream ---

constexpr std::size_t kObsDim = 8;

void append_window(int w, std::vector<std::uint8_t>& out, std::uint64_t& seq) {
  ingest::encode_obs_frame(make_batch(w, kObsDim), out);
  ingest::encode_truth_frame(w, make_truth(w, kObsDim), out);
  ingest::encode_heartbeat_frame(w, seq++, out);
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(bytes.data()), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(f.good());
}

ingest::IngestStreamConfig replay_config() {
  ingest::IngestStreamConfig ic;
  ic.read_timeout_ms = 5;
  ic.stale_after_ms = 1000;
  ic.produce_timeout_ms = 10000;
  return ic;
}

std::unique_ptr<ingest::TailStream> make_tail(const std::string& path) {
  ingest::TailStreamConfig tc;
  tc.path = path;
  tc.stop_at_eof = true;
  return std::make_unique<ingest::TailStream>(tc);
}

TEST(IngestStream, TailReplayDeliversEveryWindowWithTruth) {
  const std::string path = temp_path("ingest_replay.bin");
  std::vector<std::uint8_t> bytes;
  std::uint64_t seq = 0;
  for (int w = 0; w <= 5; ++w) append_window(w, bytes, seq);
  write_file(path, bytes);

  da::IdentityObs h(kObsDim);
  da::DiagonalR r(kObsDim, 1.0);
  ingest::IngestStream s(replay_config(), make_tail(path), h, r);
  std::vector<stream::ObsBatch> got;
  for (int k = 0; k <= 5; ++k) {
    s.produce(k);
    const auto t = s.truth(k);
    ASSERT_EQ(t.size(), kObsDim) << "cycle " << k;
    const auto want = make_truth(k, kObsDim);
    EXPECT_EQ(0, std::memcmp(t.data(), want.data(), want.size() * sizeof(double)));
    s.collect(static_cast<double>(k) + 1.0, got);
  }
  ASSERT_EQ(got.size(), 6u);
  for (int w = 0; w <= 5; ++w)
    expect_batches_equal(make_batch(w, kObsDim), got[static_cast<std::size_t>(w)]);
  const auto st = s.stats();
  EXPECT_EQ(st.wire.frames_corrupt, 0u);
  EXPECT_EQ(st.duplicates_dropped, 0u);
  EXPECT_EQ(st.high_water_cycle, 5);
  std::remove(path.c_str());
}

TEST(IngestStream, ReplaySurvivesCorruptionAndDropsDuplicates) {
  const std::string path = temp_path("ingest_replay_corrupt.bin");
  std::vector<std::uint8_t> bytes;
  std::uint64_t seq = 0;
  append_window(0, bytes, seq);
  // A duplicate retransmission of window 0 that lands two cycles later.
  {
    auto dup = make_batch(0, kObsDim);
    dup.arrival_cycles = 2.5;
    ingest::encode_obs_frame(dup, bytes);
  }
  // Window 1's first copy is damaged in flight; a good retransmission follows.
  {
    std::vector<std::uint8_t> torn;
    ingest::encode_obs_frame(make_batch(1, kObsDim), torn);
    torn[ingest::kWireHeaderBytes + 3] ^= 0xFFu;
    bytes.insert(bytes.end(), torn.begin(), torn.end());
  }
  append_window(1, bytes, seq);
  for (std::size_t i = 0; i < 37; ++i)  // line noise between windows
    bytes.push_back(static_cast<std::uint8_t>((i * 11 + 5) % 249));
  append_window(2, bytes, seq);
  write_file(path, bytes);

  da::IdentityObs h(kObsDim);
  da::DiagonalR r(kObsDim, 1.0);
  ingest::IngestStream s(replay_config(), make_tail(path), h, r);
  std::vector<stream::ObsBatch> got;
  for (int k = 0; k <= 2; ++k) {
    s.produce(k);
    s.collect(static_cast<double>(k) + 1.0, got);
  }
  s.collect(10.0, got);  // drain the delayed duplicate past its arrival stamp
  ASSERT_EQ(got.size(), 3u);
  for (int w = 0; w <= 2; ++w)
    expect_batches_equal(make_batch(w, kObsDim), got[static_cast<std::size_t>(w)]);
  const auto st = s.stats();
  EXPECT_GE(st.wire.frames_corrupt, 1u);
  EXPECT_GE(st.wire.frames_resynced, 1u);
  EXPECT_GE(st.duplicates_dropped, 1u);
  const auto ic = s.ingest_counters();
  EXPECT_EQ(ic.frames_corrupt, st.wire.frames_corrupt);
  EXPECT_EQ(ic.frames_resynced, st.wire.frames_resynced);
  std::remove(path.c_str());
}

TEST(IngestStream, SaveRestoreKeepsLedgerAcrossTransportReplay) {
  // The transport does not checkpoint: a restored consumer re-reads the feed
  // from the top (here: a restarted feeder rewrote the file, replaying the
  // windows it already sent) and must rely on the delivered-batch ledger to
  // refuse them.
  const std::string path = temp_path("ingest_restore.bin");
  std::vector<std::uint8_t> bytes;
  std::uint64_t seq = 0;
  for (int w = 0; w <= 1; ++w) append_window(w, bytes, seq);
  write_file(path, bytes);

  da::IdentityObs h(kObsDim);
  da::DiagonalR r(kObsDim, 1.0);
  ingest::IngestStream s(replay_config(), make_tail(path), h, r);
  std::vector<stream::ObsBatch> got;
  for (int k = 0; k <= 1; ++k) {
    s.produce(k);
    s.collect(static_cast<double>(k) + 1.0, got);
  }
  ASSERT_EQ(got.size(), 2u);
  std::vector<std::uint8_t> blob;
  ASSERT_TRUE(s.save_state(blob));
  const auto saved = s.stats();
  EXPECT_EQ(saved.wire.frames_decoded, 6u);  // 2 windows x (obs, truth, heartbeat)

  // Feeder restart: the file now replays windows 0-1 and continues with 2-3.
  bytes.clear();
  seq = 0;
  for (int w = 0; w <= 3; ++w) append_window(w, bytes, seq);
  write_file(path, bytes);

  ingest::IngestStream resumed(replay_config(), make_tail(path), h, r);
  ASSERT_TRUE(resumed.restore_state(blob));
  std::vector<stream::ObsBatch> got2;
  for (int k = 2; k <= 3; ++k) {
    resumed.produce(k);
    resumed.collect(static_cast<double>(k) + 1.0, got2);
  }
  ASSERT_EQ(got2.size(), 2u);
  EXPECT_EQ(got2[0].cycle, 2);
  EXPECT_EQ(got2[1].cycle, 3);
  const auto st = resumed.stats();
  EXPECT_GE(st.duplicates_dropped, 2u);  // re-read windows 0 and 1 were refused
  // Wire totals continue from the snapshot instead of resetting.
  EXPECT_GE(st.wire.frames_decoded, saved.wire.frames_decoded + 12);
  std::remove(path.c_str());
}

// ------------------------------------------------------- loopback socket ---

TEST(SocketIngest, LoopbackSurvivesFeederKillAndCorruptFrames) {
  ingest::SocketStreamConfig scfg;
  scfg.port = 0;  // kernel-assigned
  scfg.connect_timeout_ms = 50;
  auto src = std::make_unique<ingest::SocketStream>(scfg);
  ingest::SocketStream* raw = src.get();
  // First accept attempt times out (no feeder yet) but resolves the port.
  EXPECT_EQ(raw->connect().code(), StatusCode::kUnavailable);
  const std::uint16_t port = raw->bound_port();
  ASSERT_NE(port, 0);

  std::thread feeder([port] {
    ingest::SocketWriter w;
    const auto dial = [&] {
      while (!w.connect("127.0.0.1", port, 50).ok())
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    };
    std::uint64_t seq = 0;
    std::vector<std::uint8_t> buf;
    dial();
    // Window 0 arrives once corrupted and once intact.
    {
      std::vector<std::uint8_t> bad;
      ingest::encode_obs_frame(make_batch(0, kObsDim), bad);
      bad[ingest::kWireHeaderBytes + 2] ^= 0xFFu;
      buf.insert(buf.end(), bad.begin(), bad.end());
    }
    append_window(0, buf, seq);
    append_window(1, buf, seq);
    (void)w.send_all(buf);
    w.close();  // the kill: feeder dies after window 1
    dial();
    buf.clear();
    // A restarted feeder cannot know what survived: replay then continue.
    append_window(0, buf, seq);
    append_window(1, buf, seq);
    append_window(2, buf, seq);
    (void)w.send_all(buf);
    w.close();
  });

  ingest::IngestStreamConfig ic;
  ic.read_timeout_ms = 10;
  ic.stale_after_ms = 500;
  ic.produce_timeout_ms = 20000;
  ic.backoff.base_ms = 5.0;
  ic.backoff.cap_ms = 50.0;
  da::IdentityObs h(kObsDim);
  da::DiagonalR r(kObsDim, 1.0);
  ingest::IngestStream s(ic, std::move(src), h, r);
  std::vector<stream::ObsBatch> got;
  for (int k = 0; k <= 2; ++k) {
    s.produce(k);
    s.collect(static_cast<double>(k) + 1.0, got);
  }
  feeder.join();
  ASSERT_EQ(got.size(), 3u);
  for (int w = 0; w <= 2; ++w)
    expect_batches_equal(make_batch(w, kObsDim), got[static_cast<std::size_t>(w)]);
  const auto st = s.stats();
  EXPECT_GE(st.reconnects, 1u);
  EXPECT_GE(st.wire.frames_corrupt, 1u);
  EXPECT_GE(st.duplicates_dropped, 1u);  // the replayed windows 0/1
}

// ------------------------------------------------- deep-overlap scheduling ---

constexpr std::size_t kDim = 40;

std::vector<double> spun_up_truth() {
  Lorenz96Config mc;
  mc.dim = kDim;
  std::vector<double> truth0(mc.dim, 8.0);
  truth0[0] += 0.01;
  Lorenz96 spin(mc);
  for (int i = 0; i < 300; ++i) spin.step(truth0);
  return truth0;
}

struct RunResult {
  std::vector<stream::StreamCycleMetrics> metrics;
  da::Ensemble ens{2, kDim};
};

RunResult run_deep(stream::SyntheticStreamConfig sc, stream::RealtimeConfig rc,
                   bool use_filter = true) {
  Lorenz96Config mc;
  mc.dim = kDim;
  // Shorter windows than the K=1 stream tests: a deep pipeline applies each
  // increment K windows after it was computed, so the window length bounds
  // how much chaotic decorrelation the increment suffers before landing.
  mc.steps_per_window = 5;
  Lorenz96 truth_model(mc), fcst_model(mc);
  da::IdentityObs h(mc.dim);
  da::DiagonalR r(mc.dim, 1.0);
  da::ETKF filter(da::EtkfConfig{.rtps = 0.4});
  const auto truth0 = spun_up_truth();
  stream::SyntheticStream s(sc, truth_model, h, r, truth0);
  stream::RealtimeRunner runner(rc, s, fcst_model, use_filter ? &filter : nullptr);
  RunResult out;
  out.metrics = runner.run(truth0);
  out.ens = runner.ensemble();
  return out;
}

void expect_bitwise_equal(const da::Ensemble& a, const da::Ensemble& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.dim(), b.dim());
  for (std::size_t m = 0; m < a.size(); ++m) {
    const auto ra = a.member(m);
    const auto rb = b.member(m);
    EXPECT_EQ(0, std::memcmp(ra.data(), rb.data(), ra.size() * sizeof(double)))
        << "member " << m << " differs";
  }
}

void expect_accuracy_metrics_bitwise_equal(const std::vector<stream::StreamCycleMetrics>& a,
                                           const std::vector<stream::StreamCycleMetrics>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k].rmse_prior, b[k].rmse_prior) << "cycle " << k;
    EXPECT_EQ(a[k].rmse_post, b[k].rmse_post) << "cycle " << k;
    EXPECT_EQ(a[k].spread_post, b[k].spread_post) << "cycle " << k;
    EXPECT_EQ(a[k].batches_assimilated, b[k].batches_assimilated) << "cycle " << k;
    EXPECT_EQ(a[k].late_applied, b[k].late_applied) << "cycle " << k;
    EXPECT_EQ(a[k].max_r_scale, b[k].max_r_scale) << "cycle " << k;
  }
}

double mean_tail_rmse(const std::vector<stream::StreamCycleMetrics>& m, std::size_t tail = 10) {
  double sum = 0.0;
  const std::size_t n = std::min(tail, m.size());
  for (std::size_t k = m.size() - n; k < m.size(); ++k) sum += m[k].rmse_post;
  return sum / static_cast<double>(n);
}

/// Delivery scenario whose every batch is exactly 3 cycles old at delivery —
/// one cycle past max_stale_cycles = 2, inside the K = 2 stretched window.
stream::SyntheticStreamConfig very_late_scenario() {
  stream::SyntheticStreamConfig sc;
  sc.latency_cycles = 2.6;
  sc.jitter_cycles = 0.3;
  return sc;
}

stream::RealtimeConfig deep_config(int depth) {
  stream::RealtimeConfig rc;
  rc.cycles = 20;
  rc.n_members = 10;
  rc.schedule = stream::Schedule::Overlapped;
  rc.overlap_depth = depth;
  rc.max_stale_cycles = 2;
  return rc;
}

TEST(DeepOverlap, AppliesLateBatchesAnEquallyConfiguredK1RunDrops) {
  const auto k1 = run_deep(very_late_scenario(), deep_config(1));
  const auto k2 = run_deep(very_late_scenario(), deep_config(2));

  int k1_late = 0, k1_dropped = 0, k2_late = 0, k2_dropped = 0, k2_applied = 0;
  double k2_max_r = 1.0;
  for (const auto& m : k1.metrics) {
    k1_late += m.late_applied;
    k1_dropped += m.batches_discarded;
  }
  for (const auto& m : k2.metrics) {
    k2_late += m.late_applied;
    k2_dropped += m.batches_discarded;
    k2_applied += m.batches_assimilated;
    k2_max_r = std::max(k2_max_r, m.max_r_scale);
  }
  EXPECT_EQ(k1_late, 0);      // K=1 cannot admit age-3 stragglers...
  EXPECT_GT(k1_dropped, 0);   // ...so it drops them
  EXPECT_GT(k2_late, 0);      // K=2 applies them as late increments
  EXPECT_EQ(k2_dropped, 0);
  EXPECT_GT(k2_applied, 0);
  // Age-dependent R inflation: age 3 with late_r_inflation 0.5 => r_scale 2.5.
  EXPECT_GE(k2_max_r, 2.5);
  // The down-weighted late increments may or may not beat a pure forecast
  // (that depends on the window length); what the schedule guarantees is
  // that they are admitted, discounted, and never destabilize the run.
  for (const auto& m : k2.metrics) ASSERT_TRUE(std::isfinite(m.rmse_post)) << m.cycle;
}

TEST(DeepOverlap, PromptDeliveryStillBeatsFreeRun) {
  stream::SyntheticStreamConfig sc;  // instant delivery
  const auto assimilated = run_deep(sc, deep_config(2), true);
  const auto free_run = run_deep(sc, deep_config(2), false);
  int late = 0, dropped = 0;
  for (const auto& m : assimilated.metrics) {
    late += m.late_applied;
    dropped += m.batches_discarded;
  }
  EXPECT_EQ(late, 0);
  EXPECT_EQ(dropped, 0);
  EXPECT_LT(mean_tail_rmse(assimilated.metrics), mean_tail_rmse(free_run.metrics));
}

TEST(DeepOverlap, BitwiseInvariantToThreadCount) {
  auto rc1 = deep_config(2);
  rc1.n_forecast_threads = 1;
  auto rc4 = deep_config(2);
  rc4.n_forecast_threads = 4;
  const auto a = run_deep(very_late_scenario(), rc1);
  const auto b = run_deep(very_late_scenario(), rc4);
  expect_bitwise_equal(a.ens, b.ens);
  expect_accuracy_metrics_bitwise_equal(a.metrics, b.metrics);
}

TEST(DeepOverlap, CheckpointResumeIsBitwiseAcrossThreadCounts) {
  const auto sc = very_late_scenario();
  auto rc = deep_config(2);
  rc.cycles = 12;
  const auto uninterrupted = run_deep(sc, rc);

  const std::string path = temp_path("ckpt_deep.bin");
  auto rc_ck = rc;
  rc_ck.checkpoint_path = path;
  rc_ck.checkpoint_every = 7;  // one snapshot, mid-run, with analyses in flight
  const auto with_ckpt = run_deep(sc, rc_ck);
  expect_bitwise_equal(uninterrupted.ens, with_ckpt.ens);

  // The snapshot must carry the staged-analysis ring (v3 format) — cycles 5
  // and 6 had analyses staged but not yet applied when it was written.
  stream::CheckpointData data;
  ASSERT_TRUE(stream::load_checkpoint(path, data).ok());
  EXPECT_EQ(data.overlap_depth, 2);
  EXPECT_EQ(data.next_cycle, 7);
  EXPECT_GE(data.ring.size(), 1u);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    Lorenz96Config mc;
    mc.dim = kDim;
    mc.steps_per_window = 5;  // must match run_deep's model exactly
    Lorenz96 truth_model(mc), fcst_model(mc);
    da::IdentityObs h(mc.dim);
    da::DiagonalR r(mc.dim, 1.0);
    da::ETKF filter(da::EtkfConfig{.rtps = 0.4});
    const auto truth0 = spun_up_truth();
    stream::SyntheticStream s(sc, truth_model, h, r, truth0);
    auto rc_res = rc_ck;
    rc_res.n_forecast_threads = threads;
    stream::RealtimeRunner runner(rc_res, s, fcst_model, &filter);
    std::vector<stream::StreamCycleMetrics> resumed;
    ASSERT_TRUE(runner.resume(path, resumed).ok()) << threads << " threads";
    expect_bitwise_equal(uninterrupted.ens, runner.ensemble());
    expect_accuracy_metrics_bitwise_equal(uninterrupted.metrics, resumed);
  }
  std::remove(path.c_str());
}

TEST(DeepOverlap, ResumeRefusesOverlapDepthMismatch) {
  const auto sc = very_late_scenario();
  auto rc = deep_config(2);
  rc.cycles = 12;
  const std::string path = temp_path("ckpt_deep_mismatch.bin");
  rc.checkpoint_path = path;
  rc.checkpoint_every = 7;
  (void)run_deep(sc, rc);

  Lorenz96Config mc;
  mc.dim = kDim;
  mc.steps_per_window = 5;
  Lorenz96 truth_model(mc), fcst_model(mc);
  da::IdentityObs h(mc.dim);
  da::DiagonalR r(mc.dim, 1.0);
  da::ETKF filter(da::EtkfConfig{.rtps = 0.4});
  const auto truth0 = spun_up_truth();
  stream::SyntheticStream s(sc, truth_model, h, r, truth0);
  auto rc_bad = rc;
  rc_bad.overlap_depth = 3;
  stream::RealtimeRunner runner(rc_bad, s, fcst_model, &filter);
  std::vector<stream::StreamCycleMetrics> resumed;
  EXPECT_FALSE(runner.resume(path, resumed).ok());
  std::remove(path.c_str());
}

// -------------------------------------------------------- metrics schema ---

TEST(StreamMetrics, IngestColumnsPresentAndRowAligned) {
  const auto cols = stream::stream_metrics_columns();
  stream::StreamCycleMetrics m;
  m.late_applied = 3;
  m.ingest_reconnects = 1;
  m.ingest_frames_corrupt = 2;
  m.ingest_frames_resynced = 2;
  m.ingest_queue_drops = 4;
  const auto row = stream::stream_metrics_row(m);
  ASSERT_EQ(cols.size(), row.size());
  const auto col = [&](const std::string& name) {
    for (std::size_t i = 0; i < cols.size(); ++i)
      if (cols[i] == name) return row[i];
    ADD_FAILURE() << "missing column " << name;
    return -1.0;
  };
  EXPECT_EQ(col("late_applied"), 3.0);
  EXPECT_EQ(col("ingest_reconnects"), 1.0);
  EXPECT_EQ(col("ingest_frames_corrupt"), 2.0);
  EXPECT_EQ(col("ingest_frames_resynced"), 2.0);
  EXPECT_EQ(col("ingest_queue_drops"), 4.0);
}

}  // namespace
}  // namespace turbda
