#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string_view>
#include <thread>
#include <vector>

#include "codec_reference.hpp"
#include "common/bytes.hpp"
#include "common/check.hpp"
#include "common/crc32.hpp"
#include "common/math_utils.hpp"
#include "common/timer.hpp"
#include "rng/philox.hpp"

namespace turbda {
namespace {

TEST(Check, RequirePassesOnTrue) { EXPECT_NO_THROW(TURBDA_REQUIRE(1 + 1 == 2, "fine")); }

TEST(Check, RequireThrowsWithMessage) {
  try {
    TURBDA_REQUIRE(false, "context " << 42);
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    const std::string w = e.what();
    EXPECT_NE(w.find("context 42"), std::string::npos);
    EXPECT_NE(w.find("test_common.cpp"), std::string::npos);
  }
}

TEST(MathUtils, Pow2Helpers) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(48));
  EXPECT_EQ(ilog2(1), 0);
  EXPECT_EQ(ilog2(64), 6);
  EXPECT_EQ(ceil_div(10, 3), 4u);
  EXPECT_EQ(ceil_div(9, 3), 3u);
}

TEST(MathUtils, VectorOps) {
  const std::vector<double> a{3.0, 4.0};
  EXPECT_DOUBLE_EQ(norm2(a), 5.0);
  EXPECT_DOUBLE_EQ(rms(a), 5.0 / std::sqrt(2.0));
  const std::vector<double> b{1.0, 2.0};
  EXPECT_DOUBLE_EQ(dot(a, b), 11.0);
  std::vector<double> y{1.0, 1.0};
  axpy(2.0, b, y);
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 5.0);
}

TEST(MathUtils, RmsOfEmptyThrows) {
  std::vector<double> empty;
  EXPECT_THROW((void)rms(empty), Error);
}

TEST(Timer, MeasuresElapsedTime) {
  WallTimer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(t.milliseconds(), 15.0);
}

TEST(Timer, AccumTimerSums) {
  AccumTimer t;
  t.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  t.stop();
  const double first = t.seconds();
  EXPECT_GT(first, 0.0);
  t.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  t.stop();
  EXPECT_GT(t.seconds(), first);
}

TEST(Timer, WallTimerResetRestartsTheClock) {
  WallTimer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  t.reset();
  // Right after reset the elapsed time must be far below the pre-reset wait.
  EXPECT_LT(t.milliseconds(), 15.0);
  EXPECT_GE(t.seconds(), 0.0);
}

TEST(Timer, AccumTimerStartWhileRunningKeepsTheOpenInterval) {
  AccumTimer t;
  t.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // A redundant start() must NOT re-zero the running interval: the full
  // 20ms+ wait above still counts when we stop below.
  t.start();
  t.stop();
  EXPECT_GE(t.seconds(), 0.015);
}

TEST(Timer, AccumTimerStopWithoutStartIsANoOp) {
  AccumTimer t;
  t.stop();
  EXPECT_DOUBLE_EQ(t.seconds(), 0.0);
  // stop() twice after one interval must not double-count it.
  t.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  t.stop();
  const double once = t.seconds();
  t.stop();
  EXPECT_DOUBLE_EQ(t.seconds(), once);
}

TEST(Timer, AccumTimerResetClearsTotalAndRunningState) {
  AccumTimer t;
  t.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  t.reset();
  EXPECT_DOUBLE_EQ(t.seconds(), 0.0);
  // reset() also cleared running_: a stop() without a new start adds nothing.
  t.stop();
  EXPECT_DOUBLE_EQ(t.seconds(), 0.0);
}

// ------------------------------------------------- CRC-32 and f64 codec ----

std::span<const std::uint8_t> as_bytes(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

/// `n` bytes of Philox output (counter = block index, fixed key).
std::vector<std::uint8_t> philox_bytes(std::size_t n, std::uint32_t key) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; i += 16) {
    const auto blk = rng::Philox4x32::apply({static_cast<std::uint32_t>(i / 16), 0, 0, 0},
                                            {key, 0x5EEDu});
    for (std::size_t j = 0; j < 16 && i + j < n; ++j)
      out[i + j] = static_cast<std::uint8_t>(blk[j / 4] >> (8 * (j % 4)));
  }
  return out;
}

TEST(Crc32, MatchesKnownVectors) {
  EXPECT_EQ(crc32(as_bytes("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32({}), 0x00000000u);
  EXPECT_EQ(crc32(as_bytes("The quick brown fox jumps over the lazy dog")), 0x414FA339u);
  for (std::string_view s : {"123456789", "", "a", "The quick brown fox jumps over the lazy dog"})
    EXPECT_EQ(crc32(as_bytes(s)), test::naive_crc32(as_bytes(s))) << s;
}

TEST(Crc32, SlicingBy8MatchesNaiveAtEveryLengthAndAlignment) {
  // Every tail length (n mod 8) meets every start alignment, so both the
  // eight-byte loop and the byte tail are checked against the oracle.
  const auto buf = philox_bytes(1024 + 8, 7);
  for (std::size_t off = 0; off < 8; ++off)
    for (std::size_t n = 0; n <= 1024; ++n) {
      const std::span<const std::uint8_t> s(buf.data() + off, n);
      ASSERT_EQ(crc32(s), test::naive_crc32(s)) << "offset " << off << " length " << n;
    }
}

TEST(Crc32, SlicingBy8MatchesNaiveOnOneMebibyte) {
  const auto buf = philox_bytes(std::size_t{1} << 20, 11);
  EXPECT_EQ(crc32(buf), test::naive_crc32(buf));
}

/// Doubles whose bits a codec could plausibly mangle: NaN payloads (quiet
/// and signalling, both signs), signed zeros, subnormals, infinities and
/// the extremes of the normal range.
std::vector<double> awkward_doubles() {
  using L = std::numeric_limits<double>;
  std::vector<double> v = {0.0, -0.0, L::denorm_min(), -L::denorm_min(),
                           std::bit_cast<double>(std::uint64_t{0x000FFFFFFFFFFFFFull}),
                           L::infinity(), -L::infinity(), L::max(), L::lowest(), L::min(),
                           L::epsilon(), 1.0, -3.25};
  for (std::uint64_t bits : {0x7FF8000000000000ull, 0xFFF8000000000000ull,
                             0x7FF8000000000001ull, 0x7FF4000000000000ull,
                             0x7FF0000000000001ull, 0xFFF0DEADBEEF1234ull,
                             0x7FFFFFFFFFFFFFFFull})
    v.push_back(std::bit_cast<double>(bits));
  return v;
}

TEST(Bytes, F64SpanEncodesLikePerElementPutF64) {
  const auto v = awkward_doubles();
  std::vector<std::uint8_t> fast, naive;
  bytes::put_f64_span(fast, v);
  test::naive_put_f64_span(naive, v);
  EXPECT_EQ(fast, naive);

  std::vector<std::uint8_t> empty_fast, empty_naive;
  bytes::put_f64_span(empty_fast, {});
  test::naive_put_f64_span(empty_naive, {});
  EXPECT_EQ(empty_fast, empty_naive);
}

TEST(Bytes, F64SpanRoundTripsBitwise) {
  const auto v = awkward_doubles();
  std::vector<std::uint8_t> enc;
  bytes::put_u32(enc, 0xA5A5A5A5u);  // misalign the span within the buffer
  enc.push_back(1);
  bytes::put_f64_span(enc, v);
  bytes::Reader rd(enc);
  EXPECT_EQ(rd.u32(), 0xA5A5A5A5u);
  EXPECT_EQ(rd.u8(), 1);
  std::vector<double> back;
  ASSERT_TRUE(rd.f64_vec(back));
  EXPECT_TRUE(rd.done());
  ASSERT_EQ(back.size(), v.size());
  EXPECT_EQ(0, std::memcmp(back.data(), v.data(), v.size() * sizeof(double)));
}

TEST(Bytes, HostileF64LengthFailsSoftly) {
  // 8 * n wraps to 8 for n = 2^61 + 1: the count, not the byte total, must
  // be bounded, or resize(n) throws instead of latching the failure.
  for (std::uint64_t n : {(std::uint64_t{1} << 61) + 1, std::uint64_t{1} << 61,
                          std::numeric_limits<std::uint64_t>::max(), std::uint64_t{3}}) {
    std::vector<std::uint8_t> enc;
    bytes::put_u64(enc, n);
    bytes::put_f64(enc, 1.0);
    bytes::put_f64(enc, 2.0);  // 16 bytes follow: too few for any n above
    bytes::Reader rd(enc);
    std::vector<double> out;
    bool ok = true;
    EXPECT_NO_THROW(ok = rd.f64_vec(out)) << n;
    EXPECT_FALSE(ok) << n;
    EXPECT_FALSE(rd.ok()) << n;
  }
}

TEST(Bytes, F64VecAfterAFailedReadFails) {
  // Once a read has run past the end, a vector read must report failure
  // too, even though its (zeroed) length prefix would describe no data.
  const std::vector<std::uint8_t> enc = {1, 2};
  bytes::Reader rd(enc);
  (void)rd.u32();
  ASSERT_FALSE(rd.ok());
  std::vector<double> out = {1.0};
  EXPECT_FALSE(rd.f64_vec(out));
}

}  // namespace
}  // namespace turbda
