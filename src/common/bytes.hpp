// Little-endian byte (de)serialization for checkpoint blobs.
//
// Every checkpointable component (Rng aside, which predates this helper and
// carries its own fixed-size codec) appends itself to a byte vector through
// these writers and parses itself back through Reader. Scalars go through
// explicit per-byte shifts; f64 spans — the bulk of every snapshot and wire
// frame — are copied with memcpy, which is the little-endian encoding only
// on a little-endian host, so other hosts are refused at compile time. Reader
// is fail-soft: past-the-end reads latch a failure flag and return zeros
// instead of touching out-of-range memory, so callers validate once at the
// end with ok() — corrupt input can never turn into UB, only into a refused
// restore.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

namespace turbda::bytes {

static_assert(std::endian::native == std::endian::little,
              "f64 spans are encoded by memcpy: a little-endian host is required");

inline void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

inline void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

inline void put_i32(std::vector<std::uint8_t>& out, std::int32_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
}

inline void put_f64(std::vector<std::uint8_t>& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

/// Overwrites the 8 bytes at `at` (a length placeholder written earlier).
inline void put_u64_at(std::vector<std::uint8_t>& out, std::size_t at, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

inline void put_f64_span(std::vector<std::uint8_t>& out, std::span<const double> v) {
  put_u64(out, v.size());
  const auto* p = reinterpret_cast<const std::uint8_t*>(v.data());
  out.insert(out.end(), p, p + v.size_bytes());
}

inline void put_blob(std::vector<std::uint8_t>& out, std::span<const std::uint8_t> v) {
  put_u64(out, v.size());
  out.insert(out.end(), v.begin(), v.end());
}

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> in) : in_(in) {}

  std::uint8_t u8() {
    if (!need(1)) return 0;
    return in_[at_++];
  }

  std::uint32_t u32() {
    if (!need(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(in_[at_++]) << (8 * i);
    return v;
  }

  std::uint64_t u64() {
    if (!need(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(in_[at_++]) << (8 * i);
    return v;
  }

  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }

  double f64() { return std::bit_cast<double>(u64()); }

  /// Length-prefixed double vector; latches failure on absurd lengths
  /// (compared as a count, so a hostile n near 2^64 cannot wrap 8 * n).
  bool f64_vec(std::vector<double>& out) {
    const std::uint64_t n = u64();
    if (n > remaining() / sizeof(double)) fail_ = true;
    if (!ok()) return false;
    out.resize(n);
    if (n != 0) std::memcpy(out.data(), in_.data() + at_, n * sizeof(double));
    at_ += n * sizeof(double);
    return true;
  }

  /// Length-prefixed byte vector.
  bool blob(std::vector<std::uint8_t>& out) {
    const std::uint64_t n = u64();
    if (!need(n)) return false;
    out.assign(in_.begin() + static_cast<std::ptrdiff_t>(at_),
               in_.begin() + static_cast<std::ptrdiff_t>(at_ + n));
    at_ += n;
    return ok();
  }

  /// Raw view of the next n bytes (valid while the source buffer lives).
  std::span<const std::uint8_t> raw(std::size_t n) {
    if (!need(n)) return {};
    auto s = in_.subspan(at_, n);
    at_ += n;
    return s;
  }

  [[nodiscard]] bool ok() const { return !fail_; }
  [[nodiscard]] std::size_t remaining() const { return fail_ ? 0 : in_.size() - at_; }
  /// True when parsing succeeded and consumed the whole buffer.
  [[nodiscard]] bool done() const { return ok() && at_ == in_.size(); }

 private:
  bool need(std::uint64_t n) {
    if (fail_ || n > in_.size() - at_) {
      fail_ = true;
      return false;
    }
    return true;
  }

  std::span<const std::uint8_t> in_;
  std::size_t at_ = 0;
  bool fail_ = false;
};

}  // namespace turbda::bytes
