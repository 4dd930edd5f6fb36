// Naive reference codecs that the production checkpoint / wire codec is
// checked against: the byte-at-a-time CRC-32 the library used before its
// slicing-by-8 loop, and per-element f64 span encoding. Deliberately the
// simplest correct form — slow, and kept only as the test oracle.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/bytes.hpp"

namespace turbda::test {

/// CRC-32 (IEEE, reflected 0xEDB88320), one table lookup per byte.
inline std::uint32_t naive_crc32(std::span<const std::uint8_t> data) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::uint8_t b : data) c = table[(c ^ b) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

/// Length-prefixed f64 span, one put_f64 (per-byte shifts) per element.
inline void naive_put_f64_span(std::vector<std::uint8_t>& out, std::span<const double> v) {
  bytes::put_u64(out, v.size());
  for (double x : v) bytes::put_f64(out, x);
}

}  // namespace turbda::test
