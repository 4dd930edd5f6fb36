// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the integrity
// trailer of checkpoint files and of wire frames.
//
// Slicing-by-8: eight 256-entry tables built at compile time let the loop
// fold eight input bytes per step instead of one, about five times the
// byte-at-a-time loop's throughput (~1.5 vs ~0.3 GB/s on a 0.7 MB snapshot,
// x86-64, gcc -O2). The input words are assembled from
// bytes with explicit shifts, so the value is the same on any host.
#pragma once

#include <cstdint>
#include <span>

namespace turbda {

/// CRC-32 of `data` (init and final XOR 0xFFFFFFFF; crc32("123456789") ==
/// 0xCBF43926).
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> data);

}  // namespace turbda
