#include "stream/ingest/wire.hpp"

#include <algorithm>

#include "common/bytes.hpp"
#include "common/crc32.hpp"

namespace turbda::stream::ingest {

namespace {

/// Appends a frame header with a length placeholder and the payload's kind
/// byte; the caller encodes the rest of the payload straight into `out`.
/// `payload_bytes` (kind byte and length prefixes included) sizes the
/// reservation. Returns the payload's offset for end_frame().
std::size_t begin_frame(std::vector<std::uint8_t>& out, FrameKind kind,
                        std::size_t payload_bytes) {
  out.reserve(out.size() + kWireHeaderBytes + payload_bytes + 4);
  bytes::put_u32(out, kWireMagic);
  bytes::put_u32(out, kWireVersion);
  bytes::put_u64(out, 0);  // payload length, patched by end_frame()
  const std::size_t at = out.size();
  out.push_back(static_cast<std::uint8_t>(kind));
  return at;
}

/// Patches the payload length that begin_frame() left open and appends the
/// CRC trailer over the payload.
void end_frame(std::vector<std::uint8_t>& out, std::size_t at) {
  bytes::put_u64_at(out, at - 8, out.size() - at);
  bytes::put_u32(out, crc32(std::span<const std::uint8_t>(out).subspan(at)));
}

}  // namespace

void encode_obs_frame(const ObsBatch& b, std::vector<std::uint8_t>& out) {
  const std::size_t at = begin_frame(out, FrameKind::kObs, 1 + 4 + 2 * 8 + 8 + 8 * b.y.size());
  bytes::put_i32(out, b.cycle);
  bytes::put_f64(out, b.valid_cycles);
  bytes::put_f64(out, b.arrival_cycles);
  bytes::put_f64_span(out, b.y);
  end_frame(out, at);
}

void encode_truth_frame(std::int32_t cycle, std::span<const double> state,
                        std::vector<std::uint8_t>& out) {
  const std::size_t at = begin_frame(out, FrameKind::kTruth, 1 + 4 + 8 + 8 * state.size());
  bytes::put_i32(out, cycle);
  bytes::put_f64_span(out, state);
  end_frame(out, at);
}

void encode_heartbeat_frame(std::int32_t high_water_cycle, std::uint64_t seq,
                            std::vector<std::uint8_t>& out) {
  const std::size_t at = begin_frame(out, FrameKind::kHeartbeat, 1 + 4 + 8);
  bytes::put_i32(out, high_water_cycle);
  bytes::put_u64(out, seq);
  end_frame(out, at);
}

void FrameDecoder::feed(std::span<const std::uint8_t> data) {
  // Compact lazily: only when the dead prefix dominates the buffer, so
  // steady-state decoding does not memmove per frame.
  if (pos_ > 4096 && pos_ > buf_.size() / 2) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), data.begin(), data.end());
}

void FrameDecoder::discard(std::size_t n) {
  pos_ += n;
  stats_.bytes_discarded += n;
  resyncing_ = true;
}

bool FrameDecoder::next(DecodedFrame& out) {
  for (;;) {
    // Hunt for the magic boundary, shedding garbage byte-by-byte.
    while (buf_.size() - pos_ >= 4) {
      const std::uint32_t m = static_cast<std::uint32_t>(buf_[pos_]) |
                              static_cast<std::uint32_t>(buf_[pos_ + 1]) << 8 |
                              static_cast<std::uint32_t>(buf_[pos_ + 2]) << 16 |
                              static_cast<std::uint32_t>(buf_[pos_ + 3]) << 24;
      if (m == kWireMagic) break;
      discard(1);
    }
    if (buf_.size() - pos_ < kWireHeaderBytes) return false;

    bytes::Reader hdr(std::span<const std::uint8_t>(buf_).subspan(pos_, kWireHeaderBytes));
    (void)hdr.u32();  // magic, verified above
    const std::uint32_t version = hdr.u32();
    const std::uint64_t len = hdr.u64();
    if (version != kWireVersion) {
      last_error_ = Status(StatusCode::kUnsupported,
                           "wire frame has format version " + std::to_string(version));
      ++stats_.frames_corrupt;
      discard(1);  // step past this magic byte and rescan
      continue;
    }
    if (len > kMaxFramePayloadBytes) {
      // An implausible length is almost certainly a corrupted header; waiting
      // for 2^60 bytes would wedge the stream, so treat it as damage.
      last_error_ = Status(StatusCode::kCorruptData, "wire frame length implausible");
      ++stats_.frames_corrupt;
      discard(1);
      continue;
    }
    const std::size_t total = kWireHeaderBytes + static_cast<std::size_t>(len) + 4;
    if (buf_.size() - pos_ < total) return false;  // torn frame: wait for more bytes

    const auto payload = std::span<const std::uint8_t>(buf_).subspan(
        pos_ + kWireHeaderBytes, static_cast<std::size_t>(len));
    bytes::Reader tr(std::span<const std::uint8_t>(buf_).subspan(
        pos_ + kWireHeaderBytes + static_cast<std::size_t>(len), 4));
    if (crc32(payload) != tr.u32()) {
      last_error_ = Status(StatusCode::kCorruptData, "wire frame CRC mismatch");
      ++stats_.frames_corrupt;
      discard(1);  // the real next frame may start inside this span — rescan
      continue;
    }

    bytes::Reader pr(payload);
    const auto kind = static_cast<FrameKind>(pr.u8());
    out = DecodedFrame{};
    out.kind = kind;
    bool parsed = false;
    switch (kind) {
      case FrameKind::kObs:
        out.obs.cycle = pr.i32();
        out.obs.valid_cycles = pr.f64();
        out.obs.arrival_cycles = pr.f64();
        parsed = pr.f64_vec(out.obs.y) && pr.done();
        break;
      case FrameKind::kTruth:
        out.cycle = pr.i32();
        parsed = pr.f64_vec(out.state) && pr.done();
        break;
      case FrameKind::kHeartbeat:
        out.cycle = pr.i32();
        out.seq = pr.u64();
        parsed = pr.done();
        break;
      default:
        break;
    }
    if (!parsed) {
      // CRC-valid but structurally malformed (unknown kind / bad layout):
      // an incompatible producer, not line noise — still skipped safely.
      last_error_ = Status(StatusCode::kCorruptData, "wire frame payload malformed");
      ++stats_.frames_corrupt;
      discard(1);
      continue;
    }

    pos_ += total;
    ++stats_.frames_decoded;
    if (kind == FrameKind::kHeartbeat) ++stats_.heartbeats;
    if (resyncing_) {
      ++stats_.frames_resynced;
      resyncing_ = false;
    }
    return true;
  }
}

}  // namespace turbda::stream::ingest
