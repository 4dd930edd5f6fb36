#include "stream/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/bytes.hpp"
#include "common/crc32.hpp"

namespace turbda::stream {

namespace {

void put_metrics(std::vector<std::uint8_t>& out, const StreamCycleMetrics& m) {
  bytes::put_i32(out, m.cycle);
  bytes::put_f64(out, m.time_hours);
  bytes::put_f64(out, m.rmse_prior);
  bytes::put_f64(out, m.rmse_post);
  bytes::put_f64(out, m.spread_prior);
  bytes::put_f64(out, m.spread_post);
  bytes::put_i32(out, m.batches_assimilated);
  bytes::put_i32(out, m.batches_discarded);
  bytes::put_i32(out, m.max_batch_age);
  out.push_back(m.deadline_miss ? 1 : 0);
  bytes::put_f64(out, m.obs_arrival_cycles);
  bytes::put_i32(out, m.obs_rejected);
  bytes::put_i32(out, m.batches_rejected);
  bytes::put_f64(out, m.max_r_scale);
  bytes::put_i32(out, m.analysis_failures);
  bytes::put_i32(out, m.solver_fallbacks);
  bytes::put_i32(out, m.spread_recoveries);
  out.push_back(m.degraded ? 1 : 0);
  bytes::put_f64(out, m.forecast_ms);
  bytes::put_f64(out, m.analysis_ms);
  bytes::put_f64(out, m.qc_ms);
  bytes::put_f64(out, m.checkpoint_ms);
  bytes::put_f64(out, m.cycle_ms);
  bytes::put_f64(out, m.pool_idle_frac);
  bytes::put_i32(out, m.late_applied);
  bytes::put_i32(out, m.ingest_reconnects);
  bytes::put_i32(out, m.ingest_frames_corrupt);
  bytes::put_i32(out, m.ingest_frames_resynced);
  bytes::put_i32(out, m.ingest_queue_drops);
}

void read_metrics(bytes::Reader& rd, StreamCycleMetrics& m) {
  m.cycle = rd.i32();
  m.time_hours = rd.f64();
  m.rmse_prior = rd.f64();
  m.rmse_post = rd.f64();
  m.spread_prior = rd.f64();
  m.spread_post = rd.f64();
  m.batches_assimilated = rd.i32();
  m.batches_discarded = rd.i32();
  m.max_batch_age = rd.i32();
  m.deadline_miss = rd.u8() != 0;
  m.obs_arrival_cycles = rd.f64();
  m.obs_rejected = rd.i32();
  m.batches_rejected = rd.i32();
  m.max_r_scale = rd.f64();
  m.analysis_failures = rd.i32();
  m.solver_fallbacks = rd.i32();
  m.spread_recoveries = rd.i32();
  m.degraded = rd.u8() != 0;
  m.forecast_ms = rd.f64();
  m.analysis_ms = rd.f64();
  m.qc_ms = rd.f64();
  m.checkpoint_ms = rd.f64();
  m.cycle_ms = rd.f64();
  m.pool_idle_frac = rd.f64();
  m.late_applied = rd.i32();
  m.ingest_reconnects = rd.i32();
  m.ingest_frames_corrupt = rd.i32();
  m.ingest_frames_resynced = rd.i32();
  m.ingest_queue_drops = rd.i32();
}

constexpr std::size_t kHeaderBytes = 16;  // magic + version + payload length

/// Creates (or truncates) `path` and writes `buf` to it; on a failed write
/// the partial file is removed.
Status write_new_file(const std::string& path, std::span<const std::uint8_t> buf) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return Status(StatusCode::kIoError, "cannot open checkpoint file for write: " + path);
  // Reserving the blocks up front spares the rename that follows from
  // forcing out the file's delayed allocation (ext4 flushes a file renamed
  // over another), which costs more than the write itself. Linux fallocate
  // rather than posix_fallocate: where the filesystem cannot reserve, it
  // fails and changes nothing instead of writing zeros, and the write below
  // reports any real failure.
  (void)::fallocate(fd, 0, 0, static_cast<off_t>(buf.size()));
  std::size_t done = 0;
  while (done < buf.size()) {
    const ssize_t w = ::write(fd, buf.data() + done, buf.size() - done);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) break;
    done += static_cast<std::size_t>(w);
  }
  const bool closed = ::close(fd) == 0;
  if (done != buf.size() || !closed) {
    std::remove(path.c_str());
    return Status(StatusCode::kIoError, "checkpoint write failed: " + path);
  }
  return Status::Ok();
}

}  // namespace

Status save_checkpoint(const std::string& path, const CheckpointData& data) {
  // One buffer for header, payload and CRC, sized up front: 128 bytes bound
  // the scalar fields and length prefixes, 12 per ring slot its cycle and
  // prefix, and a metrics row encodes to at most its in-memory size.
  std::size_t size = kHeaderBytes + 128 + 4 + data.rng_modelerr.size() + data.applied.size() +
                     data.stream_state.size() + data.filter_state.size() +
                     sizeof(StreamCycleMetrics) * data.metrics.size() +
                     8 * (data.ensemble.size() + data.increment.size());
  for (const auto& s : data.ring) size += 12 + 8 * s.increment.size();
  std::vector<std::uint8_t> file;
  file.reserve(size);
  bytes::put_u32(file, kCheckpointMagic);
  bytes::put_u32(file, kCheckpointVersion);
  bytes::put_u64(file, 0);  // payload length, patched below

  bytes::put_u64(file, data.seed);
  bytes::put_u64(file, data.n_members);
  bytes::put_u64(file, data.dim);
  bytes::put_i32(file, data.cycles);
  file.push_back(data.schedule);
  bytes::put_i32(file, data.overlap_depth);
  bytes::put_i32(file, data.next_cycle);
  bytes::put_blob(file, data.rng_modelerr);
  bytes::put_f64_span(file, data.ensemble);
  bytes::put_f64_span(file, data.increment);
  bytes::put_u64(file, data.ring.size());
  for (const auto& s : data.ring) {
    bytes::put_i32(file, s.cycle);
    bytes::put_f64_span(file, s.increment);
  }
  bytes::put_blob(file, data.applied);
  bytes::put_blob(file, data.stream_state);
  bytes::put_blob(file, data.filter_state);
  bytes::put_u64(file, data.metrics.size());
  for (const auto& m : data.metrics) put_metrics(file, m);

  const std::size_t payload_bytes = file.size() - kHeaderBytes;
  bytes::put_u64_at(file, 8, payload_bytes);
  bytes::put_u32(file, crc32(std::span<const std::uint8_t>(file).subspan(kHeaderBytes)));

  // Write beside the live snapshot, then rename over it: a kill mid-write
  // leaves the previous snapshot whole.
  const std::string tmp = path + ".tmp";
  const Status ws = write_new_file(tmp, file);
  if (!ws.ok()) return ws;
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status(StatusCode::kIoError, "cannot replace checkpoint file: " + path);
  }
  return Status::Ok();
}

Status load_checkpoint(const std::string& path, CheckpointData& data) {
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  std::ifstream in(path, std::ios::binary);
  if (ec || !in) return Status(StatusCode::kIoError, "cannot open checkpoint file: " + path);
  std::vector<std::uint8_t> file(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(file.data()), static_cast<std::streamsize>(file.size()));
  file.resize(static_cast<std::size_t>(in.gcount()));

  bytes::Reader rd(file);
  const std::uint32_t magic = rd.u32();
  if (!rd.ok()) return Status(StatusCode::kCorruptData, "checkpoint truncated: no header");
  if (magic != kCheckpointMagic)
    return Status(StatusCode::kCorruptData, "not a checkpoint file (bad magic)");
  const std::uint32_t version = rd.u32();
  if (version != kCheckpointVersion)
    return Status(StatusCode::kUnsupported,
                  "unsupported checkpoint format version " + std::to_string(version) +
                      " (expected " + std::to_string(kCheckpointVersion) + ")");
  const std::uint64_t len = rd.u64();
  const auto payload = rd.raw(len);
  const std::uint32_t stored_crc = rd.u32();
  if (!rd.done())
    return Status(StatusCode::kCorruptData, "checkpoint truncated or has trailing bytes");
  if (crc32(payload) != stored_crc)
    return Status(StatusCode::kCorruptData, "checkpoint CRC mismatch — file is corrupt");

  bytes::Reader pr(payload);
  data.seed = pr.u64();
  data.n_members = pr.u64();
  data.dim = pr.u64();
  data.cycles = pr.i32();
  data.schedule = pr.u8();
  data.overlap_depth = pr.i32();
  data.next_cycle = pr.i32();
  if (!pr.blob(data.rng_modelerr) || !pr.f64_vec(data.ensemble) ||
      !pr.f64_vec(data.increment))
    return Status(StatusCode::kCorruptData, "checkpoint payload malformed");
  const std::uint64_t n_ring = pr.u64();
  data.ring.clear();
  for (std::uint64_t i = 0; i < n_ring && pr.ok(); ++i) {
    CheckpointData::StagedSlotData s;
    s.cycle = pr.i32();
    if (!pr.f64_vec(s.increment))
      return Status(StatusCode::kCorruptData, "checkpoint payload malformed");
    data.ring.push_back(std::move(s));
  }
  if (!pr.blob(data.applied) || !pr.blob(data.stream_state) || !pr.blob(data.filter_state))
    return Status(StatusCode::kCorruptData, "checkpoint payload malformed");
  const std::uint64_t n_metrics = pr.u64();
  data.metrics.clear();
  for (std::uint64_t i = 0; i < n_metrics && pr.ok(); ++i) {
    StreamCycleMetrics m;
    read_metrics(pr, m);
    data.metrics.push_back(m);
  }
  if (!pr.done()) return Status(StatusCode::kCorruptData, "checkpoint payload malformed");
  if (data.ensemble.size() != data.n_members * data.dim)
    return Status(StatusCode::kCorruptData, "checkpoint ensemble size inconsistent");
  if (!data.increment.empty() && data.increment.size() != data.ensemble.size())
    return Status(StatusCode::kCorruptData, "checkpoint analysis increment inconsistent");
  for (const auto& s : data.ring)
    if (s.increment.size() != data.ensemble.size())
      return Status(StatusCode::kCorruptData, "checkpoint staged slot inconsistent");
  return Status::Ok();
}

}  // namespace turbda::stream
