// Versioned, integrity-checked snapshots of a cycling run.
//
// A real-time assimilation service must survive being killed: the snapshot
// captures everything the RealtimeRunner needs to continue *bitwise
// identically* — the ensemble, the cycle index, the overlapped schedule's
// staged analysis increments, the duplicate-batch guard, the stream's
// undelivered queue and truth ring, the filter's cross-cycle state and the
// metrics rows already produced. The file format is little-endian with a
// magic tag, a format version and a CRC-32 trailer over the payload, so a
// truncated, corrupted or future-format file is *refused* with a precise
// Status instead of silently resuming from garbage.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "stream/realtime_runner.hpp"

namespace turbda::stream {

inline constexpr std::uint32_t kCheckpointMagic = 0x4B434454u;  // "TDCK" LE
// v2: StreamCycleMetrics grew qc_ms / checkpoint_ms / pool_idle_frac.
// v3: overlap_depth config echo + deep-overlap staged-analysis ring;
//     StreamCycleMetrics grew late_applied / ingest_* columns.
// v4: each staged analysis (the K=1 double buffer and every deep-ring slot)
//     is stored as one increment array (post - prior) instead of full prior
//     and posterior ensembles; the have_increment flag is gone (an empty
//     increment means none is staged).
inline constexpr std::uint32_t kCheckpointVersion = 4;

/// Everything a snapshot holds. The config echo fields let resume() refuse a
/// checkpoint taken under a different setup instead of diverging silently.
struct CheckpointData {
  // Config echo.
  std::uint64_t seed = 0;
  std::uint64_t n_members = 0;
  std::uint64_t dim = 0;
  std::int32_t cycles = 0;
  std::uint8_t schedule = 0;      ///< static_cast<uint8_t>(Schedule)
  std::int32_t overlap_depth = 1; ///< Overlapped pipeline depth K

  std::int32_t next_cycle = 0;  ///< first cycle the resumed run executes

  std::vector<std::uint8_t> rng_modelerr;  ///< Rng::kStateBytes
  std::vector<double> ensemble;            ///< n_members * dim, member-major

  /// Overlapped K=1 schedule: the staged analysis increment, post[i] -
  /// prior[i] exactly as the apply step computes it (empty when none is
  /// staged). Restored as post = increment, prior = 0, which reproduces the
  /// same bits because x - 0.0 == x for every double.
  std::vector<double> increment;

  /// Deep-overlap (K > 1) ring: analyses staged but not yet applied at the
  /// snapshot point, completed (joined) before serialization so the bytes
  /// are deterministic. Empty for Serial and K == 1 runs.
  struct StagedSlotData {
    std::int32_t cycle = -1;
    std::vector<double> increment;  ///< post - prior, as `increment` above
  };
  std::vector<StagedSlotData> ring;

  std::vector<std::uint8_t> applied;  ///< per-window duplicate guard, size cycles
  std::vector<std::uint8_t> stream_state;
  std::vector<std::uint8_t> filter_state;
  std::vector<StreamCycleMetrics> metrics;  ///< rows already produced
};

/// Serializes header + payload + CRC into one buffer, writes it to
/// `<path>.tmp` and renames that over `path`, so a process killed mid-write
/// leaves the previous snapshot intact. Returns kIoError when the file
/// cannot be written.
[[nodiscard]] Status save_checkpoint(const std::string& path, const CheckpointData& data);

/// Validates magic, version, length and CRC before decoding; on any failure
/// returns a non-ok Status and leaves `data` unspecified.
[[nodiscard]] Status load_checkpoint(const std::string& path, CheckpointData& data);

}  // namespace turbda::stream
