// Checkpoint/restart tests: the snapshot format (CRC, version, refusal of
// corrupt files), Rng state round-trips, and the hard invariant that a
// resumed cycling run continues *bitwise identically* to the uninterrupted
// one — for both schedules, across thread counts, and under fault injection
// with QC active.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/crc32.hpp"
#include "da/ensf.hpp"
#include "da/etkf.hpp"
#include "models/lorenz96.hpp"
#include "models/model_error.hpp"
#include "rng/rng.hpp"
#include "stream/checkpoint.hpp"
#include "stream/faulty_stream.hpp"
#include "stream/realtime_runner.hpp"
#include "stream/synthetic_stream.hpp"

namespace turbda {
namespace {

using models::Lorenz96;
using models::Lorenz96Config;

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

enum class FilterKind { Etkf, Ensf };

std::unique_ptr<da::Filter> make_filter(FilterKind kind) {
  if (kind == FilterKind::Ensf) return std::make_unique<da::EnSF>(da::EnsfConfig::stabilized());
  return std::make_unique<da::ETKF>(da::EtkfConfig{.rtps = 0.4});
}

struct CkptRun {
  std::vector<stream::StreamCycleMetrics> metrics;
  da::Ensemble ens{2, kDim};
  Status ckpt_status = Status::Ok();
  Status resume_status = Status::Ok();
};

/// One full stack (models + stream [+ faults] + filter + runner). `resume`
/// empty runs from scratch; otherwise the run continues from that snapshot.
CkptRun run_stack(stream::SyntheticStreamConfig sc, stream::RealtimeConfig rc,
                  const stream::FaultConfig* fc, FilterKind kind, bool model_error = false,
                  const std::string& resume = {}) {
  Lorenz96Config mc;
  mc.dim = kDim;
  mc.steps_per_window = 10;
  Lorenz96 truth_model(mc), fcst_model(mc);
  da::IdentityObs h(kDim);
  da::DiagonalR r(kDim, 1.0);
  models::ModelErrorProcess me(models::ModelErrorConfig{.reference_scale = 1.0});
  const auto truth0 = spun_up_truth();
  stream::SyntheticStream inner(sc, truth_model, h, r, truth0);
  std::optional<stream::FaultyStream> faulty;
  stream::ObservationStream* s = &inner;
  if (fc != nullptr) {
    faulty.emplace(*fc, inner);
    s = &*faulty;
  }
  auto filter = make_filter(kind);
  rc.inject_model_error = model_error;
  stream::RealtimeRunner runner(rc, *s, fcst_model, filter.get(), model_error ? &me : nullptr);
  CkptRun out;
  if (resume.empty()) {
    out.metrics = runner.run(truth0);
  } else {
    out.resume_status = runner.resume(resume, out.metrics);
    if (!out.resume_status.ok()) return out;
  }
  out.ens = runner.ensemble();
  out.ckpt_status = runner.last_checkpoint_status();
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

/// Every deterministic (non-wall-clock) field must match bitwise.
void expect_deterministic_metrics_equal(const std::vector<stream::StreamCycleMetrics>& a,
                                        const std::vector<stream::StreamCycleMetrics>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k].cycle, b[k].cycle);
    EXPECT_EQ(a[k].rmse_prior, b[k].rmse_prior) << "cycle " << k;
    EXPECT_EQ(a[k].rmse_post, b[k].rmse_post) << "cycle " << k;
    EXPECT_EQ(a[k].spread_prior, b[k].spread_prior) << "cycle " << k;
    EXPECT_EQ(a[k].spread_post, b[k].spread_post) << "cycle " << k;
    EXPECT_EQ(a[k].batches_assimilated, b[k].batches_assimilated) << "cycle " << k;
    EXPECT_EQ(a[k].batches_discarded, b[k].batches_discarded) << "cycle " << k;
    EXPECT_EQ(a[k].max_batch_age, b[k].max_batch_age) << "cycle " << k;
    EXPECT_EQ(a[k].deadline_miss, b[k].deadline_miss) << "cycle " << k;
    EXPECT_EQ(a[k].obs_rejected, b[k].obs_rejected) << "cycle " << k;
    EXPECT_EQ(a[k].batches_rejected, b[k].batches_rejected) << "cycle " << k;
    EXPECT_EQ(a[k].max_r_scale, b[k].max_r_scale) << "cycle " << k;
    EXPECT_EQ(a[k].analysis_failures, b[k].analysis_failures) << "cycle " << k;
    EXPECT_EQ(a[k].solver_fallbacks, b[k].solver_fallbacks) << "cycle " << k;
    EXPECT_EQ(a[k].spread_recoveries, b[k].spread_recoveries) << "cycle " << k;
    EXPECT_EQ(a[k].degraded, b[k].degraded) << "cycle " << k;
  }
}

std::string temp_path(const std::string& name) { return testing::TempDir() + name; }

// ----------------------------------------------------------- primitives ----

TEST(Checkpoint, Crc32MatchesKnownVector) {
  const char* s = "123456789";
  EXPECT_EQ(crc32({reinterpret_cast<const std::uint8_t*>(s), 9}), 0xCBF43926u);
  EXPECT_EQ(crc32({}), 0x00000000u);
}

TEST(Checkpoint, RngStateRoundTripsMidSequence) {
  rng::Rng a(12345);
  std::vector<double> warm(7);
  for (auto& v : warm) v = a.gaussian();  // odd count: a cached pair is live

  std::vector<std::uint8_t> state;
  a.save_state(state);
  EXPECT_EQ(state.size(), rng::Rng::kStateBytes);

  std::vector<double> expect(32);
  for (auto& v : expect) v = a.gaussian();

  rng::Rng b(999);  // deliberately different seed; state must fully override
  ASSERT_TRUE(b.load_state(state));
  for (std::size_t i = 0; i < expect.size(); ++i) EXPECT_EQ(b.gaussian(), expect[i]) << i;

  // Malformed state is refused.
  rng::Rng c(1);
  std::vector<std::uint8_t> junk(rng::Rng::kStateBytes - 1, 0);
  EXPECT_FALSE(c.load_state(junk));
}

// -------------------------------------------------------- bitwise resume ---

TEST(Checkpoint, SerialResumeIsBitwiseIdentical) {
  stream::SyntheticStreamConfig sc;
  stream::RealtimeConfig rc;
  rc.cycles = 18;
  rc.n_members = 10;

  const auto uninterrupted = run_stack(sc, rc, nullptr, FilterKind::Etkf, true);

  const std::string path = temp_path("ckpt_serial.bin");
  auto rc_ck = rc;
  rc_ck.checkpoint_path = path;
  rc_ck.checkpoint_every = 7;  // snapshots at cycles 7 and 14
  const auto with_ckpt = run_stack(sc, rc_ck, nullptr, FilterKind::Etkf, true);

  // Checkpointing itself must not perturb the run.
  ASSERT_TRUE(with_ckpt.ckpt_status.ok()) << with_ckpt.ckpt_status.to_string();
  expect_bitwise_equal(uninterrupted.ens, with_ckpt.ens);
  expect_deterministic_metrics_equal(uninterrupted.metrics, with_ckpt.metrics);

  // A fresh stack resumed from the last snapshot (cycle 14) must land on the
  // identical final state and reconstruct the full metrics history.
  const auto resumed = run_stack(sc, rc_ck, nullptr, FilterKind::Etkf, true, path);
  ASSERT_TRUE(resumed.resume_status.ok()) << resumed.resume_status.to_string();
  expect_bitwise_equal(uninterrupted.ens, resumed.ens);
  expect_deterministic_metrics_equal(uninterrupted.metrics, resumed.metrics);
  std::remove(path.c_str());
}

TEST(Checkpoint, EnsfFilterStateSurvivesResume) {
  // EnSF keeps a cross-cycle analysis counter (its noise substream key); a
  // resume that failed to restore it would diverge immediately.
  stream::SyntheticStreamConfig sc;
  stream::RealtimeConfig rc;
  rc.cycles = 10;
  rc.n_members = 16;

  const auto uninterrupted = run_stack(sc, rc, nullptr, FilterKind::Ensf);

  const std::string path = temp_path("ckpt_ensf.bin");
  auto rc_ck = rc;
  rc_ck.checkpoint_path = path;
  rc_ck.checkpoint_every = 4;  // snapshots at cycles 4 and 8
  const auto with_ckpt = run_stack(sc, rc_ck, nullptr, FilterKind::Ensf);
  ASSERT_TRUE(with_ckpt.ckpt_status.ok()) << with_ckpt.ckpt_status.to_string();

  const auto resumed = run_stack(sc, rc_ck, nullptr, FilterKind::Ensf, false, path);
  ASSERT_TRUE(resumed.resume_status.ok()) << resumed.resume_status.to_string();
  expect_bitwise_equal(uninterrupted.ens, resumed.ens);
  expect_deterministic_metrics_equal(uninterrupted.metrics, resumed.metrics);
  std::remove(path.c_str());
}

TEST(Checkpoint, OverlappedFaultyResumeAcrossThreadCounts) {
  // The hard case: overlapped pipeline mid-flight (staged analysis buffers
  // live), delivery jitter, fault injection and QC all active — and the
  // resuming process uses a different forecast thread count than the
  // process that wrote the snapshot.
  stream::SyntheticStreamConfig sc;
  sc.latency_cycles = 0.4;
  sc.jitter_cycles = 0.5;
  stream::RealtimeConfig rc;
  rc.cycles = 16;
  rc.n_members = 12;
  rc.schedule = stream::Schedule::Overlapped;
  rc.qc.enabled = true;
  rc.qc.bg_sigma = 5.0;
  rc.qc.stale_r_inflation = 0.5;
  rc.n_forecast_threads = 1;

  stream::FaultConfig fc;
  fc.nan_prob = 0.05;
  fc.stuck_prob = 0.3;
  fc.duplicate_prob = 0.3;
  fc.truncate_prob = 0.15;

  const auto uninterrupted = run_stack(sc, rc, &fc, FilterKind::Etkf);

  const std::string path = temp_path("ckpt_overlap.bin");
  auto rc_ck = rc;
  rc_ck.checkpoint_path = path;
  rc_ck.checkpoint_every = 5;  // last snapshot at cycle 15 (mid-pipeline)
  const auto with_ckpt = run_stack(sc, rc_ck, &fc, FilterKind::Etkf);
  ASSERT_TRUE(with_ckpt.ckpt_status.ok()) << with_ckpt.ckpt_status.to_string();
  expect_bitwise_equal(uninterrupted.ens, with_ckpt.ens);

  auto rc_resume = rc_ck;
  rc_resume.n_forecast_threads = 0;  // all pool workers this time
  const auto resumed = run_stack(sc, rc_resume, &fc, FilterKind::Etkf, false, path);
  ASSERT_TRUE(resumed.resume_status.ok()) << resumed.resume_status.to_string();
  expect_bitwise_equal(uninterrupted.ens, resumed.ens);
  expect_deterministic_metrics_equal(uninterrupted.metrics, resumed.metrics);
  std::remove(path.c_str());
}

// ------------------------------------------------------ refusal paths ------

/// Writes one real snapshot and returns its bytes.
std::vector<char> make_snapshot(const std::string& path) {
  stream::SyntheticStreamConfig sc;
  stream::RealtimeConfig rc;
  rc.cycles = 10;
  rc.n_members = 8;
  rc.checkpoint_path = path;
  rc.checkpoint_every = 5;
  const auto r = run_stack(sc, rc, nullptr, FilterKind::Etkf);
  EXPECT_TRUE(r.ckpt_status.ok());
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(Checkpoint, CorruptSnapshotsAreRefusedWithPreciseStatus) {
  const std::string path = temp_path("ckpt_corrupt.bin");
  const auto good = make_snapshot(path);
  ASSERT_GT(good.size(), 40u);
  stream::CheckpointData data;

  // Pristine file loads.
  ASSERT_TRUE(stream::load_checkpoint(path, data).ok());

  // Bit flip inside the payload: CRC mismatch.
  auto flipped = good;
  flipped[24] = static_cast<char>(flipped[24] ^ 0x40);
  write_bytes(path, flipped);
  Status s = stream::load_checkpoint(path, data);
  EXPECT_EQ(s.code(), StatusCode::kCorruptData);
  EXPECT_NE(s.message().find("CRC"), std::string::npos) << s.to_string();

  // Truncated file.
  auto truncated = good;
  truncated.resize(good.size() - 11);
  write_bytes(path, truncated);
  EXPECT_EQ(stream::load_checkpoint(path, data).code(), StatusCode::kCorruptData);

  // Trailing garbage.
  auto padded = good;
  padded.push_back('x');
  write_bytes(path, padded);
  EXPECT_EQ(stream::load_checkpoint(path, data).code(), StatusCode::kCorruptData);

  // Wrong magic.
  auto bad_magic = good;
  bad_magic[0] = 'X';
  write_bytes(path, bad_magic);
  s = stream::load_checkpoint(path, data);
  EXPECT_EQ(s.code(), StatusCode::kCorruptData);
  EXPECT_NE(s.message().find("magic"), std::string::npos) << s.to_string();

  // Future format version.
  auto future = good;
  future[4] = static_cast<char>(future[4] + 1);
  write_bytes(path, future);
  s = stream::load_checkpoint(path, data);
  EXPECT_EQ(s.code(), StatusCode::kUnsupported);
  EXPECT_NE(s.message().find("version"), std::string::npos) << s.to_string();

  std::remove(path.c_str());
}

TEST(Checkpoint, PreIncrementFormatIsRefusedAsUnsupported) {
  // v3 files stored staged analyses as full prior/posterior ensembles; v4
  // stores increments. An old file is refused, not misparsed.
  const std::string path = temp_path("ckpt_v3.bin");
  auto old = make_snapshot(path);
  old[4] = 3;
  old[5] = old[6] = old[7] = 0;
  write_bytes(path, old);
  stream::CheckpointData data;
  const Status s = stream::load_checkpoint(path, data);
  EXPECT_EQ(s.code(), StatusCode::kUnsupported);
  EXPECT_NE(s.message().find("version 3"), std::string::npos) << s.to_string();
  std::remove(path.c_str());
}

TEST(Checkpoint, HostileLengthWithValidCrcIsCorruptData) {
  // A snapshot whose CRC is right but whose ensemble length field claims
  // 2^61 + 1 doubles (8 * n wraps to 8): refused with a Status, no throw.
  const std::string path = temp_path("ckpt_hostile.bin");
  auto file = make_snapshot(path);
  // Payload: seed, n_members, dim (3 x u64), cycles (i32), schedule (u8),
  // overlap_depth, next_cycle (2 x i32), then the RNG blob and the ensemble.
  const std::size_t rng_len_at = 16 + 3 * 8 + 4 + 1 + 2 * 4;
  const std::size_t ens_len_at = rng_len_at + 8 + rng::Rng::kStateBytes;
  std::vector<std::uint8_t> bytes(file.begin(), file.end());
  bytes::put_u64_at(bytes, ens_len_at, (std::uint64_t{1} << 61) + 1);
  const std::span<const std::uint8_t> payload(bytes.data() + 16, bytes.size() - 20);
  const std::uint32_t crc = crc32(payload);
  for (int i = 0; i < 4; ++i)
    bytes[bytes.size() - 4 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  write_bytes(path, std::vector<char>(bytes.begin(), bytes.end()));

  stream::CheckpointData data;
  Status s = Status::Ok();
  EXPECT_NO_THROW(s = stream::load_checkpoint(path, data));
  EXPECT_EQ(s.code(), StatusCode::kCorruptData) << s.to_string();
  EXPECT_NE(s.message().find("malformed"), std::string::npos) << s.to_string();
  std::remove(path.c_str());
}

TEST(Checkpoint, FailedWriteLeavesPreviousSnapshotIntact) {
  // The snapshot is written beside the live file and renamed over it. When
  // that write fails (here: <path>.tmp is a directory), the last good
  // snapshot must survive byte for byte and still load.
  const std::string path = temp_path("ckpt_atomic.bin");
  const auto good = make_snapshot(path);
  stream::CheckpointData before;
  ASSERT_TRUE(stream::load_checkpoint(path, before).ok());

  const std::string tmp = path + ".tmp";
  std::filesystem::remove_all(tmp);
  ASSERT_TRUE(std::filesystem::create_directory(tmp));
  stream::CheckpointData other = before;
  other.next_cycle += 1;
  other.ensemble.assign(other.ensemble.size(), 0.0);
  EXPECT_EQ(stream::save_checkpoint(path, other).code(), StatusCode::kIoError);
  EXPECT_TRUE(std::filesystem::is_directory(tmp));
  std::filesystem::remove_all(tmp);

  std::ifstream in(path, std::ios::binary);
  const std::vector<char> after{std::istreambuf_iterator<char>(in),
                                std::istreambuf_iterator<char>()};
  EXPECT_EQ(after, good);
  stream::CheckpointData reloaded;
  ASSERT_TRUE(stream::load_checkpoint(path, reloaded).ok());
  EXPECT_EQ(reloaded.next_cycle, before.next_cycle);
  ASSERT_EQ(reloaded.ensemble.size(), before.ensemble.size());
  EXPECT_EQ(0, std::memcmp(reloaded.ensemble.data(), before.ensemble.data(),
                           before.ensemble.size() * sizeof(double)));

  // A successful save replaces the file and leaves no temporary behind.
  ASSERT_TRUE(stream::save_checkpoint(path, other).ok());
  EXPECT_FALSE(std::filesystem::exists(tmp));
  ASSERT_TRUE(stream::load_checkpoint(path, reloaded).ok());
  EXPECT_EQ(reloaded.next_cycle, other.next_cycle);
  std::remove(path.c_str());
}

TEST(Checkpoint, StagedAnalysisIsStoredAsOneIncrement) {
  // An overlapped K=1 snapshot taken mid-pipeline carries exactly one
  // ensemble-sized increment array (v4), not a prior/posterior pair.
  stream::SyntheticStreamConfig sc;
  stream::RealtimeConfig rc;
  rc.cycles = 10;
  rc.n_members = 8;
  rc.schedule = stream::Schedule::Overlapped;
  const std::string path = temp_path("ckpt_increment.bin");
  rc.checkpoint_path = path;
  rc.checkpoint_every = 5;
  const auto r = run_stack(sc, rc, nullptr, FilterKind::Etkf);
  ASSERT_TRUE(r.ckpt_status.ok()) << r.ckpt_status.to_string();
  stream::CheckpointData data;
  ASSERT_TRUE(stream::load_checkpoint(path, data).ok());
  EXPECT_EQ(data.next_cycle, 5);
  EXPECT_EQ(data.increment.size(), data.ensemble.size());
  EXPECT_TRUE(data.ring.empty());
  std::remove(path.c_str());
}

TEST(Checkpoint, MissingFileIsIoError) {
  stream::CheckpointData data;
  const Status s = stream::load_checkpoint(temp_path("does_not_exist.bin"), data);
  EXPECT_EQ(s.code(), StatusCode::kIoError);
}

TEST(Checkpoint, MismatchedConfigurationIsRefusedOnResume) {
  const std::string path = temp_path("ckpt_mismatch.bin");
  (void)make_snapshot(path);

  stream::SyntheticStreamConfig sc;
  stream::RealtimeConfig rc;
  rc.cycles = 10;
  rc.n_members = 8;
  rc.seed = 777;  // different seed than the snapshot's config echo
  const auto r = run_stack(sc, rc, nullptr, FilterKind::Etkf, false, path);
  EXPECT_EQ(r.resume_status.code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace turbda
