#include "workloads.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <thread>

#include "da/letkf.hpp"
#include "ledger.hpp"
#include "letkf_reference.hpp"
#include "models/scaled_forecast.hpp"
#include "parallel/thread_pool.hpp"
#include "probes.hpp"
#include "rng/rng.hpp"
#include "sqg/sqg.hpp"
#include "stream/checkpoint.hpp"
#include "stream/faulty_stream.hpp"
#include "stream/ingest/ingest_stream.hpp"
#include "stream/ingest/tail_stream.hpp"
#include "stream/ingest/wire.hpp"
#include "stream/realtime_runner.hpp"
#include "stream/synthetic_stream.hpp"

namespace cyclebench {

using namespace turbda;
namespace ingest = turbda::stream::ingest;

namespace {

// ------------------------------------------------------------ workloads ---

struct Spec {
  std::string name;
  std::size_t n = 32;
  std::size_t members = 8;
  double window_hours = 3.0;
  double spinup_days = 3.0;
  std::size_t stride = 4;  ///< strided_grid network
  int depth = 1;            ///< overlap depth K of the overlapped schedule
  std::size_t threads = 1;  ///< LETKF workers and member-forecast workers
  int cycles = 8;           ///< cycles of the uninterrupted run of a round
  int resume_at = 0;        ///< live: resume from the checkpoint taken before this cycle
  bool live = false;
  /// Independent nature runs (and, for live, recordings) per round. The
  /// OSSE error of one short run varies by 10-20% from seed to seed; rmse_k
  /// averages over the scenarios so that it reflects the filter, not the seed.
  int scenarios = 1;
  std::size_t check_columns = 0;  ///< columns the independent LETKF recomputes
};

std::size_t nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return static_cast<std::size_t>(CPU_COUNT(&set));
  return std::max(1u, std::thread::hardware_concurrency());
}

Spec make_spec(const std::string& name, bool tiny) {
  const std::size_t wide = std::min<std::size_t>(nproc(), 4);
  Spec s;
  s.name = name;
  if (name == "letkf-n128-overlap") {
    s.n = 128;
    s.members = 20;
    s.window_hours = 3.0;
    s.spinup_days = 3.0;
    s.stride = 8;
    s.threads = wide;
    s.cycles = 8;
    s.check_columns = 96;
  } else if (name == "live-n32-deep") {
    s.n = 32;
    s.members = 8;
    s.window_hours = 3.0;
    s.spinup_days = 5.0;
    s.stride = 4;
    s.depth = 2;
    s.threads = 1;
    s.cycles = 20;
    s.resume_at = 10;
    s.live = true;
    s.scenarios = 10;
    s.check_columns = 64;
  }
  if (tiny) {
    s.n = 32;
    s.members = 8;
    s.spinup_days = 1.0;
    s.stride = 4;
    s.cycles = s.live ? 10 : 3;
    if (s.live) s.resume_at = 5;
    s.scenarios = std::min(s.scenarios, 2);
    s.check_columns = std::min<std::size_t>(s.check_columns, 32);
  }
  return s;
}

// --------------------------------------------------------------- set-up ---

struct Setup {
  std::shared_ptr<sqg::SqgModel> model;
  double kelvin = 1.0;
  std::unique_ptr<sqg::SqgForecast> truth_raw, fcst_raw;
  std::unique_ptr<models::ScaledForecast> truth_model, fcst_model;
  std::unique_ptr<da::ObservationOperator> h;
  std::unique_ptr<da::DiagonalR> r;
  da::LetkfConfig letkf_cfg;
  std::unique_ptr<da::Filter> filter;
  /// Traced rounds only: a LETKF with per-phase timings on (bitwise the same
  /// analysis; the clocks are the only difference).
  std::unique_ptr<da::LETKF> timed_letkf;
  std::vector<std::uint8_t> filter_state0;
  double prepare_ms = 0.0;
  double plan_ms = 0.0;  ///< LETKF plan build inside prepare (traced runs only)

  /// One nature run (and, for live-n32-deep, its wire recording).
  struct Scenario {
    std::uint64_t seed = 0;
    std::vector<double> truth0;
    std::string recording;
    std::size_t corrupted_copies = 0;
    std::size_t nonfinite_written = 0;
  };
  std::vector<Scenario> scenarios;
};

std::uint64_t scenario_seed(std::uint64_t seed, int i) {
  return seed + 1000003ull * static_cast<std::uint64_t>(i);
}

stream::RealtimeConfig realtime_config(const Spec& s, std::uint64_t seed,
                                       const std::string& workdir) {
  stream::RealtimeConfig rc;
  rc.n_members = s.members;
  rc.cycles = s.cycles;
  rc.window_hours = s.window_hours;
  rc.init_spread = 1.5;
  rc.seed = seed;
  rc.n_forecast_threads = s.threads;
  rc.schedule = stream::Schedule::Overlapped;
  rc.overlap_depth = s.depth;
  if (s.live) {
    rc.deadline_slack_cycles = 0.25;
    rc.max_stale_cycles = 2;
    rc.qc.enabled = true;
    rc.qc.clim_min = -100.0;
    rc.qc.clim_max = 100.0;
    rc.qc.bg_sigma = 5.0;
    rc.checkpoint_path = workdir + "/live.ckpt";
    rc.checkpoint_every = 1;
  }
  return rc;
}

/// live-n32-deep: a wire recording of a faulty, very late synthetic feed,
/// with the repository's soak profiles (examples/realtime_da.cpp): the
/// fault-injection soak's content faults and dropout, and the ingest soak's
/// delivery (2.6 windows late, jitter 0.3) and wire damage. Every window
/// carries its batches (as FaultyStream released them), truth retransmits
/// for the last three windows and a heartbeat; a seeded coin puts a
/// payload-damaged copy in front of a quarter of the frames, half of those
/// followed by a run of line noise, and the clean frame after it.
void write_recording(const Setup& st, Setup::Scenario& sn, const Spec& s, const std::string& path) {
  const std::uint64_t seed = sn.seed;
  stream::SyntheticStreamConfig sc;
  sc.seed = seed;
  sc.latency_cycles = 2.6;
  sc.jitter_cycles = 0.3;
  sc.dropout_prob = 0.1;
  stream::SyntheticStream syn(sc, *st.truth_model, *st.h, *st.r, sn.truth0);
  stream::FaultConfig fc;
  fc.seed = seed + 9001;
  fc.nan_prob = 0.05;
  fc.inf_prob = 0.02;
  fc.outlier_prob = 0.03;
  fc.stuck_prob = 0.3;
  fc.duplicate_prob = 0.3;
  fc.truncate_prob = 0.15;
  stream::FaultyStream faulty(fc, syn);
  rng::Rng wire = rng::Rng(seed).substream(13);

  std::vector<std::uint8_t> bytes;
  std::uint64_t seq = 0;
  sn.corrupted_copies = 0;
  sn.nonfinite_written = 0;
  for (int w = 0; w < s.cycles; ++w) {
    faulty.produce(w);
    std::vector<stream::ObsBatch> got;
    faulty.collect(std::numeric_limits<double>::infinity(), got);
    std::vector<std::vector<std::uint8_t>> frames;
    for (const auto& b : got) {
      for (double v : b.y) sn.nonfinite_written += std::isfinite(v) ? 0 : 1;
      ingest::encode_obs_frame(b, frames.emplace_back());
    }
    for (int t = std::max(0, w - 2); t <= w; ++t)
      ingest::encode_truth_frame(t, faulty.truth(t), frames.emplace_back());
    ingest::encode_heartbeat_frame(w, seq++, frames.emplace_back());
    for (const auto& f : frames) {
      if (wire.bernoulli(0.25)) {
        std::vector<std::uint8_t> bad = f;
        bad[ingest::kWireHeaderBytes + 1] ^= 0x5A;  // payload damage the CRC must catch
        bytes.insert(bytes.end(), bad.begin(), bad.end());
        ++sn.corrupted_copies;
        if (wire.bernoulli(0.5))  // line noise the decoder has to hunt through
          for (std::size_t i = 0; i < 24; ++i)
            bytes.push_back(static_cast<std::uint8_t>((i * 7 + 1) % 251));
      }
      bytes.insert(bytes.end(), f.begin(), f.end());
    }
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()), static_cast<std::streamsize>(bytes.size()));
  TURBDA_REQUIRE(out.good(), "cannot write the recording " << path);
  sn.recording = path;
}

std::unique_ptr<Setup> make_setup(const Spec& s, std::uint64_t seed, bool trace,
                                  const std::string& workdir) {
  auto st = std::make_unique<Setup>();
  sqg::SqgConfig mc;
  mc.n = s.n;
  mc.dt = s.n <= 32 ? 1800.0 : 900.0;
  mc.t_diab = 2.0 * 86400.0;
  mc.r_ekman = 200.0;
  mc.diff_efold = 3.0 * 3600.0;
  st->model = std::make_shared<sqg::SqgModel>(mc);
  st->kelvin = models::sqg_kelvin_scale(300.0, mc.f);

  for (int i = 0; i < s.scenarios; ++i) {
    Setup::Scenario& sn = st->scenarios.emplace_back();
    sn.seed = scenario_seed(seed, i);
    rng::Rng rng(sn.seed);
    std::vector<double> raw(st->model->dim());
    st->model->random_init(raw, rng, 2.0 / st->kelvin, 4);
    st->model->advance(raw, s.spinup_days * 86400.0);
    sn.truth0.resize(raw.size());
    for (std::size_t k = 0; k < raw.size(); ++k) sn.truth0[k] = raw[k] * st->kelvin;
  }

  const double window_s = s.window_hours * 3600.0;
  st->truth_raw = std::make_unique<sqg::SqgForecast>(st->model, window_s);
  st->fcst_raw = std::make_unique<sqg::SqgForecast>(st->model, window_s);
  st->truth_model = std::make_unique<models::ScaledForecast>(*st->truth_raw, st->kelvin);
  st->fcst_model = std::make_unique<models::ScaledForecast>(*st->fcst_raw, st->kelvin);

  st->h = std::make_unique<da::SubsampleObs>(da::SubsampleObs::strided_grid(s.n, s.n, 2, s.stride));
  st->r = std::make_unique<da::DiagonalR>(st->h->obs_dim(), 1.0);

  da::LetkfConfig& lc = st->letkf_cfg;
  lc.nx = s.n;
  lc.ny = s.n;
  lc.n_levels = 2;
  lc.domain_m = mc.L;
  lc.cutoff_m = 2.0e6;
  lc.rtps = 0.3;
  lc.rossby_radius_m = std::sqrt(mc.nsq) * mc.H / mc.f;
  lc.n_threads = s.threads;
  st->filter = std::make_unique<da::LETKF>(lc);
  if (trace) {
    // The plan is built here, once per network: analyses reuse it, so its
    // build time is read before the per-analysis clocks are cleared.
    da::LetkfConfig tc = lc;
    tc.collect_timings = true;
    st->timed_letkf = std::make_unique<da::LETKF>(tc);
    st->timed_letkf->prepare(*st->h, *st->r);
    st->plan_ms = st->timed_letkf->timings().plan_ms;
    st->timed_letkf->reset_timings();
  }
  TimedFilter probe(*st->filter);
  probe.prepare(*st->h, *st->r);
  st->prepare_ms = probe.last_prepare_ms();
  TURBDA_REQUIRE(st->filter->save_state(st->filter_state0), "filter state is not saveable");

  if (s.live)
    for (std::size_t i = 0; i < st->scenarios.size(); ++i)
      write_recording(*st, st->scenarios[i], s, workdir + "/live-" + std::to_string(i) + ".rec");

  // Pool warm-up: every worker runs once before the first cycle.
  auto& pool = parallel::global_pool();
  std::vector<std::future<void>> warm;
  for (std::size_t i = 0; i < pool.size(); ++i) warm.push_back(pool.submit([] {}));
  for (auto& f : warm) f.get();
  return st;
}

// ---------------------------------------------------------------- runs ---

/// One RealtimeRunner::run (or resume) with its probes' records.
struct RunOutcome {
  std::unique_ptr<RunLog> log = std::make_unique<RunLog>();
  std::vector<stream::StreamCycleMetrics> rows;  ///< cycles this call ran
  std::optional<da::Ensemble> final_ens;
  std::string error;        ///< exception or non-ok resume Status
  int nonfinite_hooks = 0;  ///< hooks whose posterior mean was not finite
  ingest::IngestStats ingest;
};

bool all_finite(std::span<const double> v) {
  for (double x : v)
    if (!std::isfinite(x)) return false;
  return true;
}

RunOutcome run_once(Setup& st, const Setup::Scenario& sn, const Spec& s, const Options& opt,
                    bool traced, bool check, bool resume) {
  RunOutcome out;
  RunLog& log = *out.log;
  log.traced = traced;
  log.fit_check = check;
  log.capture_first = check && !resume;
  log.start_cycle = resume ? s.resume_at : 0;

  da::Filter& filter = traced && st.timed_letkf ? *st.timed_letkf : *st.filter;
  TURBDA_REQUIRE(filter.restore_state(st.filter_state0), "filter state restore failed");
  TimedForecast model(*st.fcst_model);
  TimedFilter tfilter(filter);
  model.attach(&log);
  tfilter.attach(&log);

  std::unique_ptr<stream::ObservationStream> inner;
  ingest::IngestStream* ingest_stream = nullptr;
  if (s.live) {
    ingest::TailStreamConfig tc;
    tc.path = sn.recording;
    tc.stop_at_eof = true;
    ingest::IngestStreamConfig ic;
    ic.read_timeout_ms = 5;
    ic.stale_after_ms = 1000;
    ic.produce_timeout_ms = 10000;
    auto is = std::make_unique<ingest::IngestStream>(
        ic, std::make_unique<ingest::TailStream>(tc), *st.h, *st.r);
    ingest_stream = is.get();
    inner = std::move(is);
  } else {
    stream::SyntheticStreamConfig sc;
    sc.seed = sn.seed;
    inner = std::make_unique<stream::SyntheticStream>(sc, *st.truth_model, *st.h, *st.r, sn.truth0);
  }
  TimedStream tstream(*inner);
  tstream.attach(&log);

  const stream::RealtimeConfig rc = realtime_config(s, sn.seed, opt.workdir);
  const std::string mid_copy = opt.workdir + "/live-mid.ckpt";
  stream::RealtimeRunner runner(rc, tstream, model, &tfilter);
  runner.set_post_analysis_hook([&](int cycle, std::span<const double> mean) {
    const double t = now_ms();
    if (!all_finite(mean)) ++out.nonfinite_hooks;
    {
      std::lock_guard<std::mutex> lk(log.mu);
      log.hook_ms.push_back(t);
    }
    // The snapshot on disk at this hook resumes at `cycle`.
    if (s.live && !resume && cycle == s.resume_at)
      std::filesystem::copy_file(rc.checkpoint_path, mid_copy,
                                 std::filesystem::copy_options::overwrite_existing);
  });

  log.t_start = now_ms();
  try {
    std::vector<stream::StreamCycleMetrics> rows;
    if (resume) {
      const Status rs = runner.resume(mid_copy, rows);
      if (!rs.ok()) out.error = "resume refused: " + rs.to_string();
    } else {
      rows = runner.run(sn.truth0);
    }
    for (const auto& row : rows)
      if (row.cycle >= log.start_cycle) out.rows.push_back(row);
    if (out.error.empty()) out.final_ens.emplace(runner.ensemble());
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  if (ingest_stream != nullptr) out.ingest = ingest_stream->stats();
  return out;
}

/// Cycles of a run that failed: never completed, an analysis returned a
/// non-ok Status, or the ensemble went non-finite.
long failed_cycles(const RunOutcome& r, const Spec& s) {
  const long planned = s.cycles - r.log->start_cycle;
  long bad = planned - static_cast<long>(r.rows.size());
  for (const auto& row : r.rows)
    if (row.analysis_failures > 0 || !std::isfinite(row.rmse_post) || !std::isfinite(row.spread_post))
      ++bad;
  if (r.final_ens && !all_finite(r.final_ens->data().flat())) bad = std::max(bad, 1L);
  return std::min(std::max(bad, static_cast<long>(r.nonfinite_hooks)), planned);
}

/// For each analysis call, the index of the delivered full-shape batch whose
/// accepted values it carries (-1 when none does).
std::vector<int> match_analyses(const RunLog& log) {
  std::vector<int> match(log.analyses.size(), -1);
  std::vector<bool> taken(log.collects.size(), false);
  for (std::size_t a = 0; a < log.analyses.size(); ++a) {
    const AnalysisRecord& an = log.analyses[a];
    for (std::size_t c = 0; c < log.collects.size() && match[a] < 0; ++c) {
      const CollectRecord& cr = log.collects[c];
      if (taken[c] || !cr.full_shape || cr.y.size() != an.y.size()) continue;
      bool same = true;
      for (std::size_t o = 0; o < an.y.size() && same; ++o)
        if (an.mask.empty() || an.mask[o] != 0) same = an.y[o] == cr.y[o];
      if (same) {
        match[a] = static_cast<int>(c);
        taken[c] = true;
      }
    }
  }
  return match;
}

/// Wall time from the collect() that handed each applied batch to the
/// runner to the hook of the first cycle whose ensemble holds its
/// increment: K cycles later in the overlapped schedule (the last cycle
/// drains every staged analysis).
std::vector<double> obs_to_analysis(const RunOutcome& r, const Spec& s,
                                    const std::vector<int>& match) {
  std::vector<double> out;
  const RunLog& log = *r.log;
  for (std::size_t a = 0; a < match.size(); ++a) {
    if (match[a] < 0 || !log.analyses[a].ok) continue;
    const CollectRecord& c = log.collects[static_cast<std::size_t>(match[a])];
    const int applied = std::min(c.runner_cycle + s.depth, s.cycles - 1);
    const auto idx = static_cast<std::size_t>(applied - log.start_cycle);
    if (idx < log.hook_ms.size()) out.push_back(log.hook_ms[idx] - c.t_ms);
  }
  return out;
}

/// Cycle wall times of a run: hook to hook. The first cycle is the
/// overlapped pipeline's prologue (no analysis yet) and is left out.
std::vector<double> cycle_times(const RunLog& log) {
  std::vector<double> out;
  for (std::size_t i = 1; i < log.hook_ms.size(); ++i)
    out.push_back(log.hook_ms[i] - log.hook_ms[i - 1]);
  return out;
}

/// Linear-interpolation quantile, q in [0, 1].
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double cpu_ms() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto ms = [](const timeval& t) { return t.tv_sec * 1e3 + t.tv_usec * 1e-3; };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

bool bitwise_equal(const da::Ensemble& a, const da::Ensemble& b) {
  const auto x = a.data().flat(), y = b.data().flat();
  return x.size() == y.size() && std::equal(x.begin(), x.end(), y.begin(), [](double p, double q) {
           return std::memcmp(&p, &q, sizeof(double)) == 0;
         });
}

// ------------------------------------------------------- correctness ---

/// The property checks on one scenario's runs of round 0 (the uninterrupted
/// run, then for live-n32-deep its resume); appends what failed.
void check_scenario(std::span<const RunOutcome> runs, const Setup& st, const Setup::Scenario& sn,
                    const Spec& s, std::vector<std::string>& fail) {
  const auto expect = [&fail](bool ok, const std::string& what) {
    if (!ok) fail.push_back(what);
  };
  const RunOutcome& run = runs.front();
  const RunLog& log = *run.log;
  expect(run.error.empty(), "run failed: " + run.error);
  if (!run.error.empty()) return;

  // Every cycle completes and the ensemble stays finite.
  expect(failed_cycles(run, s) == 0, "a cycle failed or went non-finite");

  // Every analysis input traces back to one delivered batch; no window twice.
  const std::vector<int> match = match_analyses(log);
  std::vector<int> windows;
  bool traced = true;
  for (std::size_t a = 0; a < match.size(); ++a) {
    if (match[a] < 0) traced = false;
    else windows.push_back(log.collects[static_cast<std::size_t>(match[a])].window);
  }
  expect(traced, "an analysis input matches no delivered batch");
  std::sort(windows.begin(), windows.end());
  expect(std::adjacent_find(windows.begin(), windows.end()) == windows.end(),
         "a window was applied twice");
  long assimilated = 0;
  for (const auto& row : run.rows) assimilated += row.batches_assimilated;
  expect(assimilated == static_cast<long>(windows.size()) && assimilated > 0,
         "batches_assimilated disagrees with the analyses seen");

  // Posterior RMSE below the RMSE of the assimilated observations.
  double oss = 0.0;
  std::size_t on = 0;
  for (std::size_t a = 0; a < match.size(); ++a) {
    if (match[a] < 0) continue;
    const AnalysisRecord& an = log.analyses[a];
    const CollectRecord& c = log.collects[static_cast<std::size_t>(match[a])];
    if (c.h_truth.empty()) continue;
    for (std::size_t o = 0; o < an.y.size(); ++o) {
      if (!an.mask.empty() && an.mask[o] == 0) continue;
      oss += (c.y[o] - c.h_truth[o]) * (c.y[o] - c.h_truth[o]);
      ++on;
    }
  }
  const double obs_rmse = on ? std::sqrt(oss / static_cast<double>(on)) : 0.0;
  const double post_rmse = stream::mean_rmse_post(run.rows);
  std::printf("check %s seed %llu: posterior RMSE %.4f K vs observation RMSE %.4f K over %zu obs\n",
              s.name.c_str(), static_cast<unsigned long long>(sn.seed), post_rmse, obs_rmse, on);
  expect(on > 0 && post_rmse < obs_rmse, "posterior RMSE is not below the observation RMSE");

  // LETKF: the posterior mean fits the observations better than the prior.
  double prior = 0.0, post = 0.0;
  for (const auto& an : log.analyses) {
    prior += an.prior_misfit_ss;
    post += an.post_misfit_ss;
  }
  std::printf("check %s seed %llu: obs-space misfit of the mean, prior %.4g -> posterior %.4g\n",
              s.name.c_str(), static_cast<unsigned long long>(sn.seed), prior, post);
  expect(post < prior, "LETKF posterior mean fits the observations no better than the prior");

  // Independent per-column LETKF on a seeded sample of columns.
  if (log.first_prior && log.first_post && !log.analyses.empty()) {
    const AnalysisRecord& an = log.analyses.front();
    rng::Rng pick = rng::Rng(sn.seed).substream(21);
    std::vector<std::size_t> cols;
    for (std::size_t i = 0; i < s.check_columns; ++i)
      cols.push_back(static_cast<std::size_t>(pick.uniform_int(st.model->dim())));
    const ColumnCheck cc = check_letkf_columns(st.letkf_cfg, *log.first_prior, *log.first_post,
                                               an.y, *st.h, *st.r, an.mask, an.r_scale, cols);
    std::printf("check %s seed %llu: independent LETKF on %zu columns, max |diff| %.3g K (tolerance %.0e K)\n",
                s.name.c_str(), static_cast<unsigned long long>(sn.seed), cc.columns, cc.max_abs_diff, cc.tolerance);
    expect(cc.ok(), "independent LETKF column check failed");
  } else {
    expect(false, "no analysis captured for the independent LETKF check");
  }

  if (s.live) {
    expect(run.ingest.wire.frames_corrupt == sn.corrupted_copies,
           "decoder refused " + std::to_string(run.ingest.wire.frames_corrupt) +
               " frames, the recording holds " + std::to_string(sn.corrupted_copies) +
               " corrupted copies");
    // QC excises every non-finite value that reached an analysis.
    std::size_t nonfinite = 0;
    bool excised = true;
    for (std::size_t a = 0; a < match.size(); ++a) {
      if (match[a] < 0) continue;
      const AnalysisRecord& an = log.analyses[a];
      const CollectRecord& c = log.collects[static_cast<std::size_t>(match[a])];
      excised = excised && all_finite(an.y);
      for (std::size_t o = 0; o < c.y.size(); ++o) {
        if (std::isfinite(c.y[o])) continue;
        ++nonfinite;
        excised = excised && !an.mask.empty() && an.mask[o] == 0;
      }
    }
    std::printf("check %s seed %llu: %zu corrupted frame copies refused; %zu of %zu recorded non-finite "
                "values reached QC, all excised: %s\n",
                s.name.c_str(), static_cast<unsigned long long>(sn.seed), sn.corrupted_copies,
                nonfinite, sn.nonfinite_written,
                excised ? "yes" : "no");
    expect(excised, "a non-finite observation reached the filter");
    expect(runs.size() == 2 && runs[1].error.empty() && runs[1].final_ens && run.final_ens &&
               bitwise_equal(*runs[1].final_ens, *run.final_ens),
           "resumed run's final ensemble differs from the uninterrupted run's" +
               (runs.size() == 2 && !runs[1].error.empty() ? " (" + runs[1].error + ")" : ""));
  }
}

// --------------------------------------------------------- per-layer ---

struct TraceTotals {
  double cycles = 0;
  double forecast_wall = 0, forecast_cpu = 0, analysis_wall = 0, produce = 0, collect = 0;
  double qc = 0, qc_probed = 0, other = 0, checkpoint_hidden = 0, idle_sum = 0, idle_n = 0;
  std::size_t member_windows = 0, qc_spans = 0;
  std::vector<double> checkpoint_writes;
  bool ledger_ok = true;
  std::vector<std::string> problems;  ///< the runner's records disagree with the probes
};

double total(const std::vector<Interval>& v) {
  double t = 0.0;
  for (const auto& i : v) t += i.t1 - i.t0;
  return t;
}

/// Folds one traced run into the totals; prints its ledger when asked. The
/// runner's own records are checked against the probes' spans: its QC time
/// must match the QC spans the probes timed, and each checkpoint write must
/// fit between the cycle's bottom and the next cycle's top counter reads.
void account_traced(const RunOutcome& r, const Spec& s, bool print, TraceTotals& tt) {
  const RunLog& log = *r.log;
  std::vector<double> ck(static_cast<std::size_t>(s.cycles), 0.0);
  double qc = 0.0;
  for (const auto& row : r.rows) {
    ck[static_cast<std::size_t>(row.cycle)] = row.checkpoint_ms;
    qc += row.qc_ms;
    if (row.pool_idle_frac >= 0.0) {
      tt.idle_sum += row.pool_idle_frac;
      tt.idle_n += 1;
    }
    if (row.checkpoint_ms > 0.0) tt.checkpoint_writes.push_back(row.checkpoint_ms);
  }
  // The probes' QC span also holds the filter call's argument set-up, under
  // a microsecond per batch; a QC of live-n32-deep takes about 15.
  const double qc_probed = total(log.qc);
  const double qc_tol = 0.005 * static_cast<double>(log.qc.size()) + 0.05 * qc;
  if (std::abs(qc_probed - qc) > qc_tol) {
    char buf[200];
    std::snprintf(buf, sizeof(buf), "runner qc_ms %.4f ms vs %.4f ms in %zu QC spans (tolerance %.4f ms)",
                  qc, qc_probed, log.qc.size(), qc_tol);
    tt.problems.push_back(buf);
  }
  tt.qc += qc;
  tt.qc_probed += qc_probed;
  tt.qc_spans += log.qc.size();

  const Ledger ledger = build_ledger(log, ck);
  for (const auto& m : ledger.misfits) tt.problems.push_back(m);
  for (const auto& row : ledger.rows) {
    if (!check_ledger(row)) tt.ledger_ok = false;
    tt.other += row.other;
    tt.checkpoint_hidden += row.checkpoint_hidden;
    if (print) std::printf("%s\n", format_ledger(s.name, row).c_str());
  }
  tt.cycles += static_cast<double>(ledger.rows.size());
  tt.forecast_wall += total(merge_intervals(log.forecast));
  tt.forecast_cpu += total(log.forecast);
  tt.analysis_wall += total(merge_intervals(log.analysis));
  tt.produce += total(log.produce);
  tt.collect += total(log.collect);
  tt.member_windows += log.member_windows;
}

/// Checkpoint write / size / load figures. Workloads that checkpoint report
/// the runner's own write times; the others have the benchmark snapshot
/// their final state once with stream::save_checkpoint.
void checkpoint_metrics(const Setup& st, const Spec& s, const Options& opt,
                        const RunOutcome& run, const TraceTotals& tt, std::vector<Metric>& m) {
  const std::string path = opt.workdir + (s.live ? "/live.ckpt" : "/final.ckpt");
  std::vector<double> writes = tt.checkpoint_writes;
  if (!s.live && run.final_ens) {
    stream::CheckpointData data;
    data.seed = opt.seed;
    data.n_members = s.members;
    data.dim = st.model->dim();
    data.cycles = s.cycles;
    data.schedule = static_cast<std::uint8_t>(stream::Schedule::Overlapped);
    data.overlap_depth = s.depth;
    data.next_cycle = s.cycles - 1;
    const auto flat = run.final_ens->data().flat();
    data.ensemble.assign(flat.begin(), flat.end());
    data.applied.assign(static_cast<std::size_t>(s.cycles), 1);
    data.metrics = run.rows;
    for (int i = 0; i < 3; ++i) {
      const double t0 = now_ms();
      const Status ws = stream::save_checkpoint(path, data);
      writes.push_back(now_ms() - t0);
      TURBDA_REQUIRE(ws.ok(), "checkpoint write failed: " << ws.to_string());
    }
  }
  double sum = 0.0;
  for (double w : writes) sum += w;
  m.push_back({"checkpoint.write_ms", "ms", writes.empty() ? 0.0 : sum / static_cast<double>(writes.size())});
  std::error_code ec;
  const auto bytes = std::filesystem::file_size(path, ec);
  m.push_back({"checkpoint.bytes", "B", ec ? 0.0 : static_cast<double>(bytes)});
  std::vector<double> loads;
  for (int i = 0; i < 5 && !ec; ++i) {
    stream::CheckpointData data;
    const double t0 = now_ms();
    const Status ls = stream::load_checkpoint(path, data);
    loads.push_back(now_ms() - t0);
    TURBDA_REQUIRE(ls.ok(), "checkpoint load failed: " << ls.to_string());
  }
  m.push_back({"checkpoint.load_ms", "ms", median(loads)});
}

}  // namespace

bool is_workload(const std::string& name) {
  return name == "letkf-n128-overlap" || name == "live-n32-deep";
}

ThreadPlan thread_plan(const std::string& workload) {
  const Spec s = make_spec(workload, false);
  return {nproc(), s.threads, s.threads};
}

Result run_workload(const Options& opt) {
  const Spec s = make_spec(opt.workload, opt.tiny);
  Result res;
  now_ms();

  // Set-up. Untraced runs set up again after every round and run the next
  // round on the new set-up, so setup_s is a median over set-ups spread
  // across the whole run, and every set-up must reproduce round 0 bitwise.
  // Traced runs keep their one set-up: the traced LETKF's clocks live in it.
  std::vector<double> setup_s, prepare_ms, plan_ms;
  std::unique_ptr<Setup> st;
  const auto set_up = [&] {
    st.reset();
    const double t0 = now_ms();
    st = make_setup(s, opt.seed, opt.trace, opt.workdir);
    setup_s.push_back((now_ms() - t0) / 1000.0);
    prepare_ms.push_back(st->prepare_ms);
    plan_ms.push_back(st->plan_ms);
  };
  set_up();

  // Timed rounds until the run's time is spent; set-ups between rounds are
  // not part of it. Traced runs alternate untraced and traced rounds so
  // trace.overhead_pct compares like with like.
  const double budget_ms = 1000.0 * opt.seconds;
  double rounds_ms = 0.0, cpu = 0.0;
  std::vector<double> cycle_plain, cycle_traced, o2a;
  std::vector<da::Ensemble> reference_final;  ///< round 0's final ensemble, per run
  std::vector<RunOutcome> first_traced;
  TraceTotals tt;
  double rmse = 0.0;
  const int min_rounds = opt.trace ? 2 : 1;
  for (int round = 0;; ++round) {
    const double t_round = now_ms(), cpu_round = cpu_ms();
    const bool traced = opt.trace && round % 2 == 1;
    const bool check = round == 0;
    std::vector<RunOutcome> runs;
    for (const Setup::Scenario& sn : st->scenarios) {
      const std::size_t first = runs.size();
      runs.push_back(run_once(*st, sn, s, opt, traced, check, false));
      if (s.live) runs.push_back(run_once(*st, sn, s, opt, traced, check, true));
      if (check) {
        check_scenario(std::span<const RunOutcome>(runs).subspan(first), *st, sn, s, res.failures);
        rmse += stream::mean_rmse_post(runs[first].rows) / static_cast<double>(s.scenarios);
      }
    }

    for (std::size_t j = 0; j < runs.size(); ++j) {
      const RunOutcome& r = runs[j];
      res.attempted += s.cycles - r.log->start_cycle;
      res.failed += failed_cycles(r, s);
      const auto ct = cycle_times(*r.log);
      auto& cycles = traced ? cycle_traced : cycle_plain;
      cycles.insert(cycles.end(), ct.begin(), ct.end());
      if (traced) {
        account_traced(r, s, first_traced.empty(), tt);
      } else {
        const auto lat = obs_to_analysis(r, s, match_analyses(*r.log));
        o2a.insert(o2a.end(), lat.begin(), lat.end());
      }
      // Every round replays identical inputs, so it must end bitwise where
      // round 0 ended.
      if (check) {
        if (r.final_ens) reference_final.push_back(*r.final_ens);
      } else if (!r.final_ens || j >= reference_final.size() ||
                 !bitwise_equal(*r.final_ens, reference_final[j])) {
        res.failures.push_back("round " + std::to_string(round) +
                               " did not reproduce round 0's final ensemble bitwise" +
                               (r.error.empty() ? "" : " (" + r.error + ")"));
      }
    }
    if (traced && first_traced.empty()) first_traced = std::move(runs);
    cpu += cpu_ms() - cpu_round;
    rounds_ms += now_ms() - t_round;

    if (round + 1 >= min_rounds && rounds_ms * (round + 2) / (round + 1) > budget_ms) break;
    if (!opt.trace) set_up();
  }
  std::printf("setup %s: %zu set-ups, median %.4f s\n", s.name.c_str(), setup_s.size(), median(setup_s));

  const auto& samples = opt.trace ? cycle_traced : cycle_plain;
  std::printf("cycle_ms%s: %zu cycles, p10 %.4g, median %.4g, p90 %.4g ms\n",
              opt.trace ? " (traced)" : "", samples.size(), quantile(samples, 0.1),
              median(samples), quantile(samples, 0.9));
  if (!opt.trace) {
    res.metrics.push_back({"setup_s", "s", median(setup_s)});
    res.metrics.push_back({"cycle_ms", "ms", median(cycle_plain)});
    res.metrics.push_back({"obs_to_analysis_ms", "ms", median(o2a)});
    res.metrics.push_back({"cpu_ms_per_cycle", "ms", cpu / static_cast<double>(res.attempted)});
    res.metrics.push_back({"rmse_k", "K", rmse});
    res.metrics.push_back({"peak_rss_mb", "MiB", peak_rss_mb()});
  } else {
    const double n = std::max(tt.cycles, 1.0);
    auto& m = res.metrics;
    m.push_back({"sqg.forecast_wall_ms", "ms", tt.forecast_wall / n});
    m.push_back({"sqg.forecast_cpu_ms", "ms", tt.forecast_cpu / n});
    m.push_back({"sqg.member_windows_per_s", "1/s",
                 tt.forecast_wall > 0 ? static_cast<double>(tt.member_windows) / (tt.forecast_wall / 1000.0) : 0.0});
    m.push_back({"da.analysis_wall_ms", "ms", tt.analysis_wall / n});
    m.push_back({"da.prepare_ms", "ms", median(prepare_ms)});
    std::size_t fallback = 0;
    for (const auto& r : first_traced)
      for (const auto& an : r.log->analyses) fallback += an.fallback_columns;
    m.push_back({"da.fallback_columns", "count", static_cast<double>(fallback)});

    da::LetkfTimings lt;
    if (st->timed_letkf) lt = st->timed_letkf->timings();
    const double an = std::max<double>(static_cast<double>(lt.analyses), 1.0);
    // The plan is built once, in prepare(), and reused by every analysis.
    m.push_back({"letkf.plan_cpu_ms", "ms", median(plan_ms)});
    m.push_back({"letkf.select_cpu_ms", "ms", lt.select_ms / an});
    m.push_back({"letkf.gather_cpu_ms", "ms", lt.gather_ms / an});
    m.push_back({"letkf.gram_cpu_ms", "ms", lt.gram_ms / an});
    m.push_back({"letkf.eigh_cpu_ms", "ms", lt.eigh_ms / an});
    m.push_back({"letkf.weights_cpu_ms", "ms", lt.weights_ms / an});
    m.push_back({"letkf.combine_cpu_ms", "ms", lt.combine_ms / an});
    m.push_back({"letkf.groups", "count", static_cast<double>(lt.groups) / an});
    m.push_back({"letkf.lane_occupancy", "ratio",
                 lt.columns ? static_cast<double>(lt.batched_columns) / static_cast<double>(lt.columns) : 0.0});

    m.push_back({"stream.produce_ms", "ms", tt.produce / n});
    m.push_back({"stream.collect_ms", "ms", tt.collect / n});
    long assimilated = 0, late = 0;
    for (const auto& r : first_traced)
      if (r.log->start_cycle == 0)
        for (const auto& row : r.rows) {
          assimilated += row.batches_assimilated;
          late += row.late_applied;
        }
    m.push_back({"stream.batches_assimilated", "count", static_cast<double>(assimilated)});
    m.push_back({"runner.late_applied", "count", static_cast<double>(late)});
    m.push_back({"runner.qc_ms", "ms", tt.qc / n});
    m.push_back({"runner.other_ms", "ms", tt.other / n});
    m.push_back({"runner.pool_idle_frac", "ratio", tt.idle_n > 0 ? tt.idle_sum / tt.idle_n : 0.0});
    checkpoint_metrics(*st, s, opt, first_traced.front(),
                       tt, m);
    const double plain = median(cycle_plain), traced_ms = median(cycle_traced);
    m.push_back({"trace.overhead_pct", "%", plain > 0 ? 100.0 * (traced_ms / plain - 1.0) : 0.0});
    if (!tt.ledger_ok) res.failures.push_back("a ledger row is negative or does not sum to the cycle");
    for (const auto& p : tt.problems) res.failures.push_back("ledger: " + p);
    std::printf("ledger %s: %.0f traced cycles, every row non-negative and summing to its wall "
                "time: %s\n",
                s.name.c_str(), tt.cycles, tt.ledger_ok ? "yes" : "no");
    std::printf("ledger %s: runner qc_ms %.4f ms, %zu probed QC spans %.4f ms; the runner's QC and "
                "checkpoint records agree with the probes: %s; checkpoint time under a staged "
                "analysis %.4f ms/cycle\n",
                s.name.c_str(), tt.qc, tt.qc_spans, tt.qc_probed, tt.problems.empty() ? "yes" : "no",
                tt.checkpoint_hidden / n);
  }
  res.correct = res.failures.empty();
  return res;
}

}  // namespace cyclebench
