#include "stream/realtime_runner.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <future>
#include <thread>

#include "common/check.hpp"
#include "io/csv.hpp"
#include "parallel/thread_pool.hpp"
#include "stream/checkpoint.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace turbda::stream {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Tracks pool-worker utilization across one cycle: diff of the pool's
/// cumulative busy time over the cycle's wall time.
struct PoolIdleProbe {
  Clock::time_point t0 = Clock::now();
  std::uint64_t busy0 = parallel::global_pool().stats().busy_ns;

  [[nodiscard]] double idle_frac() const {
    const auto& pool = parallel::global_pool();
    if (pool.size() == 0) return -1.0;
    const double wall_ns =
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    if (wall_ns <= 0.0) return -1.0;
    const double busy_ns =
        static_cast<double>(pool.stats().busy_ns - busy0);
    const double frac = 1.0 - busy_ns / (wall_ns * static_cast<double>(pool.size()));
    return std::clamp(frac, 0.0, 1.0);
  }
};

/// Folds one finished cycle's record into the global metrics registry.
/// Instrument refs are resolved once (stable for the registry's lifetime);
/// updates are lock-free relaxed atomics.
void record_cycle_telemetry(const StreamCycleMetrics& cm) {
  auto& reg = telemetry::MetricsRegistry::global();
  static telemetry::Counter& c_cycles = reg.counter("turbda_cycles_total");
  static telemetry::Counter& c_misses = reg.counter("turbda_deadline_miss_total");
  static telemetry::Counter& c_qc_rej = reg.counter("turbda_qc_rejected_total");
  static telemetry::Counter& c_assim = reg.counter("turbda_batches_assimilated_total");
  static telemetry::Counter& c_disc = reg.counter("turbda_batches_discarded_total");
  static telemetry::Counter& c_fail = reg.counter("turbda_analysis_failures_total");
  static telemetry::Counter& c_spread = reg.counter("turbda_spread_recoveries_total");
  static telemetry::Counter& c_degraded = reg.counter("turbda_degraded_cycles_total");
  static telemetry::Counter& c_late = reg.counter("turbda_ingest_late_applied_total");
  static telemetry::Counter& c_reconn = reg.counter("turbda_ingest_reconnects_total");
  static telemetry::Counter& c_corrupt = reg.counter("turbda_ingest_frames_corrupt_total");
  static telemetry::Counter& c_resync = reg.counter("turbda_ingest_frames_resynced_total");
  static telemetry::Counter& c_qdrops = reg.counter("turbda_ingest_queue_drops_total");
  static telemetry::Histogram& h_cycle = reg.histogram("turbda_cycle_ms");
  static telemetry::Histogram& h_fcst = reg.histogram("turbda_forecast_ms");
  static telemetry::Histogram& h_an = reg.histogram("turbda_analysis_ms");
  static telemetry::Histogram& h_qc = reg.histogram("turbda_qc_ms");
  static telemetry::Histogram& h_ckpt = reg.histogram("turbda_checkpoint_ms");
  static telemetry::Gauge& g_idle = reg.gauge("turbda_pool_idle_frac");
  static telemetry::Gauge& g_slack = reg.gauge("turbda_deadline_slack_cycles");

  c_cycles.inc();
  if (cm.deadline_miss) c_misses.inc();
  c_qc_rej.inc(static_cast<std::uint64_t>(cm.obs_rejected));
  c_assim.inc(static_cast<std::uint64_t>(cm.batches_assimilated));
  c_disc.inc(static_cast<std::uint64_t>(cm.batches_discarded));
  c_fail.inc(static_cast<std::uint64_t>(cm.analysis_failures));
  c_spread.inc(static_cast<std::uint64_t>(cm.spread_recoveries));
  if (cm.degraded) c_degraded.inc();
  c_late.inc(static_cast<std::uint64_t>(cm.late_applied));
  c_reconn.inc(static_cast<std::uint64_t>(cm.ingest_reconnects));
  c_corrupt.inc(static_cast<std::uint64_t>(cm.ingest_frames_corrupt));
  c_resync.inc(static_cast<std::uint64_t>(cm.ingest_frames_resynced));
  c_qdrops.inc(static_cast<std::uint64_t>(cm.ingest_queue_drops));
  h_cycle.observe(cm.cycle_ms);
  h_fcst.observe(cm.forecast_ms);
  if (cm.batches_assimilated > 0 || cm.analysis_failures > 0) h_an.observe(cm.analysis_ms);
  if (cm.qc_ms > 0.0) h_qc.observe(cm.qc_ms);
  if (cm.checkpoint_ms > 0.0) h_ckpt.observe(cm.checkpoint_ms);
  if (cm.pool_idle_frac >= 0.0) g_idle.set(cm.pool_idle_frac);
  // Slack of this window's own batch vs. its analysis point (negative =
  // late); only meaningful when the batch arrived at all.
  if (cm.obs_arrival_cycles >= 0.0)
    g_slack.set(static_cast<double>(cm.cycle + 1) - cm.obs_arrival_cycles);
  if (cm.degraded) TURBDA_TRACE_INSTANT("status.degraded_cycle");
}

/// Per-cycle delta of the stream's cumulative transport counters (all zero
/// for in-process streams).
void fill_ingest_delta(StreamCycleMetrics& cm, const ObservationStream::IngestCounters& base,
                       const ObservationStream::IngestCounters& now) {
  cm.ingest_reconnects = static_cast<int>(now.reconnects - base.reconnects);
  cm.ingest_frames_corrupt = static_cast<int>(now.frames_corrupt - base.frames_corrupt);
  cm.ingest_frames_resynced = static_cast<int>(now.frames_resynced - base.frames_resynced);
  cm.ingest_queue_drops = static_cast<int>(now.queue_drops - base.queue_drops);
}

/// Snapshot form of a staged analysis: post[i] - prior[i], the exact double
/// the apply step adds to the ensemble.
std::vector<double> staged_increment(const da::Ensemble& prior, const da::Ensemble& post) {
  const auto p = prior.data().flat();
  const auto q = post.data().flat();
  std::vector<double> inc(q.size());
  for (std::size_t i = 0; i < inc.size(); ++i) inc[i] = q[i] - p[i];
  return inc;
}

/// Restores a saved increment as post = increment, prior = 0. The apply
/// step's post[i] - prior[i] then adds the saved bits unchanged, because
/// x - 0.0 == x for every double, -0.0 included.
void restore_increment(std::span<const double> inc, std::size_t n_members, std::size_t dim,
                       std::optional<da::Ensemble>& prior, std::optional<da::Ensemble>& post) {
  prior.emplace(n_members, dim);
  post.emplace(n_members, dim);
  std::copy(inc.begin(), inc.end(), post->data().data());
}

}  // namespace

/// Outcome of one cycle's batch collection: what to assimilate now, plus the
/// deadline verdict for this window's own batch.
struct RealtimeRunner::CollectResult {
  std::vector<ObsBatch> apply;  ///< window order (stragglers first)
  bool own_on_time = false;
  double own_arrival = -1.0;
  int discarded = 0;
};

RealtimeRunner::RealtimeRunner(RealtimeConfig cfg, ObservationStream& stream,
                               models::ForecastModel& forecast_model, da::Filter* filter,
                               const models::ModelErrorProcess* model_error)
    : cfg_(cfg),
      stream_(stream),
      forecast_model_(forecast_model),
      filter_(filter),
      model_error_(model_error) {
  TURBDA_REQUIRE(stream_.h().state_dim() == forecast_model_.dim(),
                 "stream observation operator dim mismatch");
  TURBDA_REQUIRE(cfg_.cycles >= 1 && cfg_.n_members >= 2, "bad realtime configuration");
  TURBDA_REQUIRE(cfg_.deadline_slack_cycles >= 0.0 && cfg_.max_stale_cycles >= 0,
                 "bad deadline configuration");
  TURBDA_REQUIRE(cfg_.overlap_depth >= 1 && cfg_.late_r_inflation >= 0.0,
                 "bad overlap-depth configuration");
  TURBDA_REQUIRE(cfg_.spread_floor >= 0.0 && cfg_.spread_ceiling >= 0.0 &&
                     (cfg_.spread_ceiling == 0.0 || cfg_.spread_floor < cfg_.spread_ceiling),
                 "bad spread-watchdog configuration");
  TURBDA_REQUIRE(cfg_.checkpoint_every >= 0, "bad checkpoint configuration");
  if (cfg_.inject_model_error)
    TURBDA_REQUIRE(model_error_ != nullptr,
                   "inject_model_error requires a ModelErrorProcess instance");
}

const da::Ensemble& RealtimeRunner::ensemble() const {
  TURBDA_REQUIRE(ens_.has_value(), "ensemble available only after run()");
  return *ens_;
}

std::vector<double> RealtimeRunner::draw_shared_error(int cycle) const {
  if (!(cfg_.inject_model_error && cfg_.model_error_shared)) return {};
  rng::Rng r_me = rng_modelerr_->substream(static_cast<std::uint64_t>(cycle));
  return model_error_->sample(forecast_model_.dim(), r_me);
}

/// Identical to the offline OSSE member loop: disjoint state rows +
/// counter-based model-error substreams make it bitwise invariant to the
/// thread count, the schedule, and the block partition (forecast_batch is
/// bitwise identical to the member-sequential loop by contract).
void RealtimeRunner::forecast_block(int cycle, std::size_t b, std::size_t e,
                                    const std::vector<double>& shared_err) {
  TURBDA_SPAN("runner.forecast_block");
  const std::size_t d = forecast_model_.dim();
  // Ensemble members are contiguous rows, so the block is one dense span.
  std::span<double> block(ens_->member(b).data(), (e - b) * d);
  forecast_model_.forecast_batch(block, e - b);
  if (cfg_.inject_model_error) {
    for (std::size_t m = b; m < e; ++m) {
      if (cfg_.model_error_shared) {
        auto row = ens_->member(m);
        for (std::size_t i = 0; i < row.size(); ++i) row[i] += shared_err[i];
      } else {
        rng::Rng r_me = rng_modelerr_->substream(
            static_cast<std::uint64_t>(cycle) * cfg_.n_members + m + 1000000);
        model_error_->apply(ens_->member(m), r_me);
      }
    }
  }
}

void RealtimeRunner::forecast_members(int cycle) {
  const std::vector<double> shared_err = draw_shared_error(cycle);
  if (forecast_model_.concurrent_safe() && cfg_.n_forecast_threads != 1) {
    parallel::parallel_for(
        cfg_.n_members,
        [&](std::size_t b, std::size_t e) { forecast_block(cycle, b, e, shared_err); },
        /*min_grain=*/1, cfg_.n_forecast_threads);
  } else {
    forecast_block(cycle, 0, cfg_.n_members, shared_err);
  }
}

void RealtimeRunner::discard_unconsumed(int cycle) {
  std::vector<ObsBatch> drained;
  stream_.collect(static_cast<double>(cycle + 1) + cfg_.deadline_slack_cycles, drained);
}

RealtimeRunner::CollectResult RealtimeRunner::collect_batches(int cycle) {
  // With age-dependent R inflation active, staleness no longer discards: a
  // late batch is assimilated with R inflated by its age instead (QC fills
  // in the factor), so information is down-weighted rather than thrown away.
  const bool stale_inflation = cfg_.qc.enabled && cfg_.qc.stale_r_inflation > 0.0;
  CollectResult res;
  std::vector<ObsBatch> arrived;
  stream_.collect(static_cast<double>(cycle + 1) + cfg_.deadline_slack_cycles, arrived);
  for (auto& b : arrived) {
    const int age = cycle - b.cycle;
    if (age == 0) {
      res.own_on_time = true;
      res.own_arrival = b.arrival_cycles;
      res.apply.push_back(std::move(b));
    } else if (cfg_.catch_up && (age <= cfg_.max_stale_cycles || stale_inflation)) {
      res.apply.push_back(std::move(b));
    } else if (cfg_.catch_up && cfg_.schedule == Schedule::Overlapped &&
               cfg_.overlap_depth > 1 &&
               age <= cfg_.max_stale_cycles + (cfg_.overlap_depth - 1)) {
      // Deep overlap: a batch up to K-1 cycles past the staleness cutoff is
      // still in flight as a K-window-late increment rather than dropped —
      // assimilate_batches forces age-dependent R inflation on it.
      res.apply.push_back(std::move(b));
    } else {
      ++res.discarded;
    }
  }
  return res;
}

void RealtimeRunner::emulate_delivery_delay(const std::vector<ObsBatch>& batches,
                                            int cycle) const {
  if (cfg_.wall_ms_per_cycle <= 0.0 || batches.empty()) return;
  double delay_cycles = 0.0;
  for (const auto& b : batches)
    delay_cycles = std::max(delay_cycles, b.arrival_cycles - static_cast<double>(cycle + 1));
  if (delay_cycles <= 0.0) return;
  std::this_thread::sleep_for(
      std::chrono::duration<double, std::milli>(delay_cycles * cfg_.wall_ms_per_cycle));
}

void RealtimeRunner::assimilate_batches(da::Ensemble& target, std::vector<ObsBatch>& batches,
                                        int cycle, StreamCycleMetrics& cm) {
  if (batches.empty()) return;
  emulate_delivery_delay(batches, cycle);
  TURBDA_SPAN("runner.analysis");
  const auto t_an = Clock::now();
  std::vector<std::uint8_t> mask;
  for (auto& b : batches) {
    // Duplicate-transmission guard: each observing window is applied once.
    if (b.cycle >= 0 && b.cycle < cfg_.cycles && applied_[static_cast<std::size_t>(b.cycle)]) {
      ++cm.batches_rejected;
      continue;
    }
    // A batch with the wrong shape (e.g. truncated in transmission) is
    // refused outright — a later duplicate transmission can still recover it.
    if (b.y.size() != stream_.obs_dim()) {
      ++cm.batches_rejected;
      cm.degraded = true;
      continue;
    }
    const int age = std::max(cycle - b.cycle, 0);
    da::AnalysisOptions opts;
    if (cfg_.qc.enabled) {
      TURBDA_SPAN("runner.qc");
      const auto t_qc = Clock::now();
      const da::QcReport rep =
          da::apply_quality_control(cfg_.qc, b.y, stream_.h(), stream_.r(), target,
                                    static_cast<std::size_t>(age), mask);
      cm.qc_ms += ms_since(t_qc);
      cm.obs_rejected += static_cast<int>(rep.rejected_total());
      cm.max_r_scale = std::max(cm.max_r_scale, rep.r_scale);
      opts.r_scale = rep.r_scale;
      if (rep.rejected_total() > 0) opts.obs_mask = mask;
    }
    if (age > cfg_.max_stale_cycles && cfg_.late_r_inflation > 0.0) {
      // Deep-late information is never taken at face value: even with QC off
      // (or configured without stale inflation), a batch past the staleness
      // cutoff gets its R inflated by age before it may touch the ensemble.
      opts.r_scale = std::max(
          opts.r_scale,
          std::min(1.0 + static_cast<double>(age) * cfg_.late_r_inflation,
                   cfg_.qc.max_r_scale));
      cm.max_r_scale = std::max(cm.max_r_scale, opts.r_scale);
    }
    da::AnalysisStats st;
    const Status s = filter_->try_analyze(target, b.y, stream_.h(), stream_.r(), opts, &st);
    if (!s.ok()) {
      // Graceful degradation: the filters leave the ensemble untouched on a
      // recoverable failure, so this cycle simply keeps its forecast.
      TURBDA_REQUIRE(cfg_.degrade_on_failure, "analysis failed — " << s.to_string());
      TURBDA_TRACE_INSTANT("status.analysis_failure");
      ++cm.analysis_failures;
      cm.degraded = true;
      continue;
    }
    if (st.fallback_columns > 0) TURBDA_TRACE_INSTANT("status.solver_fallback");
    cm.solver_fallbacks += static_cast<int>(st.fallback_columns);
    if (st.solver_failures > 0) cm.degraded = true;
    if (b.cycle >= 0 && b.cycle < cfg_.cycles) applied_[static_cast<std::size_t>(b.cycle)] = 1;
    ++cm.batches_assimilated;
    if (age > cfg_.max_stale_cycles) ++cm.late_applied;
    cm.max_batch_age = std::max(cm.max_batch_age, cycle - b.cycle);
  }
  cm.analysis_ms = ms_since(t_an);
  apply_spread_guard(target, cycle, cm);
}

void RealtimeRunner::apply_spread_guard(da::Ensemble& target, int cycle, StreamCycleMetrics& cm) {
  if (cfg_.spread_floor <= 0.0 && cfg_.spread_ceiling <= 0.0) return;
  const double sp = target.mean_spread();
  const auto rescale = [&](double scale) {
    const auto mu = target.mean();
    for (std::size_t m = 0; m < target.size(); ++m) {
      auto row = target.member(m);
      for (std::size_t i = 0; i < row.size(); ++i) row[i] = mu[i] + (row[i] - mu[i]) * scale;
    }
  };
  if (cfg_.spread_floor > 0.0 && sp < cfg_.spread_floor) {
    TURBDA_TRACE_INSTANT("status.spread_recovery");
    ++cm.spread_recoveries;
    cm.degraded = true;
    if (sp <= 1e-12 * cfg_.spread_floor) {
      // Fully collapsed: rescaling cannot recover a zero perturbation, so
      // re-seed the members around the mean from a cycle-keyed substream
      // (serial draw — bitwise invariant to thread count).
      rng::Rng rg = rng_spread_->substream(static_cast<std::uint64_t>(cycle));
      const auto mu = target.mean();
      for (std::size_t m = 0; m < target.size(); ++m) {
        auto row = target.member(m);
        for (std::size_t i = 0; i < row.size(); ++i)
          row[i] = mu[i] + cfg_.spread_floor * rg.gaussian();
      }
    } else {
      rescale(cfg_.spread_floor / sp);
    }
  } else if (cfg_.spread_ceiling > 0.0 && sp > cfg_.spread_ceiling) {
    TURBDA_TRACE_INSTANT("status.spread_recovery");
    ++cm.spread_recoveries;
    cm.degraded = true;
    rescale(cfg_.spread_ceiling / sp);
  }
}

void RealtimeRunner::maybe_checkpoint(int completed_cycle,
                                      std::vector<StreamCycleMetrics>& metrics) {
  if (cfg_.checkpoint_path.empty() || cfg_.checkpoint_every <= 0) return;
  const int next = completed_cycle + 1;
  if (next >= cfg_.cycles) return;  // nothing left to resume
  if (next % cfg_.checkpoint_every != 0) return;

  TURBDA_SPAN("runner.checkpoint");
  const auto t_ckpt = Clock::now();
  const auto record_elapsed = [&] {
    if (!metrics.empty() && metrics.back().cycle == completed_cycle)
      metrics.back().checkpoint_ms = ms_since(t_ckpt);
    if (!checkpoint_status_.ok()) TURBDA_TRACE_INSTANT("status.checkpoint_failed");
  };

  const std::size_t d = forecast_model_.dim();
  CheckpointData data;
  data.seed = cfg_.seed;
  data.n_members = cfg_.n_members;
  data.dim = d;
  data.cycles = cfg_.cycles;
  data.schedule = static_cast<std::uint8_t>(cfg_.schedule);
  data.overlap_depth = cfg_.overlap_depth;
  data.next_cycle = next;
  rng_modelerr_->save_state(data.rng_modelerr);
  const double* ep = ens_->data().data();
  data.ensemble.assign(ep, ep + cfg_.n_members * d);
  if (have_increment_) data.increment = staged_increment(*buf_prior_, *buf_post_);
  if (cfg_.schedule == Schedule::Overlapped && cfg_.overlap_depth > 1) {
    // Completing (joining + merging — NOT applying) every in-flight slot is
    // numerics-neutral: the uninterrupted run produces the exact same staged
    // buffers, just later. It makes the serialized ring deterministic.
    std::vector<StagedSlot*> pend;
    for (auto& s : ring_)
      if (s.pending) pend.push_back(&s);
    std::sort(pend.begin(), pend.end(),
              [](const StagedSlot* a, const StagedSlot* b) { return a->cycle < b->cycle; });
    for (StagedSlot* s : pend) {
      complete_slot(*s, metrics);
      data.ring.push_back({s->cycle, staged_increment(*s->prior, *s->post)});
    }
  }
  data.applied = applied_;
  if (!stream_.save_state(data.stream_state)) {
    checkpoint_status_ =
        Status(StatusCode::kUnsupported, "stream does not support checkpointing");
    record_elapsed();
    return;
  }
  if (filter_ != nullptr && !filter_->save_state(data.filter_state)) {
    checkpoint_status_ =
        Status(StatusCode::kUnsupported, "filter does not support checkpointing");
    record_elapsed();
    return;
  }
  data.metrics = metrics;
  // A failed snapshot write must never take down the service it protects:
  // record the Status and keep cycling.
  checkpoint_status_ = save_checkpoint(cfg_.checkpoint_path, data);
  record_elapsed();
}

std::vector<StreamCycleMetrics> RealtimeRunner::run(std::span<const double> base,
                                                    const da::Ensemble* initial_ensemble) {
  const std::size_t d = forecast_model_.dim();
  TURBDA_REQUIRE(base.size() == d, "initial state size mismatch");

  rng::Rng root(cfg_.seed);
  rng::Rng rng_init = root.substream(0);
  rng_modelerr_ = root.substream(2);
  rng_spread_ = root.substream(4);
  applied_.assign(static_cast<std::size_t>(cfg_.cycles), 0);
  buf_prior_.reset();
  buf_post_.reset();
  have_increment_ = false;
  ring_.clear();
  checkpoint_status_ = Status::Ok();

  ens_.emplace(cfg_.n_members, d);
  if (initial_ensemble != nullptr) {
    TURBDA_REQUIRE(initial_ensemble->size() == cfg_.n_members && initial_ensemble->dim() == d,
                   "initial ensemble shape mismatch");
    ens_->data() = initial_ensemble->data();
  } else {
    ens_->init_perturbed(base, cfg_.init_spread, rng_init);
  }

  // Let the filter pre-build network-dependent caches (e.g. LETKF's
  // local-observation plan) before the deadline clock starts ticking; the
  // stream's network is known up front and stays fixed across cycles.
  if (filter_ != nullptr) filter_->prepare(stream_.h(), stream_.r());

  std::vector<StreamCycleMetrics> metrics;
  if (cfg_.schedule == Schedule::Serial)
    run_serial(0, metrics);
  else if (cfg_.overlap_depth == 1)
    run_overlapped(0, metrics);
  else
    run_overlapped_deep(0, metrics);
  return metrics;
}

Status RealtimeRunner::resume(const std::string& path,
                              std::vector<StreamCycleMetrics>& metrics_out) {
  CheckpointData data;
  const Status s = load_checkpoint(path, data);
  if (!s.ok()) return s;

  const std::size_t d = forecast_model_.dim();
  if (data.seed != cfg_.seed || data.n_members != cfg_.n_members || data.dim != d ||
      data.cycles != cfg_.cycles || data.schedule != static_cast<std::uint8_t>(cfg_.schedule) ||
      data.overlap_depth != cfg_.overlap_depth)
    return Status(StatusCode::kInvalidArgument,
                  "checkpoint was written under a different configuration");
  if (data.next_cycle <= 0 || data.next_cycle >= cfg_.cycles)
    return Status(StatusCode::kCorruptData, "checkpoint cycle index out of range");
  if (data.applied.size() != static_cast<std::size_t>(cfg_.cycles))
    return Status(StatusCode::kCorruptData, "checkpoint duplicate-guard size mismatch");
  const bool deep = cfg_.schedule == Schedule::Overlapped && cfg_.overlap_depth > 1;
  if (!deep && !data.ring.empty())
    return Status(StatusCode::kCorruptData,
                  "checkpoint staged slots present but schedule is not deep-overlapped");
  for (const auto& sd : data.ring) {
    if (sd.cycle < 0 || sd.cycle >= data.next_cycle ||
        data.next_cycle - sd.cycle > cfg_.overlap_depth)
      return Status(StatusCode::kCorruptData, "checkpoint staged slot cycle out of range");
  }
  if (!stream_.restore_state(data.stream_state))
    return Status(StatusCode::kCorruptData, "stream state in checkpoint is malformed");
  if (filter_ != nullptr && !filter_->restore_state(data.filter_state))
    return Status(StatusCode::kCorruptData, "filter state in checkpoint is malformed");

  rng::Rng root(cfg_.seed);
  rng_modelerr_ = root.substream(2);
  rng_spread_ = root.substream(4);
  if (!data.rng_modelerr.empty() && !rng_modelerr_->load_state(data.rng_modelerr))
    return Status(StatusCode::kCorruptData, "RNG state in checkpoint is malformed");
  checkpoint_status_ = Status::Ok();

  ens_.emplace(cfg_.n_members, d);
  std::copy(data.ensemble.begin(), data.ensemble.end(), ens_->data().data());
  applied_ = std::move(data.applied);
  have_increment_ = !data.increment.empty();
  buf_prior_.reset();
  buf_post_.reset();
  if (have_increment_) restore_increment(data.increment, cfg_.n_members, d, buf_prior_, buf_post_);
  ring_.clear();
  if (deep) {
    // Restored slots were completed (joined + metrics merged) before the
    // save; they only await their application cycle.
    ring_.resize(static_cast<std::size_t>(cfg_.overlap_depth));
    for (const auto& sd : data.ring) {
      StagedSlot& s = ring_[static_cast<std::size_t>(sd.cycle % cfg_.overlap_depth)];
      if (s.pending)
        return Status(StatusCode::kCorruptData, "checkpoint staged slots collide");
      s.cycle = sd.cycle;
      s.pending = true;
      s.completed = true;
      restore_increment(sd.increment, cfg_.n_members, d, s.prior, s.post);
    }
  }

  if (filter_ != nullptr) filter_->prepare(stream_.h(), stream_.r());

  metrics_out = std::move(data.metrics);
  if (cfg_.schedule == Schedule::Serial)
    run_serial(data.next_cycle, metrics_out);
  else if (cfg_.overlap_depth == 1)
    run_overlapped(data.next_cycle, metrics_out);
  else
    run_overlapped_deep(data.next_cycle, metrics_out);
  return Status::Ok();
}

void RealtimeRunner::run_serial(int start_cycle, std::vector<StreamCycleMetrics>& metrics) {
  metrics.reserve(static_cast<std::size_t>(cfg_.cycles));

  for (int k = start_cycle; k < cfg_.cycles; ++k) {
    TURBDA_SPAN("runner.cycle");
    const PoolIdleProbe idle_probe;
    const auto t_cycle = Clock::now();
    const auto ing0 = stream_.ingest_counters();
    StreamCycleMetrics cm;
    cm.cycle = k;
    cm.time_hours = (k + 1) * cfg_.window_hours;

    {
      TURBDA_SPAN("stream.produce");
      stream_.produce(k);
    }

    const auto t_fcst = Clock::now();
    {
      TURBDA_SPAN("runner.forecast");
      forecast_members(k);
    }
    cm.forecast_ms = ms_since(t_fcst);

    const auto truth = stream_.truth(k);
    TURBDA_REQUIRE(!truth.empty(), "stream did not retain the truth state for this cycle");
    cm.rmse_prior = rmse_vs_truth(*ens_, truth);
    cm.spread_prior = ens_->mean_spread();

    if (filter_ != nullptr) {
      CollectResult col = collect_batches(k);
      cm.deadline_miss = !col.own_on_time;
      cm.obs_arrival_cycles = col.own_arrival;
      cm.batches_discarded = col.discarded;
      if (cm.deadline_miss) TURBDA_TRACE_INSTANT("status.deadline_miss");
      assimilate_batches(*ens_, col.apply, k, cm);
    } else {
      discard_unconsumed(k);
    }
    cm.rmse_post = rmse_vs_truth(*ens_, truth);
    cm.spread_post = ens_->mean_spread();
    cm.cycle_ms = ms_since(t_cycle);
    cm.pool_idle_frac = idle_probe.idle_frac();
    fill_ingest_delta(cm, ing0, stream_.ingest_counters());
    metrics.push_back(cm);

    if (hook_) {
      const auto mean = ens_->mean();
      hook_(k, mean);
    }
    maybe_checkpoint(k, metrics);
    record_cycle_telemetry(metrics.back());
  }
}

void RealtimeRunner::run_overlapped(int start_cycle, std::vector<StreamCycleMetrics>& metrics) {
  auto& pool = parallel::global_pool();
  metrics.reserve(static_cast<std::size_t>(cfg_.cycles));

  // Prologue: nothing to overlap with yet — produce and forecast window 0.
  // A resumed run restored the pipeline mid-flight (ensemble already
  // forecast through start_cycle, stream produced through start_cycle) and
  // skips it.
  if (start_cycle == 0) {
    stream_.produce(0);
    forecast_members(0);
    have_increment_ = false;
  }

  // Double buffer: the analysis for cycle k runs on a copy while the
  // ensemble itself forecasts ahead; the increment lands one cycle later.
  // Allocated once on first use, reused (assignment keeps capacity) so the
  // hot loop stays allocation-free after warm-up.
  for (int k = start_cycle; k < cfg_.cycles; ++k) {
    TURBDA_SPAN("runner.cycle");
    const PoolIdleProbe idle_probe;
    const auto t_cycle = Clock::now();
    const auto ing0 = stream_.ingest_counters();
    StreamCycleMetrics cm;
    cm.cycle = k;
    cm.time_hours = (k + 1) * cfg_.window_hours;

    const auto truth = stream_.truth(k);
    TURBDA_REQUIRE(!truth.empty(), "stream did not retain the truth state for this cycle");
    cm.rmse_prior = rmse_vs_truth(*ens_, truth);
    cm.spread_prior = ens_->mean_spread();

    // Apply the lagged increment from cycle k-1's analysis.
    if (have_increment_) {
      for (std::size_t m = 0; m < cfg_.n_members; ++m) {
        auto row = ens_->member(m);
        const auto post = buf_post_->member(m);
        const auto prior = buf_prior_->member(m);
        for (std::size_t i = 0; i < row.size(); ++i) row[i] += post[i] - prior[i];
      }
      have_increment_ = false;
    }

    CollectResult col;
    if (filter_ != nullptr) {
      col = collect_batches(k);
      cm.deadline_miss = !col.own_on_time;
      cm.obs_arrival_cycles = col.own_arrival;
      cm.batches_discarded = col.discarded;
      if (cm.deadline_miss) TURBDA_TRACE_INSTANT("status.deadline_miss");
    } else {
      discard_unconsumed(k);
    }

    const bool last = (k + 1 == cfg_.cycles);
    if (last) {
      // Drain synchronously so the final ensemble reflects every batch.
      assimilate_batches(*ens_, col.apply, k, cm);
      cm.rmse_post = rmse_vs_truth(*ens_, truth);
      cm.spread_post = ens_->mean_spread();
      cm.cycle_ms = ms_since(t_cycle);
      cm.pool_idle_frac = idle_probe.idle_frac();
      fill_ingest_delta(cm, ing0, stream_.ingest_counters());
      metrics.push_back(cm);
      record_cycle_telemetry(metrics.back());
      if (hook_) {
        const auto mean = ens_->mean();
        hook_(k, mean);
      }
      break;
    }

    // Post metrics reflect the state after this cycle's update step (the
    // lagged increment); this cycle's own analysis lands at k+1.
    cm.rmse_post = rmse_vs_truth(*ens_, truth);
    cm.spread_post = ens_->mean_spread();
    if (hook_) {
      const auto mean = ens_->mean();
      hook_(k, mean);
    }

    // Stage this cycle's analysis on the side buffer...
    const bool staged = !col.apply.empty();
    if (staged) {
      if (buf_prior_.has_value()) {
        buf_prior_->data() = ens_->data();
        buf_post_->data() = ens_->data();
      } else {
        buf_prior_.emplace(*ens_);
        buf_post_.emplace(*ens_);
      }
    }

    // ...then fan the next window out over the pool: the stream's producer
    // and the member forecasts for k+1 run concurrently with the analysis
    // below. Per-member work is partition-independent, so this stays
    // bitwise identical for any pool size.
    const int k1 = k + 1;
    const std::vector<double> shared_err = draw_shared_error(k1);

    const auto t_fcst = Clock::now();
    std::vector<std::future<void>> tasks;
    tasks.push_back(pool.submit([this, k1] {
      TURBDA_SPAN("stream.produce");
      stream_.produce(k1);
    }));
    std::size_t par = std::max<std::size_t>(pool.size(), 1);
    if (cfg_.n_forecast_threads != 0) par = std::min(par, cfg_.n_forecast_threads);
    if (!forecast_model_.concurrent_safe()) par = 1;
    par = std::min(par, cfg_.n_members);
    const std::size_t chunk = (cfg_.n_members + par - 1) / par;
    for (std::size_t b = 0; b < cfg_.n_members; b += chunk) {
      const std::size_t e = std::min(b + chunk, cfg_.n_members);
      tasks.push_back(pool.submit(
          [this, k1, b, e, &shared_err] { forecast_block(k1, b, e, shared_err); }));
    }

    // Inline analysis on the caller thread: its internal parallel_for
    // interleaves with the forecast tasks on the shared pool.
    std::exception_ptr err;
    if (staged) {
      try {
        assimilate_batches(*buf_post_, col.apply, k, cm);
      } catch (...) {
        err = std::current_exception();
      }
    }
    for (auto& t : tasks) {
      try {
        t.get();
      } catch (...) {
        if (!err) err = std::current_exception();
      }
    }
    if (err) std::rethrow_exception(err);
    have_increment_ = staged;

    cm.forecast_ms = ms_since(t_fcst);
    cm.cycle_ms = ms_since(t_cycle);
    cm.pool_idle_frac = idle_probe.idle_frac();
    fill_ingest_delta(cm, ing0, stream_.ingest_counters());
    metrics.push_back(cm);
    maybe_checkpoint(k, metrics);
    record_cycle_telemetry(metrics.back());
  }
}

void RealtimeRunner::complete_slot(StagedSlot& slot, std::vector<StreamCycleMetrics>& metrics) {
  if (!slot.pending || slot.completed) return;
  if (slot.task.valid()) slot.task.get();
  slot.completed = true;
  if (slot.error) {
    std::exception_ptr e = slot.error;
    slot.error = nullptr;
    std::rethrow_exception(e);
  }
  slot.batches.clear();
  if (slot.row >= metrics.size()) return;  // restored slot: row merged pre-save
  StreamCycleMetrics& row = metrics[slot.row];
  const StreamCycleMetrics& an = slot.an;
  row.batches_assimilated += an.batches_assimilated;
  row.batches_rejected += an.batches_rejected;
  row.obs_rejected += an.obs_rejected;
  row.late_applied += an.late_applied;
  row.analysis_failures += an.analysis_failures;
  row.solver_fallbacks += an.solver_fallbacks;
  row.spread_recoveries += an.spread_recoveries;
  row.max_batch_age = std::max(row.max_batch_age, an.max_batch_age);
  row.max_r_scale = std::max(row.max_r_scale, an.max_r_scale);
  row.degraded = row.degraded || an.degraded;
  row.analysis_ms += an.analysis_ms;
  row.qc_ms += an.qc_ms;
  record_cycle_telemetry(row);
}

void RealtimeRunner::run_overlapped_deep(int start_cycle,
                                         std::vector<StreamCycleMetrics>& metrics) {
  auto& pool = parallel::global_pool();
  const int K = cfg_.overlap_depth;
  if (ring_.size() != static_cast<std::size_t>(K))
    ring_.resize(static_cast<std::size_t>(K));
  metrics.reserve(static_cast<std::size_t>(cfg_.cycles));

  // The increment staged at cycle c lands at cycle c+K (members so
  // checkpoint/resume can replay a half-applied pipeline exactly).
  const auto apply_slot = [this](StagedSlot& slot) {
    for (std::size_t m = 0; m < cfg_.n_members; ++m) {
      auto row = ens_->member(m);
      const auto post = slot.post->member(m);
      const auto prior = slot.prior->member(m);
      for (std::size_t i = 0; i < row.size(); ++i) row[i] += post[i] - prior[i];
    }
    slot.pending = false;
  };

  // Prologue: nothing to overlap with yet (resume restored the pipeline
  // mid-flight and skips it).
  if (start_cycle == 0) {
    stream_.produce(0);
    forecast_members(0);
  }

  for (int k = start_cycle; k < cfg_.cycles; ++k) {
    TURBDA_SPAN("runner.cycle");
    const PoolIdleProbe idle_probe;
    const auto t_cycle = Clock::now();
    const auto ing0 = stream_.ingest_counters();
    StreamCycleMetrics cm;
    cm.cycle = k;
    cm.time_hours = (k + 1) * cfg_.window_hours;

    const auto truth = stream_.truth(k);
    TURBDA_REQUIRE(!truth.empty(), "stream did not retain the truth state for this cycle");
    cm.rmse_prior = rmse_vs_truth(*ens_, truth);
    cm.spread_prior = ens_->mean_spread();

    // Apply the increment staged K cycles ago — its ring slot is the one
    // this cycle is about to reuse.
    {
      StagedSlot& due = ring_[static_cast<std::size_t>(k % K)];
      if (due.pending && due.cycle == k - K) {
        complete_slot(due, metrics);
        apply_slot(due);
      }
    }

    CollectResult col;
    if (filter_ != nullptr) {
      col = collect_batches(k);
      cm.deadline_miss = !col.own_on_time;
      cm.obs_arrival_cycles = col.own_arrival;
      cm.batches_discarded = col.discarded;
      if (cm.deadline_miss) TURBDA_TRACE_INSTANT("status.deadline_miss");
    } else {
      discard_unconsumed(k);
    }

    const bool last = (k + 1 == cfg_.cycles);
    if (last) {
      // Drain the ring in staged order, then this cycle's own batches, so
      // the final ensemble reflects every admitted batch.
      for (int c = std::max(k - K + 1, 0); c < k; ++c) {
        StagedSlot& s = ring_[static_cast<std::size_t>(c % K)];
        if (s.pending && s.cycle == c) {
          complete_slot(s, metrics);
          apply_slot(s);
        }
      }
      assimilate_batches(*ens_, col.apply, k, cm);
      cm.rmse_post = rmse_vs_truth(*ens_, truth);
      cm.spread_post = ens_->mean_spread();
      cm.cycle_ms = ms_since(t_cycle);
      cm.pool_idle_frac = idle_probe.idle_frac();
      fill_ingest_delta(cm, ing0, stream_.ingest_counters());
      metrics.push_back(cm);
      record_cycle_telemetry(metrics.back());
      if (hook_) {
        const auto mean = ens_->mean();
        hook_(k, mean);
      }
      break;
    }

    // Post metrics reflect the state after this cycle's update step (the
    // lag-K increment); this cycle's own analysis lands at k+K.
    cm.rmse_post = rmse_vs_truth(*ens_, truth);
    cm.spread_post = ens_->mean_spread();
    if (hook_) {
      const auto mean = ens_->mean();
      hook_(k, mean);
    }

    // Analysis barrier: the shared filter and the duplicate ledger are not
    // reentrant, so the previous cycle's staged task must retire before a
    // new one is submitted. The ring still pays off — the *application* of
    // each increment (and therefore straggler admission) is deferred K
    // cycles, not one.
    if (k > 0) {
      StagedSlot& prev = ring_[static_cast<std::size_t>((k - 1) % K)];
      if (prev.pending && prev.cycle == k - 1) complete_slot(prev, metrics);
    }

    StagedSlot& slot = ring_[static_cast<std::size_t>(k % K)];
    const bool staged = !col.apply.empty();
    if (staged) {
      TURBDA_REQUIRE(!slot.pending, "deep-overlap ring slot still occupied");
      slot.cycle = k;
      slot.pending = true;
      slot.completed = false;
      slot.error = nullptr;
      slot.row = static_cast<std::size_t>(-1);  // bound at push below
      slot.an = StreamCycleMetrics{};
      slot.an.cycle = k;
      if (slot.prior.has_value()) {
        slot.prior->data() = ens_->data();
        slot.post->data() = ens_->data();
      } else {
        slot.prior.emplace(*ens_);
        slot.post.emplace(*ens_);
      }
      slot.batches = std::move(col.apply);
    }

    // Fan the next window out over the pool: producer + member forecasts for
    // k+1 run concurrently with the staged analysis below. Per-member work
    // is partition-independent, so this stays bitwise identical for any
    // pool size.
    const int k1 = k + 1;
    const std::vector<double> shared_err = draw_shared_error(k1);

    const auto t_fcst = Clock::now();
    std::vector<std::future<void>> tasks;
    tasks.push_back(pool.submit([this, k1] {
      TURBDA_SPAN("stream.produce");
      stream_.produce(k1);
    }));
    std::size_t par = std::max<std::size_t>(pool.size(), 1);
    if (cfg_.n_forecast_threads != 0) par = std::min(par, cfg_.n_forecast_threads);
    if (!forecast_model_.concurrent_safe()) par = 1;
    par = std::min(par, cfg_.n_members);
    const std::size_t chunk = (cfg_.n_members + par - 1) / par;
    for (std::size_t b = 0; b < cfg_.n_members; b += chunk) {
      const std::size_t e = std::min(b + chunk, cfg_.n_members);
      tasks.push_back(pool.submit(
          [this, k1, b, e, &shared_err] { forecast_block(k1, b, e, shared_err); }));
    }
    if (staged) {
      // The analysis failure mode is captured, not thrown: the task outlives
      // this cycle body, so complete_slot() rethrows at the join.
      slot.task = pool.submit([this, &slot, k] {
        TURBDA_SPAN("runner.staged_analysis");
        try {
          assimilate_batches(*slot.post, slot.batches, k, slot.an);
        } catch (...) {
          slot.error = std::current_exception();
        }
      });
    }

    // Join only the forecast fan-out; the staged analysis keeps running
    // into the next window (that deferral is the point of the ring).
    std::exception_ptr err;
    for (auto& t : tasks) {
      try {
        t.get();
      } catch (...) {
        if (!err) err = std::current_exception();
      }
    }
    if (err) std::rethrow_exception(err);

    cm.forecast_ms = ms_since(t_fcst);
    cm.cycle_ms = ms_since(t_cycle);
    cm.pool_idle_frac = idle_probe.idle_frac();
    fill_ingest_delta(cm, ing0, stream_.ingest_counters());
    metrics.push_back(cm);
    if (staged) slot.row = metrics.size() - 1;
    maybe_checkpoint(k, metrics);
    // A staged cycle's telemetry is recorded at complete_slot(), once the
    // analysis-side record has been merged into its row.
    if (!staged) record_cycle_telemetry(metrics.back());
  }
}

std::vector<std::string> stream_metrics_columns() {
  return {"cycle", "time_hours", "rmse_prior", "rmse_post", "spread_prior",
          "spread_post", "batches_assimilated", "batches_discarded",
          "max_batch_age", "deadline_miss", "obs_arrival_cycles",
          "obs_rejected", "batches_rejected", "max_r_scale",
          "analysis_failures", "solver_fallbacks", "spread_recoveries",
          "degraded", "forecast_ms", "analysis_ms", "qc_ms", "checkpoint_ms",
          "cycle_ms", "pool_idle_frac", "late_applied", "ingest_reconnects",
          "ingest_frames_corrupt", "ingest_frames_resynced",
          "ingest_queue_drops"};
}

std::vector<double> stream_metrics_row(const StreamCycleMetrics& m) {
  return {static_cast<double>(m.cycle), m.time_hours, m.rmse_prior, m.rmse_post,
          m.spread_prior, m.spread_post, static_cast<double>(m.batches_assimilated),
          static_cast<double>(m.batches_discarded), static_cast<double>(m.max_batch_age),
          m.deadline_miss ? 1.0 : 0.0, m.obs_arrival_cycles,
          static_cast<double>(m.obs_rejected), static_cast<double>(m.batches_rejected),
          m.max_r_scale, static_cast<double>(m.analysis_failures),
          static_cast<double>(m.solver_fallbacks), static_cast<double>(m.spread_recoveries),
          m.degraded ? 1.0 : 0.0, m.forecast_ms, m.analysis_ms, m.qc_ms, m.checkpoint_ms,
          m.cycle_ms, m.pool_idle_frac, static_cast<double>(m.late_applied),
          static_cast<double>(m.ingest_reconnects),
          static_cast<double>(m.ingest_frames_corrupt),
          static_cast<double>(m.ingest_frames_resynced),
          static_cast<double>(m.ingest_queue_drops)};
}

void write_stream_metrics_csv(const std::string& path,
                              std::span<const StreamCycleMetrics> metrics) {
  const std::vector<std::string> cols = stream_metrics_columns();
  io::CsvWriter csv(path, cols,
                    "stream_metrics_schema=" + std::to_string(kStreamMetricsSchemaVersion));
  for (const auto& m : metrics) csv.row(stream_metrics_row(m));
}

double mean_rmse_post(std::span<const StreamCycleMetrics> metrics, int from_cycle) {
  double s = 0.0;
  std::size_t n = 0;
  for (const auto& m : metrics)
    if (m.cycle >= from_cycle) {
      s += m.rmse_post;
      ++n;
    }
  return n ? s / static_cast<double>(n) : 0.0;
}

int count_deadline_misses(std::span<const StreamCycleMetrics> metrics) {
  int n = 0;
  for (const auto& m : metrics) n += m.deadline_miss ? 1 : 0;
  return n;
}

}  // namespace turbda::stream
