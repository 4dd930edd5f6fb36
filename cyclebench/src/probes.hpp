// Timing decorators around the three layer interfaces the cycling runner
// talks to: models::ForecastModel (the SQG forecast), da::Filter (the LETKF)
// and stream::ObservationStream (synthetic or wire-ingested batches).
// They belong to the benchmark, not to the program: each forwards to the
// wrapped layer unchanged and records, into the RunLog it is attached to,
//  - always: the collect() hand-overs and the analysis calls' inputs, which
//    the correctness checks and obs_to_analysis_ms need;
//  - when the log is traced: the wall interval of every layer call, from
//    which the per-layer metrics and the per-cycle ledger are built, and two
//    spans the runner takes between layer calls:
//      QC: the runner evaluates stream.h() and stream.r() as arguments of
//        its quality control and again as arguments of the filter call that
//        follows on the same thread, so a QC span runs from the first of
//        those accessor calls to the entry of try_analyze();
//      checkpoint window: the runner reads stream.ingest_counters() at the
//        top and at the bottom of every cycle body and writes its
//        checkpoint in between, so a cycle's checkpoint lies between its
//        bottom read and the next cycle's top read.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "da/ensemble.hpp"
#include "da/filter.hpp"
#include "models/forecast_model.hpp"
#include "stream/observation_stream.hpp"

namespace cyclebench {

using Clock = std::chrono::steady_clock;

/// Milliseconds since the process started measuring.
double now_ms();

struct Interval {
  double t0 = 0.0;
  double t1 = 0.0;
};

/// One batch as collect() handed it to the runner.
struct CollectRecord {
  int window = 0;        ///< observing window of the batch
  int runner_cycle = 0;  ///< cycle the runner was in when it collected
  double t_ms = 0.0;     ///< when collect() returned it
  bool full_shape = false;
  std::vector<double> y;        ///< values as delivered, before QC
  std::vector<double> h_truth;  ///< h(truth of the window); empty if unknown
};

/// One analysis call as the runner made it.
struct AnalysisRecord {
  double t0 = 0.0, t1 = 0.0;
  bool ok = true;
  std::size_t fallback_columns = 0;
  std::vector<double> y;           ///< values handed to the filter (after QC)
  std::vector<std::uint8_t> mask;  ///< empty = every observation used
  double r_scale = 1.0;
  /// Sum of squared obs-space misfits of the prior / posterior mean over the
  /// used observations (filled when RunLog::fit_check is set).
  double prior_misfit_ss = 0.0, post_misfit_ss = 0.0;
};

/// Everything the probes record during one RealtimeRunner::run or resume.
struct RunLog {
  bool traced = false;
  bool fit_check = false;      ///< compute the obs-space fit around analyses
  bool capture_first = false;  ///< copy prior and posterior of the first analysis
  int start_cycle = 0;
  double t_start = 0.0;

  std::mutex mu;  ///< guards everything below (written from pool workers too)
  std::vector<double> hook_ms;  ///< post-analysis hook time, from start_cycle
  std::vector<Interval> forecast, analysis, produce, collect, qc;  ///< traced only
  std::vector<double> counter_reads;  ///< ingest_counters() call times; traced only
  std::size_t member_windows = 0;                               ///< traced only
  std::vector<CollectRecord> collects;
  std::vector<AnalysisRecord> analyses;
  std::optional<turbda::da::Ensemble> first_prior, first_post;

  /// Cycle the runner is in between its hooks.
  [[nodiscard]] int current_cycle() {
    std::lock_guard<std::mutex> lk(mu);
    return start_cycle + static_cast<int>(hook_ms.size());
  }
};

class TimedForecast final : public turbda::models::ForecastModel {
 public:
  explicit TimedForecast(turbda::models::ForecastModel& inner) : inner_(inner) {}
  void attach(RunLog* log) { log_ = log; }

  [[nodiscard]] std::size_t dim() const override { return inner_.dim(); }
  void forecast(std::span<double> state) override {
    timed(1, [&] { inner_.forecast(state); });
  }
  void forecast_batch(std::span<double> states, std::size_t count) override {
    timed(count, [&] { inner_.forecast_batch(states, count); });
  }
  [[nodiscard]] bool concurrent_safe() const override { return inner_.concurrent_safe(); }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

 private:
  template <typename F>
  void timed(std::size_t members, F&& f) {
    if (log_ == nullptr || !log_->traced) {
      f();
      return;
    }
    const double t0 = now_ms();
    f();
    const double t1 = now_ms();
    std::lock_guard<std::mutex> lk(log_->mu);
    log_->forecast.push_back({t0, t1});
    log_->member_windows += members;
  }

  turbda::models::ForecastModel& inner_;
  RunLog* log_ = nullptr;
};

class TimedFilter final : public turbda::da::Filter {
 public:
  explicit TimedFilter(turbda::da::Filter& inner) : inner_(inner) {}
  void attach(RunLog* log) { log_ = log; }

  /// Wall time of the most recent prepare() call.
  [[nodiscard]] double last_prepare_ms() const { return prepare_ms_; }

  void prepare(const turbda::da::ObservationOperator& h, const turbda::da::DiagonalR& r) override;
  void analyze(turbda::da::Ensemble& ensemble, std::span<const double> y,
               const turbda::da::ObservationOperator& h,
               const turbda::da::DiagonalR& r) override {
    inner_.analyze(ensemble, y, h, r);
  }
  turbda::Status try_analyze(turbda::da::Ensemble& ensemble, std::span<const double> y,
                             const turbda::da::ObservationOperator& h,
                             const turbda::da::DiagonalR& r,
                             const turbda::da::AnalysisOptions& opts = {},
                             turbda::da::AnalysisStats* stats = nullptr) override;
  bool save_state(std::vector<std::uint8_t>& out) const override {
    return inner_.save_state(out);
  }
  bool restore_state(std::span<const std::uint8_t> in) override {
    return inner_.restore_state(in);
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

 private:
  turbda::da::Filter& inner_;
  RunLog* log_ = nullptr;
  double prepare_ms_ = 0.0;
};

class TimedStream final : public turbda::stream::ObservationStream {
 public:
  explicit TimedStream(turbda::stream::ObservationStream& inner) : inner_(inner) {}
  void attach(RunLog* log) { log_ = log; }

  [[nodiscard]] std::size_t obs_dim() const override { return inner_.obs_dim(); }
  [[nodiscard]] const turbda::da::ObservationOperator& h() const override {
    note_accessor();
    return inner_.h();
  }
  [[nodiscard]] const turbda::da::DiagonalR& r() const override {
    note_accessor();
    return inner_.r();
  }
  void produce(int cycle) override;
  void collect(double now_cycles, std::vector<turbda::stream::ObsBatch>& out) override;
  [[nodiscard]] std::span<const double> truth(int cycle) const override {
    return inner_.truth(cycle);
  }
  bool save_state(std::vector<std::uint8_t>& out) const override {
    return inner_.save_state(out);
  }
  bool restore_state(std::span<const std::uint8_t> in) override {
    return inner_.restore_state(in);
  }
  [[nodiscard]] IngestCounters ingest_counters() const override;

 private:
  void note_accessor() const;

  turbda::stream::ObservationStream& inner_;
  RunLog* log_ = nullptr;
};

}  // namespace cyclebench
