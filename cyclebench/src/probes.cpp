#include "probes.hpp"

#include <cmath>

namespace cyclebench {

using namespace turbda;

double now_ms() {
  static const Clock::time_point t0 = Clock::now();
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

namespace {

// Accessor calls (stream.h() / stream.r()) on this thread since its last
// filter call: the QC that precedes a filter call adds two to the two of the
// call's own arguments.
thread_local int accessor_calls = 0;
thread_local double first_accessor_ms = 0.0;

std::vector<double> obs_space_mean(const da::Ensemble& ens, const da::ObservationOperator& h) {
  std::vector<double> mu(h.obs_dim(), 0.0), buf(h.obs_dim());
  for (std::size_t k = 0; k < ens.size(); ++k) {
    h.apply(ens.member(k), buf);
    for (std::size_t o = 0; o < mu.size(); ++o) mu[o] += buf[o];
  }
  for (double& v : mu) v /= static_cast<double>(ens.size());
  return mu;
}

double misfit_ss(std::span<const double> y, std::span<const std::uint8_t> mask,
                 const std::vector<double>& hx) {
  double ss = 0.0;
  for (std::size_t o = 0; o < y.size(); ++o)
    if ((mask.empty() || mask[o] != 0) && std::isfinite(y[o])) ss += (y[o] - hx[o]) * (y[o] - hx[o]);
  return ss;
}

}  // namespace

void TimedFilter::prepare(const da::ObservationOperator& h, const da::DiagonalR& r) {
  accessor_calls = 0;
  const double t0 = now_ms();
  inner_.prepare(h, r);
  prepare_ms_ = now_ms() - t0;
}

Status TimedFilter::try_analyze(da::Ensemble& ensemble, std::span<const double> y,
                                const da::ObservationOperator& h, const da::DiagonalR& r,
                                const da::AnalysisOptions& opts, da::AnalysisStats* stats) {
  const double t_entry = now_ms();
  const bool after_qc = accessor_calls >= 4;
  accessor_calls = 0;
  if (log_ == nullptr) return inner_.try_analyze(ensemble, y, h, r, opts, stats);
  if (log_->traced && after_qc) {
    std::lock_guard<std::mutex> lk(log_->mu);
    log_->qc.push_back({first_accessor_ms, t_entry});
  }
  AnalysisRecord rec;
  rec.y.assign(y.begin(), y.end());
  rec.mask.assign(opts.obs_mask.begin(), opts.obs_mask.end());
  rec.r_scale = opts.r_scale;
  if (log_->fit_check)
    rec.prior_misfit_ss = misfit_ss(y, opts.obs_mask, obs_space_mean(ensemble, h));
  bool capture = false;
  if (log_->capture_first) {
    std::lock_guard<std::mutex> lk(log_->mu);
    capture = !log_->first_prior.has_value();
    if (capture) log_->first_prior.emplace(ensemble);
  }

  da::AnalysisStats st;
  rec.t0 = now_ms();
  const Status s = inner_.try_analyze(ensemble, y, h, r, opts, &st);
  rec.t1 = now_ms();
  if (stats != nullptr) *stats = st;
  rec.ok = s.ok();
  rec.fallback_columns = st.fallback_columns;

  if (log_->fit_check)
    rec.post_misfit_ss = misfit_ss(y, opts.obs_mask, obs_space_mean(ensemble, h));
  std::lock_guard<std::mutex> lk(log_->mu);
  if (capture) log_->first_post.emplace(ensemble);
  if (log_->traced) log_->analysis.push_back({rec.t0, rec.t1});
  log_->analyses.push_back(std::move(rec));
  return s;
}

void TimedStream::note_accessor() const {
  if (log_ == nullptr || !log_->traced) return;
  if (accessor_calls++ == 0) first_accessor_ms = now_ms();
}

stream::ObservationStream::IngestCounters TimedStream::ingest_counters() const {
  if (log_ != nullptr && log_->traced) {
    const double t = now_ms();
    std::lock_guard<std::mutex> lk(log_->mu);
    log_->counter_reads.push_back(t);
  }
  return inner_.ingest_counters();
}

void TimedStream::produce(int cycle) {
  const double t0 = now_ms();
  inner_.produce(cycle);
  const double t1 = now_ms();
  if (log_ == nullptr || !log_->traced) return;
  std::lock_guard<std::mutex> lk(log_->mu);
  log_->produce.push_back({t0, t1});
}

void TimedStream::collect(double now_cycles, std::vector<stream::ObsBatch>& out) {
  const std::size_t before = out.size();
  const double t0 = now_ms();
  inner_.collect(now_cycles, out);
  const double t1 = now_ms();
  if (log_ == nullptr) return;
  const int cycle = log_->current_cycle();
  std::vector<CollectRecord> recs;
  for (std::size_t i = before; i < out.size(); ++i) {
    const stream::ObsBatch& b = out[i];
    CollectRecord c;
    c.window = b.cycle;
    c.runner_cycle = cycle;
    c.t_ms = t1;
    c.full_shape = b.y.size() == inner_.obs_dim();
    c.y = b.y;
    const auto tr = inner_.truth(b.cycle);
    if (!tr.empty()) {
      c.h_truth.resize(inner_.obs_dim());
      inner_.h().apply(tr, c.h_truth);
    }
    recs.push_back(std::move(c));
  }
  std::lock_guard<std::mutex> lk(log_->mu);
  if (log_->traced) log_->collect.push_back({t0, t1});
  for (auto& c : recs) log_->collects.push_back(std::move(c));
}

}  // namespace cyclebench
