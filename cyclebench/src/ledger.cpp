#include "ledger.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace cyclebench {

std::vector<Interval> merge_intervals(std::vector<Interval> v) {
  std::sort(v.begin(), v.end(), [](const Interval& a, const Interval& b) { return a.t0 < b.t0; });
  std::vector<Interval> out;
  for (const Interval& iv : v) {
    if (!out.empty() && iv.t0 <= out.back().t1)
      out.back().t1 = std::max(out.back().t1, iv.t1);
    else
      out.push_back(iv);
  }
  return out;
}

double measure_within(const std::vector<Interval>& merged, double a, double b) {
  double m = 0.0;
  for (const Interval& iv : merged) {
    const double lo = std::max(iv.t0, a), hi = std::min(iv.t1, b);
    if (hi > lo) m += hi - lo;
  }
  return m;
}

Ledger build_ledger(const RunLog& log, const std::vector<double>& ckpt_ms) {
  Ledger out;
  // Checkpoint spans: cycle c's top and bottom counter reads are
  // counter_reads[2i] and [2i+1], i = c - start_cycle.
  std::vector<Interval> ckpt;
  const auto& reads = log.counter_reads;
  for (std::size_t c = static_cast<std::size_t>(log.start_cycle); c < ckpt_ms.size(); ++c) {
    if (ckpt_ms[c] <= 0.0) continue;
    const std::size_t bottom = 2 * (c - static_cast<std::size_t>(log.start_cycle)) + 1;
    char buf[160];
    if (bottom + 1 >= reads.size()) {
      std::snprintf(buf, sizeof(buf), "cycle %zu: checkpoint recorded without a following cycle", c);
      out.misfits.push_back(buf);
      continue;
    }
    const Interval iv{reads[bottom], reads[bottom] + ckpt_ms[c]};
    if (iv.t1 > reads[bottom + 1]) {
      std::snprintf(buf, sizeof(buf), "cycle %zu: checkpoint_ms %.4f exceeds its %.4f ms window", c,
                    ckpt_ms[c], reads[bottom + 1] - reads[bottom]);
      out.misfits.push_back(buf);
    }
    ckpt.push_back(iv);
  }

  // Nested unions: each level adds the next segment's spans.
  std::vector<std::vector<Interval>> levels;
  std::vector<Interval> acc;
  const std::vector<Interval>* layers[] = {&log.analysis, &log.qc, &log.forecast, &log.produce, &log.collect, &ckpt};
  for (const auto* spans : layers) {
    acc.insert(acc.end(), spans->begin(), spans->end());
    acc = merge_intervals(std::move(acc));
    levels.push_back(acc);
  }
  const std::vector<Interval> ckpt_merged = merge_intervals(ckpt);

  double prev = log.t_start;
  for (std::size_t i = 0; i < log.hook_ms.size(); ++i) {
    const double t = log.hook_ms[i];
    double m[6];
    for (std::size_t l = 0; l < 6; ++l) m[l] = measure_within(levels[l], prev, t);
    LedgerRow r;
    r.cycle = log.start_cycle + static_cast<int>(i);
    r.wall = t - prev;
    r.analysis = m[0];
    r.qc = m[1] - m[0];
    r.forecast = m[2] - m[1];
    r.stream = m[4] - m[2];
    r.checkpoint = m[5] - m[4];
    r.other = r.wall - m[5];
    r.checkpoint_hidden = measure_within(ckpt_merged, prev, t) - r.checkpoint;
    out.rows.push_back(r);
    prev = t;
  }
  return out;
}

bool check_ledger(const LedgerRow& r) {
  // Segments are differences of nested unions; allow for their rounding.
  const double eps = 1e-9 * std::max(1.0, r.wall);
  const double segs[] = {r.analysis, r.qc, r.forecast, r.stream, r.checkpoint, r.other};
  double sum = 0.0;
  for (double s : segs) {
    if (!(s >= -eps)) return false;
    sum += s;
  }
  return std::abs(sum - r.wall) <= eps;
}

std::string format_ledger(const std::string& workload, const LedgerRow& r) {
  char buf[360];
  std::snprintf(buf, sizeof(buf),
                "ledger %s cycle=%d wall_ms=%.4f analysis=%.4f qc=%.4f forecast=%.4f stream=%.4f "
                "checkpoint=%.4f other=%.4f checkpoint_hidden=%.4f",
                workload.c_str(), r.cycle, r.wall, r.analysis, r.qc, r.forecast, r.stream,
                r.checkpoint, r.other, r.checkpoint_hidden);
  return buf;
}

}  // namespace cyclebench
