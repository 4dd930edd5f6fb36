// Per-cycle wall-time ledger built from the probes' spans.
//
// Each instant of a cycle's wall time is charged to exactly one segment, in
// the order analysis > QC > forecast > stream (produce/collect) >
// checkpoint; what no span covers is "other" (increment apply, buffer
// copies, RMSE, bookkeeping). The analysis, forecast, stream and QC spans
// are timed by the probes. A checkpoint span has the length the runner
// recorded (checkpoint_ms) and starts at the probes' bottom-of-cycle read of
// the cycle that wrote it; the span must end before the next cycle's
// top-of-cycle read, which build_ledger() checks against the probes' times.
// The part of the recorded checkpoint time that a higher segment covers
// (the join of a staged analysis that is still running) is printed as
// checkpoint_hidden.
#pragma once

#include <string>
#include <vector>

#include "probes.hpp"

namespace cyclebench {

struct LedgerRow {
  int cycle = 0;
  double wall = 0.0;
  double analysis = 0.0, qc = 0.0, forecast = 0.0, stream = 0.0, checkpoint = 0.0, other = 0.0;
  double checkpoint_hidden = 0.0;  ///< recorded checkpoint time covered by higher segments
};

struct Ledger {
  std::vector<LedgerRow> rows;
  /// Recorded checkpoint writes that do not fit between the probes'
  /// bottom-of-cycle and next top-of-cycle reads (or have no such reads).
  std::vector<std::string> misfits;
};

/// Sorted union of possibly overlapping intervals.
std::vector<Interval> merge_intervals(std::vector<Interval> v);

/// Length of the part of a merged interval list inside [a, b].
double measure_within(const std::vector<Interval>& merged, double a, double b);

/// Ledger rows for one traced run: cycle k spans from the previous hook (the
/// run's start for its first cycle) to hook k. ckpt_ms[c] is the runner's
/// checkpoint_ms of cycle c (0 when it wrote none).
Ledger build_ledger(const RunLog& log, const std::vector<double>& ckpt_ms);

/// True when every segment is >= 0 and the segments sum to the wall time.
bool check_ledger(const LedgerRow& row);

std::string format_ledger(const std::string& workload, const LedgerRow& row);

}  // namespace cyclebench
