// The assimilation-cycle workloads and the measurement loop around
// them. An operation is one assimilation cycle; a round is one fixed
// sequence of cycles (for live-n32-deep: an uninterrupted run plus a resume
// from its mid-run checkpoint), repeated with identical inputs until the
// run's time is spent.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace cyclebench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  bool tiny = false;      ///< small sizes for the self-test
  std::string workdir;    ///< scratch files (recording, checkpoints)
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct Result {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> failures;  ///< failed correctness checks
};

[[nodiscard]] bool is_workload(const std::string& name);

/// Thread counts a workload uses on this machine (for the fingerprint).
struct ThreadPlan {
  std::size_t nproc = 1;  ///< CPUs this process may run on
  std::size_t analysis = 1;
  std::size_t forecast = 1;
};
[[nodiscard]] ThreadPlan thread_plan(const std::string& workload);

/// Sets up, runs and checks one workload; prints progress and the ledger to
/// standard output.
[[nodiscard]] Result run_workload(const Options& opt);

}  // namespace cyclebench
