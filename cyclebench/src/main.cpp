// Cycle benchmark program: one assimilation-cycle workload per process.
//
//   cyclebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              --workdir <dir> [--tiny]
//
// Prints the machine fingerprint, the check results, each metric by name
// with its unit, and as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exit code 0 when every correctness check passed, 1 when one failed, 2 on
// bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "parallel/thread_pool.hpp"
#include "simd/dispatch.hpp"
#include "workloads.hpp"

using namespace cyclebench;

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' || c == '\t') ? ' ' : c;
  }
  return out;
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "cyclebench: %s\nusage: cyclebench --workload <letkf-n128-overlap|"
               "live-n32-deep> --seed <n> --seconds <s> --trace <0|1> --workdir <dir> [--tiny]\n",
               why.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_workdir = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--tiny") {
      opt.tiny = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    try {
      if (a == "--workload") opt.workload = v;
      else if (a == "--seed") opt.seed = std::stoull(v);
      else if (a == "--seconds") opt.seconds = std::stoi(v);
      else if (a == "--trace") opt.trace = std::stoi(v) != 0;
      else if (a == "--workdir") {
        opt.workdir = v;
        have_workdir = true;
      } else usage("unknown argument " + a);
    } catch (const std::exception&) {
      usage("bad value for " + a);
    }
  }
  if (!is_workload(opt.workload)) usage("unknown workload '" + opt.workload + "'");
  if (!have_workdir || opt.seconds < 1) usage("--workdir and --seconds >= 1 are required");

  const ThreadPlan tp = thread_plan(opt.workload);
  std::printf("fingerprint: {\"cpu\": \"%s\", \"nproc\": %zu, \"simd\": \"%s\", \"compiler\": "
              "\"%s\", \"flags\": \"%s\", \"analysis_threads\": %zu, \"forecast_threads\": %zu, "
              "\"pool_workers\": %zu}\n",
              json_escape(cpu_model()).c_str(), tp.nproc,
              turbda::simd::simd_level_name(turbda::simd::active_simd_level()),
              json_escape(CYCLEBENCH_COMPILER).c_str(), json_escape(CYCLEBENCH_FLAGS).c_str(),
              tp.analysis, tp.forecast, turbda::parallel::global_pool().size());
  std::printf("workload %s seed %llu, %d s, trace %d%s\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0,
              opt.tiny ? ", tiny sizes" : "");
  std::fflush(stdout);

  Result res;
  try {
    res = run_workload(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cyclebench: %s\n", e.what());
    return 1;
  }

  for (const auto& m : res.metrics)
    if (!std::isfinite(m.value)) {
      res.failures.push_back("metric " + m.name + " is not finite");
      res.correct = false;
    }
  for (const auto& f : res.failures) std::printf("CHECK FAILED: %s\n", f.c_str());
  std::printf("cycles attempted %ld, failed %ld\n", res.attempted, res.failed);
  for (const auto& m : res.metrics)
    std::printf("metric %-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());

  std::string js = "{\"correct\": ";
  js += res.correct ? "true" : "false";
  js += ", \"attempted\": " + std::to_string(res.attempted) +
        ", \"failed\": " + std::to_string(res.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < res.metrics.size(); ++i) {
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", std::isfinite(res.metrics[i].value) ? res.metrics[i].value : 0.0);
    js += (i ? ", \"" : "\"") + res.metrics[i].name + "\": {\"value\": " + num +
          ", \"unit\": \"" + res.metrics[i].unit + "\"}";
  }
  js += "}}";
  std::printf("%s\n", js.c_str());
  return res.correct ? 0 : 1;
}
