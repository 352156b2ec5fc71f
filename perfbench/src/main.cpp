// perfbench: the repository benchmark's measuring program.
//
//   perfbench --workload <hit-1k|miss-heavytail|sim-sprint> --seed N
//             --seconds S [--phase full|base|traced] [--spans-out PATH]
//             [--sim-expected PATH]
//   perfbench --record-sim FIRST LAST
//
// Prints the run record and a few human-readable lines, then one JSON line
// with every value it measured (see report.hpp); run.py turns that into the
// benchmark's result. --record-sim prints sim_expected.tsv rows.
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "alloc_count.hpp"
#include "core/perf_counters.hpp"
#include "legs.hpp"
#include "report.hpp"

namespace perfbench {

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload W --seed N --seconds S "
               "[--phase full|base|traced] [--spans-out PATH] [--sim-expected PATH]\n"
               "       perfbench --record-sim FIRST LAST\n");
  return 2;
}

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

void record_run(Report& report, const RunOptions& options, const CpuPlan& cpus) {
  report.info("workload", options.workload);
  report.info("seed", std::to_string(options.seed));
  report.info("build_type", PERFBENCH_BUILD_TYPE);
  report.info("perf_counters", idicn::core::kPerfCountersEnabled ? "on" : "off");
  report.info("alloc_counting", alloc_counting_enabled() ? "on" : "off");
#if defined(__clang__)
  report.info("compiler", std::string("clang ") + __clang_version__);
#else
  report.info("compiler", std::string("gcc ") + __VERSION__);
#endif
  report.info("nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
  report.info("cpus_allowed", CpuPlan::mask(cpus.allowed));
  report.info("generator_cpu", std::to_string(cpus.generator));
  report.info("proxy_worker_cpus", CpuPlan::mask(cpus.proxy));
  report.info("aux_server_cpu", std::to_string(cpus.aux));
  report.info("network", "loopback (127.0.0.1), not a real link");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--record-sim" && i + 2 < argc) {
      std::vector<std::uint64_t> seeds;
      for (auto s = std::stoull(argv[i + 1]); s <= std::stoull(argv[i + 2]); ++s) {
        seeds.push_back(s);
      }
      record_sim(seeds);
      return 0;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::stoull(argv[++i]);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::stod(argv[++i]);
    } else if (arg == "--phase" && has_value) {
      const std::string phase = argv[++i];
      if (phase == "full") {
        options.phase = Phase::Full;
      } else if (phase == "base") {
        options.phase = Phase::Base;
      } else if (phase == "traced") {
        options.phase = Phase::Traced;
      } else {
        return usage();
      }
    } else if (arg == "--spans-out" && has_value) {
      options.spans_out = argv[++i];
    } else if (arg == "--sim-expected" && has_value) {
      options.sim_expected = argv[++i];
    } else {
      return usage();
    }
  }
  if (!is_runtime_workload(options.workload) && !is_sim_workload(options.workload)) {
    return usage();
  }
  if (options.seconds <= 0.0) return usage();

  Report report;
  try {
    const CpuPlan cpus = CpuPlan::make(kProxyWorkers);
    record_run(report, options, cpus);
    if (is_sim_workload(options.workload)) {
      run_sim(options, cpus, report);
    } else {
      run_runtime(options, cpus, report);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  std::printf("%s\n", report.json().c_str());
  return 0;
}
