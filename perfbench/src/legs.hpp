// The benchmark's legs: the socketed §6 runtime workloads and the §4
// simulator workload. Each fills a Report with named values.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cpu.hpp"
#include "report.hpp"

namespace perfbench {

/// Proxy worker threads (one ServerGroup) in the runtime workloads.
constexpr std::size_t kProxyWorkers = 2;

/// What one invocation measures.
enum class Phase {
  Full,    ///< untraced: set up several times, nominal window, rate search
  Base,    ///< untraced per-layer: counters, hit/miss split, probes
  Traced,  ///< spans through the decorators
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  Phase phase = Phase::Full;
  std::string spans_out;     ///< traced phase: where spans are written
  std::string sim_expected;  ///< sim: table of recorded results per seed
};

void run_runtime(const RunOptions& options, const CpuPlan& cpus, Report& report);
void run_sim(const RunOptions& options, const CpuPlan& cpus, Report& report);
/// Replay `seeds` and print their recorded-results rows (sim_expected.tsv).
void record_sim(const std::vector<std::uint64_t>& seeds);

[[nodiscard]] bool is_runtime_workload(const std::string& name);
[[nodiscard]] bool is_sim_workload(const std::string& name);

}  // namespace perfbench
