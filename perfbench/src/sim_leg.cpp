// sim-sprint: the §4 request-level simulator, EDGE and then ICN-NR, on
// Sprint with the baseline 2-ary depth-5 access trees and a synthetic
// Zipf(1.04) workload at budget 0.05 (SimulationConfig defaults for prefill
// and warm-up). Single-threaded on the generator's CPU.
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/bound_workload.hpp"
#include "core/design.hpp"
#include "core/origin_map.hpp"
#include "core/perf_counters.hpp"
#include "core/simulator.hpp"
#include "legs.hpp"
#include "topology/pop_topology.hpp"

namespace perfbench {
namespace {

using namespace idicn;

constexpr std::uint32_t kObjects = 10'000;
constexpr std::uint64_t kRequests = 100'000;
constexpr double kAlpha = 1.04;

/// The paper's outputs for one design and seed; any drift is a failure.
struct Outcome {
  std::uint64_t total_hops = 0;
  std::uint64_t total_origin_served = 0;
  std::uint64_t max_link_transfers = 0;
  bool operator==(const Outcome&) const = default;
};

Outcome outcome_of(const core::SimulationMetrics& m) {
  return {m.total_hops, m.total_origin_served, m.max_link_transfers};
}

struct World {
  std::unique_ptr<topology::HierarchicalNetwork> network;
  std::unique_ptr<core::BoundWorkload> workload;
  std::unique_ptr<core::OriginMap> origins;
  double network_s = 0.0;
  double bind_s = 0.0;
};

World build_world(std::uint64_t seed) {
  World world;
  std::int64_t start = now_ns();
  world.network = std::make_unique<topology::HierarchicalNetwork>(
      topology::make_topology("Sprint"), topology::AccessTreeShape(2, 5));
  world.network_s = static_cast<double>(now_ns() - start) / 1e9;
  start = now_ns();
  core::SyntheticWorkloadSpec spec;
  spec.request_count = kRequests;
  spec.object_count = kObjects;
  spec.alpha = kAlpha;
  spec.seed = seed;
  world.workload = std::make_unique<core::BoundWorkload>(core::bind_synthetic(*world.network, spec));
  world.origins = std::make_unique<core::OriginMap>(
      *world.network, kObjects, core::OriginAssignment::PopulationProportional, seed + 1);
  world.bind_s = static_cast<double>(now_ns() - start) / 1e9;
  return world;
}

/// One replay: thread-CPU time (construction, prefill and the whole
/// trace); with `per_request`, the p50 and p99 of each request's own replay
/// time (µs) through the simulator's request observer.
struct Replay {
  core::SimulationMetrics metrics;
  double cpu_s = 0.0;
  double request_p50_us = 0.0;
  double request_p99_us = 0.0;
};

Replay replay(const World& world, const core::DesignSpec& design, bool per_request) {
  Replay out;
  std::vector<double> request_us;
  core::SimulationConfig config;
  const std::int64_t cpu0 = thread_cpu_ns();
  core::Simulator simulator(*world.network, *world.origins, design, config);
  if (per_request) {
    request_us.reserve(world.workload->requests.size());
    std::int64_t last = now_ns();
    simulator.set_request_observer([&request_us, &last](std::size_t) {
      const std::int64_t now = now_ns();
      request_us.push_back(static_cast<double>(now - last) / 1000.0);
      last = now;
    });
  }
  out.metrics = simulator.run(*world.workload);
  out.cpu_s = static_cast<double>(thread_cpu_ns() - cpu0) / 1e9;
  out.request_p50_us = percentile(request_us, 0.50);
  out.request_p99_us = percentile(request_us, 0.99);
  return out;
}

/// seed → design → recorded outcome, from sim_expected.tsv.
std::map<std::pair<std::uint64_t, std::string>, Outcome> load_expected(const std::string& path) {
  std::map<std::pair<std::uint64_t, std::string>, Outcome> table;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::uint64_t seed = 0;
    std::string design;
    Outcome o;
    if (fields >> seed >> design >> o.total_hops >> o.total_origin_served >> o.max_link_transfers) {
      table[{seed, design}] = o;
    }
  }
  return table;
}

}  // namespace

bool is_sim_workload(const std::string& name) { return name == "sim-sprint"; }

void run_sim(const RunOptions& options, const CpuPlan& cpus, Report& report) {
  CpuPlan::pin(cpus.generator);
  report.info("sim_requests", std::to_string(kRequests));
  report.info("sim_objects", std::to_string(kObjects));

  // Set-up several times; keep the last world.
  std::vector<double> setups, network_s, bind_s;
  World world;
  for (int k = 0; k < 15; ++k) {
    const std::int64_t start = now_ns();
    world = build_world(options.seed);
    setups.push_back(static_cast<double>(now_ns() - start) / 1e9);
    network_s.push_back(world.network_s);
    bind_s.push_back(world.bind_s);
  }

  const core::DesignSpec edge = core::edge();
  const core::DesignSpec icn_nr = core::icn_nr();
  // The first pair warms caches and the allocator; it is checked but not
  // timed.
  std::vector<Replay> edge_runs{replay(world, edge, false)};
  std::vector<Replay> icn_runs{replay(world, icn_nr, true)};
  const std::int64_t start = now_ns();
  const auto budget_ns = static_cast<std::int64_t>(options.seconds * 1e9);
  while (edge_runs.size() < 4 || now_ns() - start < budget_ns) {
    edge_runs.push_back(replay(world, edge, false));
    icn_runs.push_back(replay(world, icn_nr, true));
  }

  // Correctness: every replay of a design agrees, and matches the recorded
  // outcome for this seed when one is recorded.
  const auto expected = load_expected(options.sim_expected);
  bool recorded = false;
  for (const auto* runs : {&edge_runs, &icn_runs}) {
    const Outcome first = outcome_of(runs->front().metrics);
    for (const Replay& r : *runs) {
      report.check(outcome_of(r.metrics) == first,
                   r.metrics.design_name + ": replays agree");
    }
    const auto it = expected.find({options.seed, runs->front().metrics.design_name});
    if (it != expected.end()) {
      recorded = true;
      report.check(it->second == first, runs->front().metrics.design_name +
                                            ": total_hops, total_origin_served and "
                                            "max_link_transfers match the recorded values");
    }
  }
  report.check(outcome_of(icn_runs.front().metrics).total_hops <=
                   outcome_of(edge_runs.front().metrics).total_hops,
               "ICN-NR latency (hops) is no worse than EDGE");
  report.info("sim_recorded_outcome", recorded ? "checked" : "absent for this seed");

  // Rates are per CPU-second of the replaying thread, so time the host
  // gave to other guests does not count against the simulator.
  std::vector<double> edge_rate, icn_rate, p50, p99;
  double cpu_s = 0.0;
  std::uint64_t replayed = 0;
  for (auto r = edge_runs.begin() + 1; r != edge_runs.end(); ++r) {
    edge_rate.push_back(static_cast<double>(kRequests) / r->cpu_s);
    cpu_s += r->cpu_s;
    replayed += kRequests;
  }
  for (auto r = icn_runs.begin() + 1; r != icn_runs.end(); ++r) {
    icn_rate.push_back(static_cast<double>(kRequests) / r->cpu_s);
    p50.push_back(r->request_p50_us);
    p99.push_back(r->request_p99_us);
    cpu_s += r->cpu_s;
    replayed += kRequests;
  }
  report.add_requests(kRequests * (edge_runs.size() + icn_runs.size()), 0);

  if (options.phase == Phase::Full) {
    report.set("setup_s", median(setups), "s");
    report.set("latency_p50_us", median(p50), "us");
    report.set("server_cpu_us_per_req", cpu_s * 1e6 / static_cast<double>(replayed), "us");
    report.set("peak_rss_mb", peak_rss_mb(), "MB");
    report.info("latency_p99_us", std::to_string(median(p99)));
    return;
  }
  report.set("latency_p99_us", median(p99), "us");
  report.set("setup.network_s", median(network_s), "s");
  report.set("setup.bind_s", median(bind_s), "s");
  report.set("sim_edge_req_per_s", median(edge_rate), "1/s");
  report.set("sim_icn_nr_req_per_s", median(icn_rate), "1/s");
  std::vector<double> edge_s, icn_s;
  for (auto r = edge_runs.begin() + 1; r != edge_runs.end(); ++r) edge_s.push_back(r->cpu_s);
  for (auto r = icn_runs.begin() + 1; r != icn_runs.end(); ++r) icn_s.push_back(r->cpu_s);
  report.set("core.sim.run_s.edge", median(edge_s), "s");
  report.set("core.sim.run_s.icn_nr", median(icn_s), "s");
  if constexpr (core::kPerfCountersEnabled) {
    const core::PerfCounters& perf = icn_runs.front().metrics.perf;
    // ICN-NR without serving capacity looks replicas up with nearest()
    // queries; walk() serves the capacity-aware path. Per lookup is either.
    const auto lookups = static_cast<double>(perf.nearest_queries + perf.candidate_walks);
    report.set("core.holder_index.nearest_queries", static_cast<double>(perf.nearest_queries), "count");
    report.set("core.holder_index.candidate_walks", static_cast<double>(perf.candidate_walks), "count");
    report.set("core.holder_index.candidates_per_walk",
               lookups > 0 ? static_cast<double>(perf.candidates_visited) / lookups : 0.0, "count");
    report.set("core.holder_index.pops_scanned", static_cast<double>(perf.pops_scanned), "count");
    report.set("core.holder_index.pops_pruned", static_cast<double>(perf.pops_pruned), "count");
    report.set("core.holder_index.early_exits", static_cast<double>(perf.early_exits), "count");
    report.set("core.sim.origin_cost_memo_hits",
               static_cast<double>(perf.origin_cost_memo_hits), "count");
  }
}

void record_sim(const std::vector<std::uint64_t>& seeds) {
  for (const std::uint64_t seed : seeds) {
    const World world = build_world(seed);
    for (const core::DesignSpec& design : {core::edge(), core::icn_nr()}) {
      const Outcome o = outcome_of(replay(world, design, false).metrics);
      std::printf("%llu\t%s\t%llu\t%llu\t%llu\n", static_cast<unsigned long long>(seed),
                  design.name.c_str(), static_cast<unsigned long long>(o.total_hops),
                  static_cast<unsigned long long>(o.total_origin_served),
                  static_cast<unsigned long long>(o.max_link_transfers));
      std::fflush(stdout);
    }
  }
}

}  // namespace perfbench
