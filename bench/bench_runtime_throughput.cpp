// Real-socket runtime throughput benchmark.
//
// Deploys the full §6 stack — NRS, origin, reverse proxy, edge proxy —
// each behind its own runtime server on real loopback TCP, publishes a
// small catalog, then drives the edge proxy with closed-loop keep-alive
// HTTP clients and reports request rate and latency percentiles. The
// steady-state path is the paper's common case: a proxy cache HIT served
// straight from memory over one keep-alive connection.
//
// Multi-reactor scaling (PR 4): with `--workers N` (or
// IDICN_BENCH_WORKERS=N) the proxy runs behind an N-worker
// runtime::ServerGroup; the bench measures a 1-worker window first and
// then the N-worker window against the same warmed proxy, reporting
// per-worker request rates and the scaling efficiency
// req_per_s(N) / (N * req_per_s(1)).
//
// Knobs (flag wins over env):
//   --workers N / IDICN_BENCH_WORKERS   proxy reactor threads (default 1)
//   IDICN_BENCH_RUNTIME_SECONDS  measurement window (default 3; CI uses 1)
//   IDICN_BENCH_RUNTIME_CLIENTS  closed-loop client threads
//                                (default max(2, workers))
//   IDICN_BENCH_RUNTIME_BODY    object body bytes (default 512)
//   IDICN_BENCH_SIZE_MODEL      unit | lognormal | pareto (default unit:
//                               every object is IDICN_BENCH_RUNTIME_BODY
//                               bytes). The heavy-tailed models draw each
//                               catalog object's size independently — the
//                               paper's heterogeneous-size variation (§5).
//   IDICN_BENCH_SIZE_MEAN       mean body bytes for the heavy-tailed
//                               models (default IDICN_BENCH_RUNTIME_BODY)
//   IDICN_BENCH_OUT             JSON artifact path (default
//                               BENCH_runtime.json in the cwd)
//   IDICN_BENCH_LATENCY_UNDER_MISS=1
//                               append a latency-under-miss window: a
//                               driver thread fetches cold objects through
//                               a 200 ms FaultInjector Latency rule on the
//                               upstream while the closed-loop clients
//                               keep hammering warmed objects. The HIT
//                               latency percentiles sampled while a MISS
//                               was in flight land in the JSON
//                               (hit_p99_us_during_miss) — the mutual-
//                               stall regression number: before the async
//                               MISS path, every co-scheduled HIT paid the
//                               injected delay.
//   IDICN_BENCH_LATENCY_TAIL=1
//                               append a latency-tail pair of cold-MISS
//                               sweeps over objects replicated on two
//                               reverse proxies, with a FaultInjector
//                               degradation schedule stepping one replica
//                               to 800 ms after a few healthy sends. The
//                               first sweep runs with hedging disabled,
//                               the second with the multi-source
//                               fetcher's defaults; the JSON lands
//                               unhedged_p99_us vs hedged_p99_us plus
//                               hedges_sent / hedge_wins /
//                               hedges_suppressed / range_failovers and
//                               the per-destination rtt_p95_us map — the
//                               tail-latency headline for DESIGN.md §13.
//
// The last stdout line is a single JSON object with the results — the
// same object written to the artifact file — so CI and scripts can scrape
// `req_per_s` / `p99_us` / `scaling_efficiency` without parsing prose.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/perf_counters.hpp"
#include "core/sync.hpp"
#include "idicn/nrs.hpp"
#include "idicn/origin_server.hpp"
#include "idicn/proxy.hpp"
#include "idicn/reverse_proxy.hpp"
#include "net/fault_injector.hpp"
#include "runtime/host_server.hpp"
#include "runtime/http_client.hpp"
#include "runtime/socket_net.hpp"
#include "workload/size_model.hpp"

namespace {

using namespace idicn;
using namespace ::idicn::idicn;
using Clock = std::chrono::steady_clock;

long env_long(const char* name, long fallback) {
  if (const char* value = std::getenv(name)) {
    const long parsed = std::strtol(value, nullptr, 10);
    if (parsed > 0) return parsed;
  }
  return fallback;
}

std::uint64_t percentile(std::vector<std::uint64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  const auto rank = static_cast<std::size_t>(p * static_cast<double>(sorted.size() - 1));
  return sorted[rank];
}

/// Open keep-alive connections until every reactor has one. SO_REUSEPORT
/// assigns a connection to a worker by flow hash, and with only a handful
/// of long-lived client connections the hash can collapse onto a subset of
/// the workers — the historical bench artifact showed a 4-worker run where
/// one worker served 8 req/s against a 22k mean. Each fresh connect draws
/// a new ephemeral source port (re-rolling the hash); a probe request
/// reveals which worker the connection landed on via the live
/// requests_served counters, and the connection is kept only when it
/// covers a new worker. Must run with no other traffic in flight so the
/// counter delta attributes unambiguously. Gives up (returning a partial
/// cover) after a generous attempt budget; round-robin over the pool still
/// spreads whatever was won.
std::vector<std::unique_ptr<runtime::HttpClient>> connect_cover(
    runtime::HostServer& server, const std::string& probe_target,
    std::size_t workers) {
  std::vector<std::unique_ptr<runtime::HttpClient>> pool;
  std::vector<bool> covered(workers, false);
  std::size_t hit = 0;
  for (std::size_t attempt = 0; attempt < 64 * workers && hit < workers;
       ++attempt) {
    auto client =
        std::make_unique<runtime::HttpClient>("127.0.0.1", server.port());
    std::vector<std::uint64_t> before(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      before[w] = server.worker_stats(w).requests_served;
    }
    const auto response = client->get(probe_target);
    if (!response || response->status != 200) continue;
    for (std::size_t w = 0; w < workers; ++w) {
      if (server.worker_stats(w).requests_served == before[w]) continue;
      if (!covered[w]) {
        covered[w] = true;
        ++hit;
        pool.push_back(std::move(client));
      }
      break;
    }
  }
  if (pool.empty()) {
    pool.push_back(
        std::make_unique<runtime::HttpClient>("127.0.0.1", server.port()));
  }
  return pool;
}

/// One measured window: `workers` reactors serving `client_count`
/// closed-loop keep-alive clients for ~`seconds`.
struct WindowResult {
  std::size_t workers = 1;
  double elapsed_s = 0.0;
  std::size_t requests = 0;
  std::uint64_t errors = 0;
  double req_per_s = 0.0;
  double gbps = 0.0;  ///< proxy wire bytes out × 8 / elapsed
  double p50_us = 0.0, p90_us = 0.0, p99_us = 0.0, max_us = 0.0;
  std::vector<double> per_worker_req_per_s;
  runtime::HostServer::Stats server_stats;
};

WindowResult run_window(Proxy& proxy, runtime::SocketNet& net,
                        std::size_t workers, long client_count, long seconds,
                        const std::vector<std::string>& targets) {
  runtime::HostServer::Options options;
  options.workers = workers;
  runtime::HostServer proxy_server(&proxy, "cache.ad1", options);
  proxy_server.start();
  net.register_endpoint(proxy_server);

  // (Re)warm so the window measures the HIT fast path only.
  {
    runtime::HttpClient warm("127.0.0.1", proxy_server.port());
    for (const auto& target : targets) {
      const auto response = warm.get(target);
      if (!response || response->status != 200) {
        std::fprintf(stderr, "warmup fetch failed for %s\n", target.c_str());
        std::exit(1);
      }
    }
  }

  // Pre-built connection pools, one per client thread, each covering every
  // worker — built serially before the clock starts so probe attribution
  // is unambiguous and the window measures steady-state traffic only.
  std::vector<std::vector<std::unique_ptr<runtime::HttpClient>>> pools(
      static_cast<std::size_t>(client_count));
  for (auto& pool : pools) {
    if (proxy_server.worker_count() > 1) {
      pool = connect_cover(proxy_server, targets.front(),
                           proxy_server.worker_count());
    } else {
      pool.push_back(
          std::make_unique<runtime::HttpClient>("127.0.0.1", proxy_server.port()));
    }
  }

  std::atomic<bool> running{true};
  std::vector<std::vector<std::uint64_t>> latencies_ns(
      static_cast<std::size_t>(client_count));
  std::vector<std::uint64_t> errors(static_cast<std::size_t>(client_count), 0);
  std::vector<core::sync::Thread> clients;
  clients.reserve(static_cast<std::size_t>(client_count));

  const auto start = Clock::now();
  for (long c = 0; c < client_count; ++c) {
    clients.emplace_back([&, c] {
      auto& pool = pools[static_cast<std::size_t>(c)];
      auto& samples = latencies_ns[static_cast<std::size_t>(c)];
      samples.reserve(1 << 18);
      std::size_t i = static_cast<std::size_t>(c);
      while (running.load(std::memory_order_relaxed)) {
        // Round-robin over the per-worker connections so every reactor
        // sees a share of this client's closed loop.
        runtime::HttpClient& client = *pool[i % pool.size()];
        const auto t0 = Clock::now();
        const auto response = client.get(targets[i % targets.size()]);
        const auto t1 = Clock::now();
        if (!response || response->status != 200) {
          ++errors[static_cast<std::size_t>(c)];
          ++i;
          continue;
        }
        samples.push_back(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()));
        ++i;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::seconds(seconds));
  running.store(false);
  for (auto& thread : clients) thread.join();
  const double elapsed_s =
      std::chrono::duration<double>(Clock::now() - start).count();

  WindowResult result;
  result.workers = proxy_server.worker_count();
  result.elapsed_s = elapsed_s;

  std::vector<std::uint64_t> all;
  for (const auto& samples : latencies_ns) {
    all.insert(all.end(), samples.begin(), samples.end());
  }
  for (const auto error_count : errors) result.errors += error_count;
  std::sort(all.begin(), all.end());
  result.requests = all.size();
  result.req_per_s = static_cast<double>(all.size()) / elapsed_s;
  result.p50_us = static_cast<double>(percentile(all, 0.50)) / 1000.0;
  result.p90_us = static_cast<double>(percentile(all, 0.90)) / 1000.0;
  result.p99_us = static_cast<double>(percentile(all, 0.99)) / 1000.0;
  result.max_us = all.empty() ? 0.0 : static_cast<double>(all.back()) / 1000.0;

  // Per-worker request rates (worker_stats snapshots survive stop()).
  proxy_server.stop();
  for (std::size_t w = 0; w < result.workers; ++w) {
    result.per_worker_req_per_s.push_back(
        static_cast<double>(proxy_server.worker_stats(w).requests_served) /
        elapsed_s);
  }
  result.server_stats = proxy_server.stats();
  // Wire throughput from the proxy server's own byte counter (headers
  // included): with heavy-tailed bodies req/s alone hides the data-path
  // cost, so the bench reports both.
  result.gbps = static_cast<double>(result.server_stats.bytes_out) * 8.0 /
                elapsed_s / 1e9;
  return result;
}

/// Latency-under-miss window: HIT latency percentiles restricted to
/// samples whose whole round trip overlapped an in-flight (latency-
/// injected) MISS on the same proxy.
struct LatencyUnderMissResult {
  std::size_t miss_fetches = 0;      ///< cold objects pulled through the delay
  double miss_p50_ms = 0.0;
  std::size_t hit_samples_during_miss = 0;
  double hit_p50_us_during_miss = 0.0;
  double hit_p99_us_during_miss = 0.0;
  std::uint64_t errors = 0;
};

LatencyUnderMissResult run_latency_under_miss(
    Proxy& proxy, runtime::SocketNet& net, net::FaultInjector& faulty,
    std::size_t workers, long client_count, long seconds,
    const std::vector<std::string>& warm_targets,
    const std::vector<std::string>& cold_targets) {
  runtime::HostServer::Options options;
  options.workers = workers;
  runtime::HostServer proxy_server(&proxy, "cache.ad1", options);
  proxy_server.start();
  net.register_endpoint(proxy_server);

  {
    runtime::HttpClient warm("127.0.0.1", proxy_server.port());
    for (const auto& target : warm_targets) {
      const auto response = warm.get(target);
      if (!response || response->status != 200) {
        std::fprintf(stderr, "warmup fetch failed for %s\n", target.c_str());
        std::exit(1);
      }
    }
  }

  // Every upstream hop now costs 200 ms — each cold fetch parks its
  // FetchOp on a worker loop for at least that long.
  net::FaultInjector::Rule slow;
  slow.to = "rp.pub";
  slow.kind = net::FaultInjector::FaultKind::Latency;
  slow.latency_ms = 200;
  faulty.add_rule(slow);

  std::atomic<bool> running{true};
  std::atomic<bool> miss_inflight{false};
  std::atomic<std::uint64_t> errors{0};

  std::vector<std::uint64_t> miss_ns;
  core::sync::Thread miss_driver([&] {
    runtime::HttpClient client("127.0.0.1", proxy_server.port());
    for (const auto& target : cold_targets) {
      if (!running.load(std::memory_order_relaxed)) break;
      const auto t0 = Clock::now();
      miss_inflight.store(true, std::memory_order_release);
      const auto response = client.get(target);
      miss_inflight.store(false, std::memory_order_release);
      if (!response || response->status != 200) {
        errors.fetch_add(1);
        continue;
      }
      miss_ns.push_back(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               t0)
              .count()));
    }
  });

  std::vector<std::vector<std::uint64_t>> during_ns(
      static_cast<std::size_t>(client_count));
  {
    std::vector<core::sync::Thread> clients;
    clients.reserve(static_cast<std::size_t>(client_count));
    for (long c = 0; c < client_count; ++c) {
      clients.emplace_back([&, c] {
        runtime::HttpClient client("127.0.0.1", proxy_server.port());
        auto& samples = during_ns[static_cast<std::size_t>(c)];
        std::size_t i = static_cast<std::size_t>(c);
        while (running.load(std::memory_order_relaxed)) {
          const bool miss_at_start = miss_inflight.load(std::memory_order_acquire);
          const auto t0 = Clock::now();
          const auto response = client.get(warm_targets[i % warm_targets.size()]);
          const auto t1 = Clock::now();
          if (!response || response->status != 200) {
            errors.fetch_add(1);
            continue;
          }
          // Conservative bucketing: count a sample only when a MISS was
          // parked for the sample's entire round trip.
          if (miss_at_start && miss_inflight.load(std::memory_order_acquire)) {
            samples.push_back(static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                    .count()));
          }
          ++i;
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::seconds(seconds));
    running.store(false);
  }  // hit clients joined
  miss_driver.join();
  proxy_server.stop();

  LatencyUnderMissResult result;
  result.errors = errors.load();
  result.miss_fetches = miss_ns.size();
  std::sort(miss_ns.begin(), miss_ns.end());
  result.miss_p50_ms = static_cast<double>(percentile(miss_ns, 0.50)) / 1e6;
  std::vector<std::uint64_t> all;
  for (const auto& samples : during_ns) {
    all.insert(all.end(), samples.begin(), samples.end());
  }
  std::sort(all.begin(), all.end());
  result.hit_samples_during_miss = all.size();
  result.hit_p50_us_during_miss =
      static_cast<double>(percentile(all, 0.50)) / 1000.0;
  result.hit_p99_us_during_miss =
      static_cast<double>(percentile(all, 0.99)) / 1000.0;
  return result;
}

/// One latency-tail sweep: a fresh proxy (so RTT estimators start cold)
/// pulls `targets` — all replicated on rp.pub + rp2.pub — once each while
/// a degradation schedule steps rp.pub from healthy to an 800 ms stall
/// after its first 5 matched sends. Cold fetches only: the p99 of the
/// sweep *is* the MISS tail under a decaying replica.
struct LatencyTailSweep {
  std::size_t fetches = 0;
  std::uint64_t errors = 0;
  double p99_us = 0.0;
  std::uint64_t hedges_sent = 0;
  std::uint64_t hedge_wins = 0;
  std::uint64_t hedges_suppressed = 0;
  std::uint64_t range_failovers = 0;
  std::uint64_t rtt_p95_rp_us = 0;
  std::uint64_t rtt_p95_rp2_us = 0;
};

LatencyTailSweep run_latency_tail_sweep(runtime::SocketNet& net,
                                        net::FaultInjector& faulty,
                                        net::DnsService& dns, bool hedging,
                                        std::size_t workers,
                                        const std::vector<std::string>& targets) {
  Proxy::Options options;
  options.cache_shards = workers;
  options.fetch.hedging_enabled = hedging;
  // Loopback RTTs sit well under this floor, so the hedge timer only
  // fires for genuinely degraded sends — same setting the chaos e2e pins.
  options.fetch.hedge_min_delay_ms = 25;
  Proxy proxy(&faulty, "cache.ad1", "nrs.consortium", &dns, options);

  runtime::HostServer::Options host;
  host.workers = workers;
  runtime::HostServer proxy_server(&proxy, "cache.ad1", host);
  proxy_server.start();
  net.register_endpoint(proxy_server);

  // Fresh schedule per sweep: each keeps a private matched-send counter,
  // so both sweeps see the identical healthy→800 ms step at send 6.
  net::FaultInjector::Degradation ramp;
  ramp.to = "rp.pub";
  ramp.start_latency_ms = 800;
  ramp.peak_latency_ms = 800;
  ramp.ramp_start = 6;  // first sends seed honest RTT estimates
  faulty.add_degradation(ramp);

  std::vector<std::uint64_t> sample_us;
  LatencyTailSweep result;
  {
    runtime::HttpClient client("127.0.0.1", proxy_server.port());
    for (const auto& target : targets) {
      const auto t0 = Clock::now();
      const auto response = client.get(target);
      const auto t1 = Clock::now();
      if (!response || response->status != 200) {
        ++result.errors;
        continue;
      }
      sample_us.push_back(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
              .count()));
    }
  }
  faulty.clear_degradations();

  const auto& stats = proxy.fetcher().stats();
  result.hedges_sent = stats.hedges_sent.value();
  result.hedge_wins = stats.hedge_wins.value();
  result.hedges_suppressed = stats.hedges_suppressed.value();
  result.range_failovers = stats.range_failovers.value();
  result.rtt_p95_rp_us = proxy.fetcher().rtt_p95_us("rp.pub");
  result.rtt_p95_rp2_us = proxy.fetcher().rtt_p95_us("rp2.pub");
  proxy_server.stop();

  result.fetches = sample_us.size();
  std::sort(sample_us.begin(), sample_us.end());
  if (!sample_us.empty()) {
    // Nearest-rank (ceil) p99, matching the chaos e2e: with one scripted
    // straggler in a small sweep the tail must not hide behind
    // interpolation.
    const std::size_t rank = (sample_us.size() * 99 + 99) / 100;
    result.p99_us = static_cast<double>(
        sample_us[std::max<std::size_t>(rank, 1) - 1]);
  }
  return result;
}

void print_window(const WindowResult& w) {
  std::printf("  [%zu worker%s]\n", w.workers, w.workers == 1 ? "" : "s");
  std::printf("    requests         %zu ok, %llu errors in %.2f s\n",
              w.requests, static_cast<unsigned long long>(w.errors),
              w.elapsed_s);
  std::printf("    throughput       %.0f req/s, %.3f Gbps out\n", w.req_per_s,
              w.gbps);
  std::printf("    latency          p50 %.1f us, p90 %.1f us, p99 %.1f us, max %.1f us\n",
              w.p50_us, w.p90_us, w.p99_us, w.max_us);
  std::printf("    per-worker req/s ");
  for (std::size_t i = 0; i < w.per_worker_req_per_s.size(); ++i) {
    std::printf("%s%.0f", i == 0 ? "" : ", ", w.per_worker_req_per_s[i]);
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t workers =
      static_cast<std::size_t>(env_long("IDICN_BENCH_WORKERS", 1));
  bool check = env_long("IDICN_BENCH_CHECK", 0) != 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      const long parsed = std::strtol(argv[++i], nullptr, 10);
      if (parsed > 0) workers = static_cast<std::size_t>(parsed);
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else {
      std::fprintf(stderr, "usage: %s [--workers N] [--check]\n", argv[0]);
      return 2;
    }
  }

  const long seconds = env_long("IDICN_BENCH_RUNTIME_SECONDS", 3);
  const long client_count = env_long("IDICN_BENCH_RUNTIME_CLIENTS",
                                     std::max<long>(2, static_cast<long>(workers)));
  const long body_bytes = env_long("IDICN_BENCH_RUNTIME_BODY", 512);

  // Heavy-tailed object sizes (tentpole (d)): pick the model from the env,
  // sample each catalog object's body size once at publish time. Unit (the
  // default) preserves the historical fixed-size behaviour exactly.
  workload::SizeModel size_model;
  if (const char* model_env = std::getenv("IDICN_BENCH_SIZE_MODEL")) {
    const auto kind = workload::parse_size_model_kind(model_env);
    if (!kind) {
      std::fprintf(stderr,
                   "IDICN_BENCH_SIZE_MODEL must be unit|lognormal|pareto, got %s\n",
                   model_env);
      return 2;
    }
    if (*kind != workload::SizeModelKind::Unit) {
      const long mean = env_long("IDICN_BENCH_SIZE_MEAN", body_bytes);
      size_model = workload::SizeModel(*kind, static_cast<double>(mean));
    }
  }

  const bool latency_under_miss =
      env_long("IDICN_BENCH_LATENCY_UNDER_MISS", 0) != 0;
  const bool latency_tail = env_long("IDICN_BENCH_LATENCY_TAIL", 0) != 0;

  // --- deploy the socketed stack -----------------------------------------
  runtime::SocketNet net;
  // The proxy's upstream rides a FaultInjector so the latency-under-miss
  // window can script a slow origin. Rule-free it is pass-through, and the
  // measured windows are pure HIT traffic (no upstream sends), so wrapping
  // unconditionally does not perturb the throughput numbers.
  net::FaultInjector faulty(&net);
  net::DnsService dns;
  // 512 one-time keys: each publish burns two (content metadata + NRS
  // registration), and the latency-tail leg republishes its catalog on a
  // second reverse proxy.
  crypto::MerkleSigner signer(0xbe9c, 9);
  NameResolutionSystem nrs(&dns);
  OriginServer origin;
  ReverseProxy reverse_proxy(&net, "rp.pub", "origin.pub", "nrs.consortium",
                             &signer);
  Proxy::Options proxy_options;
  proxy_options.cache_shards = workers;  // one lock stripe per reactor
  Proxy proxy(&faulty, "cache.ad1", "nrs.consortium", &dns, proxy_options);

  runtime::HostServer nrs_server(&nrs, "nrs.consortium");
  runtime::HostServer origin_server(&origin, "origin.pub");
  runtime::HostServer rp_server(&reverse_proxy, "rp.pub");
  nrs_server.start();
  origin_server.start();
  rp_server.start();
  net.register_endpoint(nrs_server);
  net.register_endpoint(origin_server);
  net.register_endpoint(rp_server);

  // Second replica for the latency-tail leg: shares the signer, so the
  // same label published on both reverse proxies yields one
  // self-certifying name with two NRS location rows (rp.pub first, by
  // registration order — the degradation schedule targets it).
  std::unique_ptr<ReverseProxy> reverse_proxy2;
  std::unique_ptr<runtime::HostServer> rp2_server;
  if (latency_tail) {
    reverse_proxy2 = std::make_unique<ReverseProxy>(
        &net, "rp2.pub", "origin.pub", "nrs.consortium", &signer);
    rp2_server =
        std::make_unique<runtime::HostServer>(reverse_proxy2.get(), "rp2.pub");
    rp2_server->start();
    net.register_endpoint(*rp2_server);
  }

  // Publish a small catalog (each publish costs one-time keys).
  constexpr int kCatalog = 16;
  std::vector<std::string> targets;
  std::mt19937_64 size_rng(0x1d1c4u);  // fixed seed: same catalog every run
  std::uint64_t catalog_bytes = 0;
  for (int i = 0; i < kCatalog; ++i) {
    const std::string label = "object-" + std::to_string(i);
    std::size_t object_bytes = static_cast<std::size_t>(body_bytes);
    if (size_model.kind() != workload::SizeModelKind::Unit) {
      object_bytes = static_cast<std::size_t>(size_model.sample(size_rng));
    }
    catalog_bytes += object_bytes;
    // The origin and reverse proxy belong to their worker threads while
    // their servers run: publish through run_on_loop, not directly.
    origin_server.run_on_loop([&] {
      origin.put(label, std::string(object_bytes, 'x'));
    });
    std::optional<SelfCertifyingName> name;
    rp_server.run_on_loop([&] { name = reverse_proxy.publish(label); });
    if (!name) {
      std::fprintf(stderr, "publish failed for %s\n", label.c_str());
      return 1;
    }
    targets.push_back("http://" + name->host() + "/");
  }

  // Cold catalog for the latency-under-miss window: never warmed, fetched
  // one at a time through the injected delay (~200 ms each), so the count
  // scales with the window. Capped by the signer's one-time key budget.
  std::vector<std::string> cold_targets;
  if (latency_under_miss) {
    const long cold_count = std::min<long>(200, seconds * 6 + 4);
    for (long i = 0; i < cold_count; ++i) {
      const std::string label = "cold-" + std::to_string(i);
      origin_server.run_on_loop([&] {
        origin.put(label, std::string(static_cast<std::size_t>(body_bytes), 'c'));
      });
      std::optional<SelfCertifyingName> name;
      rp_server.run_on_loop([&] { name = reverse_proxy.publish(label); });
      if (!name) {
        std::fprintf(stderr, "publish failed for %s\n", label.c_str());
        return 1;
      }
      cold_targets.push_back("http://" + name->host() + "/");
    }
  }

  // Two cold catalogs for the latency-tail sweeps (one per hedging mode,
  // so both start as true MISSes), each replicated on rp.pub and rp2.pub.
  std::vector<std::string> tail_unhedged_targets;
  std::vector<std::string> tail_hedged_targets;
  if (latency_tail) {
    constexpr int kTailCatalog = 40;
    const auto publish_replicated =
        [&](const std::string& label, std::vector<std::string>& out) -> bool {
      origin_server.run_on_loop([&] {
        origin.put(label, std::string(static_cast<std::size_t>(body_bytes), 't'));
      });
      std::optional<SelfCertifyingName> name;
      std::optional<SelfCertifyingName> twin;
      rp_server.run_on_loop([&] { name = reverse_proxy.publish(label); });
      if (!name) return false;
      rp2_server->run_on_loop([&] { twin = reverse_proxy2->publish(label); });
      if (!twin || twin->flat() != name->flat()) return false;
      out.push_back("http://" + name->host() + "/");
      return true;
    };
    for (int i = 0; i < kTailCatalog; ++i) {
      if (!publish_replicated("tail-u-" + std::to_string(i),
                              tail_unhedged_targets) ||
          !publish_replicated("tail-h-" + std::to_string(i),
                              tail_hedged_targets)) {
        std::fprintf(stderr, "replicated publish failed for tail object %d\n",
                     i);
        return 1;
      }
    }
  }

  // --- measured windows ---------------------------------------------------
  // With workers > 1: a 1-worker baseline window first, then the N-worker
  // window against the same warmed proxy, so the comparison isolates the
  // reactor count.
  std::printf("runtime throughput: %ld client(s), %ld s window, %zu worker(s), "
              "%s sizes (catalog mean %.0f B)\n",
              client_count, seconds, workers,
              workload::to_string(size_model.kind()).c_str(),
              static_cast<double>(catalog_bytes) / kCatalog);
  std::optional<WindowResult> baseline;
  if (workers > 1) {
    baseline = run_window(proxy, net, 1, client_count, seconds, targets);
    print_window(*baseline);
  }
  const WindowResult measured =
      run_window(proxy, net, workers, client_count, seconds, targets);
  print_window(measured);

  const double scaling_efficiency =
      baseline && baseline->req_per_s > 0.0
          ? measured.req_per_s /
                (static_cast<double>(workers) * baseline->req_per_s)
          : 1.0;
  if (baseline) {
    std::printf("  scaling            %.2fx over 1 worker (efficiency %.2f)\n",
                measured.req_per_s / baseline->req_per_s, scaling_efficiency);
  }

  // Worker-coverage check (--check / IDICN_BENCH_CHECK=1): with the
  // connection pools pinned per worker, no reactor should sit idle. A
  // worker under 5% of the mean means the SO_REUSEPORT flow-hash collapse
  // is back (or a reactor wedged) — fail loudly instead of publishing a
  // scaling number measured on fewer workers than claimed.
  bool coverage_failed = false;
  if (check && measured.per_worker_req_per_s.size() > 1) {
    double mean = 0.0;
    for (const double rate : measured.per_worker_req_per_s) mean += rate;
    mean /= static_cast<double>(measured.per_worker_req_per_s.size());
    for (std::size_t w = 0; w < measured.per_worker_req_per_s.size(); ++w) {
      if (measured.per_worker_req_per_s[w] < 0.05 * mean) {
        std::fprintf(stderr,
                     "worker coverage check FAILED: worker %zu served "
                     "%.1f req/s against a %.1f req/s mean (< 5%%)\n",
                     w, measured.per_worker_req_per_s[w], mean);
        coverage_failed = true;
      }
    }
  }

  // Latency-tail sweeps (opt-in): the same degradation schedule twice —
  // once with hedging off, once with the fetcher defaults. Runs before
  // the latency-under-miss window because that window installs a
  // persistent Latency rule on rp.pub.
  std::optional<LatencyTailSweep> tail_unhedged;
  std::optional<LatencyTailSweep> tail_hedged;
  if (latency_tail) {
    tail_unhedged = run_latency_tail_sweep(net, faulty, dns, false, workers,
                                           tail_unhedged_targets);
    tail_hedged = run_latency_tail_sweep(net, faulty, dns, true, workers,
                                         tail_hedged_targets);
    std::printf("  latency tail       unhedged p99 %.1f ms vs hedged p99 %.1f ms "
                "over %zu cold fetches (%llu hedges sent, %llu won, "
                "%llu suppressed, %llu range failovers)\n",
                tail_unhedged->p99_us / 1000.0, tail_hedged->p99_us / 1000.0,
                tail_hedged->fetches,
                static_cast<unsigned long long>(tail_hedged->hedges_sent),
                static_cast<unsigned long long>(tail_hedged->hedge_wins),
                static_cast<unsigned long long>(tail_hedged->hedges_suppressed),
                static_cast<unsigned long long>(tail_hedged->range_failovers));
  }

  // Latency-under-miss window (opt-in): cold fetches crawl through the
  // injected upstream delay while the closed-loop clients stay on the hit
  // path. The p99 sampled during in-flight misses is the headline — the
  // synchronous MISS path put it at ~the injected 200 ms; the parked
  // FetchOp keeps it at cache-hit scale.
  std::optional<LatencyUnderMissResult> lum;
  if (latency_under_miss) {
    lum = run_latency_under_miss(proxy, net, faulty, workers, client_count,
                                 seconds, targets, cold_targets);
    std::printf("  latency under miss %zu miss fetches (p50 %.0f ms), "
                "%zu hit samples during miss: p50 %.1f us, p99 %.1f us\n",
                lum->miss_fetches, lum->miss_p50_ms,
                lum->hit_samples_during_miss, lum->hit_p50_us_during_miss,
                lum->hit_p99_us_during_miss);
  }

  if (rp2_server) rp2_server->stop();
  rp_server.stop();
  origin_server.stop();
  nrs_server.stop();

  const auto& proxy_stats = proxy.stats();
  std::printf("  proxy cache        %llu hits, %llu misses\n",
              static_cast<unsigned long long>(proxy_stats.hits.value()),
              static_cast<unsigned long long>(proxy_stats.misses.value()));
  std::printf("  proxy bytes        %llu served, %llu from origin\n",
              static_cast<unsigned long long>(proxy_stats.bytes_served.value()),
              static_cast<unsigned long long>(proxy_stats.bytes_from_origin.value()));
  std::printf("  server sockets     %llu conns, %llu B in, %llu B out\n",
              static_cast<unsigned long long>(measured.server_stats.connections_accepted),
              static_cast<unsigned long long>(measured.server_stats.bytes_in),
              static_cast<unsigned long long>(measured.server_stats.bytes_out));
  // All four should be 0 in a clean run: the bench exercises the hit path
  // with breakers armed but no faults, so this doubles as a sanity check
  // that fault tolerance costs nothing when nothing fails.
  std::printf("  fault tolerance    %llu retries, %llu fast-fails, "
              "%llu stale, %llu upstream errors\n",
              static_cast<unsigned long long>(net.stats().retries),
              static_cast<unsigned long long>(net.stats().breaker_fast_fails),
              static_cast<unsigned long long>(proxy_stats.stale_served.value()),
              static_cast<unsigned long long>(proxy_stats.upstream_errors.value()));
  if constexpr (core::kPerfCountersEnabled) {
    // perf() merges the per-shard counters under their locks — safe here
    // and safe live.
    std::printf("  perf counters      proxy_bytes_served=%llu proxy_bytes_from_origin=%llu\n",
                static_cast<unsigned long long>(proxy.perf().proxy_bytes_served),
                static_cast<unsigned long long>(proxy.perf().proxy_bytes_from_origin));
  }

  // Machine-readable result (last stdout line + the JSON artifact).
  std::string per_worker_json = "[";
  for (std::size_t i = 0; i < measured.per_worker_req_per_s.size(); ++i) {
    char item[32];
    std::snprintf(item, sizeof(item), "%s%.1f", i == 0 ? "" : ",",
                  measured.per_worker_req_per_s[i]);
    per_worker_json += item;
  }
  per_worker_json += "]";
  char json[1536];
  std::snprintf(
      json, sizeof(json),
      "{\"bench\":\"runtime_throughput\",\"workers\":%zu,"
      "\"clients\":%ld,\"seconds\":%.2f,\"requests\":%zu,\"errors\":%llu,"
      "\"req_per_s\":%.1f,\"gbps\":%.3f,\"single_worker_req_per_s\":%.1f,"
      "\"scaling_efficiency\":%.3f,\"per_worker_req_per_s\":%s,"
      "\"size_model\":\"%s\",\"catalog_mean_bytes\":%.1f,"
      "\"p50_us\":%.1f,\"p90_us\":%.1f,\"p99_us\":%.1f,\"max_us\":%.1f,"
      "\"bytes_served\":%llu,"
      "\"retries\":%llu,\"breaker_fast_fails\":%llu,"
      "\"stale_served\":%llu,\"upstream_errors\":%llu}",
      measured.workers,
      client_count, measured.elapsed_s, measured.requests,
      static_cast<unsigned long long>(measured.errors + (baseline ? baseline->errors : 0)),
      measured.req_per_s, measured.gbps,
      baseline ? baseline->req_per_s : measured.req_per_s, scaling_efficiency,
      per_worker_json.c_str(),
      workload::to_string(size_model.kind()).c_str(),
      static_cast<double>(catalog_bytes) / kCatalog,
      measured.p50_us, measured.p90_us,
      measured.p99_us, measured.max_us,
      static_cast<unsigned long long>(proxy_stats.bytes_served.value()),
      static_cast<unsigned long long>(net.stats().retries),
      static_cast<unsigned long long>(net.stats().breaker_fast_fails),
      static_cast<unsigned long long>(proxy_stats.stale_served.value()),
      static_cast<unsigned long long>(proxy_stats.upstream_errors.value()));
  std::string json_out(json);
  if (tail_unhedged && tail_hedged) {
    char extra[512];
    std::snprintf(
        extra, sizeof(extra),
        ",\"unhedged_p99_us\":%.1f,\"hedged_p99_us\":%.1f,"
        "\"tail_fetches\":%zu,\"tail_errors\":%llu,"
        "\"hedges_sent\":%llu,\"hedge_wins\":%llu,"
        "\"hedges_suppressed\":%llu,\"range_failovers\":%llu,"
        "\"rtt_p95_us\":{\"rp.pub\":%llu,\"rp2.pub\":%llu}}",
        tail_unhedged->p99_us, tail_hedged->p99_us, tail_hedged->fetches,
        static_cast<unsigned long long>(tail_unhedged->errors +
                                        tail_hedged->errors),
        static_cast<unsigned long long>(tail_hedged->hedges_sent),
        static_cast<unsigned long long>(tail_hedged->hedge_wins),
        static_cast<unsigned long long>(tail_hedged->hedges_suppressed),
        static_cast<unsigned long long>(tail_hedged->range_failovers),
        static_cast<unsigned long long>(tail_hedged->rtt_p95_rp_us),
        static_cast<unsigned long long>(tail_hedged->rtt_p95_rp2_us));
    json_out.pop_back();  // the closing brace moves behind the new fields
    json_out += extra;
  }
  if (lum) {
    char extra[384];
    std::snprintf(
        extra, sizeof(extra),
        ",\"miss_fetches\":%zu,\"miss_p50_ms\":%.1f,"
        "\"hit_samples_during_miss\":%zu,"
        "\"hit_p50_us_during_miss\":%.1f,\"hit_p99_us_during_miss\":%.1f}",
        lum->miss_fetches, lum->miss_p50_ms, lum->hit_samples_during_miss,
        lum->hit_p50_us_during_miss, lum->hit_p99_us_during_miss);
    json_out.pop_back();  // the closing brace moves behind the new fields
    json_out += extra;
  }
  std::printf("%s\n", json_out.c_str());

  const char* out_path = std::getenv("IDICN_BENCH_OUT");
  if (out_path == nullptr) out_path = "BENCH_runtime.json";
  if (std::FILE* out = std::fopen(out_path, "w")) {
    std::fprintf(out, "%s\n", json_out.c_str());
    std::fclose(out);
  } else {
    std::fprintf(stderr, "could not write %s\n", out_path);
  }

  std::uint64_t total_errors =
      measured.errors + (baseline ? baseline->errors : 0);
  if (lum) total_errors += lum->errors;
  if (tail_unhedged) total_errors += tail_unhedged->errors;
  if (tail_hedged) total_errors += tail_hedged->errors;
  return total_errors == 0 && !coverage_failed ? 0 : 1;
}
