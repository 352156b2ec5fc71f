// Runtime workloads (hit-1k, miss-heavytail): the socketed §6 stack under
// the open-loop generator. See README.md for what each phase reports.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unistd.h>

#include "alloc_count.hpp"
#include "crypto/lamport.hpp"
#include "crypto/sha256.hpp"
#include "idicn/metalink.hpp"
#include "legs.hpp"
#include "loadgen.hpp"
#include "net/http_decoder.hpp"
#include "net/http_message.hpp"
#include "stack.hpp"
#include "trace.hpp"
#include "workload/zipf.hpp"

namespace perfbench {
namespace {

using idicn::runtime::ServerGroup;

/// A runtime workload's fixed parameters. Only the request sequence
/// (arrival times and object choices) depends on the seed.
struct RuntimeWorkload {
  const char* name;
  CatalogSpec catalog;
  double nominal_rps;   ///< the fixed rate the latency figures are taken at
  double slo_p99_us;    ///< p99 limit of the rate search
  double zipf_alpha;    ///< 0: objects chosen uniformly
  double warm_s;        ///< open-loop warm-up at the nominal rate
  double hit_ratio_lo;  ///< band the measured hit ratio must fall in
  double hit_ratio_hi;
};

/// p99 is taken per slice of a window, long enough for this many requests
/// (and no shorter than kMinSliceS), and the median slice reported, so a
/// stall of the host moves only the slices it hits.
constexpr double kSliceSamples = 1000.0;
constexpr double kMinSliceS = 0.1;
/// Every proxy worker must carry at least this share of an even split.
constexpr double kWorkerShareFloor = 0.5;

/// hit-1k's fixed rate; the generator self-check runs at it too.
constexpr double kHitNominalRps = 40'000.0;

const RuntimeWorkload kWorkloads[] = {
    // 64 warmed 1 KB objects: every measured request is a HIT.
    {"hit-1k",
     CatalogSpec{64, 1024, 0.0, 0, 7, 4.0, kProxyWorkers},
     kHitNominalRps, 1'000.0, 0.0, 0.5, 1.0, 1.0},
    // ~256 Pareto-sized objects (mean ~32 KB), Zipf(Asia α) popularity,
    // cache a quarter of the catalog's bytes: steady MISSes and evictions.
    {"miss-heavytail",
     CatalogSpec{256, 0, 32.0 * 1024, 0x5eed, 9, 0.25, kProxyWorkers},
     400.0, 20'000.0, 1.04, 2.0, 0.45, 0.90},
};

const RuntimeWorkload& find_workload(const std::string& name) {
  for (const auto& w : kWorkloads) {
    if (name == w.name) return w;
  }
  throw std::invalid_argument("unknown runtime workload " + name);
}

double since_s(std::int64_t start) {
  return static_cast<double>(now_ns() - start) / 1e9;
}

Chooser make_chooser(const RuntimeWorkload& w) {
  const auto n = static_cast<std::uint32_t>(w.catalog.objects);
  if (w.zipf_alpha > 0.0) {
    auto zipf = std::make_shared<idicn::workload::ZipfDistribution>(n, w.zipf_alpha);
    return [zipf](std::mt19937_64& rng) { return zipf->sample(rng) - 1; };
  }
  return [n](std::mt19937_64& rng) {
    return std::uniform_int_distribution<std::uint32_t>(0, n - 1)(rng);
  };
}

bool is_miss(CacheClass c) { return c == CacheClass::Miss || c == CacheClass::Stream; }

struct Deployment {
  std::unique_ptr<Stack> stack;
  std::unique_ptr<LoadGen> gen;
  PhaseResult first_fetch;  ///< every object once, cold
  PhaseResult warm;         ///< open-loop warm-up
  bool connected = false;
  double warm_s = 0.0;
  double setup_s = 0.0;
};

std::size_t connection_count() {
  const long cpus = sysconf(_SC_NPROCESSORS_ONLN);
  return std::max<std::size_t>(kProxyWorkers,
                               std::min<std::size_t>(4, cpus > 0 ? static_cast<std::size_t>(cpus) : 1));
}

/// Key generation, deploy, publish and warm-up: everything before the
/// first measured request.
Deployment deploy(const RuntimeWorkload& w, const CpuPlan& cpus, bool traced,
                  std::uint64_t seed, const Chooser& choose) {
  Deployment d;
  const std::int64_t start = now_ns();
  CpuPlan::pin(cpus.aux);
  d.stack = std::make_unique<Stack>(w.catalog, traced, cpus);
  CpuPlan::pin(cpus.generator);
  const std::int64_t warm_start = now_ns();
  d.gen = std::make_unique<LoadGen>(d.stack->targets());
  d.connected = d.gen->connect(d.stack->proxy_port(), connection_count(),
                               [&] { return d.stack->worker_counts(); });
  std::vector<std::uint32_t> all(w.catalog.objects);
  std::iota(all.begin(), all.end(), 0u);
  d.first_fetch = d.gen->fetch_sequence(all);
  d.warm = d.gen->run(w.nominal_rps, w.warm_s, seed ^ 0x5741524dULL, choose);
  d.warm_s = since_s(warm_start);
  d.setup_s = since_s(start);
  return d;
}

/// Counters of every layer, read before and after a window.
struct Counters {
  ServerGroup::Stats server;
  std::vector<std::uint64_t> per_worker;
  idicn::runtime::SocketNet::Stats upstream;
  std::uint64_t fetches = 0, source_failovers = 0, window_deferrals = 0;
  std::uint64_t hits = 0, misses = 0, evictions = 0, stream_joins = 0;
  std::uint64_t verification_failures = 0, upstream_errors = 0;
  std::int64_t cpu_ns = 0;      ///< process CPU minus the idle keepers'
  std::int64_t server_ctx = 0;  ///< context switches of the server threads
  std::uint64_t allocations = 0;

  static Counters read(Stack& stack, const IdleKeepers& keepers) {
    Counters c;
    c.server = stack.proxy_server().stats();
    c.per_worker = stack.worker_counts();
    c.upstream = stack.net().stats();
    const auto& fetcher = stack.proxy().fetcher().stats();
    c.fetches = fetcher.fetches.value();
    c.source_failovers = fetcher.source_failovers.value();
    c.window_deferrals = fetcher.window_deferrals.value();
    const auto& proxy = stack.proxy().stats();
    c.hits = proxy.hits.value();
    c.misses = proxy.misses.value();
    c.evictions = proxy.evictions.value();
    c.stream_joins = proxy.stream_joins.value();
    c.verification_failures = proxy.verification_failures.value();
    c.upstream_errors = proxy.upstream_errors.value();
    c.cpu_ns = process_cpu_ns() - keepers.cpu_ns();
    for (const pid_t tid : stack.server_threads()) c.server_ctx += thread_ctx_switches(tid);
    c.allocations = allocations_total();
    return c;
  }
};

/// One measured open-loop window at a fixed rate.
struct Window {
  PhaseResult phase;
  Counters before, after;
  [[nodiscard]] std::uint64_t completed() const {
    return phase.samples.size() - phase.failed();
  }
  /// Process CPU minus the generator thread's and the idle keepers', per
  /// completed request.
  [[nodiscard]] double server_cpu_us_per_req() const {
    const double server_ns = static_cast<double>(
        after.cpu_ns - before.cpu_ns - phase.gen_cpu_ns);
    return server_ns / 1000.0 / static_cast<double>(std::max<std::uint64_t>(1, completed()));
  }
  [[nodiscard]] double elapsed_s() const {
    return static_cast<double>(phase.drained_ns - phase.start_ns) / 1e9;
  }
  [[nodiscard]] double worker_share_min() const {
    std::vector<double> served;
    double total = 0.0;
    for (std::size_t w = 0; w < after.per_worker.size(); ++w) {
      served.push_back(static_cast<double>(after.per_worker[w] - before.per_worker[w]));
      total += served.back();
    }
    if (served.empty() || total == 0.0) return 0.0;
    const double fair = total / static_cast<double>(served.size());
    return *std::min_element(served.begin(), served.end()) / fair;
  }
};

Window measure(Deployment& d, const IdleKeepers& keepers, double rate, double seconds,
               std::uint64_t seed, const Chooser& choose, std::size_t capture = 0) {
  Window window;
  window.before = Counters::read(*d.stack, keepers);
  window.phase = d.gen->run(rate, seconds, seed, choose, capture);
  window.after = Counters::read(*d.stack, keepers);
  return window;
}

/// Median over slices of a phase of each slice's p99 (see kSliceSamples).
double sliced_p99_us(const PhaseResult& phase, double rate) {
  return median(phase.p99_per_slice_us(std::max(kMinSliceS, kSliceSamples / rate)));
}

struct RateSearch {
  double rate = 0.0;  ///< highest offered rate that met the limit
  double goodput_gbps = 0.0;  ///< body bytes per second of that probe
  int probes = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Highest offered rate whose p99 meets the workload's limit: grow from the
/// nominal rate by 1.6x until a rate misses, then bisect (geometrically)
/// until neighbouring rates differ by under 3%. A probe misses when its
/// sliced p99 exceeds the limit, a request failed, the backlog outgrew the
/// limit (the probe is then cut short), or the generator itself fell behind
/// by more than half of the limit.
RateSearch search_rate(Deployment& d, const RuntimeWorkload& w, double probe_s,
                       std::uint64_t seed, const Chooser& choose) {
  RateSearch result;
  // A probe that misses is run once more: a rate misses only when both
  // probes do, so a passing stall of the host cannot end the search early.
  std::map<double, double> goodput;  ///< rate → Gbps, for probes that met the limit
  const auto probe = [&](double rate) {
    d.gen->connect(d.stack->proxy_port(), connection_count(),
                   [&] { return d.stack->worker_counts(); });
    // Little's law: meeting the limit keeps about rate × limit requests
    // outstanding; four times that means the probe has already missed.
    const auto max_backlog = static_cast<std::size_t>(
        std::max(64.0, 4.0 * rate * w.slo_p99_us / 1e6));
    const PhaseResult phase = d.gen->run(
        rate, probe_s, seed + static_cast<std::uint64_t>(result.probes), choose, 0, max_backlog);
    ++result.probes;
    result.attempted += phase.samples.size();
    result.failed += phase.failed();
    std::vector<double> lag = phase.lag_us();
    const double p99 = sliced_p99_us(phase, rate);
    const double lag_p99 = percentile(lag, 0.99);
    std::fprintf(stderr, "  probe %6.0f req/s: p99 %.0f us, generator lag p99 %.0f us, "
                 "%llu failed%s\n", rate, p99, lag_p99,
                 static_cast<unsigned long long>(phase.failed()),
                 phase.backlog_exceeded ? ", backlog limit hit" : "");
    const bool ok = !phase.backlog_exceeded && p99 <= w.slo_p99_us && phase.failed() == 0 &&
                    lag_p99 <= w.slo_p99_us / 2;
    if (ok) {
      goodput[rate] = static_cast<double>(phase.body_bytes) * 8.0 / 1e9 /
                      (static_cast<double>(phase.drained_ns - phase.start_ns) / 1e9);
    }
    return ok;
  };
  const auto passes = [&](double rate) {
    return probe(rate) || probe(rate);
  };
  double lo = w.nominal_rps;
  double hi = 0.0;
  if (passes(lo)) {
    for (int step = 0; step < 12; ++step) {
      const double next = lo * 1.6;
      if (!passes(next)) {
        hi = next;
        break;
      }
      lo = next;
    }
  } else {
    hi = lo;
    for (int step = 0; step < 12; ++step) {
      lo = hi / 1.6;
      if (passes(lo)) break;
      hi = lo;
    }
  }
  while (hi > 0.0 && hi / lo > 1.03) {
    const double mid = std::sqrt(lo * hi);
    if (passes(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  result.rate = lo;
  result.goodput_gbps = goodput.count(lo) ? goodput[lo] : 0.0;
  return result;
}

void check_stack(Report& report, const RuntimeWorkload& w, Deployment& d,
                 const Window& window) {
  report.check(d.connected, "generator connections cover every proxy worker");
  const auto& proxy = d.stack->proxy().stats();
  report.check(proxy.verification_failures.value() == 0,
               "idicn.proxy.verification_failures == 0");
  report.check(proxy.upstream_errors.value() == 0, "idicn.proxy.upstream_errors == 0");
  report.check(d.first_fetch.failed() == 0 && d.warm.failed() == 0,
               "warm-up responses all correct");
  report.check(window.phase.failed() == 0, "measured-window responses all correct");
  const double share = window.worker_share_min();
  report.check(share >= kWorkerShareFloor,
               "runtime.worker_share_min >= " + std::to_string(kWorkerShareFloor) +
                   " (got " + std::to_string(share) + ")");
  const std::size_t misses = window.phase.count(CacheClass::Miss) +
                             window.phase.count(CacheClass::Stream);
  const std::size_t hits = window.phase.count(CacheClass::Hit);
  const double ratio = static_cast<double>(hits) /
                       static_cast<double>(std::max<std::size_t>(1, hits + misses));
  if (w.hit_ratio_lo >= 1.0) {
    report.check(misses == 0, std::string(w.name) + ": no MISS after warm-up (got " +
                                  std::to_string(misses) + ")");
  } else {
    report.check(ratio >= w.hit_ratio_lo && ratio <= w.hit_ratio_hi,
                 std::string(w.name) + ": hit ratio " + std::to_string(ratio) +
                     " within [" + std::to_string(w.hit_ratio_lo) + ", " +
                     std::to_string(w.hit_ratio_hi) + "]");
  }
}

void report_setup_split(Report& report, const Deployment& d) {
  const Stack::Times& t = d.stack->times();
  report.set("setup.signer_s", t.signer_s, "s");
  report.set("setup.deploy_s", t.deploy_s, "s");
  report.set("setup.publish_s", t.publish_s, "s");
  report.set("setup.warm_s", d.warm_s, "s");
}

void report_window(Report& report, const Window& window) {
  const PhaseResult& phase = window.phase;
  auto hit = phase.latencies_us([](CacheClass c) { return c == CacheClass::Hit; });
  auto miss = phase.latencies_us(is_miss);
  report.set("hit_p50_us", percentile(hit, 0.50), "us");
  report.set("hit_p99_us", percentile(hit, 0.99), "us");
  report.set("hit_samples", static_cast<double>(hit.size()), "count");
  report.set("miss_p50_us", percentile(miss, 0.50), "us");
  report.set("miss_p99_us", percentile(miss, 0.99), "us");
  report.set("miss_samples", static_cast<double>(miss.size()), "count");
  report.set("fail_frac",
             static_cast<double>(phase.failed()) /
                 static_cast<double>(std::max<std::size_t>(1, phase.samples.size())),
             "ratio");
  report.set("goodput_gbps",
             static_cast<double>(phase.body_bytes) * 8.0 / window.elapsed_s() / 1e9, "Gbps");
  report.set("server_cpu_us_per_req", window.server_cpu_us_per_req(), "us");

  const double requests = static_cast<double>(std::max<std::uint64_t>(1, window.completed()));
  std::vector<double> lag = phase.lag_us();
  report.set("gen.lag_p99_us", percentile(lag, 0.99), "us");
  report.set("gen.backlog_max", static_cast<double>(phase.backlog_max), "count");
  report.set("gen.cpu_us_per_req", static_cast<double>(phase.gen_cpu_ns) / 1000.0 / requests, "us");

  const Counters& b = window.before;
  const Counters& a = window.after;
  const auto served = static_cast<double>(a.server.requests_served - b.server.requests_served);
  report.set("runtime.requests_served", served, "count");
  report.set("runtime.worker_share_min", window.worker_share_min(), "ratio");
  report.set("runtime.bytes_out_per_req",
             static_cast<double>(a.server.bytes_out - b.server.bytes_out) / std::max(1.0, served),
             "B");
  report.set("runtime.conns_accepted", static_cast<double>(a.server.connections_accepted), "count");
  report.set("runtime.decode_errors", static_cast<double>(a.server.decode_errors), "count");
  report.set("runtime.timeouts", static_cast<double>(a.server.timeouts), "count");
  report.set("runtime.ctx_switches_per_req",
             static_cast<double>(a.server_ctx - b.server_ctx) / requests,
             "count");
  const auto sent = static_cast<double>(a.upstream.requests_sent - b.upstream.requests_sent);
  report.set("runtime.upstream.requests_sent", sent, "count");
  report.set("runtime.upstream.conns_opened_per_send",
             static_cast<double>(a.upstream.connections_opened - b.upstream.connections_opened) /
                 std::max(1.0, sent),
             "ratio");
  report.set("runtime.upstream.retries", static_cast<double>(a.upstream.retries - b.upstream.retries), "count");
  report.set("runtime.upstream.breaker_fast_fails",
             static_cast<double>(a.upstream.breaker_fast_fails - b.upstream.breaker_fast_fails), "count");
  report.set("runtime.fetcher.fetches", static_cast<double>(a.fetches - b.fetches), "count");
  report.set("runtime.fetcher.source_failovers",
             static_cast<double>(a.source_failovers - b.source_failovers), "count");
  report.set("runtime.fetcher.window_deferrals",
             static_cast<double>(a.window_deferrals - b.window_deferrals), "count");

  const auto hits = static_cast<double>(a.hits - b.hits);
  const auto misses = static_cast<double>(a.misses - b.misses);
  report.set("idicn.proxy.hit_ratio", hits / std::max(1.0, hits + misses), "ratio");
  report.set("idicn.proxy.stream_joins", static_cast<double>(a.stream_joins - b.stream_joins), "count");
  report.set("idicn.proxy.evictions_per_miss",
             static_cast<double>(a.evictions - b.evictions) / std::max(1.0, misses), "ratio");
  report.set("idicn.proxy.verification_failures", static_cast<double>(a.verification_failures), "count");
  report.set("idicn.proxy.upstream_errors", static_cast<double>(a.upstream_errors), "count");
}

/// Parse a captured response head into a message (status, reason, fields).
idicn::net::HttpResponse parse_head(const std::string& head) {
  idicn::net::HttpResponse response;
  std::size_t pos = head.find("\r\n");
  const std::string status_line = head.substr(0, pos);
  response.status = std::atoi(status_line.substr(9, 3).c_str());
  response.reason = status_line.size() > 13 ? status_line.substr(13) : "";
  while (pos != std::string::npos && pos + 4 <= head.size()) {
    const std::size_t next = head.find("\r\n", pos + 2);
    const std::string line = head.substr(pos + 2, next - pos - 2);
    pos = next;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string value = line.substr(colon + 1);
    while (!value.empty() && value.front() == ' ') value.erase(0, 1);
    response.headers.add(line.substr(0, colon), value);
  }
  return response;
}

/// net layer: the public decoder and serializer replayed on this workload's
/// captured heads.
void report_net_probe(Report& report, const PhaseResult& phase) {
  std::string requests;
  for (const auto& head : phase.request_heads) requests += head;
  double decode_ns = 0.0;
  if (!phase.request_heads.empty()) {
    std::uint64_t decoded = 0;
    const std::int64_t start = now_ns();
    while (now_ns() - start < 100'000'000) {
      idicn::net::HttpDecoder decoder(idicn::net::HttpDecoder::Mode::Request);
      decoder.feed(requests);
      while (decoder.next_request()) ++decoded;
    }
    decode_ns = static_cast<double>(now_ns() - start) / static_cast<double>(std::max<std::uint64_t>(1, decoded));
  }
  std::vector<idicn::net::HttpResponse> heads;
  double head_bytes = 0.0;
  for (const auto& head : phase.response_heads) {
    heads.push_back(parse_head(head));
    head_bytes += static_cast<double>(head.size());
  }
  double serialize_ns = 0.0;
  if (!heads.empty()) {
    std::uint64_t serialized = 0;
    std::size_t bytes = 0;
    const std::int64_t start = now_ns();
    while (now_ns() - start < 100'000'000) {
      for (const auto& head : heads) bytes += head.serialize_head().size();
      serialized += heads.size();
    }
    serialize_ns = static_cast<double>(now_ns() - start) / static_cast<double>(serialized);
    if (bytes == 0) serialize_ns = 0.0;
  }
  report.set("net.decode_ns_per_req", decode_ns, "ns");
  report.set("net.serialize_ns_per_resp", serialize_ns, "ns");
  report.set("net.resp_head_bytes", heads.empty() ? 0.0 : head_bytes / static_cast<double>(heads.size()), "B");
}

/// crypto layer: SHA-256, Merkle verify and the full verify_content timed on
/// this workload's published objects, weighted by how often each was a MISS.
void report_crypto_probe(Report& report, Stack& stack,
                         const std::vector<const PhaseResult*>& phases) {
  std::map<std::uint32_t, double> weight;
  for (const PhaseResult* phase : phases) {
    for (const Sample& s : phase->samples) {
      if (s.ok && is_miss(s.cls)) weight[s.object] += 1.0;
    }
  }
  double total_w = 0.0, sha_bytes = 0.0, sha_ns = 0.0, merkle_ns = 0.0, verify_ns = 0.0;
  bool all_verified = true;
  for (const auto& [object, w] : weight) {
    const auto published = stack.published(object);
    if (!published) {
      all_verified = false;
      continue;
    }
    std::int64_t t0 = now_ns();
    const auto digest = idicn::crypto::Sha256::hash(published->body);
    const std::int64_t t1 = now_ns();
    const bool signature_ok = idicn::crypto::MerkleSigner::verify(
        published->metadata.publisher_key, published->metadata.signing_input(),
        published->metadata.signature);
    const std::int64_t t2 = now_ns();
    const auto verdict = idicn::idicn::verify_content(published->metadata, published->body);
    const std::int64_t t3 = now_ns();
    all_verified = all_verified && signature_ok && digest == published->metadata.digest &&
                   verdict == idicn::idicn::VerifyResult::Ok;
    total_w += w;
    sha_bytes += w * static_cast<double>(published->body.size());
    sha_ns += w * static_cast<double>(t1 - t0);
    merkle_ns += w * static_cast<double>(t2 - t1);
    verify_ns += w * static_cast<double>(t3 - t2);
  }
  report.check(all_verified, "published objects verify against their metadata");
  report.set("crypto.sha256_mb_per_s", sha_ns > 0 ? sha_bytes / 1e6 / (sha_ns / 1e9) : 0.0, "MB/s");
  report.set("crypto.merkle_verify_us", total_w > 0 ? merkle_ns / total_w / 1000.0 : 0.0, "us");
  report.set("crypto.verify_us_per_miss", total_w > 0 ? verify_ns / total_w / 1000.0 : 0.0, "us");
}

/// Self-check: the same generator against a responder that does nothing,
/// on hit-1k's traffic (64 uniformly chosen 1 KB objects at its nominal
/// rate), whatever the workload.
void report_self_check(Report& report, const CpuPlan& cpus, double seconds,
                       std::uint64_t seed) {
  std::vector<Target> targets;
  for (int i = 0; i < 64; ++i) {
    const std::string host = "self-check-" + std::to_string(i);
    targets.push_back(Target{host, "http://" + host + "/", 1024, "[self-" + std::to_string(i) + "]"});
  }
  const Chooser choose = [](std::mt19937_64& rng) {
    return std::uniform_int_distribution<std::uint32_t>(0, 63)(rng);
  };
  CpuPlan::pin(cpus.proxy.front());
  TrivialResponder responder(targets);
  CpuPlan::pin(cpus.generator);
  LoadGen gen(targets);
  const bool connected = gen.connect(responder.port(), connection_count(), nullptr);
  report.check(connected, "self-check generator connected");
  const PhaseResult phase = gen.run(kHitNominalRps, seconds, seed, choose);
  report.check(phase.failed() == 0, "self-check responses all correct");
  auto all = phase.latencies_us([](CacheClass) { return true; });
  std::vector<double> lag = phase.lag_us();
  report.set("gen.selfcheck_lag_p99_us", percentile(lag, 0.99), "us");
  report.set("gen.selfcheck_p50_us", percentile(all, 0.50), "us");
  report.set("gen.selfcheck_p99_us", percentile(all, 0.99), "us");
}

struct SpanStats {
  std::vector<double> hit_us, miss_us, miss_self_us, miss_wait_us;
  std::vector<double> nrs_resolve_us, rp_fetch_us, nrs_handle_us, rp_handle_us;
};

/// Per-layer numbers from every span of the traced deployment: its warm-up
/// (whose cold fetches are hit-1k's only MISSes) and its window. A MISS's
/// upstream wait is the union of its upstream children; its self time is
/// the rest of the proxy span.
SpanStats analyse_spans(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  SpanStats out;
  const auto us = [](std::int64_t ns) { return static_cast<double>(ns) / 1000.0; };
  for (const Span& s : spans) {
    const std::int64_t dur = s.end_ns - s.start_ns;
    switch (s.kind) {
      case SpanKind::Proxy: {
        if (s.cls == SpanClass::Hit) {
          out.hit_us.push_back(us(dur));
          break;
        }
        if (s.cls != SpanClass::Miss && s.cls != SpanClass::Stream) break;
        std::vector<std::pair<std::int64_t, std::int64_t>> parts;
        for (const Span* c : children[s.id]) {
          parts.emplace_back(std::max(c->start_ns, s.start_ns), std::min(c->end_ns, s.end_ns));
        }
        std::sort(parts.begin(), parts.end());
        std::int64_t wait = 0, cursor = s.start_ns;
        for (const auto& [begin, end] : parts) {
          const std::int64_t from = std::max(begin, cursor);
          if (end > from) {
            wait += end - from;
            cursor = end;
          }
        }
        out.miss_us.push_back(us(dur));
        out.miss_wait_us.push_back(us(wait));
        out.miss_self_us.push_back(us(dur - wait));
        break;
      }
      // Host spans without a parent came from set-up (publish-time NRS
      // registrations), not from the proxy.
      case SpanKind::Nrs:
        if (s.parent != 0) out.nrs_handle_us.push_back(us(dur));
        break;
      case SpanKind::Rp:
        if (s.parent != 0) out.rp_handle_us.push_back(us(dur));
        break;
      case SpanKind::UpNrs: out.nrs_resolve_us.push_back(us(dur)); break;
      case SpanKind::UpRp: out.rp_fetch_us.push_back(us(dur)); break;
      case SpanKind::UpOther: break;
    }
  }
  return out;
}

void report_spans(Report& report, SpanStats stats) {
  report.set("idicn.proxy.handle_hit_us.p50", percentile(stats.hit_us, 0.50), "us");
  report.set("idicn.proxy.handle_hit_us.p99", percentile(stats.hit_us, 0.99), "us");
  report.set("idicn.proxy.handle_miss_us.p50", percentile(stats.miss_us, 0.50), "us");
  report.set("idicn.proxy.handle_miss_us.p99", percentile(stats.miss_us, 0.99), "us");
  report.set("idicn.proxy.miss_self_us.p50", percentile(stats.miss_self_us, 0.50), "us");
  const double handle_mean = mean(stats.miss_us);
  const double self_mean = mean(stats.miss_self_us);
  const double wait_mean = mean(stats.miss_wait_us);
  report.set("idicn.proxy.handle_miss_us.mean", handle_mean, "us");
  report.set("idicn.proxy.miss_self_us.mean", self_mean, "us");
  report.set("idicn.proxy.miss_upstream_wait_us.mean", wait_mean, "us");
  report.check(std::abs(self_mean + wait_mean - handle_mean) <= 0.01 + 1e-6 * handle_mean,
               "MISS self time plus upstream wait accounts for handle_miss_us");
  report.set("idicn.nrs.resolve_us.p50", percentile(stats.nrs_resolve_us, 0.50), "us");
  report.set("idicn.nrs.resolve_us.p99", percentile(stats.nrs_resolve_us, 0.99), "us");
  report.set("idicn.rp.fetch_us.p50", percentile(stats.rp_fetch_us, 0.50), "us");
  report.set("idicn.rp.fetch_us.p99", percentile(stats.rp_fetch_us, 0.99), "us");
  report.set("idicn.nrs.handle_us", percentile(stats.nrs_handle_us, 0.50), "us");
  report.set("idicn.rp.handle_us", percentile(stats.rp_handle_us, 0.50), "us");
}

}  // namespace

bool is_runtime_workload(const std::string& name) {
  for (const auto& w : kWorkloads) {
    if (name == w.name) return true;
  }
  return false;
}

void run_runtime(const RunOptions& options, const CpuPlan& cpus, Report& report) {
  const RuntimeWorkload& w = find_workload(options.workload);
  const Chooser choose = make_chooser(w);
  const std::uint64_t seed = options.seed * 0x9e3779b97f4a7c15ULL + 1;
  report.info("proxy_workers", std::to_string(kProxyWorkers));
  report.info("generator_threads", "1");
  report.info("generator_connections", std::to_string(connection_count()));
  report.info("nominal_rps", std::to_string(w.nominal_rps));
  report.info("slo_p99_us", std::to_string(w.slo_p99_us));
  const IdleKeepers keepers(cpus.servers);

  switch (options.phase) {
    case Phase::Full: {
      // Set up three times; the last deployment is the one measured.
      std::vector<double> setups;
      Deployment d;
      for (int k = 0; k < 3; ++k) {
        d = Deployment{};
        d = deploy(w, cpus, false, seed, choose);
        setups.push_back(d.setup_s);
      }
      // The deployed, warmed stack's footprint, read before the window
      // whose per-request records (about 40 B each) would swamp it.
      report.set("peak_rss_mb", peak_rss_mb(), "MB");
      const Window window = measure(d, keepers, w.nominal_rps, options.seconds, seed + 101, choose);
      check_stack(report, w, d, window);
      auto all = window.phase.latencies_us([](CacheClass) { return true; });
      report.set("setup_s", median(setups), "s");
      report.set("latency_p50_us", percentile(all, 0.50), "us");
      report.set("server_cpu_us_per_req", window.server_cpu_us_per_req(), "us");
      report.info("latency_samples", std::to_string(all.size()));
      report.info("latency_p99_us", std::to_string(sliced_p99_us(window.phase, w.nominal_rps)));
      report.add_requests(window.phase.samples.size(), window.phase.failed());
      d.stack->stop();
      break;
    }
    case Phase::Base: {
      Deployment d = deploy(w, cpus, false, seed, choose);
      report_setup_split(report, d);
      const double self_check_s = std::min(1.0, 0.1 * options.seconds);
      report_self_check(report, cpus, self_check_s, seed + 7);
      const double window_s = 0.4 * options.seconds;
      const Window window = measure(d, keepers, w.nominal_rps, window_s, seed + 101, choose, 256);
      check_stack(report, w, d, window);
      report_window(report, window);
      report.set("latency_p99_us", sliced_p99_us(window.phase, w.nominal_rps), "us");
      report.set("proc.allocs_per_req",
                 alloc_counting_enabled()
                     ? static_cast<double>(window.after.allocations - window.before.allocations -
                                           window.phase.gen_allocs) /
                           static_cast<double>(std::max<std::uint64_t>(1, window.completed()))
                     : 0.0,
                 "count");
      report_net_probe(report, window.phase);
      report_crypto_probe(report, *d.stack, {&d.first_fetch, &d.warm, &window.phase});
      const RateSearch search = search_rate(
          d, w, (options.seconds - self_check_s - window_s) / 10.0, seed + 1001, choose);
      report.set("slo_rate_rps", search.rate, "1/s");
      report.set("slo_goodput_gbps", search.goodput_gbps, "Gbps");
      report.info("rate_search_probes", std::to_string(search.probes));
      report.add_requests(window.phase.samples.size() + search.attempted,
                          window.phase.failed() + search.failed);
      d.stack->stop();
      break;
    }
    case Phase::Traced: {
      Deployment d = deploy(w, cpus, true, seed, choose);
      const Window window = measure(d, keepers, w.nominal_rps, options.seconds, seed + 101, choose);
      check_stack(report, w, d, window);
      d.stack->stop();  // every recording thread has joined
      const std::vector<Span> spans = Tracer::instance().collect();
      report_spans(report, analyse_spans(spans));
      report.set("server_cpu_us_per_req", window.server_cpu_us_per_req(), "us");
      report.info("spans", std::to_string(spans.size()));
      if (!options.spans_out.empty()) {
        report.check(Tracer::write(spans, options.spans_out), "spans written");
      }
      report.add_requests(window.phase.samples.size(), window.phase.failed());
      break;
    }
  }
}

}  // namespace perfbench
