// FaultInjector tests over SimNet: deterministic fault plans (drop, reset,
// latency, scheduled windows, probabilistic faults), response mutation
// caught by idICN verification, the proxy's serve-stale-on-error
// degradation, and its resolution rows (NRS answers kept for their
// max-age) — all driven on the virtual clock.
#include "net/fault_injector.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "idicn/nrs.hpp"
#include "idicn/origin_server.hpp"
#include "idicn/proxy.hpp"
#include "idicn/reverse_proxy.hpp"
#include "net/sim_net.hpp"

namespace {

using namespace idicn;
using namespace ::idicn::idicn;

struct EchoHost : net::SimHost {
  net::HttpResponse handle_http(const net::HttpRequest& request,
                                const net::Address& /*from*/) override {
    return net::make_response(200, "echo:" + request.target);
  }
};

TEST(FaultInjector, DropSynthesizes504AndRecoversOnRemove) {
  net::SimNet net;
  EchoHost host;
  net.attach("svc", &host);
  net::FaultInjector faulty(&net);

  net::FaultInjector::Rule rule;
  rule.to = "svc";
  rule.kind = net::FaultInjector::FaultKind::Drop;
  const auto id = faulty.add_rule(rule);

  net::HttpRequest request;
  request.target = "/x";
  EXPECT_EQ(faulty.send("a", "svc", request).status, 504);
  EXPECT_EQ(faulty.stats().drops, 1u);

  faulty.remove_rule(id);
  const auto response = faulty.send("a", "svc", request);
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "echo:/x");
  EXPECT_EQ(faulty.stats().sends, 2u);
}

TEST(FaultInjector, RulesMatchPerDestination) {
  net::SimNet net;
  EchoHost a, b;
  net.attach("a.svc", &a);
  net.attach("b.svc", &b);
  net::FaultInjector faulty(&net);
  net::FaultInjector::Rule rule;
  rule.to = "a.svc";
  faulty.add_rule(rule);

  net::HttpRequest request;
  EXPECT_EQ(faulty.send("c", "a.svc", request).status, 504);
  EXPECT_EQ(faulty.send("c", "b.svc", request).status, 200);
}

TEST(FaultInjector, ScheduledFailRecoverWindow) {
  net::SimNet net;
  EchoHost host;
  net.attach("svc", &host);
  net::FaultInjector faulty(&net);
  net::FaultInjector::Rule rule;
  rule.to = "svc";
  rule.after_sends = 1;  // sends 1 and 2 fail; 0 and 3+ succeed
  rule.until_sends = 3;
  faulty.add_rule(rule);

  net::HttpRequest request;
  EXPECT_EQ(faulty.send("a", "svc", request).status, 200);
  EXPECT_EQ(faulty.send("a", "svc", request).status, 504);
  EXPECT_EQ(faulty.send("a", "svc", request).status, 504);
  EXPECT_EQ(faulty.send("a", "svc", request).status, 200);  // recovered
  EXPECT_EQ(faulty.stats().drops, 2u);
}

TEST(FaultInjector, ProbabilisticFaultsAreSeedDeterministic) {
  const auto run = [](std::uint64_t seed) {
    net::SimNet net;
    EchoHost host;
    net.attach("svc", &host);
    net::FaultInjector::Options options;
    options.seed = seed;
    net::FaultInjector faulty(&net, options);
    net::FaultInjector::Rule rule;
    rule.to = "svc";
    rule.probability = 0.5;
    faulty.add_rule(rule);
    std::vector<int> statuses;
    net::HttpRequest request;
    for (int i = 0; i < 100; ++i) {
      statuses.push_back(faulty.send("a", "svc", request).status);
    }
    return statuses;
  };
  const auto first = run(7);
  EXPECT_EQ(first, run(7));   // same seed replays the same fault sequence
  EXPECT_NE(first, run(8));   // a different seed perturbs it
  const auto faults = std::count(first.begin(), first.end(), 504);
  EXPECT_GT(faults, 20);  // p=0.5 over 100 sends: nowhere near all-or-nothing
  EXPECT_LT(faults, 80);
}

TEST(FaultInjector, LatencyHookAvoidsWallClockSleeps) {
  net::SimNet net;
  EchoHost host;
  net.attach("svc", &host);
  net::FaultInjector faulty(&net);
  std::vector<std::uint64_t> stalls;
  faulty.set_latency_hook([&](std::uint64_t ms) { stalls.push_back(ms); });
  net::FaultInjector::Rule rule;
  rule.to = "svc";
  rule.kind = net::FaultInjector::FaultKind::Latency;
  rule.latency_ms = 250;
  faulty.add_rule(rule);

  net::HttpRequest request;
  EXPECT_EQ(faulty.send("a", "svc", request).status, 200);  // slow, not broken
  ASSERT_EQ(stalls.size(), 1u);
  EXPECT_EQ(stalls[0], 250u);
  EXPECT_EQ(faulty.stats().delays, 1u);
}

TEST(FaultInjector, DegradationRampIsLinearPerDestinationAndRecovers) {
  net::SimNet net;
  EchoHost host;
  net.attach("slow.svc", &host);
  net.attach("fast.svc", &host);
  net::FaultInjector faulty(&net);
  std::vector<std::uint64_t> stalls;
  faulty.set_latency_hook([&](std::uint64_t ms) { stalls.push_back(ms); });

  net::FaultInjector::Degradation ramp;
  ramp.to = "slow.svc";
  ramp.start_latency_ms = 10;
  ramp.peak_latency_ms = 410;
  ramp.ramp_start = 1;   // first send healthy
  ramp.ramp_sends = 4;   // climbs 10 → 410 over 4 sends: 10, 110, 210, 310
  ramp.hold_until = 7;   // sends 5 and 6 at peak, 7+ recovered
  faulty.add_degradation(ramp);

  net::HttpRequest request;
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(faulty.send("a", "slow.svc", request).status, 200);
    // Traffic to another destination never advances this ramp's clock.
    EXPECT_EQ(faulty.send("a", "fast.svc", request).status, 200);
  }
  EXPECT_EQ(stalls, (std::vector<std::uint64_t>{10, 110, 210, 310, 410, 410}));
  EXPECT_EQ(faulty.stats().degraded_sends, 6u);
  EXPECT_EQ(faulty.stats().degrade_ms, 10u + 110 + 210 + 310 + 410 + 410);
}

TEST(FaultInjector, DegradationComposesWithRulesAndObeysEnableToggle) {
  net::SimNet net;
  EchoHost host;
  net.attach("svc", &host);
  net::FaultInjector faulty(&net);
  std::vector<std::uint64_t> stalls;
  faulty.set_latency_hook([&](std::uint64_t ms) { stalls.push_back(ms); });

  net::FaultInjector::Degradation ramp;
  ramp.to = "svc";
  ramp.start_latency_ms = 50;
  ramp.peak_latency_ms = 50;
  const auto id = faulty.add_degradation(ramp);
  net::FaultInjector::Rule drop;
  drop.to = "svc";
  drop.kind = net::FaultInjector::FaultKind::Drop;
  drop.after_sends = 1;
  drop.until_sends = 2;
  faulty.add_rule(drop);

  net::HttpRequest request;
  EXPECT_EQ(faulty.send("a", "svc", request).status, 200);  // degraded only
  EXPECT_EQ(faulty.send("a", "svc", request).status, 504);  // stall, then drop
  faulty.set_enabled(id, false);
  EXPECT_EQ(faulty.send("a", "svc", request).status, 200);  // ramp paused
  faulty.set_enabled(id, true);
  EXPECT_EQ(faulty.send("a", "svc", request).status, 200);
  EXPECT_EQ(stalls, (std::vector<std::uint64_t>{50, 50, 50}));
  EXPECT_EQ(faulty.stats().drops, 1u);
}

TEST(FaultInjector, ResetReportsConnectionReset) {
  net::SimNet net;
  EchoHost host;
  net.attach("svc", &host);
  net::FaultInjector faulty(&net);
  net::FaultInjector::Rule rule;
  rule.to = "svc";
  rule.kind = net::FaultInjector::FaultKind::Reset;
  faulty.add_rule(rule);

  const auto response = faulty.send("a", "svc", net::HttpRequest{});
  EXPECT_EQ(response.status, 504);
  EXPECT_NE(response.body.find("reset"), std::string::npos);
  EXPECT_EQ(faulty.stats().resets, 1u);
}

TEST(FaultInjector, MulticastDropSilencesTheGroup) {
  net::SimNet net;
  EchoHost a, b;
  net.attach("a.svc", &a);
  net.attach("b.svc", &b);
  net.join_group("peers", "a.svc");
  net.join_group("peers", "b.svc");
  net::FaultInjector faulty(&net);

  EXPECT_EQ(faulty.multicast("c", "peers", net::HttpRequest{}).size(), 2u);
  net::FaultInjector::Rule rule;
  rule.to = "peers";
  const auto id = faulty.add_rule(rule);
  EXPECT_TRUE(faulty.multicast("c", "peers", net::HttpRequest{}).empty());
  faulty.set_enabled(id, false);
  EXPECT_EQ(faulty.multicast("c", "peers", net::HttpRequest{}).size(), 2u);
}

/// How long the proxy keeps an NRS answer (its max-age), in milliseconds.
constexpr std::uint64_t kRowLifetimeMs = kResolveMaxAgeS * 1000;

/// A single-AD idICN deployment whose proxy sends through a FaultInjector.
struct FaultyDeployment {
  net::SimNet net;
  net::FaultInjector faulty{&net};
  net::DnsService dns;
  crypto::MerkleSigner signer{12345, 6};
  NameResolutionSystem nrs{&dns};
  OriginServer origin;
  ReverseProxy reverse_proxy{&net, "rp.pub", "origin.pub", "nrs.consortium",
                             &signer};
  Proxy proxy;

  explicit FaultyDeployment(Proxy::Options options = {})
      : proxy(&faulty, "cache.ad1", "nrs.consortium", &dns, options) {
    net.attach("nrs.consortium", &nrs);
    net.attach("origin.pub", &origin);
    net.attach("rp.pub", &reverse_proxy);
    net.attach("cache.ad1", &proxy);
    faulty.set_latency_hook([](std::uint64_t) {});  // never wall-sleep here
  }

  SelfCertifyingName publish(const std::string& label, const std::string& body) {
    origin.put(label, body);
    const auto name = reverse_proxy.publish(label);
    EXPECT_TRUE(name.has_value());
    return *name;
  }

  net::HttpResponse get(const SelfCertifyingName& name) {
    net::HttpRequest request;
    request.method = "GET";
    request.target = "http://" + name.host() + "/";
    return proxy.handle_http(request, "client");
  }
};

TEST(FaultInjector, CorruptedBodyFailsVerificationNeverCached) {
  FaultyDeployment d;
  const auto name = d.publish("page", "pristine content");
  net::FaultInjector::Rule rule;
  rule.to = "rp.pub";
  rule.kind = net::FaultInjector::FaultKind::CorruptBody;
  const auto id = d.faulty.add_rule(rule);

  EXPECT_EQ(d.get(name).status, 502);  // corrupt bytes never served
  EXPECT_GE(d.proxy.stats().verification_failures, 1u);
  EXPECT_FALSE(d.proxy.is_cached(name.host()));
  EXPECT_GE(d.faulty.stats().corruptions, 1u);

  d.faulty.set_enabled(id, false);
  const auto clean = d.get(name);
  EXPECT_EQ(clean.status, 200);
  EXPECT_EQ(clean.full_body(), "pristine content");
}

TEST(FaultInjector, TruncatedBodyFailsVerification) {
  FaultyDeployment d;
  const auto name = d.publish("page", "a body long enough to truncate");
  net::FaultInjector::Rule rule;
  rule.to = "rp.pub";
  rule.kind = net::FaultInjector::FaultKind::TruncateBody;
  rule.truncate_at = 4;
  d.faulty.add_rule(rule);

  EXPECT_EQ(d.get(name).status, 502);
  EXPECT_GE(d.proxy.stats().verification_failures, 1u);
  EXPECT_EQ(d.faulty.stats().truncations, 1u);
}

TEST(ProxyFetchPath, SingleLocationMissRacesThroughTheFetcher) {
  // One fetch path: even a name with one location (and a null executor,
  // so every hop completes inline) is fetched by the MultiSourceFetcher —
  // a one-source race with no hedge.
  FaultyDeployment d;
  const auto name = d.publish("page", "one location");
  const auto miss = d.get(name);
  ASSERT_EQ(miss.status, 200);
  EXPECT_EQ(miss.full_body(), "one location");
  EXPECT_EQ(d.proxy.fetcher().stats().fetches, 1u);
  EXPECT_EQ(d.proxy.fetcher().stats().hedges_sent, 0u);

  const auto hit = d.get(name);
  EXPECT_EQ(hit.headers.get("X-Cache"), "HIT");
  EXPECT_EQ(d.proxy.fetcher().stats().fetches, 1u);  // a HIT fetches nothing
}

TEST(ServeStale, UpstreamOutageServesExpiredEntryWithWarning) {
  Proxy::Options options;
  options.freshness_ms = 1;  // expires as soon as the clock moves
  FaultyDeployment d(options);
  d.net.set_default_latency_ms(5);  // sends advance the virtual clock
  const auto name = d.publish("page", "still good");

  ASSERT_EQ(d.get(name).status, 200);  // cached (MISS → stored)
  ASSERT_TRUE(d.proxy.is_cached(name.host()));

  // Total outage: NRS, reverse proxy, origin all black-holed.
  net::FaultInjector::Rule rule;  // to = "*"
  d.faulty.add_rule(rule);
  // Let the virtual clock pass the freshness horizon.
  (void)d.net.send("tick", "origin.pub", net::HttpRequest{});

  const auto degraded = d.get(name);
  EXPECT_EQ(degraded.status, 200);
  EXPECT_EQ(degraded.full_body(), "still good");
  EXPECT_EQ(degraded.headers.get("X-IdICN-Stale"), "1");
  ASSERT_TRUE(degraded.headers.get("Warning").has_value());
  EXPECT_NE(degraded.headers.get("Warning")->find("110"), std::string::npos);
  EXPECT_EQ(d.proxy.stats().stale_served, 1u);
  EXPECT_GE(d.proxy.stats().upstream_errors, 1u);

  // Freshness was NOT renewed, so recovery is immediate: lift the faults
  // and the next request refetches fresh content (no stale marker).
  d.faulty.clear_rules();
  const auto recovered = d.get(name);
  EXPECT_EQ(recovered.status, 200);
  EXPECT_FALSE(recovered.headers.get("X-IdICN-Stale").has_value());
}

TEST(ServeStale, DeadSingleLocationKeepsServingStalePastTheFetcherBreaker) {
  // The only location dies behind an expired entry. Every MISS fails at the
  // transport layer — also once the fetcher's breaker for the location has
  // opened — so each one degrades to the stale copy instead of a 502.
  Proxy::Options options;
  options.freshness_ms = 1;
  FaultyDeployment d(options);
  d.net.set_default_latency_ms(5);
  const auto name = d.publish("page", "still good");
  ASSERT_EQ(d.get(name).status, 200);

  net::FaultInjector::Rule rp_down;
  rp_down.to = "rp.pub";
  d.faulty.add_rule(rp_down);
  const int misses = options.fetch.breaker.failure_threshold + 3;
  for (int i = 0; i < misses; ++i) {
    (void)d.net.send("tick", "origin.pub", net::HttpRequest{});  // expire
    const auto degraded = d.get(name);
    EXPECT_EQ(degraded.status, 200) << "MISS " << i;
    EXPECT_EQ(degraded.full_body(), "still good");
    EXPECT_EQ(degraded.headers.get("X-IdICN-Stale"), "1");
  }
  EXPECT_EQ(d.proxy.stats().stale_served, static_cast<std::uint64_t>(misses));
  EXPECT_EQ(d.proxy.fetcher().stats().fetches,
            static_cast<std::uint64_t>(misses) + 1);
  bool breaker_open = false;
  for (const auto& source : d.proxy.fetcher().snapshot()) {
    if (source.address == "rp.pub") {
      breaker_open = source.breaker == runtime::CircuitBreaker::State::Open;
    }
  }
  EXPECT_TRUE(breaker_open);
}

TEST(ServeStale, DeadRowLocationDuringNrsOutageIsFetchedOncePerMiss) {
  // The live row names the stale copy's own source, and both it and the
  // NRS are down. The row's race already tried that source, so the
  // NRS-outage branch degrades to the stale copy without fetching again.
  Proxy::Options options;
  options.freshness_ms = 1;
  FaultyDeployment d(options);
  d.net.set_default_latency_ms(5);
  const auto name = d.publish("page", "still good");
  ASSERT_EQ(d.get(name).status, 200);  // cached, and the row names rp.pub

  net::FaultInjector::Rule rp_down;
  rp_down.to = "rp.pub";
  d.faulty.add_rule(rp_down);
  net::FaultInjector::Rule nrs_down;
  nrs_down.to = "nrs.consortium";
  d.faulty.add_rule(nrs_down);
  const int misses = 3;
  for (int i = 0; i < misses; ++i) {
    (void)d.net.send("tick", "origin.pub", net::HttpRequest{});  // expire
    const auto degraded = d.get(name);
    EXPECT_EQ(degraded.status, 200) << "MISS " << i;
    EXPECT_EQ(degraded.full_body(), "still good");
    EXPECT_EQ(degraded.headers.get("X-IdICN-Stale"), "1");
  }
  EXPECT_EQ(d.proxy.stats().stale_served, static_cast<std::uint64_t>(misses));
  // The first MISS's row fetch drops the row; later MISSes find none, ask
  // the dead NRS and refetch directly from the stale copy's source. Every
  // MISS fetches exactly once.
  EXPECT_EQ(d.proxy.fetcher().stats().fetches,
            static_cast<std::uint64_t>(misses) + 1);
}

TEST(ServeStale, NrsOutageRefetchesDirectlyFromLastSource) {
  Proxy::Options options;
  options.freshness_ms = 1;
  FaultyDeployment d(options);
  d.net.set_default_latency_ms(5);
  const auto name = d.publish("page", "v1");
  ASSERT_EQ(d.get(name).status, 200);
  // The content changes upstream, so the cached validators go stale (no
  // cheap 304 path) and a full refetch is the only way forward.
  d.publish("page", "v2");

  // Only the NRS is down; the reverse proxy still serves. The proxy must
  // sidestep resolution and refetch from where the entry came from. The
  // NRS answer of the first MISS has expired too, or its row would name
  // the location and the outage would never be seen.
  net::FaultInjector::Rule rule;
  rule.to = "nrs.consortium";
  d.faulty.add_rule(rule);
  (void)d.net.send("tick", "origin.pub", net::HttpRequest{});
  d.faulty.step_clock_ms(kRowLifetimeMs + 1);

  const auto refreshed = d.get(name);
  EXPECT_EQ(refreshed.status, 200);
  EXPECT_EQ(refreshed.full_body(), "v2");
  // Direct refetch succeeded: this is real content, not a stale fallback.
  EXPECT_FALSE(refreshed.headers.get("X-IdICN-Stale").has_value());
  EXPECT_EQ(d.proxy.stats().stale_served, 0u);
  EXPECT_EQ(d.faulty.stats().drops, 1u);  // resolution was tried, and failed
}

TEST(ServeStale, CleanNegativeNeverServesStale) {
  Proxy::Options options;
  options.freshness_ms = 1;
  FaultyDeployment d(options);
  d.net.set_default_latency_ms(5);
  const auto name = d.publish("page", "v1");
  ASSERT_EQ(d.get(name).status, 200);

  // An NRS that is healthy but has forgotten the name (registration
  // churn, modelled by swapping in an empty resolver at the same address)
  // is a clean negative — the proxy must 404, not mask it with stale
  // bytes. The reverse proxy is also gone, or revalidation would renew
  // the entry before resolution is consulted.
  NameResolutionSystem amnesiac{&d.dns};
  d.net.detach("nrs.consortium");
  d.net.attach("nrs.consortium", &amnesiac);
  net::FaultInjector::Rule rp_down;
  rp_down.to = "rp.pub";
  d.faulty.add_rule(rp_down);
  (void)d.net.send("tick", "origin.pub", net::HttpRequest{});
  // Expire the first MISS's resolution row, so this MISS asks the NRS.
  d.faulty.step_clock_ms(kRowLifetimeMs + 1);

  const auto gone = d.get(name);
  EXPECT_EQ(gone.status, 404);
  EXPECT_EQ(d.proxy.stats().stale_served, 0u);
}

// --- resolution rows: NRS answers kept for their max-age -------------------

/// A proxy that admits no content, so every GET is a MISS that runs the
/// resolve step: only the resolution rows decide whether the NRS is asked.
Proxy::Options every_request_misses() {
  Proxy::Options options;
  options.capacity_bytes = 0;
  return options;
}

std::uint64_t nrs_queries(const FaultyDeployment& d) {
  return d.net.messages_between("cache.ad1", "nrs.consortium");
}

/// A resolver with a scripted answer to every /resolve, counting queries.
struct ScriptedResolver : net::SimHost {
  int status = 200;
  std::string body = "location=rp.pub\n";
  std::string cache_control;  ///< empty: no Cache-Control header
  int queries = 0;

  net::HttpResponse handle_http(const net::HttpRequest& /*request*/,
                                const net::Address& /*from*/) override {
    ++queries;
    net::HttpResponse answer = net::make_response(status, body);
    if (!cache_control.empty()) answer.headers.set("Cache-Control", cache_control);
    return answer;
  }
};

TEST(ResolutionRow, WarmRowSkipsTheNrsUntilItsMaxAgePasses) {
  FaultyDeployment d(every_request_misses());
  const auto name = d.publish("page", "row content");
  ASSERT_EQ(d.get(name).status, 200);
  EXPECT_EQ(nrs_queries(d), 1u);
  for (int i = 0; i < 3; ++i) {
    const auto miss = d.get(name);
    EXPECT_EQ(miss.status, 200);
    EXPECT_EQ(miss.full_body(), "row content");
    EXPECT_EQ(miss.headers.get("X-Cache"), "MISS");
  }
  EXPECT_EQ(nrs_queries(d), 1u);  // one resolution serves every MISS
  EXPECT_EQ(d.proxy.fetcher().stats().fetches, 4u);

  d.faulty.step_clock_ms(kRowLifetimeMs + 1);
  ASSERT_EQ(d.get(name).status, 200);
  EXPECT_EQ(nrs_queries(d), 2u);  // expired: exactly one /resolve
  ASSERT_EQ(d.get(name).status, 200);
  EXPECT_EQ(nrs_queries(d), 2u);  // and the new answer is kept in turn
}

TEST(ResolutionRow, NrsOutageWithALiveRowServesFreshBytes) {
  FaultyDeployment d(every_request_misses());
  const auto name = d.publish("page", "fresh during the outage");
  ASSERT_EQ(d.get(name).status, 200);

  net::FaultInjector::Rule nrs_down;
  nrs_down.to = "nrs.consortium";
  d.faulty.add_rule(nrs_down);
  const auto during = d.get(name);
  EXPECT_EQ(during.status, 200);
  EXPECT_EQ(during.full_body(), "fresh during the outage");
  EXPECT_FALSE(during.headers.contains("X-IdICN-Stale"));
  EXPECT_EQ(d.faulty.stats().drops, 0u);  // the NRS was never contacted
  EXPECT_EQ(d.proxy.stats().upstream_errors, 0u);

  // Once the row expires the outage shows: nothing cached to degrade to.
  d.faulty.step_clock_ms(kRowLifetimeMs + 1);
  EXPECT_EQ(d.get(name).status, 504);
  EXPECT_EQ(d.faulty.stats().drops, 1u);
}

TEST(ResolutionRow, MovedObjectCostsOneExtraResolutionNotAFailedRequest) {
  FaultyDeployment d(every_request_misses());
  const auto name = d.publish("page", "mobile content");
  ASSERT_EQ(d.get(name).status, 200);  // the row names rp.pub

  // The object moves while the row lives: a second replica of the same
  // publisher registers it, and the first leaves the network.
  ReverseProxy rp2{&d.net, "rp2.pub", "origin.pub", "nrs.consortium", &d.signer};
  d.net.attach("rp2.pub", &rp2);
  ASSERT_EQ(rp2.publish("page").value().flat(), name.flat());
  d.net.set_reachable("rp.pub", false);

  const std::uint64_t before = nrs_queries(d);
  const auto moved = d.get(name);
  EXPECT_EQ(moved.status, 200);
  EXPECT_EQ(moved.full_body(), "mobile content");
  EXPECT_EQ(moved.headers.get(kSourceHeader), "rp2.pub");
  EXPECT_EQ(nrs_queries(d), before + 1);  // the one extra round trip
  EXPECT_EQ(d.proxy.stats().verification_failures, 0u);
  EXPECT_EQ(d.proxy.stats().upstream_errors, 0u);

  // The new row names the live replica: the next MISS asks nobody.
  const auto again = d.get(name);
  EXPECT_EQ(again.status, 200);
  EXPECT_EQ(again.full_body(), "mobile content");
  EXPECT_EQ(nrs_queries(d), before + 1);
}

TEST(ResolutionRow, LocationServingBadBytesLosesItsRowAndIsNeverServed) {
  FaultyDeployment d(every_request_misses());
  const auto name = d.publish("page", "pristine content");
  ASSERT_EQ(d.get(name).status, 200);  // the row names rp.pub
  net::FaultInjector::Rule corrupt;
  corrupt.to = "rp.pub";
  corrupt.kind = net::FaultInjector::FaultKind::CorruptBody;
  d.faulty.add_rule(corrupt);

  // rp.pub is the only registered location: the NRS, asked again, names
  // it again, so there is nothing authentic to serve.
  const std::uint64_t before = nrs_queries(d);
  const auto rejected = d.get(name);
  EXPECT_EQ(rejected.status, 502);
  EXPECT_EQ(nrs_queries(d), before + 1);  // the row was dropped
  EXPECT_EQ(d.proxy.stats().verification_failures, 1u);

  // An authentic replica registers. The row, re-stored from that answer,
  // still names only rp.pub; its failure sends the proxy to the NRS again,
  // which now names both.
  ReverseProxy rp2{&d.net, "rp2.pub", "origin.pub", "nrs.consortium", &d.signer};
  d.net.attach("rp2.pub", &rp2);
  ASSERT_TRUE(rp2.publish("page").has_value());
  const auto healed = d.get(name);
  EXPECT_EQ(healed.status, 200);
  EXPECT_EQ(healed.full_body(), "pristine content");
  EXPECT_EQ(healed.headers.get(kSourceHeader), "rp2.pub");
  EXPECT_EQ(nrs_queries(d), before + 2);
}

TEST(ResolutionRow, NegativeErrorAndLifetimelessAnswersAreNeverKept) {
  FaultyDeployment d(every_request_misses());
  const auto name = d.publish("page", "kept or not");
  ScriptedResolver resolver;
  d.net.detach("nrs.consortium");
  d.net.attach("nrs.consortium", &resolver);

  struct Case {
    int status;
    const char* cache_control;
    int proxy_status;
  };
  const Case uncacheable[] = {
      {404, "max-age=300", 404},  // a clean negative
      {503, "max-age=300", 504},  // a resolver error
      {200, "", 200},             // no lifetime given
      {200, "no-store", 200},
      {200, "max-age=0", 200},
  };
  for (const Case& c : uncacheable) {
    resolver.status = c.status;
    resolver.cache_control = c.cache_control;
    resolver.queries = 0;
    EXPECT_EQ(d.get(name).status, c.proxy_status) << c.status << " " << c.cache_control;
    EXPECT_EQ(d.get(name).status, c.proxy_status) << c.status << " " << c.cache_control;
    EXPECT_EQ(resolver.queries, 2) << c.status << " " << c.cache_control;
  }

  // The control: the same answer with a lifetime is asked for once.
  resolver.status = 200;
  resolver.cache_control = "max-age=60";
  resolver.queries = 0;
  EXPECT_EQ(d.get(name).status, 200);
  EXPECT_EQ(d.get(name).status, 200);
  EXPECT_EQ(resolver.queries, 1);
}

TEST(ResolutionRow, FullTableDropsExpiredRowsFirstAndStaysBounded) {
  FaultyDeployment d(every_request_misses());  // one shard
  const auto published = d.publish("page", "x");
  ScriptedResolver resolver;  // names rp.pub for every name, for 300 s
  resolver.cache_control = "max-age=300";
  d.net.detach("nrs.consortium");
  d.net.attach("nrs.consortium", &resolver);
  const auto get = [&](std::size_t i) {
    net::HttpRequest request;
    request.method = "GET";
    request.target =
        "http://" + SelfCertifyingName("n" + std::to_string(i), published.publisher()).host() + "/";
    return d.proxy.handle_http(request, "client");
  };

  // Rows are kept even when the fetch finds nothing: they hold discovery.
  // A full table of live rows frees an eighth of itself, then fills again.
  const std::size_t bound = Proxy::kResolutionRowsPerShard;
  for (std::size_t i = 0; i < bound; ++i) (void)get(i);
  EXPECT_EQ(d.proxy.resolution_rows(), bound);
  (void)get(bound);
  EXPECT_EQ(d.proxy.resolution_rows(), bound - bound / 8 + 1);
  for (std::size_t i = bound + 1; i < 2 * bound; ++i) (void)get(i);
  EXPECT_LE(d.proxy.resolution_rows(), bound);

  // Once every row has expired, the next insert into the full table
  // sweeps them all out and drops no live row.
  for (std::size_t i = 2 * bound; d.proxy.resolution_rows() < bound; ++i) {
    (void)get(i);
  }
  d.faulty.step_clock_ms(kRowLifetimeMs + 1);
  (void)get(3 * bound);
  EXPECT_EQ(d.proxy.resolution_rows(), 1u);
}

TEST(ResolutionRow, DelegatedAnswerLivesForItsShortestHop) {
  for (const bool short_hop_first : {true, false}) {
    SCOPED_TRACE(short_hop_first ? "short consortium hop" : "short delegate hop");
    FaultyDeployment d(every_request_misses());
    const auto name = d.publish("page", "delegated content");
    ScriptedResolver consortium;
    consortium.body = "resolver=fine.resolver\n";
    ScriptedResolver fine;
    consortium.cache_control = short_hop_first ? "max-age=10" : "max-age=300";
    fine.cache_control = short_hop_first ? "max-age=300" : "max-age=10";
    d.net.detach("nrs.consortium");
    d.net.attach("nrs.consortium", &consortium);
    d.net.attach("fine.resolver", &fine);

    ASSERT_EQ(d.get(name).status, 200);
    EXPECT_EQ(consortium.queries, 1);
    EXPECT_EQ(fine.queries, 1);

    d.faulty.step_clock_ms(9'000);  // inside both lifetimes
    ASSERT_EQ(d.get(name).status, 200);
    EXPECT_EQ(consortium.queries, 1);
    EXPECT_EQ(fine.queries, 1);

    d.faulty.step_clock_ms(2'000);  // past the 10 s hop, inside the 300 s one
    ASSERT_EQ(d.get(name).status, 200);
    EXPECT_EQ(consortium.queries, 2);
    EXPECT_EQ(fine.queries, 2);
  }
}

}  // namespace
