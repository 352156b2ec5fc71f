// Trace driver: replays a bound synthetic workload through a Cluster's
// real sockets.
//
// Each core::BoundRequest is issued as an absolute-form GET through a
// keep-alive runtime::HttpClient pinned to the request's home PoP — exactly
// the browser-behind-a-configured-proxy shape the paper's deployment story
// assumes. HttpClient is the runtime's AsyncHttpClient on a private event
// loop that the driver's own thread pumps, so the testbed's client speaks
// the same HTTP/1.1 code as the proxies' upstream fetches. The driver replays sequentially (like the simulator), pushes a
// full hint-exchange round every `hint_interval` requests, and optionally
// dresses a fraction of requests with Range headers to exercise the
// 206 Partial Content path end to end.
//
// Accounting mirrors the simulator's units: wall-clock latency is measured
// at the client; model latency (core hops) and per-core-link congestion are
// derived from each response's X-IdICN-Source header by walking the
// shortest core path from the serving PoP to the requesting PoP.
#pragma once

#include <cstdint>

#include "core/bound_workload.hpp"
#include "testbed/cluster.hpp"
#include "testbed/metrics.hpp"

namespace idicn::testbed {

struct DriverOptions {
  std::uint64_t request_count = 2'000;
  double alpha = 0.9;          ///< Zipf exponent
  double spatial_skew = 0.0;   ///< per-PoP rank permutation intensity
  std::uint64_t seed = 1;
  /// Requests between full digest-exchange rounds (0 = hints never flow —
  /// with cooperation wired, the directory then simply stays empty).
  std::uint64_t hint_interval = 100;
  /// Fraction of requests issued with a Range header (middle-third slice).
  double ranged_fraction = 0.0;
};

class TraceDriver {
public:
  TraceDriver(Cluster& cluster, DriverOptions options)
      : cluster_(cluster), options_(options) {}

  /// Bind the synthetic workload on the cluster's counterpart network. The
  /// result feeds both run() and the simulator comparison — identical
  /// request sequences by construction.
  [[nodiscard]] core::BoundWorkload bind() const;

  /// Replay `workload` through the sockets and collect metrics.
  [[nodiscard]] TestbedMetrics run(const core::BoundWorkload& workload);

private:
  Cluster& cluster_;
  DriverOptions options_;
};

}  // namespace idicn::testbed
