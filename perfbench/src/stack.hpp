// The §6 idICN stack on real loopback sockets, deployed for one run:
// NRS, origin, reverse proxy and the edge proxy, each behind its own
// runtime::HostServer, with a published catalog whose bodies carry
// per-object tags written here.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cpu.hpp"
#include "crypto/lamport.hpp"
#include "idicn/metalink.hpp"
#include "idicn/nrs.hpp"
#include "idicn/origin_server.hpp"
#include "idicn/proxy.hpp"
#include "idicn/reverse_proxy.hpp"
#include "loadgen.hpp"
#include "net/dns.hpp"
#include "runtime/host_server.hpp"
#include "runtime/socket_net.hpp"
#include "trace.hpp"

namespace perfbench {

struct CatalogSpec {
  std::size_t objects = 64;
  /// Every object has this size when `pareto_mean_bytes` is 0.
  std::uint64_t object_bytes = 1024;
  /// Mean of workload::SizeModel's Pareto sizes, drawn with `size_seed`.
  double pareto_mean_bytes = 0.0;
  std::uint64_t size_seed = 0;
  /// One-time keys are 2^height; each publish spends two.
  unsigned signer_height = 7;
  /// Proxy cache capacity as a share of the catalog's bytes.
  double capacity_share = 4.0;
  std::size_t proxy_workers = 2;
};

/// Object sizes of the catalog (deterministic in the spec).
[[nodiscard]] std::vector<std::uint64_t> catalog_sizes(const CatalogSpec& spec);

class Stack {
 public:
  struct Times {
    double signer_s = 0.0;   ///< key generation
    double deploy_s = 0.0;   ///< servers constructed, started, registered
    double publish_s = 0.0;  ///< origin put + sign + NRS registration
  };

  /// Deploys and publishes. `traced`: the proxy, NRS and reverse proxy are
  /// served through TracedHost and the proxy's upstream is a
  /// TracedTransport. The NRS, origin and reverse proxy threads are pinned
  /// to `cpus.aux`, the proxy workers one each to `cpus.proxy`.
  Stack(const CatalogSpec& spec, bool traced, const CpuPlan& cpus);
  ~Stack();
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  /// Stop every server (proxy first). Idempotent.
  void stop();

  [[nodiscard]] const std::vector<Target>& targets() const { return targets_; }
  [[nodiscard]] const Times& times() const { return times_; }

  [[nodiscard]] std::uint16_t proxy_port() const { return proxy_server_->port(); }
  /// Kernel ids of every server thread.
  [[nodiscard]] const std::vector<pid_t>& server_threads() const { return server_threads_; }
  /// Requests served so far by each proxy worker.
  [[nodiscard]] std::vector<std::uint64_t> worker_counts() const;

  [[nodiscard]] idicn::runtime::HostServer& proxy_server() { return *proxy_server_; }
  [[nodiscard]] idicn::idicn::Proxy& proxy() { return *proxy_; }
  [[nodiscard]] idicn::runtime::SocketNet& net() { return net_; }

  /// The object's body and its signed metadata, fetched from the reverse
  /// proxy with the verification proof (a control-plane request, off the
  /// serving path). nullopt when the fetch fails.
  struct Published {
    std::string body;
    idicn::idicn::ContentMetadata metadata;
  };
  [[nodiscard]] std::optional<Published> published(std::size_t object);

 private:
  CatalogSpec spec_;
  std::vector<Target> targets_;
  Times times_;
  std::vector<pid_t> server_threads_;

  idicn::runtime::SocketNet net_;
  idicn::net::DnsService dns_;
  std::unique_ptr<idicn::crypto::MerkleSigner> signer_;
  std::unique_ptr<idicn::idicn::NameResolutionSystem> nrs_;
  std::unique_ptr<idicn::idicn::OriginServer> origin_;
  std::unique_ptr<idicn::idicn::ReverseProxy> reverse_proxy_;
  std::unique_ptr<TracedTransport> traced_upstream_;
  std::unique_ptr<idicn::idicn::Proxy> proxy_;
  std::unique_ptr<TracedHost> traced_proxy_, traced_nrs_, traced_rp_;
  std::unique_ptr<idicn::runtime::HostServer> nrs_server_, origin_server_,
      rp_server_, proxy_server_;
};

}  // namespace perfbench
