#include "stack.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>
#include <stdexcept>

#include "report.hpp"
#include "workload/size_model.hpp"

namespace perfbench {
namespace {

constexpr const char* kNrs = "nrs.consortium";
constexpr const char* kOrigin = "origin.pub";
constexpr const char* kRp = "rp.pub";
constexpr const char* kProxy = "cache.ad1";

double since_s(std::int64_t start) {
  return static_cast<double>(now_ns() - start) / 1e9;
}

std::string object_tag(std::size_t object) {
  char tag[16];
  std::snprintf(tag, sizeof(tag), "[obj-%05zu]", object);
  return tag;
}

}  // namespace

std::vector<std::uint64_t> catalog_sizes(const CatalogSpec& spec) {
  std::vector<std::uint64_t> sizes(spec.objects, spec.object_bytes);
  if (spec.pareto_mean_bytes > 0.0) {
    const idicn::workload::SizeModel model(idicn::workload::SizeModelKind::Pareto,
                                           spec.pareto_mean_bytes);
    std::mt19937_64 rng(spec.size_seed);
    const std::uint64_t floor = 2 * object_tag(0).size();
    for (auto& size : sizes) size = std::max(floor, model.sample(rng));
  }
  return sizes;
}

Stack::Stack(const CatalogSpec& spec, bool traced, const CpuPlan& cpus) : spec_(spec) {
  namespace crypto = ::idicn::crypto;
  namespace net = ::idicn::net;
  namespace runtime = ::idicn::runtime;
  namespace app = ::idicn::idicn;
  const std::vector<std::uint64_t> sizes = catalog_sizes(spec);
  std::uint64_t catalog_bytes = 0;
  for (const auto size : sizes) catalog_bytes += size;
  if ((std::size_t{1} << spec.signer_height) < 2 * spec.objects) {
    throw std::invalid_argument("signer has too few one-time keys for the catalog");
  }

  std::int64_t start = now_ns();
  signer_ = std::make_unique<crypto::MerkleSigner>(0xbe9c, spec.signer_height);
  times_.signer_s = since_s(start);

  start = now_ns();
  nrs_ = std::make_unique<app::NameResolutionSystem>(&dns_);
  origin_ = std::make_unique<app::OriginServer>();
  reverse_proxy_ =
      std::make_unique<app::ReverseProxy>(&net_, kRp, kOrigin, kNrs, signer_.get());
  net::Transport* upstream = &net_;
  if (traced) {
    traced_upstream_ = std::make_unique<TracedTransport>(&net_, kNrs, kRp);
    upstream = traced_upstream_.get();
  }
  app::Proxy::Options options;
  options.capacity_bytes = static_cast<std::uint64_t>(
      std::llround(static_cast<double>(catalog_bytes) * spec.capacity_share));
  options.cache_shards = spec.proxy_workers;
  proxy_ = std::make_unique<app::Proxy>(upstream, kProxy, kNrs, &dns_, options);

  net::SimHost* nrs_host = nrs_.get();
  net::SimHost* rp_host = reverse_proxy_.get();
  net::SimHost* proxy_host = proxy_.get();
  if (traced) {
    traced_nrs_ = std::make_unique<TracedHost>(nrs_host, SpanKind::Nrs);
    traced_rp_ = std::make_unique<TracedHost>(rp_host, SpanKind::Rp);
    traced_proxy_ = std::make_unique<TracedHost>(proxy_host, SpanKind::Proxy);
    nrs_host = traced_nrs_.get();
    rp_host = traced_rp_.get();
    proxy_host = traced_proxy_.get();
  }
  nrs_server_ = std::make_unique<runtime::HostServer>(nrs_host, kNrs);
  origin_server_ = std::make_unique<runtime::HostServer>(origin_.get(), kOrigin);
  rp_server_ = std::make_unique<runtime::HostServer>(rp_host, kRp);
  runtime::HostServer::Options proxy_options;
  proxy_options.workers = spec.proxy_workers;
  proxy_server_ = std::make_unique<runtime::HostServer>(proxy_host, kProxy, proxy_options);
  // Each server's threads are the ones that appear while it starts.
  const auto start_pinned = [&](runtime::HostServer& server, const std::vector<int>& to) {
    const std::vector<pid_t> before = thread_ids();
    server.start();
    net_.register_endpoint(server);
    std::size_t next = 0;
    for (const pid_t tid : thread_ids()) {
      if (std::binary_search(before.begin(), before.end(), tid)) continue;
      pin_thread(tid, to[next++ % to.size()]);
      server_threads_.push_back(tid);
    }
  };
  start_pinned(*nrs_server_, {cpus.aux});
  start_pinned(*origin_server_, {cpus.aux});
  start_pinned(*rp_server_, {cpus.aux});
  start_pinned(*proxy_server_, cpus.proxy);
  times_.deploy_s = since_s(start);

  start = now_ns();
  for (std::size_t i = 0; i < spec.objects; ++i) {
    char label[24];
    std::snprintf(label, sizeof(label), "o%zu", i);
    const std::string tag = object_tag(i);
    origin_server_->run_on_loop(
        [&] { origin_->put(label, tagged_body(tag, sizes[i])); });
    std::optional<app::SelfCertifyingName> name;
    rp_server_->run_on_loop([&] { name = reverse_proxy_->publish(label); });
    if (!name) throw std::runtime_error(std::string("publish failed for ") + label);
    targets_.push_back(Target{name->host(), "http://" + name->host() + "/", sizes[i], tag});
  }
  times_.publish_s = since_s(start);
}

Stack::~Stack() { stop(); }

void Stack::stop() {
  for (auto* server : {proxy_server_.get(), rp_server_.get(), origin_server_.get(),
                       nrs_server_.get()}) {
    if (server != nullptr) server->stop();
  }
}

std::vector<std::uint64_t> Stack::worker_counts() const {
  std::vector<std::uint64_t> counts;
  for (std::size_t w = 0; w < proxy_server_->worker_count(); ++w) {
    counts.push_back(proxy_server_->worker_stats(w).requests_served);
  }
  return counts;
}

std::optional<Stack::Published> Stack::published(std::size_t object) {
  idicn::net::HttpRequest request;
  request.target = "/";
  request.headers.set("Host", targets_.at(object).host);
  request.headers.set(idicn::idicn::kWantMetadataHeader, "1");
  idicn::net::HttpResponse response = net_.send("perfbench", kRp, request);
  if (response.status != 200) return std::nullopt;
  auto metadata = idicn::idicn::ContentMetadata::from_headers(response.headers);
  if (!metadata) return std::nullopt;
  return Published{response.full_body(), std::move(*metadata)};
}

}  // namespace perfbench
