#include "idicn/proxy.hpp"

#include <algorithm>
#include <functional>
#include <limits>

#include "core/hot_path.hpp"
#include "crypto/sha256.hpp"
#include "idicn/nrs.hpp"
#include "net/http_internal.hpp"
#include "net/uri.hpp"

namespace idicn::idicn {
namespace {

/// BodyProducer over a Transit: yields the chunks that have arrived so
/// far, reports Pending while the upstream fetch is still filling the
/// transit, Done once it completed, and Error if it failed (upstream died
/// or verification rejected the content) — the serving runtime then
/// closes the connection without completing the body.
class TransitReader final : public net::BodyProducer {
public:
  explicit TransitReader(std::shared_ptr<detail::Transit> transit)
      : transit_(std::move(transit)) {}

  [[nodiscard]] std::optional<std::uint64_t> total_size() const override {
    return transit_->expected_size;
  }

  Pull pull(core::Chunk* out) override {
    const core::sync::MutexLock lock(transit_->mutex);
    const auto& chunks = transit_->chunks.chunks();
    if (index_ < chunks.size()) {
      *out = chunks[index_++];
      return Pull::Ready;
    }
    if (transit_->failed) return Pull::Error;
    if (transit_->complete) return Pull::Done;
    return Pull::Pending;
  }

private:
  std::shared_ptr<detail::Transit> transit_;
  std::size_t index_ = 0;  ///< cursor into the transit's chunk list
};

/// The metadata a response head carries, parsed once and shared by the
/// fetch's Transit and the cache entry it becomes; null when the head has
/// none (or a malformed one).
std::shared_ptr<const ContentMetadata> parse_metadata(const net::HeaderMap& headers) {
  auto metadata = ContentMetadata::from_headers(headers);
  if (!metadata) return nullptr;
  return std::make_shared<const ContentMetadata>(std::move(*metadata));
}

/// Receives an upstream body chunk by chunk: on a 200 head it builds a
/// Transit and hands it to `publish` (which makes it visible to
/// concurrent requests), then appends each chunk under the transit lock
/// while hashing incrementally. Error bodies are drained and discarded.
///
/// Cancellation boundary: when `halted` flips (the requesting client
/// disconnected) *before* the head arrives, on_head refuses the transfer —
/// nobody wants the bytes yet. Once the transit is published, concurrent
/// joined readers may be consuming it, so the transfer always runs to
/// completion regardless of the original requester.
class FetchSink final : public net::ChunkSink {
public:
  using Publish = std::function<void(const std::shared_ptr<detail::Transit>&)>;

  explicit FetchSink(Publish publish, std::shared_ptr<const bool> halted = {})
      : publish_(std::move(publish)), halted_(std::move(halted)) {}

  bool on_head(const net::HttpResponse& head) override {
    if (halted_ != nullptr && *halted_) return false;  // client gone pre-head
    if (!head.ok()) return true;  // drain and ignore the error body
    auto transit = std::make_shared<detail::Transit>();
    transit->content_type =
        head.headers.get("Content-Type").value_or("text/plain");
    transit->etag = head.headers.get("ETag").value_or("");
    transit->metadata = parse_metadata(head.headers);
    std::size_t content_length = 0;
    if (head.headers.contains("Content-Length") &&
        net::detail::parse_content_length(head.headers, content_length,
                                          nullptr)) {
      transit->expected_size = content_length;
    }
    transit_ = std::move(transit);
    publish_(transit_);
    return true;
  }

  bool on_chunk(core::Chunk chunk) override {
    if (transit_ == nullptr) return true;  // error body: not ours to keep
    bytes_ += chunk.size();
    hasher_.update(chunk.view());
    const core::sync::MutexLock lock(transit_->mutex);
    transit_->chunks.append(std::move(chunk));
    return true;
  }

  [[nodiscard]] const std::shared_ptr<detail::Transit>& transit() const {
    return transit_;
  }
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }
  [[nodiscard]] crypto::Sha256Digest digest() { return hasher_.finish(); }

private:
  Publish publish_;
  std::shared_ptr<const bool> halted_;  ///< may be null (no cancellation)
  std::shared_ptr<detail::Transit> transit_;
  crypto::Sha256 hasher_;
  std::uint64_t bytes_ = 0;
};

/// The `max-age` of a response's Cache-Control header, in seconds; 0 when
/// absent or malformed (an answer that may not be reused). Clamped to a day
/// so a hostile value cannot overflow the expiry arithmetic.
std::uint64_t max_age_s(const net::HeaderMap& headers) {
  constexpr std::string_view kMaxAge = "max-age=";
  constexpr std::uint64_t kDayS = 24 * 3600;
  const auto value = headers.get_view("Cache-Control");
  if (!value) return 0;
  const std::size_t at = value->find(kMaxAge);
  if (at == std::string_view::npos) return 0;
  std::uint64_t seconds = 0;
  for (const char c : value->substr(at + kMaxAge.size())) {
    if (c < '0' || c > '9') break;
    seconds = std::min(kDayS, seconds * 10 + static_cast<std::uint64_t>(c - '0'));
  }
  return seconds;
}

/// X-IdICN-Hops value, defaulting to 0 (a client-originated request) on
/// absence or garbage; clamped so a hostile header cannot overflow.
std::size_t parse_hops(const net::HeaderMap& headers) {
  const auto value = headers.get_view(kHopsHeader);
  if (!value || value->empty()) return 0;
  std::size_t hops = 0;
  for (const char c : *value) {
    if (c < '0' || c > '9') return 0;
    hops = hops * 10 + static_cast<std::size_t>(c - '0');
    if (hops > 64) return 64;
  }
  return hops;
}

/// The host a request names, exactly as it is spelled on the wire: the
/// authority of an absolute-form "http://" target, or the Host header of
/// an origin-form one. nullopt for any other shape. A spelling that
/// carries a port, userinfo or capitals never matches a cached
/// (canonical) host, so it falls through to parse_uri/parse_host.
std::optional<std::string_view> spelled_host(const net::HttpRequest& request) {
  constexpr std::string_view kHttp = "http://";
  std::string_view target = request.target;
  if (target.starts_with(kHttp)) {
    target.remove_prefix(kHttp.size());
    return target.substr(0, target.find_first_of("/?#"));
  }
  if (target.starts_with('/')) return request.headers.get_view("Host");
  return std::nullopt;
}

}  // namespace

Proxy::Proxy(net::Transport* net, net::Address self, net::Address nrs,
             const net::DnsService* dns, Options options)
    : net_(net),
      self_(std::move(self)),
      nrs_(std::move(nrs)),
      dns_(dns),
      options_(options),
      fetcher_(std::make_unique<runtime::MultiSourceFetcher>(net_,
                                                             options.fetch)) {
  const std::size_t count = std::max<std::size_t>(1, options_.cache_shards);
  const std::uint64_t base = options_.capacity_bytes / count;
  const std::uint64_t remainder = options_.capacity_bytes % count;
  shards_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    shards_.push_back(
        std::make_unique<CacheShard>(base + (i < remainder ? 1 : 0)));
  }
}

Proxy::CacheShard& Proxy::shard_for(std::string_view host) const {
  if (shards_.size() == 1) return *shards_.front();
  return *shards_[HostHash{}(host) % shards_.size()];
}

cache::ObjectId Proxy::CacheShard::find(std::string_view host) const {
  const auto it = ids.find(host);
  return it == ids.end() ? cache::FlatIndex::kAbsent : it->second;
}

core::PerfCounters Proxy::perf() const {
  core::PerfCounters merged;
  for (const auto& shard : shards_) {
    const core::sync::MutexLock lock(shard->mutex);
    merged.merge(shard->perf);
  }
  return merged;
}

std::uint64_t Proxy::cached_bytes() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    const core::sync::MutexLock lock(shard->mutex);
    total += shard->lru.used_units();
  }
  return total;
}

std::size_t Proxy::cached_objects() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    const core::sync::MutexLock lock(shard->mutex);
    total += shard->lru.object_count();
  }
  return total;
}

std::size_t Proxy::resolution_rows() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    const core::sync::MutexLock lock(shard->mutex);
    total += shard->resolutions.size();
  }
  return total;
}

bool Proxy::is_cached(const std::string& host) const {
  const CacheShard& shard = shard_for(host);
  const core::sync::MutexLock lock(shard.mutex);
  return shard.find(host) != cache::FlatIndex::kAbsent;
}

cache::ObjectId Proxy::cache_store(CacheShard& shard, Entry& entry) {
  const std::uint64_t size = entry.body.size();
  if (size > shard.lru.capacity_units()) return cache::FlatIndex::kAbsent;
  cache::ObjectId id = shard.find(entry.host);
  if (id != cache::FlatIndex::kAbsent) {
    shard.lru.erase(id);  // a refetched copy: re-admitted at its new size
  } else {
    if (shard.free_ids.empty()) {
      id = static_cast<cache::ObjectId>(shard.entries.size());
      shard.entries.emplace_back(nullptr);
    } else {
      id = shard.free_ids.back();
      shard.free_ids.pop_back();
    }
    shard.ids.emplace(entry.host, id);
  }
  std::vector<cache::ObjectId> evicted;
  shard.lru.insert(id, size, evicted);
  for (const cache::ObjectId victim : evicted) {
    shard.ids.erase(shard.entries[victim]->host);
    shard.entries[victim].reset();
    shard.free_ids.push_back(victim);
    ++stats_.evictions;
  }
  shard.entries[id] = std::make_unique<Entry>(std::move(entry));
  return id;
}

net::HttpResponse Proxy::entry_response(const Entry& entry,
                                        const char* cache_mark,
                                        bool full_metadata) const {
  // References the entry's chunks — no body copy per response; N
  // concurrent readers of one cached object share one copy of the bytes.
  net::HttpResponse response =
      net::make_stream_response(200, entry.body, entry.content_type);
  // The multi-kilobyte proof (publisher key + one-time signature) is
  // attached only when the caller asked for it: verifying clients and
  // fetching proxies send kWantMetadataHeader, plain browsers trust this
  // proxy's own verification and get the cheap name+digest hint.
  if (entry.metadata) entry.metadata->apply_to(response.headers, full_metadata);
  if (!entry.etag.empty()) response.headers.set("ETag", entry.etag);
  response.headers.set("X-Cache", cache_mark);
  response.headers.set("Via", self_);
  return response;
}

net::HttpResponse Proxy::serve_entry(CacheShard& shard, cache::ObjectId id,
                                     const Entry& entry, bool hit,
                                     bool full_metadata) {
  stats_.bytes_served += entry.body.size();
  shard.perf.bump(&core::PerfCounters::proxy_bytes_served, entry.body.size());
  if (hit) (void)shard.lru.lookup(id);
  return entry_response(entry, hit ? "HIT" : "MISS", full_metadata);
}

net::HttpResponse Proxy::store_and_serve(CacheShard& shard, Entry entry,
                                         bool full_metadata) {
  // Where the bytes actually came from (origin, mirror, or sibling proxy):
  // exposed so the testbed's driver can charge the transfer to the real
  // core-graph path rather than assuming proxy→origin.
  const net::Address source = entry.fetched_from;
  const core::sync::MutexLock lock(shard.mutex);
  const cache::ObjectId id = cache_store(shard, entry);
  net::HttpResponse response =
      id != cache::FlatIndex::kAbsent
          ? serve_entry(shard, id, *shard.entries[id], false, full_metadata)
          // Larger than the shard's slice: serve the fetched copy uncached.
          : serve_entry(shard, id, entry, false, full_metadata);
  if (!source.empty()) response.headers.set(kSourceHeader, source);
  return response;
}

net::HttpResponse Proxy::serve_hint(const net::HttpRequest& request) {
  const auto sender = request.headers.get(kHintHeader);
  if (!sender || sender->empty()) {
    return net::make_response(400, "hint without sender address");
  }
  std::vector<std::string> hosts;
  for (const auto& [key, value] : parse_form_lines(request.body)) {
    if (key != "host") continue;
    // Digest bound on the ingest side too: a misbehaving sibling cannot
    // bloat the directory past what this proxy agreed to hold.
    if (hosts.size() >= options_.max_hint_entries) break;
    hosts.push_back(value);
  }
  ++stats_.hints_received;
  if (directory_ != nullptr) directory_->ingest(*sender, hosts);
  return net::make_response(204, "");
}

std::vector<std::string> Proxy::hint_digest() const {
  std::vector<std::string> digest;
  for (const auto& shard : shards_) {
    if (digest.size() >= options_.max_hint_entries) break;
    const core::sync::MutexLock lock(shard->mutex);
    const std::vector<std::unique_ptr<Entry>>& entries = shard->entries;
    shard->lru.for_each_recent([&](cache::ObjectId id) {
      if (digest.size() >= options_.max_hint_entries) return false;
      digest.push_back(entries[id]->host);
      return true;
    });
  }
  return digest;
}

void Proxy::push_hints() {
  if (siblings_.empty()) return;
  std::string body;
  for (const std::string& host : hint_digest()) {
    body += "host=" + host + "\n";
  }
  net::HttpRequest post;
  post.method = "POST";
  post.target = kHintPath;
  post.headers.set(kHintHeader, self_);
  post.headers.set("Content-Length", std::to_string(body.size()));
  post.body = std::move(body);
  for (const net::Address& sibling : siblings_) {
    // Best-effort soft state: an unreachable sibling just misses this
    // round of hints and catches the next.
    (void)net_->send(self_, sibling, post);
    ++stats_.hints_sent;
  }
}

net::HttpResponse Proxy::serve_transit(
    const std::shared_ptr<detail::Transit>& transit, bool full_metadata) {
  ++stats_.stream_joins;
  net::HttpResponse response;
  response.status = 200;
  response.reason = "OK";
  response.headers.set("Content-Type", transit->content_type);
  if (!transit->etag.empty()) response.headers.set("ETag", transit->etag);
  // The metadata is not verified yet — it rides along so an end-to-end
  // verifying client can still check what it streamed. If verification
  // fails proxy-side when the fetch completes, every joined stream aborts
  // before its body terminator (fail-closed), so a non-verifying client
  // never receives corrupt content framed as complete.
  if (transit->metadata) transit->metadata->apply_to(response.headers, full_metadata);
  response.headers.set("X-Cache", "STREAM");
  response.headers.set("Via", self_);
  // Framing follows the producer: Content-Length when the upstream
  // declared a size, chunked otherwise (see serialize_head()).
  response.producer = std::make_shared<TransitReader>(transit);
  return response;
}

std::optional<net::HttpResponse> Proxy::serve_stale(CacheShard& shard,
                                                    const std::string& host,
                                                    bool full_metadata) {
  const core::sync::MutexLock lock(shard.mutex);
  const cache::ObjectId id = shard.find(host);
  if (id == cache::FlatIndex::kAbsent) return std::nullopt;  // evicted meanwhile
  ++stats_.stale_served;
  net::HttpResponse response =
      serve_entry(shard, id, *shard.entries[id], true, full_metadata);
  // RFC 7234 §5.5.1 stale warning plus an explicit idICN marker so clients
  // (and the chaos harness) can tell degraded service from a fresh hit.
  response.headers.set("Warning", "110 - \"Response is Stale\"");
  response.headers.set("X-IdICN-Stale", "1");
  return response;
}

// The serving state machine: one heap object per request carrying the
// entire serve flow — routing, cache fast path, revalidation, peer query,
// sibling redirect, NRS resolution, location fetches, legacy forward — as
// uniquely-named continuations chained through Transport::send_async and,
// for every object fetch, MultiSourceFetcher::fetch_from_best (see
// fetch_object()). With a real executor each upstream exchange parks
// the machine and the loop thread returns to its poller; with a null
// executor every transport hop completes inline and the machine settles
// before dispatch() returns (the synchronous handle_http contract).
//
// Lifetime: completion lambdas hold shared_ptr self-references, so the
// machine lives exactly as long as work is outstanding. Cancellation
// (abort(), from the serving worker when the client disconnects) never
// interrupts an exchange mid-flight — it stops *new* upstream work, makes
// a pre-head streaming fetch refuse its transfer, and suppresses the
// respond; a post-head fetch still completes, verifies, and admits to the
// cache because joined readers may be streaming from its transit.
class Proxy::FetchOp final : public net::AsyncOp,
                             public std::enable_shared_from_this<FetchOp> {
public:
  /// `route` is the GET's target as Proxy::route_of canonicalized it
  /// (nullopt for other methods, or a GET that names no host).
  FetchOp(Proxy* proxy, net::HttpRequest request, std::optional<Route> route,
          net::Executor* exec, std::function<void(net::HttpResponse)> respond)
      : proxy_(proxy),
        request_(std::move(request)),
        exec_(exec),
        respond_(std::move(respond)),
        routed_(route.has_value()) {
    if (route) {
      host_ = std::move(route->host);
      name_ = std::move(route->name);
    }
  }

  /// Route the request and run until the next park point (or settle
  /// inline). Call exactly once.
  void dispatch() {
    // Control channel: a sibling pushing its content digest.
    if (request_.method == "POST" && request_.target == kHintPath) {
      settle(proxy_->serve_hint(request_));
      return;
    }
    if (request_.method != "GET") {
      settle(net::make_response(400, "proxy supports GET only"));
      return;
    }
    if (!routed_) {
      settle(net::make_response(400, "cannot determine host"));
      return;
    }
    if (!name_) {
      legacy_forward();
      return;
    }
    apply_range_ = !request_.headers.contains(kIcpQueryHeader);
    begin_idicn();
  }

  void abort() override {
    cancelled_ = true;
    // A streaming fetch that has not yet published a transit refuses its
    // head; one that has keeps filling for joined readers (see FetchSink).
    *halt_flag_ = true;
  }

  [[nodiscard]] bool settled() const noexcept { return settled_; }

private:
  /// Continuation of one object fetch: the verified entry, or nullopt plus
  /// whether the failure was transport-layer (see fetch_object()).
  using FetchDone = std::function<void(std::optional<Entry>, bool)>;

  /// Exactly-once completion: applies the Range rewrite (idICN path only)
  /// and the PoP attribution header, then fires the respond — unless the
  /// client disconnected, in which case the response is dropped.
  void settle(net::HttpResponse response) {
    if (settled_) return;
    settled_ = true;
    auto respond = std::move(respond_);
    respond_ = nullptr;
    if (cancelled_ || respond == nullptr) return;
    // Ranged reads ride the cached-object path: a complete 200 is
    // rewritten into the requested 206 (slices share the cache entry's
    // chunk blocks — no copy). Cooperative fetches always need the whole
    // object (they verify and cache it), so their Range headers — which
    // they never send — would be ignored here anyway; producer-backed
    // STREAM joins fall back to the full 200 (apply_byte_range declines).
    if (apply_range_) {
      if (const auto range = request_.headers.get_view("Range")) {
        net::apply_byte_range(*range, response);
      }
    }
    // Serving-PoP attribution on every response (testbed observability).
    if (!proxy_->options_.pop_name.empty()) {
      response.headers.set(kPopHeader, proxy_->options_.pop_name);
    }
    respond(std::move(response));
  }

  /// The client is gone: park the machine permanently instead of starting
  /// another upstream exchange nobody will read. Returns true when halted.
  bool halt_if_cancelled() {
    if (!cancelled_) return false;
    settle(net::HttpResponse{});
    return true;
  }

  void begin_idicn() {
    peer_query_ = request_.headers.contains(kIcpQueryHeader);
    // Peer proxies re-verify what they pull, so they always get the proof.
    full_metadata_ =
        peer_query_ || request_.headers.contains(kWantMetadataHeader);
    // Sibling-redirect forwarding depth (0 = client-originated). A request
    // already at the hop limit is answered strictly from cache — hops only
    // ever increment, so redirect chains terminate here no matter what the
    // directories claim.
    hops_ = parse_hops(request_.headers);
    sibling_query_ = hops_ > 0;
    cache_only_ = peer_query_ || hops_ >= proxy_->options_.sibling_hop_limit;

    CacheShard& shard = proxy_->shard_for(host_);

    // Step 7 fast path under the shard lock: fresh cached copy. A stale
    // entry only donates its validators here — the conditional refresh is
    // network I/O and must run with the lock dropped so sibling requests
    // on this shard keep flowing. The settled response leaves the lock
    // scope before respond fires (respond drives the client socket).
    std::optional<net::HttpResponse> immediate;
    {
      const core::sync::MutexLock lock(shard.mutex);
      const cache::ObjectId id = shard.find(host_);
      if (id != cache::FlatIndex::kAbsent) {
        const Entry& cached = *shard.entries[id];
        const bool fresh = proxy_->net_->now_ms() - cached.stored_at_ms <=
                           proxy_->options_.freshness_ms;
        if (fresh) {
          ++proxy_->stats_.hits;
          immediate =
              proxy_->serve_entry(shard, id, cached, true, full_metadata_);
        } else {
          ++proxy_->stats_.expired;
          stale_ = true;
          stale_etag_ = cached.etag;
          stale_fetched_from_ = cached.fetched_from;
          // The expired copy's metalink mirrors join the multi-source
          // candidate set — replicas we learned about the last time the
          // object verified.
          if (cached.metadata) stale_mirrors_ = cached.metadata->mirrors;
        }
      }
      // Another worker is already fetching this object: join its stream
      // and serve the arrived prefix now, the tail as it lands — no second
      // upstream fetch, no waiting for the whole object. Stale-entry
      // holders join too (the in-flight refetch supersedes revalidation —
      // without this they raced a duplicate upstream fetch and reported
      // MISS while every sibling connection reported STREAM). Cache-only
      // queries stay out: an in-flight fetch is not a cached object yet.
      if (!immediate && !cache_only_) {
        const auto streaming = shard.transit.find(host_);
        if (streaming != shard.transit.end()) {
          immediate = proxy_->serve_transit(streaming->second, full_metadata_);
        }
      }
    }
    if (immediate) {
      settle(std::move(*immediate));
      return;
    }
    if (stale_ && !cache_only_ && !stale_etag_.empty() &&
        !stale_fetched_from_.empty()) {
      // Conditional refresh against the snapshotted validators.
      ++proxy_->stats_.revalidations;
      net::HttpRequest conditional;
      conditional.method = "GET";
      conditional.target = "/";
      conditional.headers.set("Host", host_);
      conditional.headers.set("If-None-Match", stale_etag_);
      auto self = shared_from_this();
      proxy_->net_->send_async(proxy_->self_, stale_fetched_from_, conditional,
                               exec_, [self](net::HttpResponse answer) {
                                 self->after_revalidate(std::move(answer));
                               });
      return;
    }
    after_fast_path();
  }

  void after_revalidate(net::HttpResponse answer) {
    if (answer.status == 304) {
      // 304: the body is still authentic. Re-lock and renew — unless a
      // concurrent worker evicted the entry meanwhile, in which case fall
      // through to a full refetch.
      ++proxy_->stats_.revalidated_304;
      CacheShard& shard = proxy_->shard_for(host_);
      std::optional<net::HttpResponse> renewed_response;
      {
        const core::sync::MutexLock lock(shard.mutex);
        const cache::ObjectId id = shard.find(host_);
        if (id != cache::FlatIndex::kAbsent) {
          Entry& renewed = *shard.entries[id];
          renewed.stored_at_ms = proxy_->net_->now_ms();  // fresh again
          ++proxy_->stats_.hits;
          renewed_response = proxy_->serve_entry(shard, id, renewed, true,
                                                 full_metadata_);
        }
      }
      if (renewed_response) {
        settle(std::move(*renewed_response));
        return;
      }
    }
    after_fast_path();
  }

  void after_fast_path() {
    // Cooperative queries are strictly cache-only: never trigger a fetch.
    if (cache_only_) {
      settle(net::make_response(404, "not cached here"));
      return;
    }
    ++proxy_->stats_.misses;
    // Scoped cooperation first: a same-AD peer may already hold the object
    // (forwarded sibling fetches skip this — their requester runs its own
    // cooperation round).
    peer_index_ = 0;
    query_next_peer();
  }

  void query_next_peer() {
    if (halt_if_cancelled()) return;
    if (sibling_query_ || peer_index_ >= proxy_->peers_.size()) {
      begin_sibling_redirect();
      return;
    }
    const net::Address peer = proxy_->peers_[peer_index_++];
    net::HttpRequest query;
    query.method = "GET";
    query.target = "http://" + host_ + "/";
    query.headers.set("Host", host_);
    query.headers.set(kIcpQueryHeader, "1");
    query.headers.set(kWantMetadataHeader, "1");
    auto self = shared_from_this();
    proxy_->net_->send_async(proxy_->self_, peer, query, exec_,
                             [self, peer](net::HttpResponse answer) {
                               self->weigh_peer_answer(peer, std::move(answer));
                             });
  }

  void weigh_peer_answer(const net::Address& peer, net::HttpResponse answer) {
    if (!answer.ok()) {
      query_next_peer();
      return;
    }
    Entry entry;
    entry.body = answer.take_body_chunks();
    entry.content_type =
        answer.headers.get("Content-Type").value_or("text/plain");
    entry.etag = answer.headers.get("ETag").value_or("");
    entry.fetched_from = peer;
    entry.stored_at_ms = proxy_->net_->now_ms();
    entry.metadata = parse_metadata(answer.headers);
    if (proxy_->options_.verify) {
      // Peers are not more trusted than any other source.
      if (!entry.metadata || entry.metadata->name != *name_ ||
          verify_content(*entry.metadata, entry.body) != VerifyResult::Ok) {
        ++proxy_->stats_.verification_failures;
        query_next_peer();
        return;
      }
    }
    ++proxy_->stats_.peer_hits;
    deliver_entry(std::move(entry), nullptr);
  }

  // Cross-PoP cooperation: the directory claims a sibling PoP holds the
  // object — fetch it from there (nearest first) instead of the origin.
  // Responses served this way are marked X-Cache: SIBLING so clients (and
  // the testbed's driver) can attribute the transfer to the cache tier.
  void begin_sibling_redirect() {
    holders_.clear();
    holder_index_ = 0;
    holders_tried_ = 0;
    // Forwarding would push the chain past the hop limit: stop here (the
    // receiving side enforces the same bound, so both ends agree).
    if (proxy_->directory_ != nullptr &&
        hops_ + 1 <= proxy_->options_.sibling_hop_limit) {
      holders_ = proxy_->directory_->holders(host_);
    }
    query_next_sibling();
  }

  void query_next_sibling() {
    if (halt_if_cancelled()) return;
    while (holder_index_ < holders_.size() &&
           holders_tried_ < proxy_->options_.sibling_fanout) {
      const net::Address holder = holders_[holder_index_++];
      if (holder == proxy_->self_) continue;
      ++holders_tried_;  // stale-hint damage control: bounded candidates
      auto self = shared_from_this();
      fetch_object({holder}, hops_ + 1,
                   [self, holder](std::optional<Entry> entry, bool) {
                     self->weigh_sibling_fetch(holder, std::move(entry));
                   });
      return;
    }
    after_siblings();
  }

  void weigh_sibling_fetch(const net::Address& holder,
                           std::optional<Entry> entry) {
    if (entry) {
      ++proxy_->stats_.sibling_hits;
      deliver_entry(std::move(*entry), "SIBLING");
      return;
    }
    // The sibling answered 404 (hint stale — the copy was evicted), failed
    // verification, or is down: forget the hint so the next miss does not
    // chase the same dead end, and try the next-nearest holder.
    proxy_->directory_->forget(holder, host_);
    query_next_sibling();
  }

  void after_siblings() {
    // A forwarded sibling fetch never recurses into name resolution: on a
    // stale hint the *requester* falls through to the origin path itself,
    // so a redirect can make things better but never reshape the upstream
    // route.
    if (sibling_query_) {
      settle(net::make_response(404, "not cached here"));
      return;
    }
    // Step 3 from memory: a live row of an earlier NRS answer names the
    // locations without a round trip.
    if (recall_resolution()) {
      weigh_resolution();
      return;
    }
    resolve();
  }

  /// Step 3: resolve the name through the NRS, following at most one
  /// P-delegation hop. A resolver that *errors* (unreachable NRS, 5xx) is
  /// an upstream failure eligible for degradation; a resolver that cleanly
  /// answers "no such name" is not.
  void resolve() {
    resolve_failed_ = false;
    from_row_ = false;
    locations_.clear();
    resolver_ = proxy_->nrs_;
    resolver_hop_ = 0;
    lifetime_s_ = std::numeric_limits<std::uint64_t>::max();
    resolve_next_hop();
  }

  /// Load the shard's live row for host_ into locations_. An expired row
  /// is dropped.
  bool recall_resolution() {
    CacheShard& shard = proxy_->shard_for(host_);
    const core::sync::MutexLock lock(shard.mutex);
    const auto it = shard.resolutions.find(host_);
    if (it == shard.resolutions.end()) return false;
    if (proxy_->net_->now_ms() > it->second.expires_at_ms) {
      shard.resolutions.erase(it);
      return false;
    }
    locations_ = it->second.locations;
    from_row_ = true;
    return true;
  }

  /// Keep the answer just resolved for the shortest max-age of its hops.
  void remember_resolution() {
    CacheShard& shard = proxy_->shard_for(host_);
    const core::sync::MutexLock lock(shard.mutex);
    const std::uint64_t now = proxy_->net_->now_ms();
    auto& rows = shard.resolutions;
    if (rows.size() >= kResolutionRowsPerShard && !rows.contains(host_)) {
      // Full: drop the expired rows, then arbitrary ones until an eighth
      // of the table is free, so a sweep runs at most once per eighth of
      // the inserts.
      std::erase_if(rows, [now](const auto& row) {
        return now > row.second.expires_at_ms;
      });
      while (rows.size() > kResolutionRowsPerShard - kResolutionRowsPerShard / 8) {
        rows.erase(rows.begin());
      }
    }
    rows.insert_or_assign(host_, Resolution{locations_, now + lifetime_s_ * 1000});
  }

  /// A fetch from the row failed: the object may have moved.
  void forget_resolution() {
    CacheShard& shard = proxy_->shard_for(host_);
    const core::sync::MutexLock lock(shard.mutex);
    if (const auto it = shard.resolutions.find(host_);
        it != shard.resolutions.end()) {
      shard.resolutions.erase(it);
    }
  }

  void resolve_next_hop() {
    if (halt_if_cancelled()) return;
    if (resolver_hop_ >= 2 || !locations_.empty()) {
      weigh_resolution();
      return;
    }
    ++resolver_hop_;
    net::HttpRequest query;
    query.method = "GET";
    query.target = "/resolve?name=" + host_;
    auto self = shared_from_this();
    proxy_->net_->send_async(proxy_->self_, resolver_, query, exec_,
                             [self](net::HttpResponse answer) {
                               self->weigh_resolver_answer(std::move(answer));
                             });
  }

  void weigh_resolver_answer(net::HttpResponse answer) {
    if (!answer.ok()) {
      resolve_failed_ = answer.status >= 500;
      weigh_resolution();
      return;
    }
    // A delegated answer lives as long as its shortest-lived hop; a hop
    // without max-age makes the whole answer single-use.
    lifetime_s_ = std::min(lifetime_s_, max_age_s(answer.headers));
    std::optional<net::Address> delegate;
    for (const auto& [key, value] : parse_form_lines(answer.body)) {
      if (key == "location") locations_.push_back(value);
      if (key == "resolver") delegate = value;
    }
    if (!locations_.empty() && lifetime_s_ > 0) remember_resolution();
    if (!locations_.empty() || !delegate) {
      weigh_resolution();
      return;
    }
    resolver_ = *delegate;
    resolve_next_hop();
  }

  void weigh_resolution() {
    auto self = shared_from_this();
    const auto failed_before = [this](const std::string& location) {
      return std::ranges::find(failed_row_, location) != failed_row_.end();
    };
    if (!locations_.empty() && std::ranges::all_of(locations_, failed_before)) {
      // The NRS names only locations the dropped row just failed on: the
      // fetch would fail the same way, so the ladder runs now.
      all_locations_failed(row_transport_failure_);
      return;
    }
    if (!locations_.empty()) {
      // Step 4: race every known replica — NRS rows, then the metalink
      // mirrors and origin of the expired copy — for authentic content.
      std::vector<net::Address> sources = locations_;
      sources.insert(sources.end(), stale_mirrors_.begin(),
                     stale_mirrors_.end());
      if (stale_ && !stale_fetched_from_.empty()) {
        sources.push_back(stale_fetched_from_);
      }
      fetch_object(std::move(sources), 0,
                   [self](std::optional<Entry> entry, bool transport_failure) {
                     if (entry) {
                       self->deliver_entry(std::move(*entry), nullptr);
                       return;
                     }
                     if (self->from_row_) {
                       // The cached row led nowhere (the object moved, or
                       // a location serves bad bytes): ask the NRS, once.
                       self->forget_resolution();
                       self->failed_row_ = std::move(self->locations_);
                       self->row_transport_failure_ = transport_failure;
                       self->resolve();
                       return;
                     }
                     self->all_locations_failed(transport_failure);
                   });
      return;
    }
    if (!resolve_failed_) {
      settle(net::make_response(404, "name did not resolve"));
      return;
    }
    // NRS outage. With an expired copy in hand we still know where it came
    // from — sidestep resolution and refetch directly (origin may be fine).
    // A failed row fetch already raced that source: no second try.
    if (stale_ && !stale_fetched_from_.empty() && failed_row_.empty()) {
      fetch_object({stale_fetched_from_}, 0,
                   [self](std::optional<Entry> entry, bool) {
                     if (entry) {
                       self->deliver_entry(std::move(*entry), nullptr);
                       return;
                     }
                     self->degrade_or_resolution_error();
                   });
      return;
    }
    degrade_or_resolution_error();
  }

  void degrade_or_resolution_error() {
    ++proxy_->stats_.upstream_errors;
    if (stale_) {
      if (auto degraded = proxy_->serve_stale(proxy_->shard_for(host_), host_,
                                              full_metadata_)) {
        settle(std::move(*degraded));
        return;
      }
    }
    settle(net::make_response(504, "name resolution unavailable"));
  }

  void all_locations_failed(bool transport_failure) {
    if (transport_failure) {
      // At least one race failed at the transport layer (vs content that
      // merely failed verification): degrade to the expired copy if we
      // hold one rather than surfacing the error.
      ++proxy_->stats_.upstream_errors;
      if (stale_) {
        if (auto degraded = proxy_->serve_stale(proxy_->shard_for(host_),
                                                host_, full_metadata_)) {
          settle(std::move(*degraded));
          return;
        }
      }
    }
    settle(net::make_response(502, "no location provided authentic content"));
  }

  void legacy_forward() {
    ++proxy_->stats_.legacy_forwards;
    const auto address = proxy_->dns_ != nullptr
                             ? proxy_->dns_->resolve_with_wildcards(host_)
                             : std::optional<std::string>{};
    if (!address) {
      settle(net::make_response(502, "legacy host did not resolve"));
      return;
    }
    net::HttpRequest forward = request_;
    const auto uri = net::parse_uri(request_.target);
    forward.target = uri ? uri->target() : "/";
    forward.headers.set("Host", host_);
    forward.headers.set("Via", proxy_->self_);
    auto self = shared_from_this();
    proxy_->net_->send_async(proxy_->self_, *address, forward, exec_,
                             [self](net::HttpResponse response) {
                               response.headers.set("Via", self->proxy_->self_);
                               self->settle(std::move(response));
                             });
  }

  /// The one upstream fetch primitive: a streaming GET of `host_` raced
  /// across `sources` by the proxy's MultiSourceFetcher (one source is a
  /// race with no hedge; hops > 0 marks a sibling fetch and rides along as
  /// X-IdICN-Hops). Chunks accumulate in a Transit that concurrent requests
  /// join mid-flight while the digest is computed incrementally — the body
  /// is never reassembled into one contiguous buffer. When the winner's
  /// bytes fail verification or its body dies after the head, the race
  /// runs again over the sources not yet proven bad, so a failed race never
  /// makes a MISS less available. `k` gets the verified entry, or nullopt
  /// plus whether any race failed at the transport layer (unreachable,
  /// 5xx) as opposed to a clean negative or a verification failure.
  void fetch_object(std::vector<net::Address> sources, std::size_t hops,
                    FetchDone k, bool transport_failure = false) {
    if (halt_if_cancelled()) return;
    net::HttpRequest request;
    request.method = "GET";
    request.target = "/";
    request.headers.set("Host", host_);
    request.headers.set(kWantMetadataHeader, "1");  // this proxy verifies
    // A sibling fetch carries its forwarding depth so the receiving proxy
    // can enforce Options::sibling_hop_limit (loop safety).
    if (hops > 0) request.headers.set(kHopsHeader, std::to_string(hops));

    auto sink = std::make_shared<FetchSink>(
        [proxy = proxy_, host = host_](
            const std::shared_ptr<detail::Transit>& transit) {
          CacheShard& shard = proxy->shard_for(host);
          const core::sync::MutexLock lock(shard.mutex);
          shard.transit[host] = transit;
        },
        halt_flag_);
    auto self = shared_from_this();
    // Built before the call: `sources` is moved into the fetcher below.
    runtime::MultiSourceFetcher::FetchCallback done =
        [self, sink, sources, hops, k = std::move(k), transport_failure](
            net::HttpResponse head,
            const runtime::MultiSourceFetcher::Result& result) mutable {
          transport_failure = transport_failure || head.status >= 500;
          std::optional<Entry> entry =
              self->finish_fetch(*sink, result.source, hops, std::move(head));
          if (entry) {
            k(std::move(entry), false);
            return;
          }
          if (self->halt_if_cancelled()) return;
          // A transit exists only once a winner's 2xx head reached the
          // sink: that source is proven bad, the rest are untried or lost
          // the race to it. Without one, the fetcher already tried them all.
          if (sink->transit() != nullptr) {
            std::erase(sources, result.source);
            if (!sources.empty()) {
              self->fetch_object(std::move(sources), hops, std::move(k),
                                 transport_failure);
              return;
            }
          }
          k(std::nullopt, transport_failure);
        };
    proxy_->fetcher_->fetch_from_best(proxy_->self_, std::move(sources),
                                      std::move(request), sink, exec_,
                                      std::move(done));
  }

  /// Settle one race: retire the transit this fetch published and return
  /// the verified entry (nullopt on an error head, a mid-body death or a
  /// verification failure).
  std::optional<Entry> finish_fetch(FetchSink& sink,
                                    const net::Address& source,
                                    std::size_t hops, net::HttpResponse head) {
    CacheShard& shard = proxy_->shard_for(host_);
    // Retire the transit from the shard map (if this fetch published one
    // and it was not replaced by a competing fetch) and resolve its end
    // state. `failed` is the fail-closed switch: joined readers abort,
    // their connections close mid-body, nobody receives a
    // cleanly-terminated copy.
    const auto retire = [&](bool failed) {
      const std::shared_ptr<detail::Transit>& transit = sink.transit();
      if (transit == nullptr) return;
      {
        const core::sync::MutexLock lock(transit->mutex);
        transit->failed = failed;
        transit->complete = !failed;
      }
      const core::sync::MutexLock lock(shard.mutex);
      const auto it = shard.transit.find(host_);
      if (it != shard.transit.end() && it->second == transit) {
        shard.transit.erase(it);
      }
    };

    if (!head.ok()) {
      // Either every source answered non-2xx, or the transport synthesized
      // a failure — possibly *after* body delivery began (mid-body death).
      retire(/*failed=*/true);
      return std::nullopt;
    }
    const std::shared_ptr<detail::Transit>& transit = sink.transit();
    if (transit == nullptr) return std::nullopt;  // head refused: no body came
    if (hops == 0) {
      // Sibling transfers stay inside the cache tier — only true upstream
      // (origin/mirror) fetches count toward origin byte load.
      proxy_->stats_.bytes_from_origin += sink.bytes();
      const core::sync::MutexLock lock(shard.mutex);
      shard.perf.bump(&core::PerfCounters::proxy_bytes_from_origin,
                      sink.bytes());
    }

    Entry entry;
    entry.content_type =
        head.headers.get("Content-Type").value_or("text/plain");
    entry.etag = head.headers.get("ETag").value_or("");
    entry.fetched_from = source;  // where a revalidation should go back to
    entry.stored_at_ms = proxy_->net_->now_ms();
    // Parsed once, when the head reached the sink. The final head must
    // still name the same object and digest that metadata describes.
    entry.metadata = transit->metadata;

    if (proxy_->options_.verify) {
      if (!entry.metadata || entry.metadata->name != *name_ ||
          !entry.metadata->names_same_object(head.headers) ||
          verify_content(*entry.metadata, sink.digest()) != VerifyResult::Ok) {
        ++proxy_->stats_.verification_failures;
        retire(/*failed=*/true);
        return std::nullopt;
      }
    }
    // The entry shares the transit's chunks — admission costs reference
    // bumps, not a body copy, and joiners keep streaming from the same
    // bytes the cache now holds.
    {
      const core::sync::MutexLock lock(transit->mutex);
      entry.body = transit->chunks;
    }
    retire(/*failed=*/false);
    return entry;
  }

  /// Admit a verified entry and answer the client. A cancelled request
  /// still admits — joined readers and future requests keep the bytes —
  /// but skips the serve (settle drops the response anyway).
  void deliver_entry(Entry entry, const char* cache_mark) {
    CacheShard& shard = proxy_->shard_for(host_);
    entry.host = host_;
    if (cancelled_) {
      {
        const core::sync::MutexLock lock(shard.mutex);
        (void)proxy_->cache_store(shard, entry);
      }
      settle(net::HttpResponse{});
      return;
    }
    net::HttpResponse response =
        proxy_->store_and_serve(shard, std::move(entry), full_metadata_);
    if (cache_mark != nullptr) response.headers.set("X-Cache", cache_mark);
    settle(std::move(response));
  }

  Proxy* proxy_;
  net::HttpRequest request_;
  net::Executor* exec_;  ///< null ⇒ every transport hop completes inline
  std::function<void(net::HttpResponse)> respond_;

  bool routed_ = false;  ///< a GET whose target names a host
  std::string host_;     ///< canonical for an idICN name, as spelled otherwise
  std::optional<SelfCertifyingName> name_;
  bool apply_range_ = false;
  bool peer_query_ = false;
  bool full_metadata_ = false;
  std::size_t hops_ = 0;
  bool sibling_query_ = false;
  bool cache_only_ = false;

  bool stale_ = false;  ///< an expired-but-verified copy is in the cache
  std::string stale_etag_;
  net::Address stale_fetched_from_;
  std::vector<std::string> stale_mirrors_;  ///< metalink mirrors of the stale copy

  std::size_t peer_index_ = 0;
  std::vector<net::Address> holders_;
  std::size_t holder_index_ = 0;
  std::size_t holders_tried_ = 0;
  net::Address resolver_;
  int resolver_hop_ = 0;
  bool resolve_failed_ = false;
  bool from_row_ = false;  ///< locations_ came from a cached resolution row
  /// The dropped row's locations, and whether fetching from them failed at
  /// the transport layer.
  std::vector<std::string> failed_row_;
  bool row_transport_failure_ = false;
  std::uint64_t lifetime_s_ = 0;  ///< the resolving answer's max-age so far
  std::vector<std::string> locations_;

  bool settled_ = false;
  bool cancelled_ = false;
  /// Shared with in-flight FetchSinks: flipped by abort() so a pre-head
  /// transfer refuses its body (see FetchSink's cancellation boundary).
  std::shared_ptr<bool> halt_flag_ = std::make_shared<bool>(false);
};

net::HttpResponse Proxy::handle_http(const net::HttpRequest& request,
                                     const net::Address& from) {
  // Null executor: every transport hop falls back to its synchronous path
  // inline, so the machine settles before handle_http_async returns.
  net::HttpResponse response = net::make_response(500, "proxy did not settle");
  handle_http_async(request, from, nullptr,
                    [&response](net::HttpResponse settled) {
                      response = std::move(settled);
                    });
  // In-process callers read every header field, so a prebuilt HIT head is
  // parsed back into the header map here, off the socket serving path.
  response.expand_head();
  return response;
}

IDICN_HOT_PATH std::optional<net::HttpResponse> Proxy::serve_fresh_hit(
    std::string_view host, bool full_metadata) {
  CacheShard& shard = shard_for(host);
  net::HttpResponse response;
  {
    const core::sync::MutexLock lock(shard.mutex);
    const cache::ObjectId id = shard.find(host);
    if (id == cache::FlatIndex::kAbsent) return std::nullopt;
    Entry& entry = *shard.entries[id];
    if (net_->now_ms() - entry.stored_at_ms > options_.freshness_ms) {
      return std::nullopt;  // stale: revalidation is upstream I/O
    }
    core::Chunk& head = entry.hit_heads[full_metadata ? 1 : 0];
    if (head.empty()) {
      // The general path's own HIT response, as FetchOp::settle would send
      // it, serialized once: the prebuilt head cannot drift from it.
      net::HttpResponse general = entry_response(entry, "HIT", full_metadata);
      if (!options_.pop_name.empty()) {
        general.headers.set(kPopHeader, options_.pop_name);
      }
      head = core::Chunk::from_string(general.serialize_head());
    }
    ++stats_.hits;
    stats_.bytes_served += entry.body.size();
    shard.perf.bump(&core::PerfCounters::proxy_bytes_served, entry.body.size());
    (void)shard.lru.lookup(id);
    response.head = head;
    response.stream_body = entry.body;
  }
  // The wire head has its own copy; this one is for in-process observers.
  response.headers.add("X-Cache", "HIT");
  return response;
}

std::optional<Proxy::Route> Proxy::route_of(const net::HttpRequest& request) {
  Route route;
  const auto uri = net::parse_uri(request.target);
  if (uri && !uri->host.empty()) {
    route.host = uri->host;  // absolute-form proxy request
  } else if (const auto host_header = request.headers.get_view("Host")) {
    route.host = *host_header;  // transparent / origin-form fallback
  } else {
    return std::nullopt;
  }
  route.name = SelfCertifyingName::parse_host(route.host);
  if (route.name) route.host = route.name->host();
  return route;
}

std::shared_ptr<net::AsyncOp> Proxy::handle_http_async(
    const net::HttpRequest& request, const net::Address& /*from*/,
    net::Executor* exec, std::function<void(net::HttpResponse)> respond) {
  std::optional<Route> route;
  if (request.method == "GET") {
    // Step 7 without the machine: a fresh HIT is looked up as the request
    // spells its host, and parse_uri/parse_host run only when that
    // misses. A Range request rewrites the head (206/416), so it is left
    // to FetchOp::settle.
    const bool hit_eligible = !request.headers.contains("Range");
    const bool full_metadata = request.headers.contains(kIcpQueryHeader) ||
                               request.headers.contains(kWantMetadataHeader);
    const auto spelled = hit_eligible ? spelled_host(request) : std::nullopt;
    if (spelled) {
      if (auto hit = serve_fresh_hit(*spelled, full_metadata)) {
        respond(std::move(*hit));
        return nullptr;
      }
    }
    // Canonicalized once: a MISS hands this to the machine, which does not
    // parse the target again.
    route = route_of(request);
    if (hit_eligible && route && route->name && (!spelled || *spelled != route->host)) {
      if (auto hit = serve_fresh_hit(route->host, full_metadata)) {
        respond(std::move(*hit));
        return nullptr;
      }
    }
  }
  auto op = std::make_shared<FetchOp>(this, request, std::move(route), exec,
                                      std::move(respond));
  op->dispatch();
  return op->settled() ? nullptr : op;
}

}  // namespace idicn::idicn
