#include "idicn/reverse_proxy.hpp"

#include "crypto/hex.hpp"
#include "idicn/nrs.hpp"
#include "net/uri.hpp"

namespace idicn::idicn {
namespace {

/// Buffers a streamed multi-source fetch back into one HttpResponse for
/// the admission path (signing needs the complete body anyway). The head
/// the sink sees is already the synthesized 200 when the body arrived as
/// joined range legs.
class BufferSink final : public net::ChunkSink {
public:
  bool on_head(const net::HttpResponse&) override { return true; }
  bool on_chunk(core::Chunk chunk) override {
    body_.append(std::move(chunk));
    return true;
  }

  /// The buffered body attached to the fetch's final head.
  [[nodiscard]] net::HttpResponse assemble(net::HttpResponse head) {
    head.body.clear();
    head.stream_body = std::move(body_);
    return head;
  }

private:
  core::ChunkedBody body_;
};

/// The ETag of a signed entry: its quoted hex digest.
std::string etag_of(const crypto::Sha256Digest& digest) {
  return "\"" + crypto::hex_encode(std::span<const std::uint8_t>(digest)) + "\"";
}

}  // namespace

ReverseProxy::ReverseProxy(net::Transport* net, net::Address self, net::Address origin,
                           net::Address nrs, crypto::MerkleSigner* signer)
    : net_(net),
      self_(std::move(self)),
      origin_(std::move(origin)),
      nrs_(std::move(nrs)),
      publisher_id_(SelfCertifyingName::publisher_id(signer->root())),
      origin_fetcher_(net),
      signer_(signer) {}

SelfCertifyingName ReverseProxy::admit(const std::string& label, core::ChunkedBody body,
                                       std::string_view content_type) {
  ContentMetadata metadata;
  metadata.name = SelfCertifyingName(label, publisher_id_);
  crypto::Sha256 hasher;
  for (const core::Chunk& chunk : body.chunks()) hasher.update(chunk.view());
  metadata.digest = hasher.finish();
  metadata.publisher_key = signer_->root();
  metadata.signature = signer_->sign(metadata.signing_input());
  metadata.mirrors = {self_};
  // Advertised replicas ride in the metalink metadata so downstream
  // proxies can hedge/range-split across them (DESIGN.md §13).
  for (const net::Address& mirror : mirrors_) {
    metadata.mirrors.push_back(mirror);
  }

  // Step 6's answer, serialized once: the content plus its verification
  // metadata. The ETag is the content digest, enabling cheap conditional
  // revalidation by downstream caches.
  net::HttpResponse response = net::make_stream_response(200, body, content_type);
  metadata.apply_to(response.headers);
  response.headers.set("ETag", etag_of(metadata.digest));

  Entry& entry = entries_[label];
  entry.body = std::move(body);
  entry.head = core::Chunk::from_string(response.serialize_head());
  entry.digest = metadata.digest;
  return std::move(metadata.name);
}

std::optional<SelfCertifyingName> ReverseProxy::publish(const std::string& label) {
  // A publish consumes two one-time signatures (content + registration);
  // refuse cleanly when the publisher's key is exhausted.
  {
    const core::sync::MutexLock lock(mutex_);
    if (signer_->remaining() < 2) return std::nullopt;
  }

  // Step P1: pull the authoritative bytes from the origin (no lock across
  // network I/O).
  net::HttpRequest fetch;
  fetch.method = "GET";
  fetch.target = "/content?label=" + label;
  net::HttpResponse from_origin = net_->send(self_, origin_, fetch);
  if (!from_origin.ok()) return std::nullopt;
  ++origin_fetches_;

  std::optional<SelfCertifyingName> name;
  crypto::MerkleSignature registration;
  std::string key_hex;
  {
    const core::sync::MutexLock lock(mutex_);
    // Re-check: a concurrent publish/admission may have spent the budget
    // while the fetch was in flight.
    if (signer_->remaining() < 2) return std::nullopt;
    name = admit(label, from_origin.take_body_chunks(),
                 from_origin.headers.get_view("Content-Type").value_or("text/plain"));
    // Step P2 signature: the NRS checks nothing but cryptographic
    // correctness.
    registration = signer_->sign(
        NameResolutionSystem::registration_signing_input(*name, self_));
    key_hex = crypto::hex_encode(std::span<const std::uint8_t>(signer_->root()));
  }

  net::HttpRequest reg;
  reg.method = "POST";
  reg.target = "/register";
  reg.body = "name=" + name->host() + "&location=" + self_ +
             "&publisher-key=" + key_hex +
             "&signature=" + registration.encode();
  reg.headers.set("Content-Length", std::to_string(reg.body.size()));
  const net::HttpResponse ack = net_->send(self_, nrs_, reg);
  if (!ack.ok()) return std::nullopt;
  return name;
}

net::HttpResponse ReverseProxy::respond(const Entry& entry,
                                        const net::HttpRequest& request) const {
  if (const auto condition = request.headers.get_view("If-None-Match")) {
    std::string etag = etag_of(entry.digest);
    if (*condition == etag) {
      net::HttpResponse not_modified = net::make_response(304, "");
      not_modified.headers.set("ETag", std::move(etag));
      return not_modified;
    }
  }
  net::HttpResponse response;
  response.head = entry.head;
  response.stream_body = entry.body;
  // RFC 7233 ranged reads rewrite the signed head, so a 206 still carries
  // the verification material. This is what lets a multi-source fetcher
  // split one object across replicas: the probe's 206 exposes the total
  // size via Content-Range, and an empty object's 416 carries "bytes */0".
  // Pre-range clients are unaffected (no Range header ⇒ plain 200).
  if (const auto range = request.headers.get_view("Range")) {
    net::apply_byte_range(*range, response);
  }
  return response;
}

net::HttpResponse ReverseProxy::finish_admission(const SelfCertifyingName& name,
                                                 net::HttpResponse from_origin,
                                                 const net::HttpRequest& request) {
  if (!from_origin.ok()) return net::make_response(404, "no such content");
  ++origin_fetches_;

  const core::sync::MutexLock lock(mutex_);
  auto it = entries_.find(name.label());
  if (it == entries_.end()) {
    // Still missing — we are the admitting worker.
    if (signer_->remaining() == 0) {
      return net::make_response(503, "publisher signing key exhausted");
    }
    admit(name.label(), from_origin.take_body_chunks(),
          from_origin.headers.get_view("Content-Type").value_or("text/plain"));
    it = entries_.find(name.label());
  }
  // (A sibling admitted it while we fetched: serve theirs, drop our copy.)
  return respond(it->second, request);
}

// The parked half of a miss: holds the request and the client's deliver
// callback while the origin fetch rides the executor. abort() (client
// disconnected) keeps the admission — the signed entry serves future
// requests — and only drops the delivery.
class ReverseProxy::AdmitOp final : public net::AsyncOp,
                                    public std::enable_shared_from_this<AdmitOp> {
public:
  AdmitOp(ReverseProxy* proxy, SelfCertifyingName name,
          net::HttpRequest request,
          std::function<void(net::HttpResponse)> deliver)
      : proxy_(proxy),
        name_(std::move(name)),
        request_(std::move(request)),
        deliver_(std::move(deliver)) {}

  void abort() override { cancelled_ = true; }
  [[nodiscard]] bool settled() const noexcept { return settled_; }

  void weigh_origin_answer(net::HttpResponse from_origin) {
    settled_ = true;
    auto deliver = std::move(deliver_);
    deliver_ = nullptr;
    net::HttpResponse response =
        proxy_->finish_admission(name_, std::move(from_origin), request_);
    if (!cancelled_ && deliver != nullptr) deliver(std::move(response));
  }

private:
  ReverseProxy* proxy_;
  SelfCertifyingName name_;
  net::HttpRequest request_;
  std::function<void(net::HttpResponse)> deliver_;
  bool settled_ = false;
  bool cancelled_ = false;
};

net::HttpResponse ReverseProxy::handle_http(const net::HttpRequest& request,
                                            const net::Address& from) {
  // Null executor: the origin fetch falls back to its synchronous path
  // inline, so the delivery fires before handle_http_async returns.
  net::HttpResponse response =
      net::make_response(500, "reverse proxy did not settle");
  handle_http_async(request, from, nullptr,
                    [&response](net::HttpResponse settled) {
                      response = std::move(settled);
                    });
  // In-process callers read every header field, so the prebuilt signed
  // head is parsed back into the header map here, off the socket path.
  response.expand_head();
  return response;
}

std::shared_ptr<net::AsyncOp> ReverseProxy::handle_http_async(
    const net::HttpRequest& request, const net::Address& /*from*/,
    net::Executor* exec, std::function<void(net::HttpResponse)> deliver) {
  if (request.method != "GET") {
    deliver(net::make_response(404, "no such endpoint"));
    return nullptr;
  }
  const auto host = request.headers.get_view("Host");
  if (!host) {
    deliver(net::make_response(400, "missing Host"));
    return nullptr;
  }
  const auto name = SelfCertifyingName::parse_host(*host);
  if (!name) {
    deliver(net::make_response(400, "not an idicn name"));
    return nullptr;
  }
  if (name->publisher() != publisher_id_) {
    deliver(net::make_response(403, "wrong publisher"));
    return nullptr;
  }

  // Fast path: already signed and cached. The answer is built under the
  // lock but delivered after it drops — the delivery drives the client
  // socket.
  std::optional<net::HttpResponse> immediate;
  {
    const core::sync::MutexLock lock(mutex_);
    const auto it = entries_.find(name->label());
    if (it != entries_.end()) {
      ++cache_hits_;
      immediate = respond(it->second, request);
    } else if (signer_->remaining() == 0) {
      // On-demand admission needs a fresh one-time signature.
      immediate = net::make_response(503, "publisher signing key exhausted");
    }
  }
  if (immediate) {
    deliver(std::move(*immediate));
    return nullptr;
  }

  // Step 5: route the request to the origin backend — with the lock
  // dropped and the request parked, so this worker keeps serving while the
  // fetch is in flight. The fetch goes through the congestion-aware
  // multi-source engine: with replicas registered it RTT-ranks them,
  // hedges past the straggler threshold and fails over on faults; with
  // just the one origin it degrades to a breaker-gated single fetch.
  net::HttpRequest fetch;
  fetch.method = "GET";
  fetch.target = "/content?label=" + name->label();
  std::vector<net::Address> sources;
  sources.reserve(1 + origin_replicas_.size());
  sources.push_back(origin_);
  for (const net::Address& replica : origin_replicas_) {
    sources.push_back(replica);
  }
  auto sink = std::make_shared<BufferSink>();
  auto op = std::make_shared<AdmitOp>(this, *name, request, std::move(deliver));
  origin_fetcher_.fetch_from_best(
      self_, std::move(sources), std::move(fetch), sink, exec,
      [op, sink](net::HttpResponse head,
                 const runtime::MultiSourceFetcher::Result&) {
        op->weigh_origin_answer(sink->assemble(std::move(head)));
      });
  return op->settled() ? nullptr : op;
}

}  // namespace idicn::idicn
