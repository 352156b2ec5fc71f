// Reverse proxy (§6, steps 4–6 and P1–P2).
//
// Deployed by the content provider in front of the origin. It
//   * publishes new content: computes the digest, signs (name ‖ digest)
//     with the publisher's hash-based key, caches the metadata, and
//     registers the name with the NRS (and, through it, DNS);
//   * serves content requests by name, attaching the Metalink-style
//     metadata headers; on a local miss it fetches from the origin
//     (step 5) and caches the result.
//
// Threading: handle_http / handle_http_async are safe under concurrent
// runtime::ServerGroup workers. One mutex guards the signed-entry map AND
// the MerkleSigner — sign() consumes one-time keys, so signing must be
// serialized — but is never held across network I/O: a miss fetches from
// the origin unlocked (via Transport::send_async, parking the request
// instead of blocking the worker's event loop), then re-checks under the
// lock (a sibling worker may have admitted the label meanwhile, in which
// case the extra fetch is discarded). The hit / fetch counters are relaxed
// atomics, sampleable from any thread.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/buffer.hpp"
#include "core/sync.hpp"
#include "crypto/lamport.hpp"
#include "idicn/metalink.hpp"
#include "idicn/name.hpp"
#include "net/sim_net.hpp"
#include "net/transport.hpp"
#include "runtime/multi_source_fetcher.hpp"

namespace idicn::idicn {

class ReverseProxy : public net::SimHost {
public:
  /// `signer` is the publisher's long-lived key (kept at the reverse proxy,
  /// which generates signatures per the paper). Non-owning pointers must
  /// outlive the proxy.
  ReverseProxy(net::Transport* net, net::Address self, net::Address origin,
               net::Address nrs, crypto::MerkleSigner* signer);

  /// The publisher id (P) this proxy publishes under (computed once at
  /// construction — the signer's Merkle root is immutable).
  [[nodiscard]] const std::string& publisher_id() const noexcept {
    return publisher_id_;
  }

  /// Publish content already held at the origin under `label` (step P1):
  /// fetch it, sign it, register the name (step P2). Returns the full
  /// self-certifying name, or std::nullopt when the origin lacks the label
  /// or registration is refused.
  std::optional<SelfCertifyingName> publish(const std::string& label);

  [[nodiscard]] std::uint64_t cache_hits() const noexcept {
    return cache_hits_.value();
  }
  [[nodiscard]] std::uint64_t origin_fetches() const noexcept {
    return origin_fetches_.value();
  }

  /// Advertise an additional replica in every signed object's metalink
  /// metadata (Link rel=duplicate): downstream proxies feed these into
  /// their multi-source fetch as hedge/range candidates. Setup-time only —
  /// call before serving starts; already-signed entries are unaffected.
  void add_mirror(net::Address mirror) {
    mirrors_.push_back(std::move(mirror));
  }

  /// Register a replica of the origin backend: miss-path admissions fetch
  /// through the congestion-aware MultiSourceFetcher across the origin and
  /// every replica (RTT-ranked, hedged, breaker-gated). Setup-time only.
  void add_origin_replica(net::Address replica) {
    origin_replicas_.push_back(std::move(replica));
  }

  /// The miss-path fetch engine (stats/snapshots for benches and tests).
  [[nodiscard]] runtime::MultiSourceFetcher& origin_fetcher() noexcept {
    return origin_fetcher_;
  }

  /// HTTP face: GET with Host: <L>.<P>.idicn.org (any path).
  net::HttpResponse handle_http(const net::HttpRequest& request,
                                const net::Address& from) override;

  /// Loop-native face: hits answer inline; a miss parks the request on the
  /// origin fetch via `exec` and resumes through `deliver`. abort() on the
  /// returned handle suppresses the delivery (the fetched content is still
  /// admitted — future requests keep the signed entry).
  std::shared_ptr<net::AsyncOp> handle_http_async(
      const net::HttpRequest& request, const net::Address& from,
      net::Executor* exec,
      std::function<void(net::HttpResponse)> deliver) override;

private:
  /// Parked origin-fetch continuation (defined in reverse_proxy.cpp).
  class AdmitOp;
  struct Entry {
    /// Chunk-granular: responses reference these bytes (no copy per
    /// request), and a body that arrived from the origin in pieces is
    /// signed and stored without reassembly.
    core::ChunkedBody body;
    /// The signed 200 head (type, length, metadata with the proof, ETag),
    /// serialized once at admission and shared by every response — the
    /// entry keeps no decoded copy of the signature.
    core::Chunk head;
    crypto::Sha256Digest digest{};  ///< SHA-256 of `body`; the ETag's value
  };

  /// Sign (label, body), build its signed head and remember both; returns
  /// the name the entry is published under.
  SelfCertifyingName admit(const std::string& label, core::ChunkedBody body,
                           std::string_view content_type) IDICN_REQUIRES(mutex_);
  /// Build the 200 (or conditional 304) answer for a signed entry: the
  /// prebuilt head plus the body chunks; a Range request expands the head
  /// and rewrites it into a 206/416.
  [[nodiscard]] net::HttpResponse respond(const Entry& entry,
                                          const net::HttpRequest& request) const
      IDICN_REQUIRES(mutex_);

  /// Tail of a miss: the origin answered — re-check under the lock, admit
  /// if still missing (a sibling worker may have won the race), serve.
  net::HttpResponse finish_admission(const SelfCertifyingName& name,
                                     net::HttpResponse from_origin,
                                     const net::HttpRequest& request)
      IDICN_EXCLUDES(mutex_);

  net::Transport* net_;
  net::Address self_;
  net::Address origin_;
  net::Address nrs_;
  std::string publisher_id_;  ///< construction-time, immutable
  std::vector<net::Address> mirrors_;          ///< setup-time (add_mirror)
  std::vector<net::Address> origin_replicas_;  ///< setup-time
  runtime::MultiSourceFetcher origin_fetcher_;  ///< miss-path fetch engine
  /// Guards the entry map and the signer's one-time-key state; never held
  /// across net_->send().
  mutable core::sync::Mutex mutex_;
  crypto::MerkleSigner* signer_ IDICN_PT_GUARDED_BY(mutex_);
  std::map<std::string, Entry> entries_
      IDICN_GUARDED_BY(mutex_);  // label → signed content
  core::sync::RelaxedCounter cache_hits_;
  core::sync::RelaxedCounter origin_fetches_;
};

}  // namespace idicn::idicn
