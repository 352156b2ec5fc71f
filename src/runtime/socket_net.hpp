// Real-socket net::Transport.
//
// SocketNet maps logical idICN addresses ("proxy0", "nrs.idicn.org", …) to
// TCP endpoints (always 127.0.0.1:<port> in this prototype) and carries
// every Transport send over loop-native AsyncHttpClients. Existing hosts
// built against net::Transport — Proxy, ReverseProxy, Client, the NRS —
// run over it unmodified.
//
// One retry envelope, one connection pool. send_async/send_streaming_async
// run each attempt on the caller's executor; the synchronous send() and
// send_streaming() run the very same envelope on an EventLoop this
// SocketNet owns (started on the first synchronous send, stopped and
// joined by the destructor) and block the caller until it completes.
// Connections are pooled per (destination, executor): concurrent sends to
// one destination get independent connections instead of serializing, and
// pooled connections the peer closed while idle are detected on borrow (a
// zero-byte MSG_PEEK probe) and discarded rather than surfacing a spurious
// failure or replaying a stale buffered response.
//
// Failure semantics match SimNet: an unknown or unreachable destination
// yields a synthesized 504 Gateway Timeout, never an exception. On top of
// that sits the fault-tolerance layer (DESIGN.md §"Failure model &
// degradation"):
//   * transport failures are retried with RetryPolicy's full-jitter capped
//     exponential backoff (a timer-wheel reschedule, never a sleep),
//     bounded per send by retry.max_attempts and the overall deadline
//     (each try's connect/IO timeouts are the per-try deadline), and
//     globally by a RetryBudget so retries cannot amplify overload;
//   * a buffered send answered 503 + Retry-After is replayed no earlier
//     than the hint, within the same attempt, deadline and budget bounds;
//   * every destination gets a CircuitBreaker — after
//     `failure_threshold` consecutive transport failures the breaker opens
//     and sends fast-fail with a synthesized 503 + Retry-After instead of
//     burning the connect timeout, then half-opens and probes its way back.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/sync.hpp"
#include "net/transport.hpp"
#include "runtime/async_http_client.hpp"
#include "runtime/event_loop.hpp"
#include "runtime/retry.hpp"

namespace idicn::runtime {

class ServerGroup;

/// Parse a delay-seconds Retry-After value (RFC 7231 §7.1.3, the only form
/// this runtime emits) to milliseconds; nullopt for HTTP-date or garbage —
/// callers fall back to the backoff curve. Values over a day are treated
/// as a refusal, not a hint.
[[nodiscard]] std::optional<std::uint64_t> parse_retry_after_ms(
    std::string_view value);

class SocketNet final : public net::Transport {
public:
  struct Options {
    AsyncHttpClient::Options client;
    /// Fast-fail via per-destination circuit breakers.
    bool enable_breakers = true;
    /// Backoff curve and per-send bounds; max_attempts = 1 means no retries.
    RetryPolicy::Options retry;
    RetryBudget::Options budget;
    CircuitBreaker::Options breaker;
  };

  SocketNet();
  explicit SocketNet(Options options);
  /// Stops and joins the synchronous-send loop (if it ever started). No
  /// synchronous send may still be in flight.
  ~SocketNet() override;

  SocketNet(const SocketNet&) = delete;
  SocketNet& operator=(const SocketNet&) = delete;

  /// Map `address` to host:port. Re-registering replaces the endpoint;
  /// connections pooled for the old port are dropped when next borrowed.
  void register_endpoint(const net::Address& address, std::string host,
                         std::uint16_t port);
  /// Convenience: register a started ServerGroup (or HostServer) under its
  /// own address.
  void register_endpoint(const ServerGroup& server);
  /// Forget `address`; subsequent sends to it synthesize 504. Also forgets
  /// the destination's breaker state.
  void unregister_endpoint(const net::Address& address);

  /// Add `address` to `group` for multicast fan-out (idempotent).
  void join_group(const net::Address& address, const std::string& group);

  // net::Transport
  /// Blocking send for off-loop callers: runs send_async on the owned loop
  /// and waits for its completion. Never call from a loop thread.
  net::HttpResponse send(const net::Address& from, const net::Address& to,
                         const net::HttpRequest& request) override;
  /// Blocking streaming send: body chunks flow to `sink` as the wire
  /// produces them (the callbacks run on the owned loop thread while the
  /// caller blocks). Same failure envelope as send() with one restriction:
  /// retries stop the moment the sink has seen anything — a replay would
  /// deliver the prefix twice. A mid-body failure therefore surfaces as a
  /// 504 *after* the sink consumed a partial body; callers must treat an
  /// error head as "discard what you streamed". The sink's callbacks must
  /// not issue synchronous sends on this transport.
  net::HttpResponse send_streaming(const net::Address& from,
                                   const net::Address& to,
                                   const net::HttpRequest& request,
                                   net::ChunkSink& sink) override;
  std::vector<net::HttpResponse> multicast(const net::Address& from,
                                           const std::string& group,
                                           const net::HttpRequest& request) override;
  [[nodiscard]] std::uint64_t now_ms() const override;

  /// Loop-native sends — the one failure envelope: 504 synthesis, breaker
  /// fast-fail, budgeted full-jitter retries (a timer-wheel reschedule on
  /// `exec`), Retry-After replay of buffered 503s. Each attempt runs on
  /// `exec` via a pooled AsyncHttpClient. `done` fires exactly once on the
  /// loop thread (inline for the synthesized fast failures). A null `exec`
  /// selects the blocking send()/send_streaming() inline; never do that on
  /// a loop thread.
  void send_async(const net::Address& from, const net::Address& to,
                  const net::HttpRequest& request, net::Executor* exec,
                  net::SendCallback done) override;
  void send_streaming_async(const net::Address& from, const net::Address& to,
                            const net::HttpRequest& request,
                            std::shared_ptr<net::ChunkSink> sink,
                            net::Executor* exec,
                            net::SendCallback done) override;

  struct Stats {
    std::uint64_t requests_sent = 0;
    std::uint64_t send_failures = 0;  ///< unknown endpoint or socket error
    std::uint64_t connections_opened = 0;
    std::uint64_t retries = 0;             ///< backoff-delayed re-attempts
    std::uint64_t breaker_fast_fails = 0;  ///< 503s from an open breaker
    std::uint64_t stale_pool_drops = 0;    ///< dead pooled fds discarded
    /// Retries whose delay was stretched to a peer's Retry-After hint on a
    /// 503 (instead of the generic backoff curve).
    std::uint64_t retry_after_honored = 0;
  };
  [[nodiscard]] Stats stats() const IDICN_EXCLUDES(mutex_);

  /// Observer view of a destination's breaker (Closed when the destination
  /// has no breaker yet or breakers are disabled).
  [[nodiscard]] CircuitBreaker::State breaker_state(const net::Address& to) const
      IDICN_EXCLUDES(mutex_);

  /// One in-flight async send's retry envelope (defined in the .cpp;
  /// public only so the .cpp's helper sink can name it).
  struct AsyncSendState;

private:
  struct Endpoint {
    std::string host;
    std::uint16_t port = 0;
  };

  /// The destination's breaker, created on first use (shared_ptr so callers
  /// operate on it outside the map lock; CircuitBreaker is thread-safe).
  std::shared_ptr<CircuitBreaker> breaker_for(const net::Address& to)
      IDICN_EXCLUDES(mutex_);

  /// The synchronous sends' bridge: start the loop on first use, post
  /// `start` to it with a completion that wakes this thread, and block
  /// until that completion fires.
  net::HttpResponse run_blocking(
      std::function<void(net::Executor*, net::SendCallback)> start)
      IDICN_EXCLUDES(mutex_);

  /// Shared front half of send_async/send_streaming_async: the unknown-
  /// destination and breaker fast-fail gates, then the first attempt.
  void start_async_send(std::shared_ptr<AsyncSendState> state)
      IDICN_EXCLUDES(mutex_);
  /// One borrow → issue attempt on the state's executor.
  void async_attempt(std::shared_ptr<AsyncSendState> state)
      IDICN_EXCLUDES(mutex_);
  /// Attempt outcome: success completes, failure walks the retry ladder
  /// with timer-wheel backoff.
  void finish_async_attempt(std::shared_ptr<AsyncSendState> state,
                            std::optional<net::HttpResponse> head,
                            std::string error) IDICN_EXCLUDES(mutex_);

  /// A pooled client owned by `exec` (or a freshly dialed one); pooled
  /// clients whose connection went stale while idle are discarded here.
  /// nullptr when `to` is unknown. Ownership transfers to the caller.
  std::unique_ptr<AsyncHttpClient> borrow_async(const net::Address& to,
                                                net::Executor* exec)
      IDICN_EXCLUDES(mutex_);
  void give_back_async(const net::Address& to, net::Executor* exec,
                       std::unique_ptr<AsyncHttpClient> client)
      IDICN_EXCLUDES(mutex_);

  Options options_;
  RetryPolicy retry_policy_;
  RetryBudget retry_budget_;
  mutable core::sync::Mutex mutex_;
  std::map<net::Address, Endpoint> endpoints_ IDICN_GUARDED_BY(mutex_);
  /// Parked connections per (destination, owning executor): an
  /// AsyncHttpClient is confined to its loop thread, so pools never mix
  /// executors. A loop may still be unwinding the completion of a client
  /// it just parked, so only that loop removes it (borrow_async drops
  /// clients dialed to a port the destination no longer has); the rest die
  /// with the SocketNet.
  std::map<std::pair<net::Address, net::Executor*>,
           std::vector<std::unique_ptr<AsyncHttpClient>>>
      idle_ IDICN_GUARDED_BY(mutex_);
  std::map<std::string, std::vector<net::Address>> groups_ IDICN_GUARDED_BY(mutex_);
  std::map<net::Address, std::shared_ptr<CircuitBreaker>> breakers_
      IDICN_GUARDED_BY(mutex_);
  Stats stats_ IDICN_GUARDED_BY(mutex_);
  /// The synchronous sends' executor and its thread; created together on
  /// the first synchronous send, never reseated until the destructor.
  std::unique_ptr<EventLoop> sync_loop_ IDICN_GUARDED_BY(mutex_);
  core::sync::Thread sync_thread_ IDICN_GUARDED_BY(mutex_);
};

// Out of line: Options' default member initializers only become usable once
// SocketNet is a complete type.
inline SocketNet::SocketNet() : SocketNet(Options{}) {}

}  // namespace idicn::runtime
