#include "runtime/socket_net.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "runtime/server_group.hpp"

namespace idicn::runtime {
namespace {

/// Retry-After is expressed in whole seconds (RFC 7231 §7.1.3); round up so
/// a compliant client never retries into a still-open breaker.
std::string retry_after_seconds(std::uint64_t retry_after_ms) {
  return std::to_string((retry_after_ms + 999) / 1000);
}

}  // namespace

std::optional<std::uint64_t> parse_retry_after_ms(std::string_view value) {
  if (value.empty()) return std::nullopt;
  std::uint64_t seconds = 0;
  for (const char c : value) {
    if (c < '0' || c > '9') return std::nullopt;
    seconds = seconds * 10 + static_cast<std::uint64_t>(c - '0');
    if (seconds > 86'400) return std::nullopt;  // cap: a day is a refusal
  }
  return seconds * 1000;
}

SocketNet::SocketNet(Options options)
    : options_(options),
      retry_policy_(options.retry),
      retry_budget_(options.budget) {}

SocketNet::~SocketNet() {
  // No synchronous send is in flight by contract, so nothing races these.
  if (sync_loop_ == nullptr) return;
  sync_loop_->stop();
  sync_thread_.join();
}

void SocketNet::register_endpoint(const net::Address& address, std::string host,
                                  std::uint16_t port) {
  const core::sync::MutexLock lock(mutex_);
  Endpoint& endpoint = endpoints_[address];
  endpoint.host = std::move(host);
  endpoint.port = port;
}

void SocketNet::register_endpoint(const ServerGroup& server) {
  register_endpoint(server.address(), "127.0.0.1", server.port());
}

void SocketNet::unregister_endpoint(const net::Address& address) {
  const core::sync::MutexLock lock(mutex_);
  endpoints_.erase(address);
  breakers_.erase(address);
}

void SocketNet::join_group(const net::Address& address, const std::string& group) {
  const core::sync::MutexLock lock(mutex_);
  auto& members = groups_[group];
  if (std::find(members.begin(), members.end(), address) == members.end()) {
    members.push_back(address);
  }
}

std::shared_ptr<CircuitBreaker> SocketNet::breaker_for(const net::Address& to) {
  const core::sync::MutexLock lock(mutex_);
  auto& breaker = breakers_[to];
  if (breaker == nullptr) {
    breaker = std::make_shared<CircuitBreaker>(options_.breaker);
  }
  return breaker;
}

net::HttpResponse SocketNet::run_blocking(
    std::function<void(net::Executor*, net::SendCallback)> start) {
  EventLoop* loop = nullptr;
  {
    const core::sync::MutexLock lock(mutex_);
    if (sync_loop_ == nullptr) {
      sync_loop_ = std::make_unique<EventLoop>();
      sync_thread_ = core::sync::Thread([loop = sync_loop_.get()] { loop->run(); });
    } else if (sync_thread_.get_id() == std::this_thread::get_id()) {
      // A sink callback of a synchronous streaming send: waiting here would
      // wait on this very thread.
      ++stats_.requests_sent;
      ++stats_.send_failures;
      return net::make_response(504, "synchronous send from the transport loop");
    }
    loop = sync_loop_.get();
  }
  // Shared with the completion, which may still be unlocking the mutex
  // when this thread wakes and returns.
  struct Rendezvous {
    core::sync::Mutex mutex;
    core::sync::CondVar cv;
    std::optional<net::HttpResponse> response IDICN_GUARDED_BY(mutex);
  };
  auto rendezvous = std::make_shared<Rendezvous>();
  loop->post([loop, rendezvous, start = std::move(start)] {
    start(loop, [loop, rendezvous](net::HttpResponse response) {
      // Wake the caller only after this loop turn: the completion runs
      // inside the client that fired it, and the caller may drop pooled
      // clients (register_endpoint) the moment it wakes.
      loop->post([rendezvous, response = std::move(response)]() mutable {
        const core::sync::MutexLock lock(rendezvous->mutex);
        rendezvous->response = std::move(response);
        rendezvous->cv.notify_one();
      });
    });
  });
  const core::sync::MutexLock lock(rendezvous->mutex);
  while (!rendezvous->response) rendezvous->cv.wait(rendezvous->mutex);
  return std::move(*rendezvous->response);
}

net::HttpResponse SocketNet::send(const net::Address& from, const net::Address& to,
                                  const net::HttpRequest& request) {
  net::HttpResponse response = run_blocking(
      [this, from, to, request](net::Executor* exec, net::SendCallback done) {
        send_async(from, to, request, exec, std::move(done));
      });
  // The body was allocated on the loop thread, in its malloc arena. Callers
  // may keep it for good (a reverse proxy admits every object it
  // publishes), and long-lived bodies interleaved with the loop's transient
  // buffers fragment that arena: copy it into this thread's own memory.
  response.body = std::string(response.body);
  return response;
}

net::HttpResponse SocketNet::send_streaming(const net::Address& from,
                                            const net::Address& to,
                                            const net::HttpRequest& request,
                                            net::ChunkSink& sink) {
  // Non-owning: the caller's sink outlives the blocking call, and no sink
  // callback fires after the completion.
  std::shared_ptr<net::ChunkSink> borrowed(&sink, [](net::ChunkSink*) {});
  return run_blocking([this, from, to, request, borrowed](
                          net::Executor* exec, net::SendCallback done) {
    send_streaming_async(from, to, request, borrowed, exec, std::move(done));
  });
}

std::vector<net::HttpResponse> SocketNet::multicast(const net::Address& from,
                                                    const std::string& group,
                                                    const net::HttpRequest& request) {
  std::vector<net::Address> members;
  {
    const core::sync::MutexLock lock(mutex_);
    const auto it = groups_.find(group);
    if (it != groups_.end()) members = it->second;
  }
  std::vector<net::HttpResponse> responses;
  for (const auto& member : members) {
    if (member == from) continue;
    responses.push_back(send(from, member, request));
  }
  return responses;
}

std::uint64_t SocketNet::now_ms() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// --- loop-native async send path -------------------------------------------

/// Everything one logical async send carries across attempts. The state is
/// shared between the issued op's completion, the tracking sink, and the
/// backoff timer; it dies when the last of them releases it (always after
/// `done` ran).
struct SocketNet::AsyncSendState {
  SocketNet* net = nullptr;
  net::Address to;
  net::HttpRequest request;
  std::shared_ptr<net::ChunkSink> sink;  ///< null ⇒ buffered send
  net::Executor* exec = nullptr;
  net::SendCallback done;
  std::shared_ptr<CircuitBreaker> breaker;
  std::uint64_t started_ms = 0;
  int max_attempts = 1;
  int attempt = 1;
  bool delivered = false;  ///< the caller's sink saw a head — no more retries
  /// The sink refused the answer without blaming the destination for it.
  bool refused_blameless = false;
  std::unique_ptr<AsyncHttpClient> client;  ///< held across one attempt
};

namespace {

/// Flips the state's delivered flag on the head so the retry ladder stops
/// replaying into the caller's sink, and notes whether a refusal blames
/// the destination.
class AsyncTrackingSink final : public net::ChunkSink {
public:
  explicit AsyncTrackingSink(std::shared_ptr<SocketNet::AsyncSendState> state)
      : state_(std::move(state)) {}

  bool on_head(const net::HttpResponse& head) override {
    state_->delivered = true;
    return note(state_->sink->on_head(head));
  }
  bool on_chunk(core::Chunk chunk) override {
    return note(state_->sink->on_chunk(std::move(chunk)));
  }

private:
  bool note(bool accepted) {
    if (!accepted) {
      state_->refused_blameless = !state_->sink->refusal_blames_source();
    }
    return accepted;
  }

  std::shared_ptr<SocketNet::AsyncSendState> state_;
};

/// Destroy a client that will not be pooled. Completions run inside the
/// client that fires them and it touches itself after they return, so it
/// dies on a later turn of its loop, never from its own completion.
void retire(net::Executor& exec, std::unique_ptr<AsyncHttpClient> client) {
  if (client == nullptr) return;
  std::shared_ptr<AsyncHttpClient> spent(std::move(client));
  exec.schedule(0, [spent] {});
}

}  // namespace

void SocketNet::send_async(const net::Address& from, const net::Address& to,
                           const net::HttpRequest& request, net::Executor* exec,
                           net::SendCallback done) {
  (void)from;
  if (exec == nullptr) {
    // idicn-analysis: allow(*): sync fallback used only off-loop (no executor supplied)
    done(send(from, to, request));
    return;
  }
  auto state = std::make_shared<AsyncSendState>();
  state->net = this;
  state->to = to;
  state->request = request;
  state->exec = exec;
  state->done = std::move(done);
  start_async_send(std::move(state));
}

void SocketNet::send_streaming_async(const net::Address& from,
                                     const net::Address& to,
                                     const net::HttpRequest& request,
                                     std::shared_ptr<net::ChunkSink> sink,
                                     net::Executor* exec,
                                     net::SendCallback done) {
  (void)from;
  if (exec == nullptr) {
    // idicn-analysis: allow(*): sync fallback used only off-loop (no executor supplied)
    done(send_streaming(from, to, request, *sink));
    return;
  }
  auto state = std::make_shared<AsyncSendState>();
  state->net = this;
  state->to = to;
  state->request = request;
  state->sink = std::move(sink);
  state->exec = exec;
  state->done = std::move(done);
  start_async_send(std::move(state));
}

void SocketNet::start_async_send(std::shared_ptr<AsyncSendState> state) {
  bool unknown = false;
  {
    const core::sync::MutexLock lock(mutex_);
    ++stats_.requests_sent;
    // Unknown destinations are a wiring error, not upstream ill health:
    // fail immediately, no breaker accounting, no retries.
    if (endpoints_.find(state->to) == endpoints_.end()) {
      ++stats_.send_failures;
      unknown = true;
    }
  }
  if (unknown) {
    state->done(net::make_response(504, "unknown destination: " + state->to));
    return;
  }

  if (options_.enable_breakers) {
    state->breaker = breaker_for(state->to);
    if (!state->breaker->allow(now_ms())) {
      const std::uint64_t wait_ms = state->breaker->retry_after_ms(now_ms());
      {
        const core::sync::MutexLock lock(mutex_);
        ++stats_.breaker_fast_fails;
        ++stats_.send_failures;
      }
      auto response = net::make_response(
          503, "circuit open for " + state->to + "; fast-fail");
      response.headers.set("Retry-After", retry_after_seconds(wait_ms));
      state->done(std::move(response));
      return;
    }
  }

  retry_budget_.on_attempt();
  state->started_ms = now_ms();
  state->max_attempts = std::max(1, options_.retry.max_attempts);
  async_attempt(std::move(state));
}

void SocketNet::async_attempt(std::shared_ptr<AsyncSendState> state) {
  state->client = borrow_async(state->to, state->exec);
  if (state->client == nullptr) {
    finish_async_attempt(state, std::nullopt, "unknown destination");
    return;
  }
  std::shared_ptr<net::ChunkSink> attempt_sink;
  if (state->sink != nullptr) {
    attempt_sink = std::make_shared<AsyncTrackingSink>(state);
  }
  AsyncHttpClient* client = state->client.get();
  client->assert_owned();
  client->issue(state->request, std::move(attempt_sink),
                [state](std::optional<net::HttpResponse> head,
                        std::string error) {
                  state->net->finish_async_attempt(state, std::move(head),
                                                   std::move(error));
                });
}

void SocketNet::finish_async_attempt(std::shared_ptr<AsyncSendState> state,
                                     std::optional<net::HttpResponse> head,
                                     std::string error) {
  if (head) {
    // A 503 with a Retry-After hint is a breaker-fronted peer (or an
    // over-capacity server) saying exactly when to come back: replay the
    // attempt no earlier than the hint instead of surfacing the refusal.
    // Buffered sends only — a streaming sink already consumed this head —
    // and still bounded by attempts, deadline, and the retry budget. The
    // exchange itself was clean HTTP, so the connection pools and the
    // local breaker records nothing either way.
    if (head->status == 503 && !state->delivered &&
        state->attempt < state->max_attempts) {
      const auto hint = head->headers.get_view("Retry-After");
      const auto hint_ms =
          hint ? parse_retry_after_ms(*hint) : std::nullopt;
      if (hint_ms) {
        const std::uint64_t delay_ms = std::max(
            *hint_ms, retry_policy_.backoff_delay_ms(state->attempt));
        if (retry_policy_.within_deadline(now_ms() - state->started_ms,
                                          delay_ms) &&
            retry_budget_.try_spend()) {
          give_back_async(state->to, state->exec, std::move(state->client));
          {
            const core::sync::MutexLock lock(mutex_);
            ++stats_.retries;
            ++stats_.retry_after_honored;
          }
          RetryPolicy::schedule_backoff(*state->exec, delay_ms, [state]() {
            ++state->attempt;
            state->net->async_attempt(state);
          });
          return;
        }
      }
    }
    give_back_async(state->to, state->exec, std::move(state->client));
    if (state->breaker != nullptr) state->breaker->record_success(now_ms());
    state->done(std::move(*head));
    return;
  }
  retire(*state->exec, std::move(state->client));  // failed: never pooled
  if (state->breaker != nullptr) {
    // A head the sink refused without blaming the destination (its caller
    // left, or it judges the status itself) was a clean answer: a burst of
    // client disconnects or load-shedding 503s must not open the breaker.
    if (state->refused_blameless) {
      state->breaker->record_success(now_ms());
    } else {
      state->breaker->record_failure(now_ms());
    }
  }

  bool give_up = false;
  // Once the sink has seen the head, a retry would deliver the body prefix
  // twice — the failure must surface to the caller instead.
  if (state->delivered) give_up = true;
  if (!give_up && state->attempt >= state->max_attempts) give_up = true;
  if (!give_up && state->breaker != nullptr &&
      state->breaker->state(now_ms()) == CircuitBreaker::State::Open) {
    give_up = true;
  }
  std::uint64_t delay_ms = 0;
  if (!give_up) {
    delay_ms = retry_policy_.backoff_delay_ms(state->attempt);
    if (!retry_policy_.within_deadline(now_ms() - state->started_ms,
                                       delay_ms)) {
      give_up = true;
    }
  }
  if (!give_up && !retry_budget_.try_spend()) give_up = true;
  if (give_up) {
    {
      const core::sync::MutexLock lock(mutex_);
      ++stats_.send_failures;
    }
    state->done(net::make_response(
        504, "upstream " + state->to + " unreachable: " + error));
    return;
  }
  {
    const core::sync::MutexLock lock(mutex_);
    ++stats_.retries;
  }
  net::Executor* exec = state->exec;
  RetryPolicy::schedule_backoff(*exec, delay_ms, [state]() {
    ++state->attempt;
    state->net->async_attempt(state);
  });
}

std::unique_ptr<AsyncHttpClient> SocketNet::borrow_async(const net::Address& to,
                                                         net::Executor* exec) {
  const core::sync::MutexLock lock(mutex_);
  const auto it = endpoints_.find(to);
  if (it == endpoints_.end()) return nullptr;
  const Endpoint& endpoint = it->second;
  auto& pool = idle_[{to, exec}];
  while (!pool.empty()) {
    auto client = std::move(pool.back());
    pool.pop_back();
    // Dialed before the destination was re-registered on a new port.
    if (client->port() != endpoint.port) {
      retire(*exec, std::move(client));
      continue;
    }
    // The peer may have closed (or written into) this connection while it
    // sat pooled — reusing it would either fail the round trip or, worse,
    // decode stale buffered bytes as the next response. Probe and discard.
    // idicn-analysis: allow(lock-across-io): MSG_PEEK|MSG_DONTWAIT probe never waits
    if (client->stale_connection()) {
      ++stats_.stale_pool_drops;
      retire(*exec, std::move(client));
      continue;
    }
    return client;
  }
  ++stats_.connections_opened;
  return std::make_unique<AsyncHttpClient>(exec, endpoint.host, endpoint.port,
                                           options_.client);
}

void SocketNet::give_back_async(const net::Address& to, net::Executor* exec,
                                std::unique_ptr<AsyncHttpClient> client) {
  if (client != nullptr && client->idle()) {
    const core::sync::MutexLock lock(mutex_);
    const auto it = endpoints_.find(to);
    // Drop the connection when the endpoint moved while we were using it.
    if (it != endpoints_.end() && it->second.port == client->port()) {
      idle_[{to, exec}].push_back(std::move(client));
      return;
    }
  }
  retire(*exec, std::move(client));
}

SocketNet::Stats SocketNet::stats() const {
  const core::sync::MutexLock lock(mutex_);
  return stats_;
}

CircuitBreaker::State SocketNet::breaker_state(const net::Address& to) const {
  std::shared_ptr<CircuitBreaker> breaker;
  {
    const core::sync::MutexLock lock(mutex_);
    const auto it = breakers_.find(to);
    if (it == breakers_.end()) return CircuitBreaker::State::Closed;
    breaker = it->second;
  }
  return breaker->state(now_ms());
}

}  // namespace idicn::runtime
