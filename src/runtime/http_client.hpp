// Blocking HTTP/1.1 client for one endpoint: the single-connection load
// generator of the tests, benches and testbed::Driver — a "browser"
// pointed at a HostServer. The runtime's own upstream traffic does not use
// it: SocketNet carries every Transport send over pooled AsyncHttpClients.
//
// It is a shell over the one HTTP/1.1 client: a private EventLoop plus one
// AsyncHttpClient on that loop. Each call issues the request and pumps the
// loop on the caller's own thread (EventLoop::run_once) until the
// completion fires, so keep-alive reuse, the reconnect-once race handling,
// streaming delivery, Connection: close and the connect/IO deadlines are
// AsyncHttpClient's — no extra thread, no second copy of the wire code.
// Like any blocking call it must never run on an event-loop thread.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "net/http_message.hpp"
#include "net/transport.hpp"
#include "runtime/async_http_client.hpp"
#include "runtime/event_loop.hpp"

namespace idicn::runtime {

class HttpClient {
public:
  using Options = AsyncHttpClient::Options;

  HttpClient(std::string host, std::uint16_t port, Options options = {});
  ~HttpClient();

  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// One round trip. Reconnects transparently (once) when a reused
  /// keep-alive connection turns out to be dead — the standard race with a
  /// server-side idle close. nullopt on failure (reason in `error`).
  std::optional<net::HttpResponse> request(const net::HttpRequest& request,
                                           std::string* error = nullptr);

  /// Convenience GET (absolute-form or origin-form target).
  std::optional<net::HttpResponse> get(const std::string& target,
                                       std::string* error = nullptr);

  /// One round trip with incremental body delivery: `sink.on_head` fires
  /// when the status line + headers decode, `sink.on_chunk` per body slab
  /// as it arrives — the body never accumulates in this client. Returns
  /// the head (empty body) once the body is fully delivered; nullopt on
  /// transport failure or when a sink callback cancelled (the connection
  /// closes — a half-read body is not reusable). Unlike request(), no
  /// transparent reconnect happens once the sink saw anything.
  std::optional<net::HttpResponse> request_streaming(
      const net::HttpRequest& request, net::ChunkSink& sink,
      std::string* error = nullptr);

  [[nodiscard]] bool connected() const noexcept { return client_.connected(); }

  void close();

  [[nodiscard]] std::uint64_t requests_sent() const noexcept {
    return client_.requests_sent();
  }
  [[nodiscard]] const std::string& host() const noexcept { return client_.host(); }
  [[nodiscard]] std::uint16_t port() const noexcept { return client_.port(); }

private:
  /// Issue on client_ and pump loop_ until the completion fires.
  std::optional<net::HttpResponse> round_trip(
      const net::HttpRequest& request, std::shared_ptr<net::ChunkSink> sink,
      std::string* error);

  EventLoop loop_;          ///< declared first: client_ unwatches from it
  AsyncHttpClient client_;  ///< confined to loop_, pumped by the caller
};

}  // namespace idicn::runtime
