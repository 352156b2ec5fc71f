// Spans for the traced run, recorded from the benchmark's own files.
//
// Two decorators sit at the layer boundaries without touching the layers:
//   * TracedHost wraps a net::SimHost (the proxy, the NRS, the reverse
//     proxy) behind its runtime server: it forwards handle_http_async and
//     stamps the call and the `respond` callback;
//   * TracedTransport wraps the proxy's upstream net::Transport: it forwards
//     send_async / send_streaming_async and stamps each call and its
//     completion, per destination.
// A span records its name (kind), start, end, the span that caused it and
// the generator's request id (the X-Bench-Req header). The cause travels
// along the proxy's continuations in a thread-local context that the
// decorators set around every callback they forward, and across the wire
// in an X-Bench-Span header on upstream requests. Spans are kept in
// per-thread blocks in memory and read once the servers have stopped.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/sim_net.hpp"
#include "net/transport.hpp"

namespace perfbench {

enum class SpanKind : std::uint8_t {
  Proxy,     ///< Proxy::handle_http_async → respond
  Nrs,       ///< NameResolutionSystem::handle_http_async → respond
  Rp,        ///< ReverseProxy::handle_http_async → respond
  UpNrs,     ///< proxy → NRS send, to completion
  UpRp,      ///< proxy → reverse proxy send, to the last body byte
  UpOther,   ///< any other upstream send
};

/// The response's X-Cache class, for proxy spans.
enum class SpanClass : std::uint8_t { None, Hit, Miss, Stream, Other };

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0: a root span
  std::uint64_t request = 0; ///< generator request id (0: unknown)
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  SpanKind kind = SpanKind::Proxy;
  SpanClass cls = SpanClass::None;
};

/// Process-wide span store.
class Tracer {
 public:
  static Tracer& instance();

  [[nodiscard]] std::uint64_t next_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Append to the calling thread's block list (no lock after the first
  /// span of a thread).
  void record(const Span& span);
  /// Every span recorded so far. Only while no thread records.
  [[nodiscard]] std::vector<Span> collect() const;
  /// Write spans as tab-separated lines (kind, id, parent, request, start,
  /// end, class) to `path`. False when the file cannot be written.
  static bool write(const std::vector<Span>& spans, const std::string& path);

 private:
  struct Buffer;
  Tracer() = default;

  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;  ///< guarded by mutex_
};

class TracedHost final : public idicn::net::SimHost {
 public:
  TracedHost(idicn::net::SimHost* inner, SpanKind kind) : inner_(inner), kind_(kind) {}

  idicn::net::HttpResponse handle_http(const idicn::net::HttpRequest& request,
                                       const idicn::net::Address& from) override {
    return inner_->handle_http(request, from);
  }
  std::shared_ptr<idicn::net::AsyncOp> handle_http_async(
      const idicn::net::HttpRequest& request, const idicn::net::Address& from,
      idicn::net::Executor* exec,
      std::function<void(idicn::net::HttpResponse)> respond) override;

 private:
  idicn::net::SimHost* inner_;
  SpanKind kind_;
};

class TracedTransport final : public idicn::net::Transport {
 public:
  TracedTransport(idicn::net::Transport* inner, idicn::net::Address nrs,
                  idicn::net::Address rp)
      : inner_(inner), nrs_(std::move(nrs)), rp_(std::move(rp)) {}

  idicn::net::HttpResponse send(const idicn::net::Address& from,
                                const idicn::net::Address& to,
                                const idicn::net::HttpRequest& request) override {
    return inner_->send(from, to, request);
  }
  idicn::net::HttpResponse send_streaming(const idicn::net::Address& from,
                                          const idicn::net::Address& to,
                                          const idicn::net::HttpRequest& request,
                                          idicn::net::ChunkSink& sink) override {
    return inner_->send_streaming(from, to, request, sink);
  }
  void send_async(const idicn::net::Address& from, const idicn::net::Address& to,
                  const idicn::net::HttpRequest& request,
                  idicn::net::Executor* exec,
                  idicn::net::SendCallback done) override;
  void send_streaming_async(const idicn::net::Address& from,
                            const idicn::net::Address& to,
                            const idicn::net::HttpRequest& request,
                            std::shared_ptr<idicn::net::ChunkSink> sink,
                            idicn::net::Executor* exec,
                            idicn::net::SendCallback done) override;
  std::vector<idicn::net::HttpResponse> multicast(
      const idicn::net::Address& from, const std::string& group,
      const idicn::net::HttpRequest& request) override {
    return inner_->multicast(from, group, request);
  }
  [[nodiscard]] std::uint64_t now_ms() const override { return inner_->now_ms(); }

 private:
  /// Stamp the upstream request and wrap `done` so it records the span and
  /// runs with the caller's context restored.
  idicn::net::SendCallback begin(const idicn::net::Address& to,
                                 idicn::net::HttpRequest& request,
                                 idicn::net::SendCallback done);

  idicn::net::Transport* inner_;
  idicn::net::Address nrs_;
  idicn::net::Address rp_;
};

}  // namespace perfbench
