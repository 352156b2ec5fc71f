#include "trace.hpp"

#include <array>
#include <cstdio>
#include <string_view>

#include "report.hpp"

namespace perfbench {
namespace {

using idicn::net::HttpResponse;

constexpr std::size_t kBlockSpans = 4096;

/// The span whose work the calling thread is doing right now, and the
/// generator request it serves.
struct Context {
  std::uint64_t span = 0;
  std::uint64_t request = 0;
};
thread_local Context t_context;

/// Restores the thread's context when a forwarded call returns.
class ContextScope {
 public:
  explicit ContextScope(Context next) : saved_(t_context) { t_context = next; }
  ~ContextScope() { t_context = saved_; }
  ContextScope(const ContextScope&) = delete;
  ContextScope& operator=(const ContextScope&) = delete;

 private:
  Context saved_;
};

std::uint64_t header_u64(const idicn::net::HttpRequest& request, std::string_view name) {
  const auto value = request.headers.get_view(name);
  if (!value) return 0;
  std::uint64_t out = 0;
  for (const char c : *value) {
    if (c < '0' || c > '9') break;
    out = out * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return out;
}

SpanClass classify(const HttpResponse& response) {
  const auto mark = response.headers.get_view("X-Cache");
  if (!mark) return SpanClass::None;
  if (*mark == "HIT") return SpanClass::Hit;
  if (*mark == "MISS") return SpanClass::Miss;
  if (*mark == "STREAM") return SpanClass::Stream;
  return SpanClass::Other;
}

}  // namespace

struct Tracer::Buffer {
  std::vector<std::unique_ptr<std::array<Span, kBlockSpans>>> blocks;
  std::size_t used = kBlockSpans;  ///< spans in the last block
};

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::record(const Span& span) {
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    const std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffer = buffers_.back().get();
  }
  if (buffer->used == kBlockSpans) {
    buffer->blocks.push_back(std::make_unique<std::array<Span, kBlockSpans>>());
    buffer->used = 0;
  }
  (*buffer->blocks.back())[buffer->used++] = span;
}

std::vector<Span> Tracer::collect() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> out;
  for (const auto& buffer : buffers_) {
    for (std::size_t b = 0; b < buffer->blocks.size(); ++b) {
      const std::size_t n =
          b + 1 == buffer->blocks.size() ? buffer->used : kBlockSpans;
      out.insert(out.end(), buffer->blocks[b]->begin(), buffer->blocks[b]->begin() + n);
    }
  }
  return out;
}

bool Tracer::write(const std::vector<Span>& spans, const std::string& path) {
  static constexpr const char* kNames[] = {"proxy", "nrs", "rp",
                                           "up.nrs", "up.rp", "up.other"};
  static constexpr const char* kClasses[] = {"-", "HIT", "MISS", "STREAM", "OTHER"};
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "kind\tid\tparent\trequest\tstart_ns\tend_ns\tclass\n");
  for (const Span& s : spans) {
    std::fprintf(out, "%s\t%llu\t%llu\t%llu\t%lld\t%lld\t%s\n",
                 kNames[static_cast<int>(s.kind)],
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                 kClasses[static_cast<int>(s.cls)]);
  }
  return std::fclose(out) == 0;
}

std::shared_ptr<idicn::net::AsyncOp> TracedHost::handle_http_async(
    const idicn::net::HttpRequest& request, const idicn::net::Address& from,
    idicn::net::Executor* exec, std::function<void(HttpResponse)> respond) {
  Span span;
  span.id = Tracer::instance().next_id();
  span.parent = header_u64(request, "X-Bench-Span");
  span.request = header_u64(request, "X-Bench-Req");
  span.kind = kind_;
  span.start_ns = now_ns();
  const ContextScope scope({span.id, span.request});
  return inner_->handle_http_async(
      request, from, exec,
      [span, respond = std::move(respond)](HttpResponse response) mutable {
        span.end_ns = now_ns();
        span.cls = classify(response);
        Tracer::instance().record(span);
        respond(std::move(response));
      });
}

idicn::net::SendCallback TracedTransport::begin(const idicn::net::Address& to,
                                                idicn::net::HttpRequest& request,
                                                idicn::net::SendCallback done) {
  const Context caller = t_context;
  Span span;
  span.id = Tracer::instance().next_id();
  span.parent = caller.span;
  span.request = caller.request;
  span.kind = to == nrs_ ? SpanKind::UpNrs : to == rp_ ? SpanKind::UpRp
                                                       : SpanKind::UpOther;
  request.headers.set("X-Bench-Span", std::to_string(span.id));
  request.headers.set("X-Bench-Req", std::to_string(span.request));
  span.start_ns = now_ns();
  return [span, caller, done = std::move(done)](HttpResponse response) mutable {
    span.end_ns = now_ns();
    Tracer::instance().record(span);
    const ContextScope scope(caller);
    done(std::move(response));
  };
}

void TracedTransport::send_async(const idicn::net::Address& from,
                                 const idicn::net::Address& to,
                                 const idicn::net::HttpRequest& request,
                                 idicn::net::Executor* exec,
                                 idicn::net::SendCallback done) {
  idicn::net::HttpRequest stamped = request;
  auto wrapped = begin(to, stamped, std::move(done));
  inner_->send_async(from, to, stamped, exec, std::move(wrapped));
}

void TracedTransport::send_streaming_async(const idicn::net::Address& from,
                                           const idicn::net::Address& to,
                                           const idicn::net::HttpRequest& request,
                                           std::shared_ptr<idicn::net::ChunkSink> sink,
                                           idicn::net::Executor* exec,
                                           idicn::net::SendCallback done) {
  idicn::net::HttpRequest stamped = request;
  auto wrapped = begin(to, stamped, std::move(done));
  inner_->send_streaming_async(from, to, stamped, std::move(sink), exec,
                               std::move(wrapped));
}

}  // namespace perfbench
