// HTTP/1.1 message codec for the idICN prototype (§6).
//
// idICN deliberately builds on plain HTTP — "it already provides a
// fetch-by-name primitive" — extended with content-oriented metadata
// headers (Metalink-style, §6.1). This is a strict-enough subset of RFC
// 7230: request line / status line, CRLF header fields with
// case-insensitive names, and Content-Length- or chunked-delimited
// bodies (`Transfer-Encoding: chunked` rides on responses whose length
// is unknown up front — a body still streaming from upstream).
//
// Response bodies have three representations, in escalating order of
// indirection; exactly the earliest applicable one is used:
//   * `body`        — one flat string; small objects, all requests;
//   * `stream_body` — shared, reference-counted chunks (core::ChunkedBody);
//                     large objects fan out to N clients with zero copies;
//   * `producer`    — bytes that do not exist yet: the serving runtime
//                     pulls chunks incrementally (a cache entry whose tail
//                     is still arriving from upstream). Producer-backed
//                     responses exist only on the runtime write path —
//                     serialize() refuses them.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/buffer.hpp"

namespace idicn::net {

/// Incremental body source for the serving runtime: the write path pulls
/// chunks as socket buffers drain, so a response can start before its
/// body fully exists (e.g. the tail is still streaming from upstream).
/// pull() is called from one serving thread at a time per response, but
/// implementations backed by shared state (a partially fetched cache
/// entry) must be internally synchronized against their writer.
class BodyProducer {
 public:
  enum class Pull {
    Ready,    ///< `*out` holds the next (non-empty) chunk
    Pending,  ///< nothing yet — poll again later
    Done,     ///< body complete; no chunk produced
    Error     ///< source failed mid-body; the connection must close
  };

  virtual ~BodyProducer() = default;

  /// Total body size when known up front (Content-Length framing);
  /// std::nullopt means unknown (chunked framing).
  [[nodiscard]] virtual std::optional<std::uint64_t> total_size() const = 0;

  virtual Pull pull(core::Chunk* out) = 0;
};

/// Strip CR/LF/NUL from a header value (or start-line component) so that
/// attacker-influenced strings can never split an HTTP message on the wire
/// (response-splitting / header-injection guard). Applied automatically by
/// HeaderMap::add/set and by the serializers.
[[nodiscard]] std::string sanitize_header_value(std::string value);

/// Ordered header list preserving insertion order; name lookups are
/// case-insensitive (RFC 7230 §3.2). Values are sanitized on insertion
/// (see sanitize_header_value); serialization additionally drops fields
/// whose name is not an RFC 7230 token.
class HeaderMap {
public:
  void add(std::string name, std::string value);
  /// Replace all values of `name` with a single value.
  void set(std::string name, std::string value);
  void remove(std::string_view name);

  [[nodiscard]] std::optional<std::string> get(std::string_view name) const;
  /// Like get() but borrowing: the view is valid until the map is next
  /// mutated. The hot serving path reads headers (Host, Connection, Range,
  /// X-IdICN-*) without copying values — prefer this anywhere the value is
  /// only inspected (tools/analysis' hot-path-alloc rule counts the
  /// get()-copy as an allocation when the value outgrows SSO).
  [[nodiscard]] std::optional<std::string_view> get_view(
      std::string_view name) const;
  [[nodiscard]] std::vector<std::string> get_all(std::string_view name) const;
  [[nodiscard]] bool contains(std::string_view name) const;

  /// Pre-size the field vector: response assembly knows roughly how many
  /// headers it will set (type, length, ETag, X-Cache, Via, metadata) and
  /// one up-front growth beats the 1→2→4→8 doubling walk per response.
  void reserve(std::size_t fields) { fields_.reserve(fields); }

  [[nodiscard]] std::size_t size() const noexcept { return fields_.size(); }
  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>& fields()
      const noexcept {
    return fields_;
  }

private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

struct HttpRequest {
  std::string method = "GET";
  std::string target = "/";      ///< origin-form or absolute-form
  std::string version = "HTTP/1.1";
  HeaderMap headers;
  std::string body;

  [[nodiscard]] std::string serialize() const;
};

struct HttpResponse {
  std::string version = "HTTP/1.1";
  int status = 200;
  std::string reason = "OK";
  HeaderMap headers;
  std::string body;               ///< flat body (small objects; precedes stream_body)
  core::ChunkedBody stream_body;  ///< shared-chunk body bytes, sent after `body`
  /// Incremental source for bytes that do not exist yet (runtime write
  /// path only; serialize() throws when set).
  std::shared_ptr<BodyProducer> producer;
  /// A prebuilt wire head (start line + header block + blank line), shared
  /// with whoever built it — the proxy keeps one per cached object and
  /// metadata variant. When set it *is* the head: serialize_head() returns
  /// it verbatim and `headers` is not serialized; `headers` then carries
  /// only the fields in-process observers read (the proxy's X-Cache mark).
  /// Code that edits or reads the whole head calls expand_head() first.
  core::Chunk head;

  /// Total body bytes across the flat and chunked representations
  /// (producer bytes excluded — they are not materialized).
  [[nodiscard]] std::uint64_t body_size() const noexcept {
    return body.size() + stream_body.size();
  }
  /// Flatten the materialized body into one string (copies; interop only).
  [[nodiscard]] std::string full_body() const;
  /// Move the materialized body out as shared chunks, leaving this
  /// response body-less (the head survives). The flat part becomes one
  /// chunk without copying.
  [[nodiscard]] core::ChunkedBody take_body_chunks();

  /// Start line + headers + CRLF, with body framing derived when absent:
  /// an explicit Content-Length or Transfer-Encoding header is kept as-is;
  /// otherwise Content-Length is the materialized body size — unless a
  /// producer with unknown total size forces `Transfer-Encoding: chunked`.
  [[nodiscard]] std::string serialize_head() const;
  /// The head as the serving runtime queues it: the prebuilt `head` itself
  /// (a reference, no copy) when set, else serialize_head() in a new chunk.
  [[nodiscard]] core::Chunk head_chunk() const;
  /// Parse a prebuilt `head` back into version/status/reason/headers and
  /// drop it, so the response can be edited or fully inspected. No-op when
  /// there is no prebuilt head.
  void expand_head();
  /// Head + materialized body. Throws std::logic_error when a producer is
  /// attached — producer bytes can only be pulled by the serving runtime.
  [[nodiscard]] std::string serialize() const;
  [[nodiscard]] bool ok() const noexcept { return status >= 200 && status < 300; }
};

/// Parse outcomes carry a human-readable reason on failure.
struct ParseError {
  std::string message;
};

/// Parse one complete request/response from `text`. The message must be
/// complete: headers terminated by CRLFCRLF and the body exactly
/// Content-Length bytes (trailing bytes are an error — the simulated
/// transport is message-oriented).
[[nodiscard]] std::optional<HttpRequest> parse_request(std::string_view text,
                                                       ParseError* error = nullptr);
[[nodiscard]] std::optional<HttpResponse> parse_response(std::string_view text,
                                                         ParseError* error = nullptr);

/// Canonical reason phrase for common status codes ("OK", "Not Found", …).
[[nodiscard]] std::string_view default_reason(int status);

/// Build a response with Content-Length set.
[[nodiscard]] HttpResponse make_response(int status, std::string body,
                                         std::string_view content_type = "text/plain");

/// Build a response whose body is shared chunks (zero-copy fan-out from a
/// cache entry). Content-Length is set from the chunk total.
[[nodiscard]] HttpResponse make_stream_response(
    int status, core::ChunkedBody body,
    std::string_view content_type = "text/plain");

// --- ranged reads (RFC 9110 §14) ----------------------------------------

/// One absolute byte range, both ends inclusive (the resolved form of a
/// single `bytes=` range-spec against a known body size).
struct ByteRange {
  std::uint64_t first = 0;
  std::uint64_t last = 0;
  [[nodiscard]] std::uint64_t length() const noexcept { return last - first + 1; }
};

enum class RangeParse {
  Ok,             ///< a single satisfiable range was resolved
  Ignore,         ///< malformed / multi-range / non-bytes unit: serve 200
  Unsatisfiable,  ///< syntactically valid but outside the body: serve 416
};

/// Resolve a Range header value ("bytes=a-b", "bytes=a-", "bytes=-n")
/// against `body_size`. Multi-range requests and anything malformed are
/// Ignore (RFC: a server MAY ignore the header), matching what every CDN
/// edge does for unsupported range flavors.
[[nodiscard]] RangeParse parse_byte_range(std::string_view value,
                                          std::uint64_t body_size, ByteRange* out);

/// Rewrite a complete 200 response into the requested 206 Partial Content
/// (or 416) in place. The sliced body shares the original's chunk blocks —
/// a ranged read of a cached object costs reference bumps, not memcpy.
/// Returns true when the response was rewritten (206 or 416); false when
/// the header was ignored (non-200 input, producer-backed body, malformed
/// or multi-range header) and the response is untouched.
bool apply_byte_range(std::string_view range_value, HttpResponse& response);

/// Parsed Content-Range response header (RFC 7233 §4.2).
struct ContentRange {
  /// True for the satisfied form "bytes a-b/T" or "bytes a-b/*"; false for
  /// the unsatisfied-range form "bytes */T" (416 responses).
  bool satisfied = false;
  std::uint64_t first = 0;  ///< first byte position (satisfied form)
  std::uint64_t last = 0;   ///< last byte position, inclusive
  bool total_known = false; ///< false when the complete length is "*"
  std::uint64_t total = 0;  ///< complete representation length when known
};

/// Parse a Content-Range value ("bytes 0-499/1234", "bytes 5-9/*",
/// "bytes */1234"). nullopt for other units, malformed input, or
/// inconsistent positions (first > last, last ≥ known total). The
/// multi-source fetcher uses this to learn an object's total size from a
/// ranged probe before splitting the remainder across replicas.
[[nodiscard]] std::optional<ContentRange> parse_content_range(
    std::string_view value);

}  // namespace idicn::net
