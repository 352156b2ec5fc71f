#include "runtime/http_client.hpp"

#include <utility>

namespace idicn::runtime {
namespace {

/// Upper bound on one blocking wait inside the pump; the client's own
/// connect/IO timers end the round trip, this only caps a single wait.
constexpr int kPumpWaitMs = 1'000;

}  // namespace

HttpClient::HttpClient(std::string host, std::uint16_t port, Options options)
    : client_(&loop_, std::move(host), port, options) {}

HttpClient::~HttpClient() { close(); }

void HttpClient::close() {
  client_.assert_owned();
  client_.shutdown();
}

std::optional<net::HttpResponse> HttpClient::round_trip(
    const net::HttpRequest& request, std::shared_ptr<net::ChunkSink> sink,
    std::string* error) {
  client_.assert_owned();
  // A kept-alive connection that saw a FIN, an error or unsolicited bytes
  // while idle is redialed, not reused: stray bytes would otherwise decode
  // as the answer to this request.
  if (client_.stale_connection()) client_.shutdown();

  bool done = false;
  std::optional<net::HttpResponse> result;
  std::string reason;
  client_.issue(request, std::move(sink),
                [&](std::optional<net::HttpResponse> response, std::string why) {
                  result = std::move(response);
                  reason = std::move(why);
                  done = true;
                });
  while (!done) loop_.run_once(kPumpWaitMs);
  if (!result && error != nullptr) *error = std::move(reason);
  return result;
}

std::optional<net::HttpResponse> HttpClient::request(const net::HttpRequest& request,
                                                     std::string* error) {
  return round_trip(request, nullptr, error);
}

std::optional<net::HttpResponse> HttpClient::request_streaming(
    const net::HttpRequest& request, net::ChunkSink& sink, std::string* error) {
  // Non-owning: the op completes (and drops this pointer) before we return.
  return round_trip(
      request, std::shared_ptr<net::ChunkSink>(std::shared_ptr<void>(), &sink),
      error);
}

std::optional<net::HttpResponse> HttpClient::get(const std::string& target,
                                                 std::string* error) {
  net::HttpRequest get_request;
  get_request.method = "GET";
  get_request.target = target;
  return request(get_request, error);
}

}  // namespace idicn::runtime
