// The prebuilt fresh-HIT head: a cached object's serialized 200 head, one
// per metadata variant, that every later HIT shares instead of rebuilding.
//
//   * Differential: the prebuilt head is byte-identical to the head the
//     general path builds field by field (reached here through a Range
//     header in a unit the proxy ignores, which keeps the response a 200)
//     — for both metadata variants, with and without a PoP name, and for
//     an object with mirrors (Link headers). SimNet callers of
//     handle_http get the same bytes back from the expanded header map.
//   * Over a real ServerGroup, HITs whose head changes still come out
//     right: Range (206 and 416), Connection: close (the header plus a
//     close), and HTTP/1.0 (answered, then closed). A plain keep-alive HIT
//     puts the prebuilt head on the wire verbatim.
//   * Every spelling of a target (absolute- or origin-form, capitals, a
//     port) reaches the one entry cached under the canonical name.
//   * The reverse proxy's signed head: serialized once at admission and
//     shared by every fetch, still rewritten into a 206 that carries a
//     verifying proof, and — with a height-9 signer — at most 24 KB.
#include <gtest/gtest.h>

#include <cctype>

#include <sys/socket.h>

#include <string>
#include <string_view>
#include <vector>

#include "idicn/nrs.hpp"
#include "idicn/origin_server.hpp"
#include "idicn/proxy.hpp"
#include "idicn/reverse_proxy.hpp"
#include "net/http_message.hpp"
#include "runtime/server_group.hpp"
#include "runtime/tcp.hpp"

namespace {

using namespace idicn;
using namespace ::idicn::idicn;

struct Deployment {
  net::SimNet net;
  net::DnsService dns;
  crypto::MerkleSigner signer{2024, 6};
  NameResolutionSystem nrs{&dns};
  OriginServer origin;
  ReverseProxy reverse_proxy{&net, "rp.pub", "origin.pub", "nrs", &signer};
  Proxy proxy;

  explicit Deployment(Proxy::Options options)
      : proxy{&net, "cache.ad1", "nrs", &dns, std::move(options)} {
    net.attach("nrs", &nrs);
    net.attach("origin.pub", &origin);
    net.attach("rp.pub", &reverse_proxy);
    net.attach("cache.ad1", &proxy);
  }

  SelfCertifyingName publish(const std::string& label, const std::string& body) {
    origin.put(label, body);
    const auto name = reverse_proxy.publish(label);
    EXPECT_TRUE(name.has_value());
    return *name;
  }
};

net::HttpRequest get(const SelfCertifyingName& name, bool full_metadata) {
  net::HttpRequest request;
  request.target = "http://" + name.host() + "/";
  if (full_metadata) request.headers.set(kWantMetadataHeader, "1");
  return request;
}

/// The socket runtime's view: handle_http_async answering inline.
net::HttpResponse serve_async(net::SimHost& host, const net::HttpRequest& request) {
  net::HttpResponse response;
  const auto op = host.handle_http_async(
      request, "client", nullptr,
      [&response](net::HttpResponse settled) { response = std::move(settled); });
  EXPECT_EQ(op, nullptr);
  return response;
}

void expect_prebuilt_head_matches_general_path(Deployment& d,
                                               const SelfCertifyingName& name,
                                               std::size_t links) {
  for (const bool full_metadata : {false, true}) {
    SCOPED_TRACE(full_metadata ? "full metadata" : "metadata hint");
    // Warm: the first request may be the MISS that fills the cache.
    ASSERT_EQ(d.proxy.handle_http(get(name, full_metadata), "client").status, 200);

    const net::HttpResponse fast = serve_async(d.proxy, get(name, full_metadata));
    ASSERT_FALSE(fast.head.empty()) << "a fresh HIT must take the prebuilt head";
    EXPECT_EQ(fast.headers.get("X-Cache"), "HIT");

    net::HttpRequest ranged = get(name, full_metadata);
    ranged.headers.set("Range", "items=0-1");  // not bytes: ignored, stays 200
    const net::HttpResponse general = serve_async(d.proxy, ranged);
    ASSERT_TRUE(general.head.empty()) << "a Range request takes the general path";
    ASSERT_EQ(general.status, 200);

    const std::string prebuilt = fast.serialize_head();
    EXPECT_EQ(prebuilt, general.serialize_head());
    EXPECT_EQ(fast.full_body(), general.full_body());
    EXPECT_NE(prebuilt.find("X-Cache: HIT\r\n"), std::string::npos);
    std::size_t link_lines = 0;
    for (std::size_t at = prebuilt.find("\r\nLink: <"); at != std::string::npos;
         at = prebuilt.find("\r\nLink: <", at + 1)) {
      ++link_lines;
    }
    EXPECT_EQ(link_lines, links);
    EXPECT_EQ(prebuilt.find("X-IdICN-Signature: ") != std::string::npos,
              full_metadata);

    // SimNet callers: the same HIT with its head parsed back into fields.
    const net::HttpResponse expanded =
        d.proxy.handle_http(get(name, full_metadata), "client");
    EXPECT_TRUE(expanded.head.empty());
    EXPECT_EQ(expanded.serialize_head(), prebuilt);
    EXPECT_EQ(expanded.headers.get("ETag"), general.headers.get("ETag"));
    EXPECT_EQ(expanded.headers.get_all("Link"), general.headers.get_all("Link"));
  }
}

TEST(HitHead, PrebuiltHeadIsByteIdenticalToTheGeneralPath) {
  for (const std::string& pop : {std::string(), std::string("pop-7")}) {
    SCOPED_TRACE(pop.empty() ? "no PoP name" : "with PoP name");
    Proxy::Options options;
    options.pop_name = pop;
    Deployment d(options);
    // Every object lists its publisher's reverse proxy as one Link; the
    // second also names two mirrors.
    const auto plain = d.publish("plain", std::string(1024, 'a'));
    d.reverse_proxy.add_mirror("mirror-1.pub");
    d.reverse_proxy.add_mirror("mirror-2.pub");
    const auto mirrored = d.publish("mirrored", std::string(3000, 'b'));

    expect_prebuilt_head_matches_general_path(d, plain, 1);
    expect_prebuilt_head_matches_general_path(d, mirrored, 3);
    const std::string head = serve_async(d.proxy, get(plain, false)).serialize_head();
    EXPECT_EQ(head.find(std::string(kPopHeader) + ": ") != std::string::npos,
              !pop.empty());
  }
}

std::string upper(std::string text) {
  for (char& c : text) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return text;
}

TEST(HitHead, EverySpellingOfATargetReachesTheSameEntry) {
  Deployment d(Proxy::Options{});
  const std::string body(700, 'd');
  const auto name = d.publish("spelled", body);

  // The MISS arrives spelled in capitals: it is cached under the
  // canonical name the machine was handed.
  net::HttpRequest shouted;
  shouted.target = "http://" + upper(name.host()) + "/";
  const net::HttpResponse miss = d.proxy.handle_http(shouted, "client");
  ASSERT_EQ(miss.status, 200);
  EXPECT_EQ(miss.headers.get("X-Cache"), "MISS");
  EXPECT_TRUE(d.proxy.is_cached(name.host()));

  const auto origin_form = [&](const std::string& host) {
    net::HttpRequest request;
    request.target = "/";
    request.headers.set("Host", host);
    return request;
  };
  const auto absolute_form = [](const std::string& authority) {
    net::HttpRequest request;
    request.target = "http://" + authority + "/index.html";
    return request;
  };
  const std::vector<net::HttpRequest> spellings = {
      get(name, false),
      shouted,
      absolute_form(name.host() + ":8080"),
      origin_form(name.host()),
      origin_form(upper(name.host())),
  };
  for (std::size_t i = 0; i < spellings.size(); ++i) {
    SCOPED_TRACE("spelling " + std::to_string(i));
    const net::HttpResponse hit = serve_async(d.proxy, spellings[i]);
    EXPECT_EQ(hit.headers.get("X-Cache"), "HIT");
    EXPECT_EQ(hit.full_body(), body);
  }
  EXPECT_EQ(d.proxy.stats().misses, 1u);
  EXPECT_EQ(d.proxy.stats().hits, spellings.size());
  EXPECT_EQ(d.proxy.cached_objects(), 1u);

  // A Range request skips the fresh-HIT shortcut; the machine is handed
  // the same canonical route and serves the slice from the same entry.
  net::HttpRequest ranged = origin_form(upper(name.host()));
  ranged.headers.set("Range", "bytes=0-9");
  const net::HttpResponse slice = d.proxy.handle_http(ranged, "client");
  EXPECT_EQ(slice.status, 206);
  EXPECT_EQ(slice.full_body(), body.substr(0, 10));
  EXPECT_EQ(d.proxy.stats().misses, 1u);
}

// --- the reverse proxy's signed head ------------------------------------------

/// A verifying fetch from the reverse proxy, as a downstream proxy sends it.
net::HttpRequest fetch_signed(const SelfCertifyingName& name) {
  net::HttpRequest request;
  request.target = "/";
  request.headers.set("Host", name.host());
  request.headers.set(kWantMetadataHeader, "1");
  return request;
}

TEST(ReverseProxyHead, OneSignedHeadChunkServesEveryFetch) {
  Deployment d(Proxy::Options{});
  const std::string body(2000, 'c');
  const auto name = d.publish("shared", body);

  const net::HttpResponse first = serve_async(d.reverse_proxy, fetch_signed(name));
  const net::HttpResponse second = serve_async(d.reverse_proxy, fetch_signed(name));
  ASSERT_FALSE(first.head.empty()) << "a fetch must take the head built at admission";
  EXPECT_EQ(first.head.view().data(), second.head.view().data());
  EXPECT_EQ(first.head_chunk().view().data(), first.head.view().data());
  EXPECT_EQ(first.full_body(), body);

  // SimNet callers read the same head parsed back into fields, and its
  // proof verifies the body.
  const net::HttpResponse expanded = d.reverse_proxy.handle_http(fetch_signed(name), "c");
  EXPECT_TRUE(expanded.head.empty());
  EXPECT_EQ(expanded.serialize_head(), std::string(first.head.view()));
  const auto metadata = ContentMetadata::from_headers(expanded.headers);
  ASSERT_TRUE(metadata.has_value());
  EXPECT_EQ(verify_content(*metadata, expanded.full_body()), VerifyResult::Ok);

  // Conditional revalidation against the ETag still answers 304.
  net::HttpRequest conditional = fetch_signed(name);
  conditional.headers.set("If-None-Match", *expanded.headers.get("ETag"));
  EXPECT_EQ(d.reverse_proxy.handle_http(conditional, "c").status, 304);
}

TEST(ReverseProxyHead, RangeYieldsA206CarryingAVerifyingProof) {
  Deployment d(Proxy::Options{});
  std::string body(5000, ' ');
  for (std::size_t i = 0; i < body.size(); ++i) body[i] = static_cast<char>('a' + i % 26);
  const auto name = d.publish("ranged", body);

  net::HttpRequest ranged = fetch_signed(name);
  ranged.headers.set("Range", "bytes=100-199");
  const net::HttpResponse slice = d.reverse_proxy.handle_http(ranged, "c");
  ASSERT_EQ(slice.status, 206);
  EXPECT_EQ(slice.headers.get("Content-Range"), "bytes 100-199/5000");
  EXPECT_EQ(slice.full_body(), body.substr(100, 100));
  const auto metadata = ContentMetadata::from_headers(slice.headers);
  ASSERT_TRUE(metadata.has_value());
  EXPECT_EQ(verify_content(*metadata, body), VerifyResult::Ok);

  ranged.headers.set("Range", "bytes=9000-");
  EXPECT_EQ(d.reverse_proxy.handle_http(ranged, "c").status, 416);
}

TEST(ReverseProxyHead, Height9SignedHeadFitsIn24KB) {
  // The size ratchet on the proof: a 200 head from a 512-key publisher
  // (the benchmark's signer) with its reverse proxy as the one mirror.
  net::SimNet net;
  net::DnsService dns;
  crypto::MerkleSigner signer{9, 9};
  NameResolutionSystem nrs{&dns};
  OriginServer origin;
  ReverseProxy reverse_proxy{&net, "rp.pub", "origin.pub", "nrs", &signer};
  net.attach("nrs", &nrs);
  net.attach("origin.pub", &origin);
  net.attach("rp.pub", &reverse_proxy);
  origin.put("o1", std::string(1024, 'h'));
  const auto name = reverse_proxy.publish("o1");
  ASSERT_TRUE(name.has_value());

  const net::HttpResponse response = serve_async(reverse_proxy, fetch_signed(*name));
  ASSERT_EQ(response.status, 200);
  EXPECT_LE(response.head.size(), 24u * 1024) << "the height-9 signed head grew";
  EXPECT_NE(response.head.view().find("X-IdICN-Signature: "), std::string_view::npos);
}

// --- over a real ServerGroup -------------------------------------------------

bool send_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n <= 0) return false;
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

/// Everything the server sends until it closes the connection.
std::string read_until_closed(int fd) {
  std::string out;
  char buffer[4096];
  while (true) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) return out;
    out.append(buffer, static_cast<std::size_t>(n));
  }
}

/// One request on a fresh connection; the request asks the server to close
/// afterwards (or is HTTP/1.0), so the reply ends at the close.
std::string exchange_and_close(std::uint16_t port, const std::string& request) {
  runtime::ScopedFd fd(runtime::connect_tcp("127.0.0.1", port, 2000, nullptr));
  EXPECT_TRUE(fd.valid());
  EXPECT_TRUE(send_all(fd.get(), request));
  return read_until_closed(fd.get());
}

TEST(HitHead, HeadChangingHitsOverAServerGroup) {
  Proxy::Options options;
  options.pop_name = "pop-edge";
  Deployment d(options);
  const std::string body(1024, 'z');
  const auto name = d.publish("served", body);
  ASSERT_EQ(d.proxy.handle_http(get(name, false), "client").status, 200);
  const std::string prebuilt = serve_async(d.proxy, get(name, false)).serialize_head();

  runtime::ServerGroup group(&d.proxy, "cache.ad1");
  const std::uint16_t port = group.start();
  const std::string line = "GET http://" + name.host() + "/ HTTP/1.1\r\n";

  // Keep-alive HIT, then a Connection: close HIT on the same connection.
  {
    runtime::ScopedFd fd(runtime::connect_tcp("127.0.0.1", port, 2000, nullptr));
    ASSERT_TRUE(fd.valid());
    ASSERT_TRUE(send_all(fd.get(), line + "\r\n" + line + "Connection: close\r\n\r\n"));
    const std::string wire = read_until_closed(fd.get());  // closed after #2
    ASSERT_EQ(wire.substr(0, prebuilt.size() + body.size()), prebuilt + body);
    const std::string second = wire.substr(prebuilt.size() + body.size());
    EXPECT_EQ(second.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
    EXPECT_NE(second.find("X-Cache: HIT\r\n"), std::string::npos);
    EXPECT_NE(second.find("Connection: close\r\n"), std::string::npos);
    EXPECT_NE(second.find("X-IdICN-PoP: pop-edge\r\n"), std::string::npos);
    EXPECT_EQ(second.substr(second.size() - body.size()), body);
  }

  // HTTP/1.0: answered with the whole object, marked close, then closed.
  {
    const std::string wire = exchange_and_close(
        port, "GET http://" + name.host() + "/ HTTP/1.0\r\n\r\n");
    EXPECT_EQ(wire.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
    EXPECT_NE(wire.find("Connection: close\r\n"), std::string::npos);
    EXPECT_NE(wire.find("X-Cache: HIT\r\n"), std::string::npos);
    EXPECT_EQ(wire.substr(wire.size() - body.size()), body);
  }

  // Range: a 206 with the slice, and a 416 past the end.
  {
    const std::string wire = exchange_and_close(
        port, line + "Range: bytes=10-19\r\nConnection: close\r\n\r\n");
    EXPECT_EQ(wire.rfind("HTTP/1.1 206 Partial Content\r\n", 0), 0u);
    EXPECT_NE(wire.find("Content-Range: bytes 10-19/1024\r\n"), std::string::npos);
    EXPECT_NE(wire.find("Content-Length: 10\r\n"), std::string::npos);
    EXPECT_NE(wire.find("X-IdICN-PoP: pop-edge\r\n"), std::string::npos);
    EXPECT_EQ(wire.substr(wire.size() - 10), body.substr(10, 10));
  }
  {
    const std::string wire = exchange_and_close(
        port, line + "Range: bytes=5000-\r\nConnection: close\r\n\r\n");
    EXPECT_EQ(wire.rfind("HTTP/1.1 416 ", 0), 0u);
    EXPECT_NE(wire.find("Content-Range: bytes */1024\r\n"), std::string::npos);
  }

  group.stop();
  EXPECT_EQ(group.stats().requests_served, 5u);
  EXPECT_EQ(d.proxy.stats().misses, 1u);
}

}  // namespace
