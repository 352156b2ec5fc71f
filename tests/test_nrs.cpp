// Name resolution system tests (§6): cryptographically-gated registration,
// exact and publisher-delegated resolution, the HTTP API, and DNS mirroring.
#include <gtest/gtest.h>

#include "crypto/hex.hpp"
#include "idicn/nrs.hpp"
#include "idicn/proxy.hpp"
#include "net/sim_net.hpp"

namespace {

using namespace idicn;
using namespace ::idicn::idicn;

struct Publisher {
  crypto::MerkleSigner signer;
  std::string id;
  explicit Publisher(std::uint64_t seed)
      : signer(seed, 4), id(SelfCertifyingName::publisher_id(signer.root())) {}

  SelfCertifyingName name(const std::string& label) const {
    return SelfCertifyingName(label, id);
  }
};

TEST(Nrs, RegisterAndResolveExact) {
  NameResolutionSystem nrs;
  Publisher pub(100);
  const SelfCertifyingName name = pub.name("obj");
  const auto signature = pub.signer.sign(
      NameResolutionSystem::registration_signing_input(name, "rp.example"));
  EXPECT_EQ(nrs.register_name(name, "rp.example", pub.signer.root(), signature),
            RegisterResult::Ok);
  const auto resolution = nrs.resolve(name);
  EXPECT_TRUE(resolution.found());
  EXPECT_EQ(resolution.locations, std::vector<std::string>{"rp.example"});
  EXPECT_EQ(nrs.name_count(), 1u);
}

TEST(Nrs, DuplicateRegistrationIsIdempotent) {
  NameResolutionSystem nrs;
  Publisher pub(101);
  const SelfCertifyingName name = pub.name("obj");
  for (int i = 0; i < 2; ++i) {
    const auto signature = pub.signer.sign(
        NameResolutionSystem::registration_signing_input(name, "rp"));
    EXPECT_EQ(nrs.register_name(name, "rp", pub.signer.root(), signature),
              RegisterResult::Ok);
  }
  EXPECT_EQ(nrs.resolve(name).locations.size(), 1u);
}

TEST(Nrs, MultipleLocationsAccumulate) {
  NameResolutionSystem nrs;
  Publisher pub(102);
  const SelfCertifyingName name = pub.name("obj");
  for (const std::string location : {"rp1", "rp2"}) {
    const auto signature = pub.signer.sign(
        NameResolutionSystem::registration_signing_input(name, location));
    ASSERT_EQ(nrs.register_name(name, location, pub.signer.root(), signature),
              RegisterResult::Ok);
  }
  EXPECT_EQ(nrs.resolve(name).locations, (std::vector<std::string>{"rp1", "rp2"}));
}

TEST(Nrs, RejectsForeignKey) {
  // A key that does not hash to the name's P is rejected outright.
  NameResolutionSystem nrs;
  Publisher owner(103);
  Publisher attacker(104);
  const SelfCertifyingName name = owner.name("obj");
  const auto signature = attacker.signer.sign(
      NameResolutionSystem::registration_signing_input(name, "evil"));
  EXPECT_EQ(nrs.register_name(name, "evil", attacker.signer.root(), signature),
            RegisterResult::PublisherMismatch);
  EXPECT_FALSE(nrs.resolve(name).found());
}

TEST(Nrs, RejectsBadSignature) {
  NameResolutionSystem nrs;
  Publisher pub(105);
  const SelfCertifyingName name = pub.name("obj");
  // Signature over a different location: must not register this location.
  const auto signature = pub.signer.sign(
      NameResolutionSystem::registration_signing_input(name, "somewhere-else"));
  EXPECT_EQ(nrs.register_name(name, "target", pub.signer.root(), signature),
            RegisterResult::BadSignature);
}

TEST(Nrs, PublisherDelegation) {
  NameResolutionSystem nrs;
  Publisher pub(106);
  const auto signature = pub.signer.sign(
      NameResolutionSystem::delegation_signing_input(pub.id, "fine-resolver"));
  EXPECT_EQ(nrs.register_resolver(pub.id, "fine-resolver", pub.signer.root(), signature),
            RegisterResult::Ok);
  // Unknown L.P falls back to the P-level delegation.
  const auto resolution = nrs.resolve(pub.name("never-registered"));
  EXPECT_TRUE(resolution.found());
  EXPECT_TRUE(resolution.locations.empty());
  EXPECT_EQ(resolution.resolver, "fine-resolver");
}

TEST(Nrs, MirrorsIntoDns) {
  net::DnsService dns;
  NameResolutionSystem nrs(&dns);
  Publisher pub(107);
  const SelfCertifyingName name = pub.name("obj");
  const auto signature = pub.signer.sign(
      NameResolutionSystem::registration_signing_input(name, "rp"));
  ASSERT_EQ(nrs.register_name(name, "rp", pub.signer.root(), signature),
            RegisterResult::Ok);
  EXPECT_EQ(dns.resolve(name.host()), "rp");
}

// --- HTTP face -------------------------------------------------------------

net::HttpRequest registration_request(Publisher& pub, const SelfCertifyingName& name,
                                      const std::string& location) {
  const auto signature = pub.signer.sign(
      NameResolutionSystem::registration_signing_input(name, location));
  net::HttpRequest request;
  request.method = "POST";
  request.target = "/register";
  request.body = "name=" + name.host() + "&location=" + location + "&publisher-key=" +
                 crypto::hex_encode(std::span<const std::uint8_t>(pub.signer.root())) +
                 "&signature=" + signature.encode();
  return request;
}

TEST(NrsHttp, RegisterThenResolve) {
  NameResolutionSystem nrs;
  Publisher pub(108);
  const SelfCertifyingName name = pub.name("obj");
  const net::HttpResponse ack =
      nrs.handle_http(registration_request(pub, name, "rp.addr"), "rp.addr");
  EXPECT_EQ(ack.status, 201);

  net::HttpRequest query;
  query.method = "GET";
  query.target = "/resolve?name=" + name.host();
  const net::HttpResponse answer = nrs.handle_http(query, "proxy");
  EXPECT_EQ(answer.status, 200);
  EXPECT_NE(answer.body.find("location=rp.addr"), std::string::npos);
}

TEST(NrsHttp, ResolveAnswersCarryTheirLifetime) {
  // DNS semantics: a 200 /resolve answer, exact or delegated, tells
  // resolvers how long they may reuse it.
  NameResolutionSystem nrs;
  Publisher pub(110);
  ASSERT_EQ(nrs.handle_http(registration_request(pub, pub.name("obj"), "rp"),
                            "rp")
                .status,
            201);
  const auto delegation = pub.signer.sign(
      NameResolutionSystem::delegation_signing_input(pub.id, "fine.resolver"));
  ASSERT_EQ(nrs.register_resolver(pub.id, "fine.resolver", pub.signer.root(),
                                  delegation),
            RegisterResult::Ok);
  const std::string max_age = "max-age=" + std::to_string(kResolveMaxAgeS);
  for (const char* label : {"obj", "delegated"}) {
    net::HttpRequest query;
    query.method = "GET";
    query.target = "/resolve?name=" + pub.name(label).host();
    const net::HttpResponse answer = nrs.handle_http(query, "proxy");
    EXPECT_EQ(answer.status, 200) << label;
    EXPECT_EQ(answer.headers.get("Cache-Control"), max_age) << label;
  }
  EXPECT_GE(kResolveMaxAgeS, 60u);
  EXPECT_LE(kResolveMaxAgeS, 300u);
}

TEST(NrsHttp, ResolveUnknownIs404) {
  NameResolutionSystem nrs;
  Publisher pub(109);
  net::HttpRequest query;
  query.method = "GET";
  query.target = "/resolve?name=" + pub.name("missing").host();
  const net::HttpResponse answer = nrs.handle_http(query, "proxy");
  EXPECT_EQ(answer.status, 404);
  EXPECT_FALSE(answer.headers.contains("Cache-Control"));  // never reused
}

TEST(NrsHttp, MalformedRequestsAre400) {
  NameResolutionSystem nrs;
  net::HttpRequest query;
  query.method = "GET";
  query.target = "/resolve";
  EXPECT_EQ(nrs.handle_http(query, "x").status, 400);  // missing name
  query.target = "/resolve?name=www.legacy.com";
  EXPECT_EQ(nrs.handle_http(query, "x").status, 400);  // not an idicn name
  net::HttpRequest post;
  post.method = "POST";
  post.target = "/register";
  post.body = "name=x";
  EXPECT_EQ(nrs.handle_http(post, "x").status, 400);  // missing fields
  net::HttpRequest other;
  other.method = "GET";
  other.target = "/other";
  EXPECT_EQ(nrs.handle_http(other, "x").status, 404);
}

TEST(NrsHttp, ForgedRegistrationIs403) {
  NameResolutionSystem nrs;
  Publisher owner(110);
  Publisher attacker(111);
  const SelfCertifyingName name = owner.name("obj");
  net::HttpRequest request = registration_request(attacker, name, "evil");
  EXPECT_EQ(nrs.handle_http(request, "evil").status, 403);
}

// --- failure paths through the resolving proxy -----------------------------

TEST(NrsFailure, DelegationDeadEndIs404AtProxy) {
  // The consortium NRS delegates P to a fine-grained resolver that has
  // never heard of the name: resolution must dead-end cleanly in a 404,
  // not loop or crash.
  net::SimNet net;
  net::DnsService dns;
  NameResolutionSystem consortium(&dns);
  NameResolutionSystem fine_resolver;  // knows nothing
  Proxy proxy(&net, "cache", "consortium", &dns);
  net.attach("consortium", &consortium);
  net.attach("fine.resolver", &fine_resolver);
  net.attach("cache", &proxy);

  Publisher pub(300);
  const auto delegation = pub.signer.sign(
      NameResolutionSystem::delegation_signing_input(pub.id, "fine.resolver"));
  ASSERT_EQ(consortium.register_resolver(pub.id, "fine.resolver",
                                         pub.signer.root(), delegation),
            RegisterResult::Ok);

  net::HttpRequest request;
  request.method = "GET";
  request.target = "http://" + pub.name("nowhere").host() + "/";
  EXPECT_EQ(proxy.handle_http(request, "client").status, 404);
}

TEST(NrsFailure, ReRegistrationWithMismatchedKeyKeepsOriginal) {
  // An attacker re-registers an already-registered name under their own
  // key: PublisherMismatch at the API, 403 over HTTP, and the authentic
  // location must survive untouched.
  NameResolutionSystem nrs;
  Publisher owner(301);
  Publisher attacker(302);
  const SelfCertifyingName name = owner.name("obj");
  const auto genuine = owner.signer.sign(
      NameResolutionSystem::registration_signing_input(name, "rp.real"));
  ASSERT_EQ(nrs.register_name(name, "rp.real", owner.signer.root(), genuine),
            RegisterResult::Ok);

  const auto forged = attacker.signer.sign(
      NameResolutionSystem::registration_signing_input(name, "rp.evil"));
  EXPECT_EQ(nrs.register_name(name, "rp.evil", attacker.signer.root(), forged),
            RegisterResult::PublisherMismatch);
  EXPECT_EQ(nrs.handle_http(registration_request(attacker, name, "rp.evil"),
                            "rp.evil")
                .status,
            403);
  EXPECT_EQ(nrs.resolve(name).locations, std::vector<std::string>{"rp.real"});
}

TEST(NrsFailure, DetachedLocationIs502AtProxy) {
  // The NRS resolves the name, but the registered replica has left the
  // network: the fetch times out (504 inside the transport) and the proxy
  // reports a clean 502 upstream failure.
  net::SimNet net;
  net::DnsService dns;
  NameResolutionSystem nrs(&dns);
  Proxy proxy(&net, "cache", "nrs", &dns);
  net.attach("nrs", &nrs);
  net.attach("cache", &proxy);

  Publisher pub(303);
  const SelfCertifyingName name = pub.name("gone");
  const auto signature = pub.signer.sign(
      NameResolutionSystem::registration_signing_input(name, "gone.host"));
  ASSERT_EQ(nrs.register_name(name, "gone.host", pub.signer.root(), signature),
            RegisterResult::Ok);  // gone.host is never attached

  net::HttpRequest request;
  request.method = "GET";
  request.target = "http://" + name.host() + "/";
  EXPECT_EQ(proxy.handle_http(request, "client").status, 502);
  EXPECT_FALSE(proxy.is_cached(name.host()));
}

// --- form parsing helpers ------------------------------------------------------

TEST(Forms, ParseForm) {
  const auto form = parse_form("a=1&b=two&c=");
  EXPECT_EQ(form.at("a"), "1");
  EXPECT_EQ(form.at("b"), "two");
  EXPECT_EQ(form.at("c"), "");
  EXPECT_TRUE(parse_form("").empty());
  EXPECT_TRUE(parse_form("novalue").empty());
}

TEST(Forms, ParseFormLinesPreservesOrderAndDuplicates) {
  const auto lines = parse_form_lines("location=a\nlocation=b\nresolver=c\n");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], (std::pair<std::string, std::string>{"location", "a"}));
  EXPECT_EQ(lines[1], (std::pair<std::string, std::string>{"location", "b"}));
  EXPECT_EQ(lines[2], (std::pair<std::string, std::string>{"resolver", "c"}));
}

}  // namespace
