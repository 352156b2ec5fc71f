#include "idicn/nrs.hpp"

#include <algorithm>

#include "crypto/hex.hpp"
#include "net/uri.hpp"

namespace idicn::idicn {
namespace {

std::optional<crypto::Sha256Digest> key_from_hex(std::string_view hex) {
  crypto::Sha256Digest d{};
  if (!crypto::hex_decode_into(hex, d)) return std::nullopt;
  return d;
}

}  // namespace

const char* to_string(RegisterResult result) {
  switch (result) {
    case RegisterResult::Ok: return "ok";
    case RegisterResult::BadName: return "bad-name";
    case RegisterResult::PublisherMismatch: return "publisher-mismatch";
    case RegisterResult::BadSignature: return "bad-signature";
  }
  return "unknown";
}

std::map<std::string, std::string> parse_form(std::string_view body) {
  std::map<std::string, std::string> out;
  while (!body.empty()) {
    const std::size_t amp = body.find('&');
    const std::string_view pair =
        amp == std::string_view::npos ? body : body.substr(0, amp);
    body.remove_prefix(amp == std::string_view::npos ? body.size() : amp + 1);
    const std::size_t eq = pair.find('=');
    if (eq == std::string_view::npos) continue;
    out.emplace(std::string(pair.substr(0, eq)), std::string(pair.substr(eq + 1)));
  }
  return out;
}

std::vector<std::pair<std::string, std::string>> parse_form_lines(
    std::string_view body) {
  std::vector<std::pair<std::string, std::string>> out;
  while (!body.empty()) {
    const std::size_t newline = body.find('\n');
    const std::string_view line =
        newline == std::string_view::npos ? body : body.substr(0, newline);
    body.remove_prefix(newline == std::string_view::npos ? body.size() : newline + 1);
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) continue;
    out.emplace_back(std::string(line.substr(0, eq)), std::string(line.substr(eq + 1)));
  }
  return out;
}

std::string NameResolutionSystem::registration_signing_input(
    const SelfCertifyingName& name, const std::string& location) {
  return "idicn-register-v1\n" + name.flat() + "\n" + location + "\n";
}

std::string NameResolutionSystem::delegation_signing_input(
    const std::string& publisher, const std::string& resolver) {
  return "idicn-delegate-v1\n" + publisher + "\n" + resolver + "\n";
}

RegisterResult NameResolutionSystem::register_name(
    const SelfCertifyingName& name, const std::string& location,
    const crypto::Sha256Digest& publisher_key,
    const crypto::MerkleSignature& signature) {
  // Cryptographic correctness is the only admission criterion (§6.1): the
  // key must hash to P and the signature must bind (name, location).
  if (SelfCertifyingName::publisher_id(publisher_key) != name.publisher()) {
    return RegisterResult::PublisherMismatch;
  }
  if (!crypto::MerkleSigner::verify(publisher_key,
                                    registration_signing_input(name, location),
                                    signature)) {
    return RegisterResult::BadSignature;
  }
  {
    const core::sync::MutexLock lock(mutex_);
    std::vector<std::string>& locations = names_[name.flat()];
    if (std::find(locations.begin(), locations.end(), location) ==
        locations.end()) {
      locations.push_back(location);
    }
  }
  if (dns_ != nullptr) dns_->update(name.host(), location);
  return RegisterResult::Ok;
}

RegisterResult NameResolutionSystem::register_resolver(
    const std::string& publisher, const std::string& resolver,
    const crypto::Sha256Digest& publisher_key,
    const crypto::MerkleSignature& signature) {
  if (SelfCertifyingName::publisher_id(publisher_key) != publisher) {
    return RegisterResult::PublisherMismatch;
  }
  if (!crypto::MerkleSigner::verify(
          publisher_key, delegation_signing_input(publisher, resolver), signature)) {
    return RegisterResult::BadSignature;
  }
  const core::sync::MutexLock lock(mutex_);
  delegations_[publisher] = resolver;
  return RegisterResult::Ok;
}

NameResolutionSystem::Resolution NameResolutionSystem::resolve(
    const SelfCertifyingName& name) const {
  Resolution resolution;
  const core::sync::MutexLock lock(mutex_);
  const auto exact = names_.find(name.flat());
  if (exact != names_.end()) {
    resolution.locations = exact->second;
    return resolution;
  }
  const auto delegated = delegations_.find(name.publisher());
  if (delegated != delegations_.end()) {
    resolution.resolver = delegated->second;
  }
  return resolution;
}

net::HttpResponse NameResolutionSystem::handle_http(const net::HttpRequest& request,
                                                    const net::Address& /*from*/) {
  const auto uri = net::parse_uri(request.target);
  if (!uri) return net::make_response(400, "bad target");

  if (request.method == "GET" && uri->path == "/resolve") {
    // query: name=<host>
    const auto params = parse_form(uri->query);
    const auto it = params.find("name");
    if (it == params.end()) return net::make_response(400, "missing name");
    const auto name = SelfCertifyingName::parse_host(it->second);
    if (!name) return net::make_response(400, "malformed idicn name");
    const Resolution resolution = resolve(*name);
    if (!resolution.found()) return net::make_response(404, "unknown name");
    std::string body;
    for (const std::string& location : resolution.locations) {
      body += "location=" + location + "\n";
    }
    if (resolution.resolver) body += "resolver=" + *resolution.resolver + "\n";
    net::HttpResponse answer = net::make_response(200, std::move(body));
    answer.headers.set("Cache-Control",
                       "max-age=" + std::to_string(kResolveMaxAgeS));
    return answer;
  }

  if (request.method == "POST" &&
      (uri->path == "/register" || uri->path == "/register-resolver")) {
    const auto params = parse_form(request.body);
    const auto get = [&params](const char* key) -> std::optional<std::string> {
      const auto it = params.find(key);
      if (it == params.end()) return std::nullopt;
      return it->second;
    };
    const auto key_hex = get("publisher-key");
    const auto signature_text = get("signature");
    if (!key_hex || !signature_text) return net::make_response(400, "missing fields");
    const auto key = key_from_hex(*key_hex);
    auto signature = crypto::MerkleSignature::decode(*signature_text);
    if (!key || !signature) return net::make_response(400, "malformed credentials");

    RegisterResult result;
    if (uri->path == "/register") {
      const auto host = get("name");
      const auto location = get("location");
      if (!host || !location) return net::make_response(400, "missing fields");
      const auto name = SelfCertifyingName::parse_host(*host);
      if (!name) return net::make_response(400, "malformed idicn name");
      result = register_name(*name, *location, *key, *signature);
    } else {
      const auto publisher = get("publisher");
      const auto resolver = get("resolver");
      if (!publisher || !resolver) return net::make_response(400, "missing fields");
      result = register_resolver(*publisher, *resolver, *key, *signature);
    }
    if (result != RegisterResult::Ok) {
      return net::make_response(403, std::string("rejected: ") + to_string(result));
    }
    return net::make_response(201, "registered");
  }

  return net::make_response(404, "no such endpoint");
}

}  // namespace idicn::idicn
