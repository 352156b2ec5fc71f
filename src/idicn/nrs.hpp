// The idICN name resolution system (§6, steps 3 and P2).
//
// An SFR-like resolution service for self-certifying names. Registrations
// are accepted from anyone who can produce a signature that verifies under
// the public key whose hash is the name's P component — no other trust.
// Resolution first looks for an exact L.P entry; failing that, for a
// publisher-level (P) delegation pointing at a finer-grained resolver
// (exactly the two-step scheme the paper describes). Registered names are
// optionally mirrored into DNS for backward compatibility.
//
// HTTP API (the prototype's wire form):
//   POST /register            name=…&location=…&publisher-key=…&signature=…
//   POST /register-resolver   publisher=…&resolver=…&publisher-key=…&signature=…
//   GET  /resolve?name=<host> → "location=<addr>" lines | "resolver=<addr>" | 404
//
// A 200 /resolve answer carries `Cache-Control: max-age=<kResolveMaxAgeS>`
// (DNS semantics, §6): a resolver may reuse it for that long. The edge
// proxy keeps such answers per name and sends one upstream request per
// MISS — the fetch — while the answer lives. 400/404 answers carry no
// lifetime and are never reused.
//
// Threading: registrations and resolutions may arrive concurrently from
// any number of runtime::ServerGroup workers — the registry maps are
// guarded by one internal mutex (resolution volume is tiny next to proxy
// traffic; a single lock is plenty). DNS mirroring goes through the
// already-thread-safe net::DnsService.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/sync.hpp"
#include "crypto/lamport.hpp"
#include "idicn/name.hpp"
#include "net/dns.hpp"
#include "net/sim_net.hpp"

namespace idicn::idicn {

/// Lifetime of a 200 /resolve answer, in seconds, sent as
/// `Cache-Control: max-age`. Five minutes is a DNS-typical TTL: long next
/// to a MISS, short next to how often an object moves. A cached answer that
/// proves wrong (the object moved) costs its holder one extra resolution,
/// never a failed request.
inline constexpr std::uint64_t kResolveMaxAgeS = 300;

/// Outcome of a registration attempt.
enum class RegisterResult { Ok, BadName, PublisherMismatch, BadSignature };

[[nodiscard]] const char* to_string(RegisterResult result);

class NameResolutionSystem : public net::SimHost {
public:
  /// `dns` (optional, non-owning): registrations are mirrored there as
  /// "<host> → location" records for legacy resolution.
  explicit NameResolutionSystem(net::DnsService* dns = nullptr) : dns_(dns) {}

  // --- native API -------------------------------------------------------
  /// The canonical byte strings covered by registration signatures.
  [[nodiscard]] static std::string registration_signing_input(
      const SelfCertifyingName& name, const std::string& location);
  [[nodiscard]] static std::string delegation_signing_input(
      const std::string& publisher, const std::string& resolver);

  RegisterResult register_name(const SelfCertifyingName& name,
                               const std::string& location,
                               const crypto::Sha256Digest& publisher_key,
                               const crypto::MerkleSignature& signature);

  RegisterResult register_resolver(const std::string& publisher,
                                   const std::string& resolver,
                                   const crypto::Sha256Digest& publisher_key,
                                   const crypto::MerkleSignature& signature);

  struct Resolution {
    std::vector<std::string> locations;   ///< exact L.P matches
    std::optional<std::string> resolver;  ///< P-level delegation
    [[nodiscard]] bool found() const {
      return !locations.empty() || resolver.has_value();
    }
  };
  [[nodiscard]] Resolution resolve(const SelfCertifyingName& name) const;

  [[nodiscard]] std::size_t name_count() const {
    const core::sync::MutexLock lock(mutex_);
    return names_.size();
  }

  // --- HTTP face ----------------------------------------------------------
  net::HttpResponse handle_http(const net::HttpRequest& request,
                                const net::Address& from) override;

private:
  mutable core::sync::Mutex mutex_;
  std::map<std::string, std::vector<std::string>> names_
      IDICN_GUARDED_BY(mutex_);  // flat L.P → locations
  std::map<std::string, std::string> delegations_
      IDICN_GUARDED_BY(mutex_);  // P → resolver address
  net::DnsService* dns_;
};

/// Parse "k1=v1&k2=v2" bodies (no URL escaping — the prototype's values are
/// hostnames, addresses, and hex/base32 strings).
[[nodiscard]] std::map<std::string, std::string> parse_form(std::string_view body);

/// Parse newline-delimited "key=value" response bodies, preserving order
/// and duplicates (resolution answers list multiple locations).
[[nodiscard]] std::vector<std::pair<std::string, std::string>> parse_form_lines(
    std::string_view body);

}  // namespace idicn::idicn
