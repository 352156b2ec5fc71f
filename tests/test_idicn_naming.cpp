// Self-certifying names and Metalink metadata tests (§6.1).
#include <gtest/gtest.h>

#include "crypto/base32.hpp"
#include "crypto/hex.hpp"
#include "idicn/metalink.hpp"
#include "idicn/name.hpp"

namespace {

using namespace idicn;
using namespace ::idicn::idicn;

std::string test_publisher_b32() {
  crypto::Sha256Digest root{};
  root[0] = 1;
  return SelfCertifyingName::publisher_id(root);
}

// --- DNS labels -----------------------------------------------------------

TEST(DnsLabel, Validity) {
  EXPECT_TRUE(valid_dns_label("abc"));
  EXPECT_TRUE(valid_dns_label("a-b-1"));
  EXPECT_TRUE(valid_dns_label(std::string(63, 'a')));
  EXPECT_FALSE(valid_dns_label(""));
  EXPECT_FALSE(valid_dns_label(std::string(64, 'a')));
  EXPECT_FALSE(valid_dns_label("-abc"));
  EXPECT_FALSE(valid_dns_label("abc-"));
  EXPECT_FALSE(valid_dns_label("ABC"));  // we require lowercase
  EXPECT_FALSE(valid_dns_label("a.b"));
  EXPECT_FALSE(valid_dns_label("a_b"));
}

// --- SelfCertifyingName ------------------------------------------------------

TEST(Name, ConstructAndRender) {
  const SelfCertifyingName name("headlines", test_publisher_b32());
  EXPECT_EQ(name.label(), "headlines");
  EXPECT_EQ(name.host(), "headlines." + test_publisher_b32() + ".idicn.org");
  EXPECT_EQ(name.flat(), "headlines." + test_publisher_b32());
}

TEST(Name, PublisherIdIsBase32OfKeyHash) {
  crypto::Sha256Digest root{};
  const std::string id = SelfCertifyingName::publisher_id(root);
  EXPECT_EQ(id.size(), 52u);
  const auto decoded = crypto::base32_decode(id);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->size(), 32u);
}

TEST(Name, ParseHostRoundtrip) {
  const SelfCertifyingName name("video-7", test_publisher_b32());
  const auto parsed = SelfCertifyingName::parse_host(name.host());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, name);
}

TEST(Name, ParseHostIsCaseInsensitive) {
  const SelfCertifyingName name("page", test_publisher_b32());
  std::string host = name.host();
  host[0] = 'P';
  EXPECT_TRUE(SelfCertifyingName::parse_host(host).has_value());
}

TEST(Name, ParseRejectsNonIdicnHosts) {
  EXPECT_FALSE(SelfCertifyingName::parse_host("www.example.com").has_value());
  EXPECT_FALSE(SelfCertifyingName::parse_host("idicn.org").has_value());
  EXPECT_FALSE(SelfCertifyingName::parse_host("label.idicn.org").has_value());
  EXPECT_FALSE(
      SelfCertifyingName::parse_host("a.b.shortpub.idicn.org").has_value());
  EXPECT_FALSE(SelfCertifyingName::parse_host("label." + test_publisher_b32() +
                                              ".evil.org")
                   .has_value());
  // Extra label level.
  EXPECT_FALSE(SelfCertifyingName::parse_host("x.y." + test_publisher_b32() +
                                              ".idicn.org")
                   .has_value());
}

TEST(Name, ConstructorValidates) {
  EXPECT_THROW(SelfCertifyingName("UPPER", test_publisher_b32()),
               std::invalid_argument);
  EXPECT_THROW(SelfCertifyingName("ok", "tooshort"), std::invalid_argument);
}

// --- Metalink metadata ---------------------------------------------------------

ContentMetadata signed_metadata(crypto::MerkleSigner& signer, const std::string& label,
                                const std::string& body) {
  ContentMetadata metadata;
  metadata.name =
      SelfCertifyingName(label, SelfCertifyingName::publisher_id(signer.root()));
  metadata.digest = crypto::Sha256::hash(body);
  metadata.publisher_key = signer.root();
  metadata.signature = signer.sign(metadata.signing_input());
  metadata.mirrors = {"mirror-1", "mirror-2"};
  return metadata;
}

TEST(Metalink, HeaderRoundtrip) {
  crypto::MerkleSigner signer(21, 2);
  const ContentMetadata metadata = signed_metadata(signer, "obj", "the content");
  net::HeaderMap headers;
  metadata.apply_to(headers);
  EXPECT_TRUE(headers.contains("X-IdICN-Digest"));
  EXPECT_EQ(headers.get_all("Link").size(), 2u);

  const auto restored = ContentMetadata::from_headers(headers);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->name, metadata.name);
  EXPECT_EQ(restored->digest, metadata.digest);
  EXPECT_EQ(restored->publisher_key, metadata.publisher_key);
  EXPECT_EQ(restored->mirrors, metadata.mirrors);
  EXPECT_EQ(verify_content(*restored, "the content"), VerifyResult::Ok);
}

TEST(Metalink, VerifyOk) {
  crypto::MerkleSigner signer(22, 2);
  const ContentMetadata metadata = signed_metadata(signer, "obj", "payload");
  EXPECT_EQ(verify_content(metadata, "payload"), VerifyResult::Ok);
}

TEST(Metalink, DetectsTamperedBody) {
  crypto::MerkleSigner signer(23, 2);
  const ContentMetadata metadata = signed_metadata(signer, "obj", "payload");
  EXPECT_EQ(verify_content(metadata, "paylOad"), VerifyResult::DigestMismatch);
}

TEST(Metalink, DetectsKeySubstitution) {
  // Attacker re-signs modified content with their own key but keeps the
  // victim's name: the key no longer hashes to P.
  crypto::MerkleSigner victim(24, 2);
  crypto::MerkleSigner attacker(25, 2);
  ContentMetadata metadata = signed_metadata(victim, "obj", "original");
  metadata.digest = crypto::Sha256::hash("evil");
  metadata.publisher_key = attacker.root();
  metadata.signature = attacker.sign(metadata.signing_input());
  EXPECT_EQ(verify_content(metadata, "evil"), VerifyResult::PublisherMismatch);
}

TEST(Metalink, DetectsSignatureReplayAcrossNames) {
  // A valid signature for one label must not validate another label with
  // the same digest (the signature binds name AND digest).
  crypto::MerkleSigner signer(26, 2);
  const ContentMetadata original = signed_metadata(signer, "obj-a", "same body");
  ContentMetadata forged = original;
  forged.name =
      SelfCertifyingName("obj-b", SelfCertifyingName::publisher_id(signer.root()));
  EXPECT_EQ(verify_content(forged, "same body"), VerifyResult::BadSignature);
}

TEST(Metalink, FromHeadersRejectsMissingOrMalformed) {
  crypto::MerkleSigner signer(27, 2);
  const ContentMetadata metadata = signed_metadata(signer, "obj", "body");

  {
    net::HeaderMap headers;
    metadata.apply_to(headers);
    headers.remove("X-IdICN-Signature");
    EXPECT_FALSE(ContentMetadata::from_headers(headers).has_value());
  }
  {
    net::HeaderMap headers;
    metadata.apply_to(headers);
    headers.set("X-IdICN-Digest", "md5=abc");
    EXPECT_FALSE(ContentMetadata::from_headers(headers).has_value());
  }
  {
    net::HeaderMap headers;
    metadata.apply_to(headers);
    headers.set("X-IdICN-Publisher", "zz");
    EXPECT_FALSE(ContentMetadata::from_headers(headers).has_value());
  }
  {
    net::HeaderMap headers;
    metadata.apply_to(headers);
    headers.set("X-IdICN-Name", "www.legacy.com");
    EXPECT_FALSE(ContentMetadata::from_headers(headers).has_value());
  }
}

TEST(Metalink, FlippingAnyProofByteIsBadSignature) {
  // Every byte of the proof is bound: a revealed secret, a complement
  // hash, an auth-path node or the leaf index, changed after the proof
  // crossed the wire, fails verification as a bad signature.
  crypto::MerkleSigner signer(29, 3);
  (void)signer.sign("skip leaf 0");
  (void)signer.sign("skip leaf 1");
  const ContentMetadata metadata = signed_metadata(signer, "obj", "body");
  net::HeaderMap headers;
  metadata.apply_to(headers);
  const auto received = ContentMetadata::from_headers(headers);
  ASSERT_TRUE(received.has_value());
  ASSERT_EQ(verify_content(*received, "body"), VerifyResult::Ok);

  const auto expect_rejected = [&](const auto& flip, const std::string& what) {
    ContentMetadata tampered = *received;
    flip(tampered.signature);
    EXPECT_EQ(verify_content(tampered, "body"), VerifyResult::BadSignature) << what;
  };
  for (std::size_t i = 0; i < 256; ++i) {
    expect_rejected([i](crypto::MerkleSignature& sig) {
      sig.ots_signature.revealed[i][i % 32] ^= 0x01;
    }, "revealed secret " + std::to_string(i));
    expect_rejected([i](crypto::MerkleSignature& sig) {
      sig.complement[i][(i * 7) % 32] ^= 0x80;
    }, "complement hash " + std::to_string(i));
  }
  for (std::size_t node = 0; node < received->signature.auth_path.size(); ++node) {
    for (std::size_t b = 0; b < 32; ++b) {
      expect_rejected([node, b](crypto::MerkleSignature& sig) {
        sig.auth_path[node][b] ^= 0x10;
      }, "auth-path node " + std::to_string(node) + " byte " + std::to_string(b));
    }
  }
  for (std::size_t b = 0; b < 4; ++b) {
    expect_rejected([b](crypto::MerkleSignature& sig) {
      sig.leaf_index ^= 0x01u << (8 * b);
    }, "leaf index byte " + std::to_string(b));
  }
}

TEST(Metalink, FromHeadersRejectsMalformedProofs) {
  crypto::MerkleSigner signer(30, 3);
  const ContentMetadata metadata = signed_metadata(signer, "obj", "body");
  net::HeaderMap signed_headers;
  metadata.apply_to(signed_headers);
  const std::string proof(*signed_headers.get_view("X-IdICN-Signature"));
  const auto with_proof = [&](const std::string& value) {
    net::HeaderMap headers = signed_headers;
    headers.set("X-IdICN-Signature", value);
    return ContentMetadata::from_headers(headers);
  };
  ASSERT_TRUE(with_proof(proof).has_value());

  // Truncated.
  for (const std::size_t keep : {std::size_t{0}, std::size_t{1}, proof.size() / 3,
                                 proof.size() - 3, proof.size() - 1}) {
    EXPECT_FALSE(with_proof(proof.substr(0, keep)).has_value()) << keep;
  }
  // One character outside the base64url alphabet.
  for (const char bad : {'=', '+', '/', ':', '.', '\xff'}) {
    std::string corrupt = proof;
    corrupt[proof.size() / 2] = bad;
    EXPECT_FALSE(with_proof(corrupt).has_value()) << static_cast<int>(bad);
  }
  // A well-formed encoding of the wrong number of bytes.
  EXPECT_FALSE(with_proof(proof + "AAAAAAAAAAA").has_value());
  // The retired hex form: "<index>:<OTS key hex>:<signature hex>:<path>".
  const auto& sig = metadata.signature;
  std::string legacy = std::to_string(sig.leaf_index) + ":" +
                       std::string(2 * 256 * 2 * 32, 'a') + ":" +
                       crypto::hex_encode(sig.ots_signature.serialize()) + ":";
  for (std::size_t i = 0; i < sig.auth_path.size(); ++i) {
    if (i > 0) legacy += ",";
    legacy += crypto::hex_encode(std::span<const std::uint8_t>(sig.auth_path[i]));
  }
  EXPECT_FALSE(with_proof(legacy).has_value());
}

TEST(Metalink, SameObjectCheckComparesNameAndDigest) {
  crypto::MerkleSigner signer(31, 2);
  const ContentMetadata metadata = signed_metadata(signer, "obj", "body");
  net::HeaderMap headers;
  metadata.apply_to(headers, /*include_proof=*/false);
  EXPECT_TRUE(metadata.names_same_object(headers));

  net::HeaderMap other_name = headers;
  other_name.set("X-IdICN-Name", SelfCertifyingName("other", metadata.name.publisher()).host());
  EXPECT_FALSE(metadata.names_same_object(other_name));

  net::HeaderMap other_digest = headers;
  other_digest.set("X-IdICN-Digest",
                   "sha-256=" + crypto::hex_encode(std::span<const std::uint8_t>(
                                    crypto::Sha256::hash("other body"))));
  EXPECT_FALSE(metadata.names_same_object(other_digest));

  net::HeaderMap bare;
  EXPECT_FALSE(metadata.names_same_object(bare));
}

TEST(Metalink, NonDuplicateLinksIgnored) {
  crypto::MerkleSigner signer(28, 2);
  ContentMetadata metadata = signed_metadata(signer, "obj", "body");
  metadata.mirrors.clear();
  net::HeaderMap headers;
  metadata.apply_to(headers);
  headers.add("Link", "<http://style.css>; rel=stylesheet");
  const auto restored = ContentMetadata::from_headers(headers);
  ASSERT_TRUE(restored.has_value());
  EXPECT_TRUE(restored->mirrors.empty());
}

}  // namespace
