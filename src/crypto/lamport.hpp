// Hash-based signatures for idICN's content-oriented security (§6.1).
//
// The paper's idICN design binds content to a publisher through
// self-certifying names L.P where P is the cryptographic hash of the
// publisher's public key, and content is delivered together with a digital
// signature that anyone can verify against P. We implement this with
// hash-based signatures built entirely on our from-scratch SHA-256:
//
//  * LamportKeyPair / lamport_sign / lamport_verify — a classic Lamport
//    one-time signature (OTS): 256 secret pairs, public key = hashes of the
//    secrets, signing reveals one secret per message-digest bit.
//  * MerkleSigner / MerkleSignature — a Merkle signature scheme (MSS) that
//    aggregates 2^h Lamport OTS public keys under one Merkle root, so a
//    publisher has a *stable* public key (the root) whose hash is P while
//    still being able to sign many objects. Each signature carries the OTS
//    index, the revealed secrets, the unrevealed half of the OTS public
//    key, and the Merkle authentication path.
//
// These are real, verifiable constructions (the pre-history of XMSS), not
// mock crypto; tests include tamper/forge rejection.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/sha256.hpp"

namespace idicn::crypto {

/// One Lamport secret key: 256 pairs of 32-byte random values.
struct LamportSecretKey {
  std::array<std::array<Sha256Digest, 2>, 256> pairs{};
};

/// One Lamport public key: the SHA-256 of each secret value.
struct LamportPublicKey {
  std::array<std::array<Sha256Digest, 2>, 256> pairs{};

  /// Canonical serialization (for hashing and transport).
  [[nodiscard]] std::vector<std::uint8_t> serialize() const;

  /// SHA-256 over the serialization — the key's fingerprint.
  [[nodiscard]] Sha256Digest fingerprint() const;

  bool operator==(const LamportPublicKey&) const = default;
};

/// A Lamport signature: one revealed secret per digest bit.
struct LamportSignature {
  std::array<Sha256Digest, 256> revealed{};

  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
  [[nodiscard]] static std::optional<LamportSignature> deserialize(
      std::span<const std::uint8_t> bytes);
};

struct LamportKeyPair {
  LamportSecretKey secret;
  LamportPublicKey pub;
};

/// Deterministically derive a keypair from a 64-bit seed (keeps the
/// simulator reproducible; a deployment would use an OS CSPRNG).
[[nodiscard]] LamportKeyPair lamport_keygen(std::uint64_t seed);

/// Sign the SHA-256 of `message`. A secret key must be used at most once.
[[nodiscard]] LamportSignature lamport_sign(const LamportSecretKey& key,
                                            std::string_view message);

/// Verify `sig` over `message` against `key`.
[[nodiscard]] bool lamport_verify(const LamportPublicKey& key, std::string_view message,
                                  const LamportSignature& sig);

// ---------------------------------------------------------------------------
// Merkle signature scheme
// ---------------------------------------------------------------------------

/// A many-time signature: Lamport OTS authenticated under a Merkle root.
///
/// The OTS public key does not travel: for each message-digest bit the
/// verifier hashes the revealed secret, which gives that bit's half of the
/// key, and `complement` supplies the other half. The rebuilt key's
/// fingerprint is the Merkle leaf the auth path climbs from, so a wrong
/// secret, complement, path node or index changes the root.
struct MerkleSignature {
  std::uint32_t leaf_index = 0;                ///< which OTS key signed
  LamportSignature ots_signature;              ///< revealed secret per digest bit
  std::array<Sha256Digest, 256> complement{};  ///< OTS key hash of each unrevealed secret
  std::vector<Sha256Digest> auth_path;         ///< sibling hashes, leaf → root

  /// Bytes before the auth path in the wire form: the leaf index
  /// (4 bytes, big-endian), the revealed secrets and the complement.
  static constexpr std::size_t kFixedBytes = 4 + 2 * 256 * sizeof(Sha256Digest);
  /// Deepest auth path a 32-bit leaf index can address.
  static constexpr std::size_t kMaxHeight = 32;

  /// Unpadded base64url (RFC 4648 §5) of leaf index ‖ revealed secrets ‖
  /// complement ‖ auth path: the X-IdICN-Signature header value and the NRS
  /// registration's `signature` field.
  [[nodiscard]] std::string encode() const;
  /// Inverse of encode(); nullopt for anything but the canonical encoding
  /// of a signature with at most kMaxHeight path nodes.
  [[nodiscard]] static std::optional<MerkleSignature> decode(std::string_view text);
};

/// A publisher identity: 2^height Lamport keys under one Merkle root.
///
/// The Merkle root serves as the publisher's long-lived public key; its
/// SHA-256 fingerprint is the P component of self-certifying names.
class MerkleSigner {
public:
  /// Generate 2^height one-time keys deterministically from `seed`.
  MerkleSigner(std::uint64_t seed, unsigned height);

  /// The publisher's stable public key (the Merkle root).
  [[nodiscard]] const Sha256Digest& root() const noexcept { return root_; }

  /// Hex fingerprint of the root — the P used in names (L.P).
  [[nodiscard]] std::string fingerprint_hex() const;

  /// How many signatures remain before the key is exhausted.
  [[nodiscard]] std::size_t remaining() const noexcept;

  /// Total one-time keys (2^height).
  [[nodiscard]] std::size_t capacity() const noexcept { return leaves_.size(); }

  /// Sign `message` with the next unused one-time key.
  /// Throws std::runtime_error when all one-time keys are exhausted.
  [[nodiscard]] MerkleSignature sign(std::string_view message);

  /// Verify `sig` over `message` against a Merkle `root`.
  [[nodiscard]] static bool verify(const Sha256Digest& root, std::string_view message,
                                   const MerkleSignature& sig);

private:
  std::vector<LamportKeyPair> keys_;
  std::vector<std::vector<Sha256Digest>> tree_;  // tree_[0] = leaf hashes, last = {root}
  std::vector<Sha256Digest> leaves_;
  Sha256Digest root_{};
  std::size_t next_leaf_ = 0;
};

}  // namespace idicn::crypto
