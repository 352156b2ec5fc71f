#include "crypto/lamport.hpp"

#include <algorithm>
#include <cstring>
#include <random>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "crypto/base64url.hpp"
#include "crypto/hex.hpp"

namespace idicn::crypto {
namespace {

/// Fill a digest-sized buffer from a seeded PRNG (deterministic keygen).
Sha256Digest random_digest(std::mt19937_64& rng) {
  Sha256Digest d{};
  for (std::size_t i = 0; i < d.size(); i += 8) {
    const std::uint64_t word = rng();
    std::memcpy(d.data() + i, &word, 8);
  }
  return d;
}

/// Hash of the concatenation of two digests (Merkle interior node).
Sha256Digest hash_pair(const Sha256Digest& left, const Sha256Digest& right) {
  Sha256 h;
  h.update(std::span<const std::uint8_t>(left));
  h.update(std::span<const std::uint8_t>(right));
  return h.finish();
}

/// The bytes of a (nested) digest array, in the order the serializations
/// concatenate them.
template <typename DigestArray>
auto bytes_of(DigestArray& digests) {
  static_assert(sizeof(DigestArray) % sizeof(Sha256Digest) == 0, "digests only, no padding");
  using Byte = std::conditional_t<std::is_const_v<DigestArray>, const std::uint8_t,
                                  std::uint8_t>;
  return std::span<Byte>(reinterpret_cast<Byte*>(digests.data()), sizeof(DigestArray));
}

/// Extract bit `i` (MSB-first within each byte) of a digest.
bool digest_bit(const Sha256Digest& d, std::size_t i) {
  return (d[i / 8] >> (7 - i % 8)) & 1;
}

}  // namespace

std::vector<std::uint8_t> LamportPublicKey::serialize() const {
  const auto bytes = bytes_of(pairs);
  return {bytes.begin(), bytes.end()};
}

Sha256Digest LamportPublicKey::fingerprint() const { return Sha256::hash(bytes_of(pairs)); }

std::vector<std::uint8_t> LamportSignature::serialize() const {
  const auto bytes = bytes_of(revealed);
  return {bytes.begin(), bytes.end()};
}

std::optional<LamportSignature> LamportSignature::deserialize(
    std::span<const std::uint8_t> bytes) {
  if (bytes.size() != 256 * 32) return std::nullopt;
  LamportSignature sig;
  for (std::size_t i = 0; i < 256; ++i) {
    std::memcpy(sig.revealed[i].data(), bytes.data() + i * 32, 32);
  }
  return sig;
}

LamportKeyPair lamport_keygen(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  LamportKeyPair kp;
  for (std::size_t i = 0; i < 256; ++i) {
    for (std::size_t b = 0; b < 2; ++b) {
      kp.secret.pairs[i][b] = random_digest(rng);
      kp.pub.pairs[i][b] =
          Sha256::hash(std::span<const std::uint8_t>(kp.secret.pairs[i][b]));
    }
  }
  return kp;
}

LamportSignature lamport_sign(const LamportSecretKey& key, std::string_view message) {
  const Sha256Digest digest = Sha256::hash(message);
  LamportSignature sig;
  for (std::size_t i = 0; i < 256; ++i) {
    sig.revealed[i] = key.pairs[i][digest_bit(digest, i) ? 1 : 0];
  }
  return sig;
}

bool lamport_verify(const LamportPublicKey& key, std::string_view message,
                    const LamportSignature& sig) {
  const Sha256Digest digest = Sha256::hash(message);
  for (std::size_t i = 0; i < 256; ++i) {
    const std::size_t bit = digest_bit(digest, i) ? 1 : 0;
    const Sha256Digest expected =
        Sha256::hash(std::span<const std::uint8_t>(sig.revealed[i]));
    if (expected != key.pairs[i][bit]) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Merkle signature scheme
// ---------------------------------------------------------------------------

std::string MerkleSignature::encode() const {
  // Staged in one stack buffer, then encoded into a string sized up front.
  std::array<std::uint8_t, kFixedBytes + kMaxHeight * sizeof(Sha256Digest)> wire;
  // A path past kMaxHeight never verifies; it is cut to fit the buffer.
  const std::size_t path = std::min(auth_path.size(), kMaxHeight);
  for (std::size_t i = 0; i < 4; ++i) {
    wire[i] = static_cast<std::uint8_t>(leaf_index >> (24 - 8 * i));
  }
  const auto revealed = bytes_of(ots_signature.revealed);
  const auto others = bytes_of(complement);
  std::uint8_t* at = std::copy(revealed.begin(), revealed.end(), wire.data() + 4);
  at = std::copy(others.begin(), others.end(), at);
  for (std::size_t i = 0; i < path; ++i) {
    at = std::copy(auth_path[i].begin(), auth_path[i].end(), at);
  }
  const std::span<const std::uint8_t> bytes(wire.data(), static_cast<std::size_t>(at - wire.data()));
  std::string out(base64url_encoded_size(bytes.size()), '\0');
  base64url_encode_into(bytes, out);
  return out;
}

std::optional<MerkleSignature> MerkleSignature::decode(std::string_view text) {
  std::array<std::uint8_t, kFixedBytes + kMaxHeight * sizeof(Sha256Digest)> wire;
  // The byte count the text's length implies; decoding rejects lengths no
  // byte count encodes to.
  const std::size_t size = text.size() * 3 / 4;
  if (size < kFixedBytes || size > wire.size() ||
      (size - kFixedBytes) % sizeof(Sha256Digest) != 0 ||
      !base64url_decode_into(text, {wire.data(), size})) {
    return std::nullopt;
  }
  MerkleSignature sig;
  for (std::size_t i = 0; i < 4; ++i) sig.leaf_index = (sig.leaf_index << 8) | wire[i];
  const std::uint8_t* at = wire.data() + 4;
  const auto revealed = bytes_of(sig.ots_signature.revealed);
  const auto others = bytes_of(sig.complement);
  std::memcpy(revealed.data(), at, revealed.size());
  at += revealed.size();
  std::memcpy(others.data(), at, others.size());
  at += others.size();
  for (; at != wire.data() + size; at += sizeof(Sha256Digest)) {
    Sha256Digest node;
    std::memcpy(node.data(), at, node.size());
    sig.auth_path.push_back(node);
  }
  return sig;
}

MerkleSigner::MerkleSigner(std::uint64_t seed, unsigned height) {
  const std::size_t leaf_count = static_cast<std::size_t>(1) << height;
  keys_.reserve(leaf_count);
  leaves_.reserve(leaf_count);
  for (std::size_t i = 0; i < leaf_count; ++i) {
    // Per-leaf seeds are derived, not sequential, so adjacent keys differ.
    keys_.push_back(lamport_keygen(seed * 0x9e3779b97f4a7c15ULL + i * 0xb492b66fbe98f273ULL + i));
    leaves_.push_back(keys_.back().pub.fingerprint());
  }

  tree_.push_back(leaves_);
  while (tree_.back().size() > 1) {
    const std::vector<Sha256Digest>& prev = tree_.back();
    std::vector<Sha256Digest> next;
    next.reserve((prev.size() + 1) / 2);
    for (std::size_t i = 0; i < prev.size(); i += 2) {
      next.push_back(hash_pair(prev[i], prev[i + 1]));
    }
    tree_.push_back(std::move(next));
  }
  root_ = tree_.back().front();
}

std::string MerkleSigner::fingerprint_hex() const {
  const Sha256Digest fp = Sha256::hash(std::span<const std::uint8_t>(root_));
  return hex_encode(std::span<const std::uint8_t>(fp));
}

std::size_t MerkleSigner::remaining() const noexcept {
  return leaves_.size() - next_leaf_;
}

MerkleSignature MerkleSigner::sign(std::string_view message) {
  if (next_leaf_ >= leaves_.size()) {
    throw std::runtime_error("MerkleSigner: all one-time keys exhausted");
  }
  const std::size_t leaf = next_leaf_++;

  MerkleSignature sig;
  sig.leaf_index = static_cast<std::uint32_t>(leaf);
  sig.ots_signature = lamport_sign(keys_[leaf].secret, message);
  const Sha256Digest digest = Sha256::hash(message);
  for (std::size_t i = 0; i < 256; ++i) {
    sig.complement[i] = keys_[leaf].pub.pairs[i][digest_bit(digest, i) ? 0 : 1];
  }

  std::size_t index = leaf;
  for (std::size_t level = 0; level + 1 < tree_.size(); ++level) {
    const std::size_t sibling = index ^ 1;
    sig.auth_path.push_back(tree_[level][sibling]);
    index /= 2;
  }
  return sig;
}

bool MerkleSigner::verify(const Sha256Digest& root, std::string_view message,
                          const MerkleSignature& sig) {
  // The path's length is the tree height: an index with bits above it
  // would name a leaf the path never reaches.
  const std::size_t height = sig.auth_path.size();
  if (height > MerkleSignature::kMaxHeight ||
      (height < MerkleSignature::kMaxHeight && (sig.leaf_index >> height) != 0)) {
    return false;
  }

  // Rebuild the OTS public key pair by pair — H(revealed) at the digest
  // bit, the complement at the other position — and fingerprint it as
  // LamportPublicKey::fingerprint() would.
  const Sha256Digest digest = Sha256::hash(message);
  Sha256 key;
  for (std::size_t i = 0; i < 256; ++i) {
    const std::size_t bit = digest_bit(digest, i) ? 1 : 0;
    std::array<Sha256Digest, 2> pair;
    pair[bit] = Sha256::hash(std::span<const std::uint8_t>(sig.ots_signature.revealed[i]));
    pair[bit ^ 1] = sig.complement[i];
    key.update(bytes_of(std::as_const(pair)));
  }

  Sha256Digest node = key.finish();
  std::size_t index = sig.leaf_index;
  for (const Sha256Digest& sibling : sig.auth_path) {
    node = (index & 1) ? hash_pair(sibling, node) : hash_pair(node, sibling);
    index /= 2;
  }
  return node == root;
}

}  // namespace idicn::crypto
