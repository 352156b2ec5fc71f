#include "crypto/lamport.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <random>
#include <stdexcept>
#include <type_traits>

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
  std::array<char, 10> index{};
  const std::size_t index_len = static_cast<std::size_t>(
      std::to_chars(index.data(), index.data() + index.size(), leaf_index).ptr - index.data());
  const auto key = bytes_of(ots_public_key.pairs);
  const auto ots = bytes_of(ots_signature.revealed);
  const std::size_t path_len = auth_path.empty() ? 0 : auth_path.size() * 65 - 1;

  // "<index>:<key hex>:<signature hex>:<path hex>,<path hex>,..."
  std::string out(index_len + 1 + 2 * key.size() + 1 + 2 * ots.size() + 1 + path_len, ':');
  char* at = std::copy_n(index.data(), index_len, out.data()) + 1;
  const auto put_hex = [&at](std::span<const std::uint8_t> bytes) {
    hex_encode_into(bytes, {at, 2 * bytes.size()});
    at += 2 * bytes.size();
  };
  put_hex(key);
  ++at;
  put_hex(ots);
  ++at;
  for (std::size_t i = 0; i < auth_path.size(); ++i) {
    if (i > 0) *at++ = ',';
    put_hex(auth_path[i]);
  }
  return out;
}

std::optional<MerkleSignature> MerkleSignature::decode(std::string_view text) {
  MerkleSignature sig;

  const auto take_field = [&text]() -> std::optional<std::string_view> {
    const std::size_t pos = text.find(':');
    if (pos == std::string_view::npos) return std::nullopt;
    const std::string_view field = text.substr(0, pos);
    text.remove_prefix(pos + 1);
    return field;
  };

  const auto index_field = take_field();
  if (!index_field || index_field->empty()) return std::nullopt;
  std::uint32_t index = 0;
  for (const char c : *index_field) {
    if (c < '0' || c > '9') return std::nullopt;
    index = index * 10 + static_cast<std::uint32_t>(c - '0');
  }
  sig.leaf_index = index;

  const auto key_field = take_field();
  if (!key_field || !hex_decode_into(*key_field, bytes_of(sig.ots_public_key.pairs))) {
    return std::nullopt;
  }
  const auto sig_field = take_field();
  if (!sig_field || !hex_decode_into(*sig_field, bytes_of(sig.ots_signature.revealed))) {
    return std::nullopt;
  }

  // Remainder: comma-separated auth path (may be empty for height-0 trees).
  while (!text.empty()) {
    const std::size_t pos = text.find(',');
    const std::string_view item =
        pos == std::string_view::npos ? text : text.substr(0, pos);
    text.remove_prefix(pos == std::string_view::npos ? text.size() : pos + 1);
    Sha256Digest d{};
    if (!hex_decode_into(item, d)) return std::nullopt;
    sig.auth_path.push_back(d);
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
  sig.ots_public_key = keys_[leaf].pub;
  sig.ots_signature = lamport_sign(keys_[leaf].secret, message);

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
  if (!lamport_verify(sig.ots_public_key, message, sig.ots_signature)) return false;

  Sha256Digest node = sig.ots_public_key.fingerprint();
  std::size_t index = sig.leaf_index;
  for (const Sha256Digest& sibling : sig.auth_path) {
    node = (index & 1) ? hash_pair(sibling, node) : hash_pair(node, sibling);
    index /= 2;
  }
  return node == root;
}

}  // namespace idicn::crypto
