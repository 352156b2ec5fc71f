// Crypto substrate tests: SHA-256 against FIPS vectors (both compression
// paths, differentially against the portable oracle), hex/base32/base64url
// codecs incl. strict rejection, HMAC against RFC 4231, Lamport and Merkle signatures
// incl. forgery and tamper rejection.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <random>

#include "crypto/base32.hpp"
#include "crypto/base64url.hpp"
#include "crypto/hex.hpp"
#include "crypto/hmac.hpp"
#include "crypto/lamport.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha256_internal.hpp"

namespace {

using namespace idicn::crypto;

std::string hex_of(const Sha256Digest& digest) {
  return hex_encode(std::span<const std::uint8_t>(digest));
}

// --- SHA-256 (FIPS 180-4 / NIST test vectors) ------------------------------

TEST(Sha256, EmptyString) {
  EXPECT_EQ(hex_of(Sha256::hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(hex_of(Sha256::hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(hex_of(Sha256::hash(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionA) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(hex_of(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, ExactBlockBoundary) {
  // 64 bytes: padding spills into a second block; 63 bytes: the 0x80 byte
  // fits but the length does not.
  EXPECT_EQ(hex_of(Sha256::hash(std::string(64, 'x'))),
            "7ce100971f64e7001e8fe5a51973ecdfe1ced42befe7ee8d5fd6219506b5393c");
  EXPECT_EQ(hex_of(Sha256::hash(std::string(63, 'x'))),
            "75220b47218278e656f2013bb8f0c455a25eaf01e86c64924e9d48d89776d6f2");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string message =
      "The quick brown fox jumps over the lazy dog, repeatedly and at length.";
  for (std::size_t split = 0; split <= message.size(); split += 7) {
    Sha256 h;
    h.update(std::string_view(message).substr(0, split));
    h.update(std::string_view(message).substr(split));
    EXPECT_EQ(h.finish(), Sha256::hash(message)) << "split=" << split;
  }
}

TEST(Sha256, ResetReusesObject) {
  Sha256 h;
  h.update("first");
  (void)h.finish();
  h.reset();
  h.update("abc");
  EXPECT_EQ(hex_of(h.finish()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

class Sha256LengthSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Sha256LengthSweep, ByteAtATimeMatchesOneShot) {
  const std::size_t length = GetParam();
  std::string message(length, '\0');
  for (std::size_t i = 0; i < length; ++i) {
    message[i] = static_cast<char>(i * 131 + 7);
  }
  Sha256 h;
  for (const char c : message) h.update(std::string_view(&c, 1));
  EXPECT_EQ(h.finish(), Sha256::hash(message));
}

INSTANTIATE_TEST_SUITE_P(PaddingBoundaries, Sha256LengthSweep,
                         ::testing::Values(0, 1, 55, 56, 57, 63, 64, 65, 119, 120,
                                           127, 128, 129, 1000));

// --- SHA-256 compression paths: SHA-NI against the portable oracle ---------

/// SHA-256 of `message` computed with one compression function directly:
/// full blocks go in batches of 1..4 blocks (drawn from `rng`), then the
/// FIPS 180-4 padding.
Sha256Digest digest_with(detail::Sha256Compress compress, std::string_view message,
                         std::mt19937_64& rng) {
  std::array<std::uint32_t, 8> state = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                                        0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(message.data());
  std::size_t blocks = message.size() / 64;
  while (blocks > 0) {
    const std::size_t batch = std::min<std::size_t>(blocks, 1 + rng() % 4);
    compress(state.data(), bytes, batch);
    bytes += batch * 64;
    blocks -= batch;
  }
  std::array<std::uint8_t, 128> tail{};
  const std::size_t rest = message.size() % 64;
  std::copy_n(bytes, rest, tail.begin());
  tail[rest] = 0x80;
  const std::size_t tail_len = rest < 56 ? 64 : 128;
  const std::uint64_t bits = static_cast<std::uint64_t>(message.size()) * 8;
  for (std::size_t i = 0; i < 8; ++i) {
    tail[tail_len - 1 - i] = static_cast<std::uint8_t>(bits >> (8 * i));
  }
  compress(state.data(), tail.data(), tail_len / 64);
  Sha256Digest out{};
  for (std::size_t i = 0; i < 32; ++i) {
    out[i] = static_cast<std::uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
  }
  return out;
}

struct NistVector {
  std::string message;
  const char* digest;
};

std::vector<NistVector> nist_vectors() {
  return {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
       "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
       "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"},
      {std::string(1'000'000, 'a'),
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
  };
}

/// Random 0..4 KB messages, each hashed with `compress` directly and
/// streamed through Sha256 in random update() pieces (the way ChunkedBody
/// bodies arrive), checked against the portable oracle.
void expect_matches_oracle(detail::Sha256Compress compress) {
  std::mt19937_64 rng(2024);
  for (int round = 0; round < 400; ++round) {
    std::string message(rng() % 4097, '\0');
    for (char& c : message) c = static_cast<char>(rng());
    const Sha256Digest oracle = digest_with(detail::sha256_compress_portable, message, rng);
    EXPECT_EQ(digest_with(compress, message, rng), oracle) << "length " << message.size();

    Sha256 streamed;
    std::string_view rest(message);
    while (!rest.empty()) {
      const std::size_t piece = std::min<std::size_t>(rest.size(), rng() % 300);
      streamed.update(rest.substr(0, piece));
      rest.remove_prefix(piece);
    }
    EXPECT_EQ(streamed.finish(), oracle) << "length " << message.size();
  }
}

TEST(Sha256Oracle, PortableMatchesNistVectors) {
  std::mt19937_64 rng(1);
  for (const NistVector& v : nist_vectors()) {
    EXPECT_EQ(hex_of(digest_with(detail::sha256_compress_portable, v.message, rng)), v.digest)
        << "length " << v.message.size();
  }
}

TEST(Sha256Oracle, ShaNiMatchesNistVectors) {
  if (!detail::sha256_shani_supported()) GTEST_SKIP() << "CPU has no SHA-NI";
  std::mt19937_64 rng(1);
  for (const NistVector& v : nist_vectors()) {
    EXPECT_EQ(hex_of(digest_with(detail::sha256_compress_shani, v.message, rng)), v.digest)
        << "length " << v.message.size();
  }
}

TEST(Sha256Oracle, PortableStreamingMatchesOracle) {
  expect_matches_oracle(detail::sha256_compress_portable);
}

TEST(Sha256Oracle, ShaNiMatchesPortableOnRandomSplits) {
  if (!detail::sha256_shani_supported()) GTEST_SKIP() << "CPU has no SHA-NI";
  expect_matches_oracle(detail::sha256_compress_shani);
}

// --- hex ---------------------------------------------------------------

TEST(Hex, EncodeDecodeRoundtrip) {
  std::mt19937_64 rng(42);
  for (std::size_t length = 0; length < 100; ++length) {
    std::vector<std::uint8_t> data(length);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng());
    const std::string encoded = hex_encode(data);
    EXPECT_EQ(encoded.size(), length * 2);
    const auto decoded = hex_decode(encoded);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, data);
  }
}

TEST(Hex, DecodeRejectsOddLength) { EXPECT_FALSE(hex_decode("abc").has_value()); }

TEST(Hex, DecodeRejectsNonHex) {
  EXPECT_FALSE(hex_decode("zz").has_value());
  EXPECT_FALSE(hex_decode("0g").has_value());
}

TEST(Hex, DecodeRejectsEveryNonHexByteAtEveryPosition) {
  const std::string_view valid = "0123456789abcdefABCDEF00";
  std::array<std::uint8_t, 12> out{};
  ASSERT_TRUE(hex_decode_into(valid, out));
  for (int value = 0; value < 256; ++value) {
    const char c = static_cast<char>(value);
    if (std::isxdigit(static_cast<unsigned char>(c))) continue;
    for (const std::size_t position : {std::size_t{0}, valid.size() / 2 - 1, valid.size() - 1}) {
      std::string text(valid);
      text[position] = c;
      EXPECT_FALSE(hex_decode(text).has_value()) << "byte " << value << " at " << position;
      EXPECT_FALSE(hex_decode_into(text, out)) << "byte " << value << " at " << position;
    }
  }
}

TEST(Hex, DecodeIntoRejectsWrongOutputSize) {
  std::array<std::uint8_t, 3> out{};
  EXPECT_FALSE(hex_decode_into("abcd", out));        // too short for the buffer
  EXPECT_FALSE(hex_decode_into("abcdef01", out));    // too long for the buffer
  EXPECT_FALSE(hex_decode_into("abcde", out));       // odd length
  EXPECT_FALSE(hex_decode_into("abcdef0", out));     // odd length
  EXPECT_TRUE(hex_decode_into("abcdef", out));
  EXPECT_EQ(out, (std::array<std::uint8_t, 3>{0xab, 0xcd, 0xef}));
  EXPECT_TRUE(hex_decode_into("", std::span<std::uint8_t>()));
}

TEST(Hex, EncodeIntoMatchesEncodeAndChecksSize) {
  const std::array<std::uint8_t, 4> data = {0x00, 0x7f, 0x80, 0xff};
  std::array<char, 8> out{};
  ASSERT_TRUE(hex_encode_into(data, out));
  EXPECT_EQ(std::string(out.begin(), out.end()), "007f80ff");
  EXPECT_EQ(hex_encode(data), "007f80ff");
  std::array<char, 7> short_out{};
  EXPECT_FALSE(hex_encode_into(data, short_out));
}

TEST(Hex, DecodeAcceptsUppercase) {
  const auto decoded = hex_decode("DEADBEEF");
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(hex_encode(*decoded), "deadbeef");
}

// --- base32 --------------------------------------------------------------

TEST(Base32, Rfc4648Vectors) {
  const auto bytes = [](std::string_view s) {
    return std::vector<std::uint8_t>(s.begin(), s.end());
  };
  EXPECT_EQ(base32_encode(bytes("")), "");
  EXPECT_EQ(base32_encode(bytes("f")), "my");
  EXPECT_EQ(base32_encode(bytes("fo")), "mzxq");
  EXPECT_EQ(base32_encode(bytes("foo")), "mzxw6");
  EXPECT_EQ(base32_encode(bytes("foob")), "mzxw6yq");
  EXPECT_EQ(base32_encode(bytes("fooba")), "mzxw6ytb");
  EXPECT_EQ(base32_encode(bytes("foobar")), "mzxw6ytboi");
}

TEST(Base32, Sha256DigestIsDnsLabelSized) {
  // The whole point (paper footnote): a 32-byte digest must fit in a
  // 63-char DNS label; hex (64 chars) does not, base32 (52) does.
  const Sha256Digest digest = Sha256::hash("anything");
  const std::string encoded = base32_encode(std::span<const std::uint8_t>(digest));
  EXPECT_EQ(encoded.size(), 52u);
  EXPECT_LE(encoded.size(), 63u);
}

class Base32Roundtrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Base32Roundtrip, EncodeDecode) {
  std::mt19937_64 rng(GetParam() * 977 + 3);
  std::vector<std::uint8_t> data(GetParam());
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());
  const auto decoded = base32_decode(base32_encode(data));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, data);
}

INSTANTIATE_TEST_SUITE_P(Sizes, Base32Roundtrip,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 6, 7, 8, 31, 32, 33, 64));

TEST(Base32, DecodeRejectsInvalid) {
  EXPECT_FALSE(base32_decode("a").has_value());    // impossible length
  EXPECT_FALSE(base32_decode("a1").has_value());   // '1' not in alphabet
  EXPECT_FALSE(base32_decode("a!").has_value());
  // Nonzero trailing padding bits.
  EXPECT_FALSE(base32_decode("mz").has_value() && base32_decode("mz")->size() == 2);
}

TEST(Base32, DecodeAcceptsUppercase) {
  const auto decoded = base32_decode("MZXW6YTBOI");
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::string(decoded->begin(), decoded->end()), "foobar");
}

// --- base64url (RFC 4648 §5, unpadded) ---------------------------------------

std::span<const std::uint8_t> bytes_of_text(std::string_view text) {
  return {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()};
}

std::string base64url_of(std::span<const std::uint8_t> data) {
  std::string out(base64url_encoded_size(data.size()), '\0');
  EXPECT_TRUE(base64url_encode_into(data, out));
  return out;
}

TEST(Base64url, Rfc4648VectorsUnpadded) {
  const std::pair<std::string_view, std::string_view> vectors[] = {
      {"", ""},         {"f", "Zg"},          {"fo", "Zm8"},         {"foo", "Zm9v"},
      {"foob", "Zm9vYg"}, {"fooba", "Zm9vYmE"}, {"foobar", "Zm9vYmFy"}};
  for (const auto& [plain, encoded] : vectors) {
    EXPECT_EQ(base64url_of(bytes_of_text(plain)), encoded);
    std::vector<std::uint8_t> decoded(plain.size());
    ASSERT_TRUE(base64url_decode_into(encoded, decoded)) << encoded;
    EXPECT_EQ(std::string(decoded.begin(), decoded.end()), plain);
  }
}

TEST(Base64url, UsesTheUrlSafeAlphabet) {
  // Standard base64 spells these "+/8=": base64url swaps in '-' and '_'
  // and drops the padding.
  const std::array<std::uint8_t, 2> bytes = {0xfb, 0xff};
  EXPECT_EQ(base64url_of(bytes), "-_8");
  std::array<std::uint8_t, 2> decoded{};
  ASSERT_TRUE(base64url_decode_into("-_8", decoded));
  EXPECT_EQ(decoded, bytes);
  EXPECT_FALSE(base64url_decode_into("+/8", decoded));
}

TEST(Base64url, RoundTripsEveryLengthAndByte) {
  std::mt19937 rng(41);
  for (std::size_t size = 0; size < 70; ++size) {
    std::vector<std::uint8_t> data(size);
    for (auto& byte : data) byte = static_cast<std::uint8_t>(rng());
    const std::string text = base64url_of(data);
    EXPECT_EQ(text.size(), base64url_encoded_size(size));
    std::vector<std::uint8_t> decoded(size);
    ASSERT_TRUE(base64url_decode_into(text, decoded)) << size;
    EXPECT_EQ(decoded, data);
  }
}

TEST(Base64url, DecodeRejectsNonCanonicalInput) {
  std::array<std::uint8_t, 1> one{};
  std::array<std::uint8_t, 3> three{};
  EXPECT_FALSE(base64url_decode_into("Zh", one));     // spare bits set ("Zg" is canonical)
  EXPECT_FALSE(base64url_decode_into("Zg==", one));   // padding
  EXPECT_FALSE(base64url_decode_into("Zm9", one));    // length of a different size
  EXPECT_FALSE(base64url_decode_into("Zm9v", std::span<std::uint8_t>(three).first(2)));
  ASSERT_TRUE(base64url_decode_into("Zm9v", three));
  for (const char bad : {'=', '+', '/', '.', ' ', ':', '\0', '\xff'}) {
    for (std::size_t at = 0; at < 4; ++at) {
      std::string text = "Zm9v";
      text[at] = bad;
      EXPECT_FALSE(base64url_decode_into(text, three))
          << "char " << static_cast<int>(bad) << " at " << at;
    }
  }
}

// --- HMAC-SHA256 (RFC 4231) ----------------------------------------------

TEST(Hmac, Rfc4231Case1) {
  const std::vector<std::uint8_t> key(20, 0x0b);
  const Sha256Digest mac = hmac_sha256(
      std::span<const std::uint8_t>(key),
      std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>("Hi There"), 8));
  EXPECT_EQ(hex_of(mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  const Sha256Digest mac = hmac_sha256("Jefe", "what do ya want for nothing?");
  EXPECT_EQ(hex_of(mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, LongKeyIsHashedFirst) {
  // RFC 4231 case 6: 131-byte key.
  const std::vector<std::uint8_t> key(131, 0xaa);
  const std::string message = "Test Using Larger Than Block-Size Key - Hash Key First";
  const Sha256Digest mac = hmac_sha256(
      std::span<const std::uint8_t>(key),
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(message.data()), message.size()));
  EXPECT_EQ(hex_of(mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, DifferentKeysDiffer) {
  EXPECT_NE(hmac_sha256("key1", "message"), hmac_sha256("key2", "message"));
  EXPECT_NE(hmac_sha256("key", "message1"), hmac_sha256("key", "message2"));
}

// --- Lamport one-time signatures -------------------------------------------

TEST(Lamport, SignVerify) {
  const LamportKeyPair kp = lamport_keygen(7);
  const LamportSignature sig = lamport_sign(kp.secret, "hello idicn");
  EXPECT_TRUE(lamport_verify(kp.pub, "hello idicn", sig));
}

TEST(Lamport, RejectsWrongMessage) {
  const LamportKeyPair kp = lamport_keygen(7);
  const LamportSignature sig = lamport_sign(kp.secret, "hello idicn");
  EXPECT_FALSE(lamport_verify(kp.pub, "hello idicn!", sig));
}

TEST(Lamport, RejectsWrongKey) {
  const LamportKeyPair kp1 = lamport_keygen(7);
  const LamportKeyPair kp2 = lamport_keygen(8);
  const LamportSignature sig = lamport_sign(kp1.secret, "msg");
  EXPECT_FALSE(lamport_verify(kp2.pub, "msg", sig));
}

TEST(Lamport, RejectsTamperedSignature) {
  const LamportKeyPair kp = lamport_keygen(9);
  LamportSignature sig = lamport_sign(kp.secret, "msg");
  sig.revealed[17][5] ^= 0x01;
  EXPECT_FALSE(lamport_verify(kp.pub, "msg", sig));
}

TEST(Lamport, SignatureSerializationRoundtrip) {
  const LamportKeyPair kp = lamport_keygen(10);
  const LamportSignature sig = lamport_sign(kp.secret, "roundtrip");
  const auto bytes = sig.serialize();
  const auto restored = LamportSignature::deserialize(bytes);
  ASSERT_TRUE(restored.has_value());
  EXPECT_TRUE(lamport_verify(kp.pub, "roundtrip", *restored));
}

TEST(Lamport, DeserializeRejectsBadSize) {
  EXPECT_FALSE(LamportSignature::deserialize(std::vector<std::uint8_t>(100)).has_value());
}

TEST(Lamport, FingerprintHashesTheSerialization) {
  const LamportKeyPair kp = lamport_keygen(11);
  const std::vector<std::uint8_t> bytes = kp.pub.serialize();
  ASSERT_EQ(bytes.size(), 256u * 2 * 32);
  EXPECT_EQ(kp.pub.fingerprint(), Sha256::hash(std::span<const std::uint8_t>(bytes)));
}

TEST(Lamport, KeygenIsDeterministic) {
  EXPECT_EQ(lamport_keygen(123).pub, lamport_keygen(123).pub);
  EXPECT_NE(lamport_keygen(123).pub, lamport_keygen(124).pub);
}

// --- Merkle signature scheme ------------------------------------------------

TEST(Merkle, SignVerifyManyMessages) {
  MerkleSigner signer(11, 3);  // 8 one-time keys
  EXPECT_EQ(signer.capacity(), 8u);
  for (int i = 0; i < 8; ++i) {
    const std::string message = "object-" + std::to_string(i);
    const MerkleSignature sig = signer.sign(message);
    EXPECT_TRUE(MerkleSigner::verify(signer.root(), message, sig)) << i;
  }
  EXPECT_EQ(signer.remaining(), 0u);
}

TEST(Merkle, ExhaustionThrows) {
  MerkleSigner signer(12, 1);  // 2 keys
  (void)signer.sign("a");
  (void)signer.sign("b");
  EXPECT_THROW((void)signer.sign("c"), std::runtime_error);
}

TEST(Merkle, RejectsWrongRoot) {
  MerkleSigner signer(13, 2);
  MerkleSigner other(14, 2);
  const MerkleSignature sig = signer.sign("msg");
  EXPECT_FALSE(MerkleSigner::verify(other.root(), "msg", sig));
}

TEST(Merkle, RejectsWrongMessage) {
  MerkleSigner signer(15, 2);
  const MerkleSignature sig = signer.sign("msg");
  EXPECT_FALSE(MerkleSigner::verify(signer.root(), "other", sig));
}

TEST(Merkle, RejectsTamperedAuthPath) {
  MerkleSigner signer(16, 3);
  MerkleSignature sig = signer.sign("msg");
  sig.auth_path[1][0] ^= 0x80;
  EXPECT_FALSE(MerkleSigner::verify(signer.root(), "msg", sig));
}

TEST(Merkle, RejectsLeafIndexSubstitution) {
  MerkleSigner signer(17, 3);
  MerkleSignature sig = signer.sign("msg");
  sig.leaf_index ^= 1;  // claim the sibling leaf signed it
  EXPECT_FALSE(MerkleSigner::verify(signer.root(), "msg", sig));
}

TEST(Merkle, RejectsLeafIndexBeyondTheTree) {
  // An index bit above the path's height names no leaf the path reaches;
  // accepting it would make the index malleable.
  MerkleSigner signer(22, 3);
  MerkleSignature sig = signer.sign("msg");
  ASSERT_TRUE(MerkleSigner::verify(signer.root(), "msg", sig));
  sig.leaf_index |= 1u << 3;
  EXPECT_FALSE(MerkleSigner::verify(signer.root(), "msg", sig));
  sig.leaf_index = (sig.leaf_index & 7u) | (1u << 31);
  EXPECT_FALSE(MerkleSigner::verify(signer.root(), "msg", sig));
}

TEST(Merkle, RejectsSwappedRevealedAndComplementHalves) {
  // Each position's revealed secret hashes into the half the digest bit
  // selects; moving a complement hash into the other half changes the key.
  MerkleSigner signer(23, 2);
  MerkleSignature sig = signer.sign("msg");
  std::swap(sig.ots_signature.revealed[0], sig.complement[0]);
  EXPECT_FALSE(MerkleSigner::verify(signer.root(), "msg", sig));
}

TEST(Merkle, EncodeDecodeRoundtrip) {
  MerkleSigner signer(18, 3);
  (void)signer.sign("skip leaf 0");
  const MerkleSignature sig = signer.sign("roundtrip me");
  const std::string encoded = sig.encode();
  const auto decoded = MerkleSignature::decode(encoded);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->leaf_index, sig.leaf_index);
  EXPECT_EQ(decoded->ots_signature.revealed, sig.ots_signature.revealed);
  EXPECT_EQ(decoded->complement, sig.complement);
  EXPECT_EQ(decoded->auth_path, sig.auth_path);
  EXPECT_EQ(decoded->encode(), encoded);
  EXPECT_TRUE(MerkleSigner::verify(signer.root(), "roundtrip me", *decoded));
}

TEST(Merkle, EncodeLayoutIsIndexRevealedComplementPath) {
  MerkleSigner signer(20, 2);
  (void)signer.sign("skip leaf 0");
  const MerkleSignature sig = signer.sign("layout");
  std::vector<std::uint8_t> wire = {0, 0, 0, static_cast<std::uint8_t>(sig.leaf_index)};
  const std::vector<std::uint8_t> revealed = sig.ots_signature.serialize();
  wire.insert(wire.end(), revealed.begin(), revealed.end());
  for (const Sha256Digest& hash : sig.complement) wire.insert(wire.end(), hash.begin(), hash.end());
  for (const Sha256Digest& node : sig.auth_path) wire.insert(wire.end(), node.begin(), node.end());
  ASSERT_EQ(wire.size(), MerkleSignature::kFixedBytes + 2 * 32);
  EXPECT_EQ(sig.encode(), base64url_of(wire));
}

TEST(Merkle, Height9SignatureEncodesTo22235Characters) {
  // 4 + 256·32 + 256·32 + 9·32 = 16 676 bytes → ⌈16 676·4/3⌉ characters.
  MerkleSignature sig;
  sig.auth_path.resize(9);
  EXPECT_EQ(sig.encode().size(), 22235u);
}

TEST(Merkle, DecodeRejectsOneNonAlphabetCharacterAnywhere) {
  MerkleSigner signer(21, 3);
  const std::string encoded = signer.sign("strict").encode();
  ASSERT_TRUE(MerkleSignature::decode(encoded).has_value());
  for (const std::size_t position :
       {std::size_t{0}, std::size_t{5}, std::size_t{1000}, std::size_t{10'929},
        std::size_t{21'000}, encoded.size() - 2, encoded.size() - 1}) {
    for (const char bad : {'=', '+', '/', ':', ',', ' ', '\0', '\xff'}) {
      std::string corrupt = encoded;
      corrupt[position] = bad;
      EXPECT_FALSE(MerkleSignature::decode(corrupt).has_value())
          << "char " << static_cast<int>(bad) << " at " << position;
    }
  }
}

TEST(Merkle, DecodeRejectsWrongLengths) {
  MerkleSigner signer(24, 3);
  const MerkleSignature sig = signer.sign("length");
  const std::string encoded = sig.encode();
  for (const std::size_t keep : {std::size_t{0}, std::size_t{10}, encoded.size() / 2,
                                 encoded.size() - 2, encoded.size() - 1}) {
    EXPECT_FALSE(MerkleSignature::decode(encoded.substr(0, keep)).has_value()) << keep;
  }
  // Well-formed base64url of byte counts no signature has: a path that is
  // not whole digests, and one deeper than a 32-bit index can address.
  for (const std::size_t bytes :
       {MerkleSignature::kFixedBytes - 1, MerkleSignature::kFixedBytes + 16,
        MerkleSignature::kFixedBytes + 33 * 32}) {
    const std::vector<std::uint8_t> zeros(bytes);
    EXPECT_FALSE(MerkleSignature::decode(base64url_of(zeros)).has_value()) << bytes;
  }
  // A height-0 tree's signature (no path) is well-formed.
  const std::vector<std::uint8_t> no_path(MerkleSignature::kFixedBytes);
  EXPECT_TRUE(MerkleSignature::decode(base64url_of(no_path)).has_value());
}

TEST(Merkle, DecodeRejectsGarbage) {
  EXPECT_FALSE(MerkleSignature::decode("").has_value());
  EXPECT_FALSE(MerkleSignature::decode("notasig").has_value());
  EXPECT_FALSE(MerkleSignature::decode("1:abcd:ef01:").has_value());
  MerkleSigner signer(19, 1);
  std::string encoded = signer.sign("x").encode();
  encoded.insert(0, "0:");  // an index field in front, as the hex form had
  EXPECT_FALSE(MerkleSignature::decode(encoded).has_value());
}

TEST(Merkle, DistinctSignersHaveDistinctRoots) {
  EXPECT_NE(MerkleSigner(1, 2).root(), MerkleSigner(2, 2).root());
  EXPECT_EQ(MerkleSigner(3, 2).root(), MerkleSigner(3, 2).root());
}

}  // namespace
