#include "crypto/sha256.hpp"

#include <algorithm>
#include <cstring>

#include "crypto/sha256_internal.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <immintrin.h>
#define IDICN_SHA256_X86 1
#endif

namespace idicn::crypto {
namespace {

alignas(16) constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::uint32_t rotr(std::uint32_t x, unsigned n) noexcept {
  return (x >> n) | (x << (32 - n));
}

#ifdef IDICN_SHA256_X86
#define IDICN_SHANI_TARGET __attribute__((target("sha,sse4.1,ssse3")))

/// Four big-endian message words.
IDICN_SHANI_TARGET inline __m128i load_group(const std::uint8_t* data,
                                             __m128i byte_swap) noexcept {
  return _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(data)),
                          byte_swap);
}

/// Four rounds: add the round constants to message group `w`, then two
/// two-round SHA256RNDS2 steps over the ABEF/CDGH state halves.
IDICN_SHANI_TARGET inline void four_rounds(__m128i& abef, __m128i& cdgh, __m128i w,
                                           std::size_t k) noexcept {
  const __m128i msg = _mm_add_epi32(
      w, _mm_load_si128(reinterpret_cast<const __m128i*>(&kRoundConstants[k])));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, msg);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(msg, 0x0e));
}

/// Message schedule: the next four words from the previous sixteen
/// (w0 oldest, w3 newest).
IDICN_SHANI_TARGET inline __m128i next_group(__m128i w0, __m128i w1, __m128i w2,
                                             __m128i w3) noexcept {
  const __m128i partial =
      _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
  return _mm_sha256msg2_epu32(partial, w3);
}
#endif

}  // namespace

namespace detail {

void sha256_compress_portable(std::uint32_t* state, const std::uint8_t* data,
                              std::size_t blocks) noexcept {
  for (; blocks > 0; --blocks, data += 64) {
    std::array<std::uint32_t, 64> w{};
    for (int i = 0; i < 16; ++i) {
      w[static_cast<std::size_t>(i)] =
          (static_cast<std::uint32_t>(data[4 * i]) << 24) |
          (static_cast<std::uint32_t>(data[4 * i + 1]) << 16) |
          (static_cast<std::uint32_t>(data[4 * i + 2]) << 8) |
          static_cast<std::uint32_t>(data[4 * i + 3]);
    }
    for (std::size_t i = 16; i < 64; ++i) {
      const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (std::size_t i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#ifdef IDICN_SHA256_X86

IDICN_SHANI_TARGET void sha256_compress_shani(std::uint32_t* state, const std::uint8_t* data,
                                              std::size_t blocks) noexcept {
  // Big-endian message words within each 16-byte lane.
  const __m128i byte_swap = _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);

  // SHA256RNDS2 wants the state as ABEF / CDGH, not ABCD / EFGH.
  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  dcba = _mm_shuffle_epi32(dcba, 0xb1);                  // CDAB
  hgfe = _mm_shuffle_epi32(hgfe, 0x1b);                  // EFGH
  __m128i abef = _mm_alignr_epi8(dcba, hgfe, 8);         // ABEF
  __m128i cdgh = _mm_blend_epi16(hgfe, dcba, 0xf0);      // CDGH

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w0 = load_group(data, byte_swap);
    __m128i w1 = load_group(data + 16, byte_swap);
    __m128i w2 = load_group(data + 32, byte_swap);
    __m128i w3 = load_group(data + 48, byte_swap);
    four_rounds(abef, cdgh, w0, 0);
    four_rounds(abef, cdgh, w1, 4);
    four_rounds(abef, cdgh, w2, 8);
    four_rounds(abef, cdgh, w3, 12);
    for (std::size_t k = 16; k < 64; k += 16) {
      w0 = next_group(w0, w1, w2, w3);
      four_rounds(abef, cdgh, w0, k);
      w1 = next_group(w1, w2, w3, w0);
      four_rounds(abef, cdgh, w1, k + 4);
      w2 = next_group(w2, w3, w0, w1);
      four_rounds(abef, cdgh, w2, k + 8);
      w3 = next_group(w3, w0, w1, w2);
      four_rounds(abef, cdgh, w3, k + 12);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), _mm_blend_epi16(feba, dchg, 0xf0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), _mm_alignr_epi8(dchg, feba, 8));
}

bool sha256_shani_supported() noexcept {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool ssse3 = (ecx & bit_SSSE3) != 0;
  const bool sse41 = (ecx & bit_SSE4_1) != 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool sha = (ebx & bit_SHA) != 0;  // leaf 7 EBX bit 29
  return ssse3 && sse41 && sha;
}

#else

void sha256_compress_shani(std::uint32_t* state, const std::uint8_t* data,
                           std::size_t blocks) noexcept {
  sha256_compress_portable(state, data, blocks);
}

bool sha256_shani_supported() noexcept { return false; }

#endif

}  // namespace detail

namespace {

/// The compression function for this process, chosen on first use.
detail::Sha256Compress compress_fn() noexcept {
  static const detail::Sha256Compress fn = detail::sha256_shani_supported()
                                               ? detail::sha256_compress_shani
                                               : detail::sha256_compress_portable;
  return fn;
}

}  // namespace

void Sha256::reset() noexcept {
  state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  buffer_len_ = 0;
  total_len_ = 0;
}

void Sha256::update(std::span<const std::uint8_t> data) noexcept {
  total_len_ += data.size();
  const std::uint8_t* in = data.data();
  std::size_t left = data.size();
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(left, buffer_.size() - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, in, take);
    buffer_len_ += take;
    in += take;
    left -= take;
    if (buffer_len_ < buffer_.size()) return;
    compress_fn()(state_.data(), buffer_.data(), 1);
    buffer_len_ = 0;
  }
  if (left >= 64) {
    compress_fn()(state_.data(), in, left / 64);
    in += left / 64 * 64;
    left %= 64;
  }
  if (left > 0) {
    std::memcpy(buffer_.data(), in, left);
    buffer_len_ = left;
  }
}

void Sha256::update(std::string_view data) noexcept {
  update(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
}

Sha256Digest Sha256::finish() noexcept {
  // Append 0x80, zeros up to byte 56 of a block, then the 64-bit big-endian
  // bit length; a tail longer than 55 bytes spills into a second block.
  const std::uint64_t bit_len = total_len_ * 8;
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_.data() + buffer_len_, 0, buffer_.size() - buffer_len_);
    compress_fn()(state_.data(), buffer_.data(), 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0, 56 - buffer_len_);
  for (std::size_t i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  compress_fn()(state_.data(), buffer_.data(), 1);

  Sha256Digest out{};
  for (std::size_t i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

Sha256Digest Sha256::hash(std::span<const std::uint8_t> data) noexcept {
  Sha256 h;
  h.update(data);
  return h.finish();
}

Sha256Digest Sha256::hash(std::string_view data) noexcept {
  Sha256 h;
  h.update(data);
  return h.finish();
}

}  // namespace idicn::crypto
