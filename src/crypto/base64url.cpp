#include "crypto/base64url.hpp"

#include <array>

namespace idicn::crypto {
namespace {

constexpr std::string_view kAlphabet =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_";

/// Character -> 6-bit value, or kBad for anything outside the alphabet.
constexpr std::uint8_t kBad = 0xff;
constexpr std::array<std::uint8_t, 256> kDecode = [] {
  std::array<std::uint8_t, 256> table{};
  table.fill(kBad);
  for (std::size_t v = 0; v < kAlphabet.size(); ++v) {
    table[static_cast<unsigned char>(kAlphabet[v])] = static_cast<std::uint8_t>(v);
  }
  return table;
}();

std::uint8_t value_of(char c) noexcept { return kDecode[static_cast<unsigned char>(c)]; }

}  // namespace

bool base64url_encode_into(std::span<const std::uint8_t> data, std::span<char> out) noexcept {
  if (out.size() != base64url_encoded_size(data.size())) return false;
  const std::uint8_t* in = data.data();
  char* dst = out.data();
  std::size_t left = data.size();
  for (; left >= 3; left -= 3, in += 3, dst += 4) {
    const std::uint32_t group = (std::uint32_t{in[0]} << 16) | (std::uint32_t{in[1]} << 8) | in[2];
    dst[0] = kAlphabet[group >> 18];
    dst[1] = kAlphabet[(group >> 12) & 0x3f];
    dst[2] = kAlphabet[(group >> 6) & 0x3f];
    dst[3] = kAlphabet[group & 0x3f];
  }
  if (left > 0) {
    // One or two trailing bytes: 2 or 3 characters, the last zero-padded.
    const std::uint32_t group =
        (std::uint32_t{in[0]} << 16) | (left == 2 ? std::uint32_t{in[1]} << 8 : 0);
    dst[0] = kAlphabet[group >> 18];
    dst[1] = kAlphabet[(group >> 12) & 0x3f];
    if (left == 2) dst[2] = kAlphabet[(group >> 6) & 0x3f];
  }
  return true;
}

bool base64url_decode_into(std::string_view text, std::span<std::uint8_t> out) noexcept {
  if (text.size() != base64url_encoded_size(out.size())) return false;
  const char* in = text.data();
  std::uint8_t* dst = out.data();
  std::size_t left = out.size();
  // Valid values are <= 0x3f and kBad is 0xff, so OR-ing every looked-up
  // value and testing the high bits once rejects any bad character.
  std::uint8_t seen = 0;
  for (; left >= 3; left -= 3, in += 4, dst += 3) {
    const std::uint8_t a = value_of(in[0]);
    const std::uint8_t b = value_of(in[1]);
    const std::uint8_t c = value_of(in[2]);
    const std::uint8_t d = value_of(in[3]);
    seen |= static_cast<std::uint8_t>(a | b | c | d);
    const std::uint32_t group = (std::uint32_t{a} << 18) | (std::uint32_t{b} << 12) |
                                (std::uint32_t{c} << 6) | d;
    dst[0] = static_cast<std::uint8_t>(group >> 16);
    dst[1] = static_cast<std::uint8_t>(group >> 8);
    dst[2] = static_cast<std::uint8_t>(group);
  }
  if (left > 0) {
    const std::uint8_t a = value_of(in[0]);
    const std::uint8_t b = value_of(in[1]);
    const std::uint8_t c = left == 2 ? value_of(in[2]) : 0;
    seen |= static_cast<std::uint8_t>(a | b | c);
    if (seen > 0x3f) return false;
    const std::uint32_t group = (std::uint32_t{a} << 18) | (std::uint32_t{b} << 12) |
                                (std::uint32_t{c} << 6);
    dst[0] = static_cast<std::uint8_t>(group >> 16);
    if (left == 2) dst[1] = static_cast<std::uint8_t>(group >> 8);
    // Canonical form only: the bits past the last byte must be zero.
    const std::uint32_t spare = left == 2 ? (group >> 6) & 0x03 : (group >> 12) & 0x0f;
    if (spare != 0) return false;
  }
  return seen <= 0x3f;
}

}  // namespace idicn::crypto
