#include "crypto/hex.hpp"

#include <array>
#include <cstring>

namespace idicn::crypto {
namespace {

/// Byte -> its two lowercase hex digits.
constexpr std::array<std::array<char, 2>, 256> kEncode = [] {
  constexpr char digits[] = "0123456789abcdef";
  std::array<std::array<char, 2>, 256> table{};
  for (std::size_t b = 0; b < table.size(); ++b) table[b] = {digits[b >> 4], digits[b & 0x0f]};
  return table;
}();

/// Character -> nibble value, or kBad for anything outside [0-9a-fA-F].
constexpr std::uint8_t kBad = 0xff;
constexpr std::array<std::uint8_t, 256> kDecode = [] {
  std::array<std::uint8_t, 256> table{};
  table.fill(kBad);
  for (std::uint8_t v = 0; v < 10; ++v) table['0' + v] = v;
  for (std::uint8_t v = 0; v < 6; ++v) {
    table['a' + v] = static_cast<std::uint8_t>(10 + v);
    table['A' + v] = static_cast<std::uint8_t>(10 + v);
  }
  return table;
}();

}  // namespace

bool hex_encode_into(std::span<const std::uint8_t> data, std::span<char> out) noexcept {
  if (out.size() != data.size() * 2) return false;
  char* dst = out.data();
  for (const std::uint8_t byte : data) {
    std::memcpy(dst, kEncode[byte].data(), 2);
    dst += 2;
  }
  return true;
}

std::string hex_encode(std::span<const std::uint8_t> data) {
  std::string out(data.size() * 2, '\0');
  hex_encode_into(data, out);
  return out;
}

bool hex_decode_into(std::string_view text, std::span<std::uint8_t> out) noexcept {
  if (text.size() != out.size() * 2) return false;
  // Valid nibbles are <= 0x0f and kBad is 0xff, so OR-ing every looked-up
  // value and testing the high bits once rejects any bad character.
  std::uint8_t seen = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const std::uint8_t hi = kDecode[static_cast<unsigned char>(text[2 * i])];
    const std::uint8_t lo = kDecode[static_cast<unsigned char>(text[2 * i + 1])];
    seen |= static_cast<std::uint8_t>(hi | lo);
    out[i] = static_cast<std::uint8_t>((hi << 4) | lo);
  }
  return seen <= 0x0f;
}

std::optional<std::vector<std::uint8_t>> hex_decode(std::string_view text) {
  if (text.size() % 2 != 0) return std::nullopt;
  std::vector<std::uint8_t> out(text.size() / 2);
  if (!hex_decode_into(text, out)) return std::nullopt;
  return out;
}

}  // namespace idicn::crypto
