// Hex encoding/decoding used to render digests and keys inside
// self-certifying names (L.P where P is a hex-coded hash of a public key),
// and to carry Merkle signatures in the X-IdICN-Signature header.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace idicn::crypto {

/// Lowercase hex encoding of a byte span.
[[nodiscard]] std::string hex_encode(std::span<const std::uint8_t> data);

/// Lowercase hex encoding of `data` into `out`, which must hold exactly
/// 2 * data.size() characters. Returns false (writing nothing) otherwise.
bool hex_encode_into(std::span<const std::uint8_t> data, std::span<char> out) noexcept;

/// Decode a hex string (either case). Returns std::nullopt on odd length or
/// non-hex characters.
[[nodiscard]] std::optional<std::vector<std::uint8_t>> hex_decode(std::string_view text);

/// Decode a hex string (either case) into `out` without allocating. Returns
/// false on odd length, on a length other than 2 * out.size(), or on any
/// character outside [0-9a-fA-F]; `out` is then unspecified.
[[nodiscard]] bool hex_decode_into(std::string_view text, std::span<std::uint8_t> out) noexcept;

}  // namespace idicn::crypto
