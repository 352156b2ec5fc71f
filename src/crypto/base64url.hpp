// RFC 4648 §5 base64url (URL- and filename-safe alphabet, unpadded).
//
// The Merkle signature rides in the X-IdICN-Signature response header and
// in the NRS registration form body. base64url's alphabet
// ([A-Za-z0-9_-]) needs no escaping in either place and carries 6 bits per
// character, so the proof is a third the size hex would make it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace idicn::crypto {

/// Characters in the unpadded base64url encoding of `bytes` bytes.
[[nodiscard]] constexpr std::size_t base64url_encoded_size(std::size_t bytes) noexcept {
  return (bytes * 4 + 2) / 3;
}

/// Encode `data` into `out`, which must hold exactly
/// base64url_encoded_size(data.size()) characters. Returns false (writing
/// nothing) otherwise.
bool base64url_encode_into(std::span<const std::uint8_t> data, std::span<char> out) noexcept;

/// Decode `text` into exactly `out.size()` bytes without allocating.
/// Returns false when `text` is not the canonical encoding of that many
/// bytes: a length other than base64url_encoded_size(out.size()), a
/// character outside the alphabet (padding '=' included), or non-zero
/// leftover bits in the last character. `out` is then unspecified.
[[nodiscard]] bool base64url_decode_into(std::string_view text,
                                         std::span<std::uint8_t> out) noexcept;

}  // namespace idicn::crypto
