// The two SHA-256 compression functions behind Sha256, exposed so tests and
// micro-benchmarks can run the portable oracle and the SHA-NI path on the
// same input. Library code goes through Sha256, which picks one of them once
// per process by CPUID; nothing here is a runtime switch.
#pragma once

#include <cstddef>
#include <cstdint>

namespace idicn::crypto::detail {

/// Absorb `blocks` consecutive 64-byte blocks into `state` (8 words).
using Sha256Compress = void (*)(std::uint32_t* state, const std::uint8_t* data,
                                std::size_t blocks) noexcept;

/// FIPS 180-4 scalar compression: runs everywhere, and is the test oracle.
void sha256_compress_portable(std::uint32_t* state, const std::uint8_t* data,
                              std::size_t blocks) noexcept;

/// Intel SHA extensions compression. Call only when sha256_shani_supported().
void sha256_compress_shani(std::uint32_t* state, const std::uint8_t* data,
                           std::size_t blocks) noexcept;

/// True when the CPU has SHA-NI, SSSE3 and SSE4.1 (CPUID leaves 1 and 7).
[[nodiscard]] bool sha256_shani_supported() noexcept;

}  // namespace idicn::crypto::detail
