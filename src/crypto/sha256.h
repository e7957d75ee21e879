// SHA-256 (FIPS 180-4).
//
// Used for: enclave measurements (MRENCLAVE extend chain), IMA file digests,
// certificate signatures (via Ed25519ph-style prehash), HKDF/HMAC, and the
// TLS transcript hash.
//
// One compression function per CPU capability: the SHA-NI rounds
// (runtime-detected, used whenever the CPU has them — constant-time by
// construction) and the portable rounds as the fallback.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.h"

namespace vnfsgx::crypto {

inline constexpr std::size_t kSha256DigestSize = 32;
inline constexpr std::size_t kSha256BlockSize = 64;

using Sha256Digest = std::array<std::uint8_t, kSha256DigestSize>;

/// True when this build and CPU run the SHA-256 rounds in hardware (SHA-NI).
bool sha256_hw_available();

namespace detail {

/// Test hooks: one-shot digests forced through the portable rounds and
/// through the SHA-NI rounds, for cross-checking the two compression
/// functions. sha256_hw requires sha256_hw_available().
Sha256Digest sha256_portable(ByteView data);
Sha256Digest sha256_hw(ByteView data);

}  // namespace detail

/// Incremental SHA-256. Copyable: copying forks the hash state, which the
/// TLS transcript hash uses to snapshot at each handshake message.
class Sha256 {
 public:
  Sha256();

  void reset();
  void update(ByteView data);
  /// Finalizes into `out`. The object must be reset() before reuse.
  Sha256Digest finish();

  static Sha256Digest hash(ByteView data) {
    Sha256 h;
    h.update(data);
    return h.finish();
  }

 private:
  /// Runs `blocks` consecutive 64-byte blocks through the compression
  /// function.
  using CompressFn = void (*)(std::uint32_t state[8], const std::uint8_t* data,
                              std::size_t blocks);

  explicit Sha256(CompressFn compress) : compress_(compress) { reset(); }

  friend Sha256Digest detail::sha256_portable(ByteView data);
  friend Sha256Digest detail::sha256_hw(ByteView data);

  CompressFn compress_;
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, kSha256BlockSize> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
};

/// Convenience: digest as a Bytes vector.
Bytes sha256(ByteView data);

}  // namespace vnfsgx::crypto
