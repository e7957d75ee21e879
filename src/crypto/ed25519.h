// Ed25519 signatures (RFC 8032).
//
// Every signature in the system is Ed25519: certificate signatures (the
// Verification Manager's CA), TLS CertificateVerify, SGX quote signatures
// (the simulator's EPID stand-in), and IAS report signatures.
//
// Fixed-base scalar multiplications (keygen, sign) run against a
// precomputed 32x8 window table of base-point multiples; verification uses
// an interleaved Straus double-scalar multiplication. Both are
// variable-time — see docs/PROTOCOL.md, "Constant-time notes".
#pragma once

#include <array>
#include <optional>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/secure.h"
#include "crypto/random.h"

namespace vnfsgx::crypto {

inline constexpr std::size_t kEd25519SeedSize = 32;
inline constexpr std::size_t kEd25519PublicKeySize = 32;
inline constexpr std::size_t kEd25519SignatureSize = 64;

using Ed25519Seed = std::array<std::uint8_t, kEd25519SeedSize>;
using Ed25519PublicKey = std::array<std::uint8_t, kEd25519PublicKeySize>;
using Ed25519Signature = std::array<std::uint8_t, kEd25519SignatureSize>;

struct Ed25519KeyPair {
  // The RFC 8032 private key (32-byte seed); wiped when the pair dies.
  Zeroizing<Ed25519Seed> seed;
  Ed25519PublicKey public_key{};
};

/// The RFC 8032 §5.1.5 expansion of a seed: the clamped secret scalar a,
/// the nonce prefix, and the encoded public key A = a·B. Deriving it costs
/// a SHA-512 and a fixed-base multiply, so a holder derives it once from
/// its seed and signs from it; each signature then pays only for R = r·B.
/// The secret halves wipe themselves (Zeroizing), so the key lives exactly
/// as long as the object holding it.
struct Ed25519SigningKey {
  Zeroizing<std::array<std::uint8_t, 32>> scalar;  // clamped a
  Zeroizing<std::array<std::uint8_t, 32>> prefix;  // SHA-512(seed)[32..64)
  Ed25519PublicKey public_key{};
};

/// Derive the public key from a seed.
Ed25519PublicKey ed25519_public_key(const Ed25519Seed& seed);

/// Expand a seed into its signing key.
Ed25519SigningKey ed25519_expand_key(const Ed25519Seed& seed);

/// Generate a fresh keypair.
Ed25519KeyPair ed25519_generate(RandomSource& rng);

/// Deterministic signature over `message`.
Ed25519Signature ed25519_sign(const Ed25519SigningKey& key, ByteView message);

/// Verify. Rejects non-canonical s (s >= L), an undecodable public key, and
/// every R that is not the canonical encoding of s·B − k·A (which covers
/// non-canonical and undecodable R, RFC 8032 §5.1.7).
bool ed25519_verify(const Ed25519PublicKey& public_key, ByteView message,
                    ByteView signature);

/// One (key, message, signature) triple of a verification batch.
struct Ed25519BatchItem {
  Ed25519PublicKey public_key{};
  ByteView message;
  ByteView signature;
};

/// Random-linear-combination batch verification: checks
///   Σ z_i·R_i + Σ (z_i·k_i mod L)·A_i − (Σ z_i·s_i mod L)·B == identity
/// for 128-bit random coefficients z_i, evaluated as one multi-scalar
/// Straus pass whose doubling chain is shared across the whole batch
/// (~3-4x fewer point operations per signature than verifying serially).
///
/// The per-item verdicts are always identical to calling ed25519_verify on
/// each item: items failing the input checks (bad length, non-canonical s,
/// undecodable A or R — the batch equation needs R as a point, and single
/// verify rejects every such R too) are rejected up front and excluded
/// from the combined equation, and if the combined equation does not hold
/// the remaining items fall back to individual verification, identifying
/// exactly which signatures are bad while the rest still pass.
///
/// `rng` supplies the blinding coefficients; when null they are derived by
/// hashing the entire batch (domain-separated SHA-512), which commits the
/// coefficients to all inputs before any is chosen.
std::vector<bool> ed25519_verify_batch(std::span<const Ed25519BatchItem> items,
                                       RandomSource* rng = nullptr);

/// Fixed-base scalar multiplication exported for X25519 key generation:
/// computes scalar·B on edwards25519 via the precomputed window table and
/// returns the Montgomery u-coordinate of the birationally equivalent
/// curve25519 point, u = (1+y)/(1-y). For an RFC 7748 clamped scalar this
/// equals x25519(scalar, 9) at a fraction of the Montgomery-ladder cost —
/// the table amortizes the ~255-step doubling chain away. Scalar domain:
/// clamped scalars and values reduced mod L.
std::array<std::uint8_t, 32> ed25519_base_montgomery_u(
    const std::array<std::uint8_t, 32>& scalar_le);

namespace detail {

/// Test hooks: encoded scalar·B computed by the reference double-and-add
/// ladder and by the precomputed window table, for cross-checking the two
/// paths on arbitrary scalars. Scalars must be < 2^253 (clamped secret
/// scalars and values reduced mod L both qualify).
std::array<std::uint8_t, 32> base_mul_ladder(
    const std::array<std::uint8_t, 32>& scalar_le);
std::array<std::uint8_t, 32> base_mul_windowed(
    const std::array<std::uint8_t, 32>& scalar_le);

}  // namespace detail

}  // namespace vnfsgx::crypto
