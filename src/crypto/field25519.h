// Field arithmetic over GF(2^255 - 19), shared by X25519 and Ed25519.
//
// Representation: five 51-bit limbs in 64-bit words (the "donna-64"
// radix-2^51 layout). The hot kernels (add, sub, neg, mul, sq, mul_small,
// cswap) are defined inline here so the curve code compiles them into its
// point formulas; the exponentiation chains and encodings live in the .cpp.
//
// Limb-bound invariant ("loosely reduced"): every limb is < kFeLimbBound =
// 2^51 + 2^15. Every function below takes loosely reduced inputs and returns
// loosely reduced outputs, so results can be chained without extra carries:
//   - add/sub/neg/mul_small end with one carry pass. With inputs under the
//     bound, the pre-carry limbs stay < 2^53, each carry is <= 3, and the
//     pass leaves limbs 1..4 < 2^51 and limb 0 < 2^51 + 19*3.
//   - mul/sq accumulate 128-bit column sums (< 2^109 for inputs under the
//     bound) and carry them down to limbs 0, 2, 3, 4 < 2^51 and
//     limb 1 < 2^51 + 2^7.
// fe_to_bytes performs the full reduction to the canonical value < p; it
// also accepts limbs up to 2^63.
//
// Curve constants that are usually transcribed from reference code
// (Edwards d, sqrt(-1), the Ed25519 base point) are *computed* at first use
// from their defining equations, eliminating transcription errors.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.h"

namespace vnfsgx::crypto {

struct Fe {
  std::uint64_t v[5];
};

inline constexpr std::uint64_t kFeMask51 = (1ULL << 51) - 1;
/// Exclusive upper bound on every limb of a loosely reduced element.
inline constexpr std::uint64_t kFeLimbBound = (1ULL << 51) + (1ULL << 15);

inline Fe fe_zero() { return Fe{{0, 0, 0, 0, 0}}; }
inline Fe fe_one() { return Fe{{1, 0, 0, 0, 0}}; }
Fe fe_from_u64(std::uint64_t x);

/// One carry pass: limbs 1..4 end < 2^51, limb 0 < 2^51 + 19·(limb 4 >> 51).
inline Fe fe_carry(Fe a) {
  for (int i = 0; i < 4; ++i) {
    a.v[i + 1] += a.v[i] >> 51;
    a.v[i] &= kFeMask51;
  }
  a.v[0] += 19 * (a.v[4] >> 51);
  a.v[4] &= kFeMask51;
  return a;
}

inline Fe fe_add(const Fe& a, const Fe& b) {
  Fe r;
  for (int i = 0; i < 5; ++i) r.v[i] = a.v[i] + b.v[i];
  return fe_carry(r);
}

inline Fe fe_sub(const Fe& a, const Fe& b) {
  // a - b + 2p, with 2p = (2^52-38, 2^52-2, 2^52-2, 2^52-2, 2^52-2) in
  // radix 2^51: every limb of 2p exceeds kFeLimbBound, so no limb goes
  // negative for loosely reduced b.
  Fe r;
  r.v[0] = a.v[0] + ((1ULL << 52) - 38) - b.v[0];
  for (int i = 1; i < 5; ++i) r.v[i] = a.v[i] + ((1ULL << 52) - 2) - b.v[i];
  return fe_carry(r);
}

inline Fe fe_neg(const Fe& a) { return fe_sub(fe_zero(), a); }

namespace fe_detail {

using u128 = unsigned __int128;

// Carry five 128-bit column sums down to loosely reduced limbs.
inline Fe reduce_wide(u128 t0, u128 t1, u128 t2, u128 t3, u128 t4) {
  Fe r;
  t1 += static_cast<std::uint64_t>(t0 >> 51);
  r.v[0] = static_cast<std::uint64_t>(t0) & kFeMask51;
  t2 += static_cast<std::uint64_t>(t1 >> 51);
  r.v[1] = static_cast<std::uint64_t>(t1) & kFeMask51;
  t3 += static_cast<std::uint64_t>(t2 >> 51);
  r.v[2] = static_cast<std::uint64_t>(t2) & kFeMask51;
  t4 += static_cast<std::uint64_t>(t3 >> 51);
  r.v[3] = static_cast<std::uint64_t>(t3) & kFeMask51;
  r.v[0] += static_cast<std::uint64_t>(t4 >> 51) * 19;
  r.v[4] = static_cast<std::uint64_t>(t4) & kFeMask51;
  r.v[1] += r.v[0] >> 51;
  r.v[0] &= kFeMask51;
  return r;
}

inline u128 mul64(std::uint64_t a, std::uint64_t b) {
  return static_cast<u128>(a) * b;
}

}  // namespace fe_detail

inline Fe fe_mul(const Fe& a, const Fe& b) {
  using fe_detail::mul64;
  const std::uint64_t a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3],
                      a4 = a.v[4];
  const std::uint64_t b0 = b.v[0], b1 = b.v[1], b2 = b.v[2], b3 = b.v[3],
                      b4 = b.v[4];
  const std::uint64_t b1_19 = b1 * 19, b2_19 = b2 * 19, b3_19 = b3 * 19,
                      b4_19 = b4 * 19;
  return fe_detail::reduce_wide(
      mul64(a0, b0) + mul64(a1, b4_19) + mul64(a2, b3_19) + mul64(a3, b2_19) +
          mul64(a4, b1_19),
      mul64(a0, b1) + mul64(a1, b0) + mul64(a2, b4_19) + mul64(a3, b3_19) +
          mul64(a4, b2_19),
      mul64(a0, b2) + mul64(a1, b1) + mul64(a2, b0) + mul64(a3, b4_19) +
          mul64(a4, b3_19),
      mul64(a0, b3) + mul64(a1, b2) + mul64(a2, b1) + mul64(a3, b0) +
          mul64(a4, b4_19),
      mul64(a0, b4) + mul64(a1, b3) + mul64(a2, b2) + mul64(a3, b1) +
          mul64(a4, b0));
}

/// Squaring: the cross terms a_i·a_j (i != j) of fe_mul appear twice, so
/// doubling one factor first needs 15 products instead of 25.
inline Fe fe_sq(const Fe& a) {
  using fe_detail::mul64;
  const std::uint64_t a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3],
                      a4 = a.v[4];
  const std::uint64_t d0 = 2 * a0, d1 = 2 * a1, d2 = 2 * a2, d3 = 2 * a3;
  const std::uint64_t a3_19 = a3 * 19, a4_19 = a4 * 19;
  return fe_detail::reduce_wide(
      mul64(a0, a0) + mul64(d1, a4_19) + mul64(d2, a3_19),
      mul64(d0, a1) + mul64(d2, a4_19) + mul64(a3, a3_19),
      mul64(d0, a2) + mul64(a1, a1) + mul64(d3, a4_19),
      mul64(d0, a3) + mul64(d1, a2) + mul64(a4, a4_19),
      mul64(d0, a4) + mul64(d1, a3) + mul64(a2, a2));
}

/// Multiply by a small scalar (< 2^17), used for a24 = 121665 and 2.
inline Fe fe_mul_small(const Fe& a, std::uint64_t s) {
  Fe r;
  fe_detail::u128 acc = 0;
  for (int i = 0; i < 5; ++i) {
    acc += fe_detail::mul64(a.v[i], s);
    r.v[i] = static_cast<std::uint64_t>(acc) & kFeMask51;
    acc >>= 51;
  }
  r.v[0] += static_cast<std::uint64_t>(acc) * 19;
  return fe_carry(r);
}

/// Constant-time conditional swap (swap iff bit == 1).
inline void fe_cswap(Fe& a, Fe& b, std::uint64_t bit) {
  const std::uint64_t mask = 0 - bit;
  for (int i = 0; i < 5; ++i) {
    const std::uint64_t x = mask & (a.v[i] ^ b.v[i]);
    a.v[i] ^= x;
    b.v[i] ^= x;
  }
}

/// Raise to an arbitrary 255-bit exponent given as 32 big-endian bytes.
/// Variable-time; acceptable because every exponent used is a public
/// curve constant.
Fe fe_pow(const Fe& base, const std::array<std::uint8_t, 32>& exp_be);

/// Multiplicative inverse (x^(p-2)); fe_invert(0) == 0. Uses the standard
/// curve25519 addition chain (254 squarings + 11 multiplies) instead of a
/// generic square-and-multiply walk.
Fe fe_invert(const Fe& a);

/// x^((p-5)/8) = x^(2^252 - 3), the exponent used by Ed25519 point
/// decompression (RFC 8032 §5.1.3). Shares the inversion addition chain.
Fe fe_pow22523(const Fe& a);

/// Load 32 little-endian bytes, ignoring the top bit (RFC 7748 masking).
Fe fe_from_bytes(ByteView in32);
/// Store fully reduced, 32 little-endian bytes.
std::array<std::uint8_t, 32> fe_to_bytes(const Fe& a);

bool fe_is_zero(const Fe& a);
/// Low bit of the fully reduced value (the Edwards "sign" bit).
int fe_is_negative(const Fe& a);

/// sqrt(-1) mod p, computed as 2^((p-1)/4).
const Fe& fe_sqrt_m1();

}  // namespace vnfsgx::crypto
