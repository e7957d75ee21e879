#include "crypto/ed25519.h"

#include <atomic>
#include <cstring>
#include <memory>
#include <mutex>
#include <vector>

#include "common/error.h"
#include "crypto/field25519.h"
#include "crypto/sha512.h"

namespace vnfsgx::crypto {

namespace {

// ---------------------------------------------------------------------------
// Scalar arithmetic modulo the group order
//   L = 2^252 + δ, δ = 27742317777372353535851937790883648493,
// in the shape of ref10's sc_reduce/sc_muladd: signed radix-2^21 limbs in
// int64_t, limb i weighted 2^(21·i). Since 2^252 = 2^(21·12) ≡ −δ (mod L)
// and −δ has the signed radix-2^21 digits kFold, a limb at position i ≥ 12
// folds into positions i−12 .. i−7. The fold and carry schedule is ref10's,
// which keeps every intermediate inside int64_t and ends fully reduced.
// Loop bounds are fixed and nothing branches on or indexes by limb values,
// so both operations are constant-time; neither allocates.
// ---------------------------------------------------------------------------

using ScalarBytes = std::array<std::uint8_t, 32>;

constexpr std::int64_t kFold[6] = {666643, 470296, 654183,
                                   -997805, 136657, -683901};
constexpr std::int64_t kLimbBase = std::int64_t{1} << 21;

// L little-endian.
constexpr ScalarBytes kOrder = {
    0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58, 0xd6, 0x9c, 0xf7,
    0xa2, 0xde, 0xf9, 0xde, 0x14, 0,    0,    0,    0,    0,    0,
    0,    0,    0,    0,    0,    0,    0,    0,    0,    0x10};

// Bits [21·i, 21·i + 21) of a little-endian string; the top limb (`rest`)
// keeps every bit from 21·i up to the end of its 4-byte window instead.
std::int64_t load_limb(const std::uint8_t* in, int i, bool rest) {
  const int bit = 21 * i;
  const std::uint8_t* p = in + bit / 8;
  const std::uint64_t word = static_cast<std::uint64_t>(p[0]) |
                             static_cast<std::uint64_t>(p[1]) << 8 |
                             static_cast<std::uint64_t>(p[2]) << 16 |
                             static_cast<std::uint64_t>(p[3]) << 24;
  const std::uint64_t v = word >> (bit % 8);
  return static_cast<std::int64_t>(rest ? v : v & (kLimbBase - 1));
}

// s[i]·2^(21·i) ≡ Σ_j kFold[j]·s[i]·2^(21·(i−12+j)) (mod L).
void fold(std::int64_t* s, int i) {
  for (int j = 0; j < 6; ++j) s[i - 12 + j] += s[i] * kFold[j];
  s[i] = 0;
}

// Rounded carry out of limb i: leaves it in [−2^20, 2^20).
void carry_rounded(std::int64_t* s, int i) {
  const std::int64_t c = (s[i] + (kLimbBase >> 1)) >> 21;
  s[i + 1] += c;
  s[i] -= c * kLimbBase;
}

// Floor carry out of limb i: leaves it in [0, 2^21).
void carry_floor(std::int64_t* s, int i) {
  const std::int64_t c = s[i] >> 21;
  s[i + 1] += c;
  s[i] -= c * kLimbBase;
}

// Rounded carries out of limbs first, first + 2, ..., last.
void carry_alternate(std::int64_t* s, int first, int last) {
  for (int i = first; i <= last; i += 2) carry_rounded(s, i);
}

// ref10's reduction of 24 limbs (limbs 0..22 within a few bits of 2^21)
// to the canonical 32-byte encoding of the value mod L.
ScalarBytes reduce_limbs(std::int64_t* s) {
  for (int i = 23; i >= 18; --i) fold(s, i);
  carry_alternate(s, 6, 16);
  carry_alternate(s, 7, 15);
  for (int i = 17; i >= 12; --i) fold(s, i);
  carry_alternate(s, 0, 10);
  carry_alternate(s, 1, 11);
  fold(s, 12);
  for (int i = 0; i <= 11; ++i) carry_floor(s, i);
  fold(s, 12);
  for (int i = 0; i <= 10; ++i) carry_floor(s, i);

  // Limbs 0..10 are now in [0, 2^21) and limb 11 holds the rest of a value
  // below L < 2^253: pack them little-endian.
  ScalarBytes out{};
  std::uint64_t acc = 0;
  int bits = 0;
  std::size_t o = 0;
  for (int i = 0; i < 12; ++i) {
    acc |= static_cast<std::uint64_t>(s[i]) << bits;
    bits += 21;
    while (bits >= 8) {
      out[o++] = static_cast<std::uint8_t>(acc);
      acc >>= 8;
      bits -= 8;
    }
  }
  out[o] = static_cast<std::uint8_t>(acc);
  return out;
}

// A 64-byte little-endian value (a SHA-512 digest) mod L.
ScalarBytes sc_reduce(std::span<const std::uint8_t, 64> wide) {
  std::int64_t s[24];
  for (int i = 0; i < 24; ++i) s[i] = load_limb(wide.data(), i, i == 23);
  return reduce_limbs(s);
}

// (a·b + c) mod L for 32-byte little-endian a, b, c (any values < 2^256).
ScalarBytes sc_muladd(const ScalarBytes& a, const ScalarBytes& b,
                      const ScalarBytes& c) {
  std::int64_t al[12], bl[12];
  std::int64_t s[24] = {};
  for (int i = 0; i < 12; ++i) {
    al[i] = load_limb(a.data(), i, i == 11);
    bl[i] = load_limb(b.data(), i, i == 11);
    s[i] = load_limb(c.data(), i, i == 11);
  }
  for (int i = 0; i < 12; ++i) {
    for (int j = 0; j < 12; ++j) s[i + j] += al[i] * bl[j];
  }
  carry_alternate(s, 0, 22);
  carry_alternate(s, 1, 21);
  return reduce_limbs(s);
}

// s < L, by the borrow out of s − L. Branch-free like the arithmetic above,
// though its one caller only feeds it the public signature scalar.
bool sc_is_canonical(const std::uint8_t* s) {
  unsigned borrow = 0;
  for (std::size_t i = 0; i < 32; ++i) {
    const unsigned d = static_cast<unsigned>(s[i]) - kOrder[i] - borrow;
    borrow = (d >> 8) & 1;
  }
  return borrow == 1;
}

// ---------------------------------------------------------------------------
// Edwards curve group: -x^2 + y^2 = 1 + d x^2 y^2 over GF(2^255-19),
// extended homogeneous coordinates (X : Y : Z : T), T = XY/Z.
// ---------------------------------------------------------------------------

struct Point {
  Fe x, y, z, t;
};

const Fe& edwards_d() {
  // d = -121665/121666, computed rather than transcribed.
  static const Fe value =
      fe_neg(fe_mul(fe_from_u64(121665), fe_invert(fe_from_u64(121666))));
  return value;
}

const Fe& edwards_2d() {
  static const Fe value = fe_add(edwards_d(), edwards_d());
  return value;
}

Point point_identity() {
  return Point{fe_zero(), fe_one(), fe_one(), fe_zero()};
}

// Unified addition (add-2008-hwcd-3 for a = -1).
Point point_add(const Point& p, const Point& q) {
  const Fe a = fe_mul(fe_sub(p.y, p.x), fe_sub(q.y, q.x));
  const Fe b = fe_mul(fe_add(p.y, p.x), fe_add(q.y, q.x));
  const Fe c = fe_mul(fe_mul(p.t, q.t), edwards_2d());
  const Fe d = fe_mul_small(fe_mul(p.z, q.z), 2);
  const Fe e = fe_sub(b, a);
  const Fe f = fe_sub(d, c);
  const Fe g = fe_add(d, c);
  const Fe h = fe_add(b, a);
  return Point{fe_mul(e, f), fe_mul(g, h), fe_mul(f, g), fe_mul(e, h)};
}

// Doubling (dbl-2008-hwcd).
Point point_double(const Point& p) {
  const Fe a = fe_sq(p.x);
  const Fe b = fe_sq(p.y);
  const Fe c = fe_mul_small(fe_sq(p.z), 2);
  const Fe h = fe_add(a, b);
  const Fe e = fe_sub(h, fe_sq(fe_add(p.x, p.y)));
  const Fe g = fe_sub(a, b);
  const Fe f = fe_add(c, g);
  return Point{fe_mul(e, f), fe_mul(g, h), fe_mul(f, g), fe_mul(e, h)};
}

Point point_neg(const Point& p) {
  return Point{fe_neg(p.x), p.y, p.z, fe_neg(p.t)};
}

// Scalar multiplication, MSB-first double-and-add over the 256-bit scalar
// encoding. Variable-time; signatures here protect simulated systems, and
// the test suite exercises correctness, not side channels. Kept as the
// reference ladder the windowed paths are cross-checked against.
Point point_scalar_mul(const Point& p, const std::array<std::uint8_t, 32>& scalar_le) {
  Point r = point_identity();
  for (int byte_idx = 31; byte_idx >= 0; --byte_idx) {
    for (int bit = 7; bit >= 0; --bit) {
      r = point_double(r);
      // ct-ok: double-and-add reference ladder, used only to cross-check
      // the windowed implementation (see function comment above).
      if ((scalar_le[static_cast<std::size_t>(byte_idx)] >> bit) & 1) {
        r = point_add(r, p);
      }
    }
  }
  return r;
}

// ---------------------------------------------------------------------------
// Windowed fixed-base multiplication and Straus double-scalar multiplication.
//
// Precomputed points are stored in affine Niels form (y+x, y-x, 2dxy with
// Z = 1), which makes a mixed addition cost 7 field multiplies instead of
// the 9 of the general formula. The base table holds (j+1)·16^(2i)·B for
// i < 32, j < 8, so a·B is 64 mixed additions + 4 doublings and no
// per-scalar doubling chain at all. All of this is variable-time (secret-
// dependent table offsets and skips) — see docs/PROTOCOL.md.
// ---------------------------------------------------------------------------

const Point& base_point();

struct Niels {
  Fe yplusx, yminusx, xy2d;
};

// Mixed addition P + Q (add-2008-hwcd-3 with Z2 = 1).
Point point_madd(const Point& p, const Niels& q) {
  const Fe a = fe_mul(fe_sub(p.y, p.x), q.yminusx);
  const Fe b = fe_mul(fe_add(p.y, p.x), q.yplusx);
  const Fe c = fe_mul(p.t, q.xy2d);
  const Fe d = fe_mul_small(p.z, 2);
  const Fe e = fe_sub(b, a);
  const Fe f = fe_sub(d, c);
  const Fe g = fe_add(d, c);
  const Fe h = fe_add(b, a);
  return Point{fe_mul(e, f), fe_mul(g, h), fe_mul(f, g), fe_mul(e, h)};
}

// Mixed subtraction P - Q: add the negated Niels point (swap y±x, -2dxy).
Point point_msub(const Point& p, const Niels& q) {
  return point_madd(p, Niels{q.yminusx, q.yplusx, fe_neg(q.xy2d)});
}

// One table window: P, 2P, ..., 8P (or, with `step` = 2P, the odd
// multiples P, 3P, ..., 15P) in affine Niels form. The eight conversions
// share one inversion (Montgomery's batch-inversion trick: 3 multiplies per
// point instead of a ~250-multiply inversion each), and everything lives on
// the stack, so building a table allocates nothing but the table.
std::array<Niels, 8> window_multiples(const Point& p, const Point& step) {
  std::array<Point, 8> pts;
  pts[0] = p;
  for (std::size_t j = 1; j < 8; ++j) pts[j] = point_add(pts[j - 1], step);
  std::array<Fe, 8> prefix;
  prefix[0] = pts[0].z;
  for (std::size_t j = 1; j < 8; ++j) prefix[j] = fe_mul(prefix[j - 1], pts[j].z);
  Fe inv = fe_invert(prefix[7]);
  std::array<Fe, 8> zinv;
  for (std::size_t j = 7; j > 0; --j) {
    zinv[j] = fe_mul(inv, prefix[j - 1]);
    inv = fe_mul(inv, pts[j].z);
  }
  zinv[0] = inv;
  std::array<Niels, 8> out;
  for (std::size_t j = 0; j < 8; ++j) {
    const Fe x = fe_mul(pts[j].x, zinv[j]);
    const Fe y = fe_mul(pts[j].y, zinv[j]);
    out[j] = Niels{fe_add(y, x), fe_sub(y, x),
                   fe_mul(fe_mul(x, y), edwards_2d())};
  }
  return out;
}

std::array<Niels, 8> window_multiples(const Point& p) {
  return window_multiples(p, p);
}

// base_table()[i][j] = (j+1)·16^(2i)·B, built once at first use.
const std::array<std::array<Niels, 8>, 32>& base_table();

// Odd multiples B, 3B, ..., 15B for the Straus/wNAF verification path.
const std::array<Niels, 8>& base_odd_table();

const std::array<std::array<Niels, 8>, 32>& base_table() {
  static const std::array<std::array<Niels, 8>, 32> value = [] {
    std::array<std::array<Niels, 8>, 32> table;
    Point window_base = base_point();  // 16^(2i)·B for the current window
    for (auto& window : table) {
      window = window_multiples(window_base);
      for (int k = 0; k < 8; ++k) window_base = point_double(window_base);
    }
    return table;
  }();
  return value;
}

const std::array<Niels, 8>& base_odd_table() {
  static const std::array<Niels, 8> value =
      window_multiples(base_point(), point_double(base_point()));
  return value;
}

// Signed radix-16 recoding: 64 digits in [-8, 8], Σ e[i]·16^i = scalar.
// Requires scalar < 2^255 - 8·16^63 (true for clamped scalars and values
// reduced mod L), so the top digit absorbs its carry without overflow.
std::array<std::int8_t, 64> to_radix16(const std::array<std::uint8_t, 32>& a) {
  std::array<std::int8_t, 64> e;
  for (int i = 0; i < 32; ++i) {
    e[static_cast<std::size_t>(2 * i)] =
        static_cast<std::int8_t>(a[static_cast<std::size_t>(i)] & 15);
    e[static_cast<std::size_t>(2 * i + 1)] =
        static_cast<std::int8_t>((a[static_cast<std::size_t>(i)] >> 4) & 15);
  }
  std::int8_t carry = 0;
  for (int i = 0; i < 63; ++i) {
    e[static_cast<std::size_t>(i)] = static_cast<std::int8_t>(
        e[static_cast<std::size_t>(i)] + carry);
    carry = static_cast<std::int8_t>((e[static_cast<std::size_t>(i)] + 8) >> 4);
    e[static_cast<std::size_t>(i)] = static_cast<std::int8_t>(
        e[static_cast<std::size_t>(i)] - (carry << 4));
  }
  e[63] = static_cast<std::int8_t>(e[63] + carry);
  return e;
}

Point madd_digit(const Point& h, const std::array<Niels, 8>& window,
                 std::int8_t digit) {
  if (digit > 0) return point_madd(h, window[static_cast<std::size_t>(digit - 1)]);
  if (digit < 0) return point_msub(h, window[static_cast<std::size_t>(-digit - 1)]);
  return h;
}

// a·B via the precomputed window table: odd digit positions first (their
// windows are one factor of 16 short), one ×16, then the even positions.
Point base_scalar_mul(const std::array<std::uint8_t, 32>& scalar_le) {
  const auto& table = base_table();
  const auto e = to_radix16(scalar_le);
  Point h = point_identity();
  for (int i = 1; i < 64; i += 2) {
    h = madd_digit(h, table[static_cast<std::size_t>(i / 2)],
                   e[static_cast<std::size_t>(i)]);
  }
  for (int k = 0; k < 4; ++k) h = point_double(h);
  for (int i = 0; i < 64; i += 2) {
    h = madd_digit(h, table[static_cast<std::size_t>(i / 2)],
                   e[static_cast<std::size_t>(i)]);
  }
  return h;
}

// Sliding-window NAF recoding, width 5: digits are 0 or odd in [-15, 15],
// with the usual sparsity (~1 nonzero digit per 6 positions).
void slide(std::int8_t r[256], const std::array<std::uint8_t, 32>& a) {
  for (int i = 0; i < 256; ++i) {
    r[i] = static_cast<std::int8_t>(1 & (a[static_cast<std::size_t>(i >> 3)] >> (i & 7)));
  }
  for (int i = 0; i < 256; ++i) {
    if (!r[i]) continue;
    for (int b = 1; b <= 6 && i + b < 256; ++b) {
      if (!r[i + b]) continue;
      if (r[i] + (r[i + b] << b) <= 15) {
        r[i] = static_cast<std::int8_t>(r[i] + (r[i + b] << b));
        r[i + b] = 0;
      } else if (r[i] - (r[i + b] << b) >= -15) {
        r[i] = static_cast<std::int8_t>(r[i] - (r[i + b] << b));
        for (int k = i + b; k < 256; ++k) {
          if (!r[k]) {
            r[k] = 1;
            break;
          }
          r[k] = 0;
        }
      } else {
        break;
      }
    }
  }
}

// Straus/Shamir: a·A + b·B in one interleaved pass with shared doublings.
// A's odd multiples are built per call (extended coords); B's come from the
// static Niels table.
Point double_scalarmult_vartime(const std::array<std::uint8_t, 32>& a_scalar,
                                const Point& a_point,
                                const std::array<std::uint8_t, 32>& b_scalar) {
  std::int8_t aslide[256];
  std::int8_t bslide[256];
  slide(aslide, a_scalar);
  slide(bslide, b_scalar);

  std::array<Point, 8> ai;  // A, 3A, 5A, ..., 15A
  ai[0] = a_point;
  const Point a2 = point_double(a_point);
  for (int j = 1; j < 8; ++j) {
    ai[static_cast<std::size_t>(j)] = point_add(ai[static_cast<std::size_t>(j - 1)], a2);
  }
  const auto& bi = base_odd_table();

  Point h = point_identity();
  int i = 255;
  while (i >= 0 && !aslide[i] && !bslide[i]) --i;
  for (; i >= 0; --i) {
    h = point_double(h);
    if (aslide[i] > 0) {
      h = point_add(h, ai[static_cast<std::size_t>(aslide[i] / 2)]);
    } else if (aslide[i] < 0) {
      h = point_add(h, point_neg(ai[static_cast<std::size_t>(-aslide[i] / 2)]));
    }
    if (bslide[i] > 0) {
      h = point_madd(h, bi[static_cast<std::size_t>(bslide[i] / 2)]);
    } else if (bslide[i] < 0) {
      h = point_msub(h, bi[static_cast<std::size_t>(-bslide[i] / 2)]);
    }
  }
  return h;
}

const Point& base_point() {
  // y = 4/5, x recovered from the curve equation with even x (sign bit 0).
  static const Point value = [] {
    const Fe y = fe_mul(fe_from_u64(4), fe_invert(fe_from_u64(5)));
    // x^2 = (y^2 - 1) / (d y^2 + 1)
    const Fe y2 = fe_sq(y);
    const Fe u = fe_sub(y2, fe_one());
    const Fe v = fe_add(fe_mul(edwards_d(), y2), fe_one());
    // Candidate root: (u/v)^((p+3)/8) = u v^3 (u v^7)^((p-5)/8)
    const Fe v3 = fe_mul(fe_sq(v), v);
    const Fe v7 = fe_mul(fe_sq(v3), v);
    Fe x = fe_mul(fe_mul(u, v3), fe_pow22523(fe_mul(u, v7)));
    const Fe vx2 = fe_mul(v, fe_sq(x));
    if (!fe_is_zero(fe_sub(vx2, u))) x = fe_mul(x, fe_sqrt_m1());
    if (fe_is_negative(x)) x = fe_neg(x);
    return Point{x, y, fe_one(), fe_mul(x, y)};
  }();
  return value;
}

std::array<std::uint8_t, 32> point_encode(const Point& p) {
  const Fe zinv = fe_invert(p.z);
  const Fe x = fe_mul(p.x, zinv);
  const Fe y = fe_mul(p.y, zinv);
  std::array<std::uint8_t, 32> out = fe_to_bytes(y);
  out[31] = static_cast<std::uint8_t>(
      out[31] | (static_cast<std::uint8_t>(fe_is_negative(x)) << 7));
  return out;
}

std::optional<Point> point_decode(ByteView in) {
  if (in.size() != 32) return std::nullopt;
  const int sign = in[31] >> 7;
  const Fe y = fe_from_bytes(in);
  // Reject non-canonical y encodings (y >= p).
  {
    const auto canonical = fe_to_bytes(y);
    std::uint8_t masked_last = static_cast<std::uint8_t>(in[31] & 0x7f);
    bool same = true;
    for (int i = 0; i < 31; ++i) {
      if (canonical[static_cast<std::size_t>(i)] != in[static_cast<std::size_t>(i)]) {
        same = false;
        break;
      }
    }
    if (canonical[31] != masked_last) same = false;
    if (!same) return std::nullopt;
  }
  const Fe y2 = fe_sq(y);
  const Fe u = fe_sub(y2, fe_one());
  const Fe v = fe_add(fe_mul(edwards_d(), y2), fe_one());
  const Fe v3 = fe_mul(fe_sq(v), v);
  const Fe v7 = fe_mul(fe_sq(v3), v);
  Fe x = fe_mul(fe_mul(u, v3), fe_pow22523(fe_mul(u, v7)));
  const Fe vx2 = fe_mul(v, fe_sq(x));
  if (fe_is_zero(fe_sub(vx2, u))) {
    // x is a root.
  } else if (fe_is_zero(fe_add(vx2, u))) {
    x = fe_mul(x, fe_sqrt_m1());
  } else {
    return std::nullopt;
  }
  if (fe_is_zero(x) && sign == 1) return std::nullopt;
  if (fe_is_negative(x) != sign) x = fe_neg(x);
  return Point{x, y, fe_one(), fe_mul(x, y)};
}

std::array<std::uint8_t, 32> clamp_scalar(const std::uint8_t h[32]) {
  std::array<std::uint8_t, 32> a;
  std::memcpy(a.data(), h, 32);
  a[0] &= 248;
  a[31] &= 63;
  a[31] |= 64;
  return a;
}

// The input checks every verifier shares: signature length, canonical s
// (< L), and the challenge scalar k = SHA512(R || A || M) mod L. Every input
// rejected here is also rejected by ed25519_verify.
struct Challenge {
  ScalarBytes s;  // canonical signature scalar
  ScalarBytes k;
};

std::optional<Challenge> challenge_for(const Ed25519PublicKey& public_key,
                                       ByteView message, ByteView signature) {
  if (signature.size() != kEd25519SignatureSize) return std::nullopt;
  if (!sc_is_canonical(signature.data() + 32)) return std::nullopt;
  Challenge out;
  std::memcpy(out.s.data(), signature.data() + 32, 32);
  Sha512 hk;
  hk.update(signature.subspan(0, 32));
  hk.update(public_key);
  hk.update(message);
  out.k = sc_reduce(hk.finish());
  return out;
}

// The batch equation's view of one item: the challenge plus A and R as
// points (single verification compares R's encoding and never decodes it).
struct DecodedVerify {
  Point a;  // public-key point
  Point r;  // signature R point
  Challenge challenge;
};

std::optional<DecodedVerify> decode_for_batch(
    const Ed25519PublicKey& public_key, ByteView message, ByteView signature) {
  const auto challenge = challenge_for(public_key, message, signature);
  // ct-ok: verification inputs (public key, signature) are public values.
  if (!challenge) return std::nullopt;
  const auto a_point = point_decode(public_key);
  // ct-ok: the public key is a public input to verification.
  if (!a_point) return std::nullopt;
  const auto r_point = point_decode(signature.subspan(0, 32));
  if (!r_point) return std::nullopt;
  return DecodedVerify{*a_point, *r_point, *challenge};
}

// The RFC 8032 §5.1.7 acceptance test on a computed s·B − k·A: its
// canonical encoding must equal the 32 R bytes. R is never decoded: R bytes
// that are non-canonical (y >= p, or x = 0 with the sign bit set) or name no
// curve point never equal a canonical encoding, so they are rejected exactly
// as a failed decode would be.
bool matches_r(const Point& check, ByteView signature) {
  const auto check_enc = point_encode(check);
  return std::memcmp(check_enc.data(), signature.data(), 32) == 0;
}

bool point_is_identity(const Point& p) {
  // (X : Y : Z) is the identity iff x == 0 and y == z (affine (0, 1)).
  return fe_is_zero(p.x) && fe_is_zero(fe_sub(p.y, p.z));
}

// ---------------------------------------------------------------------------
// Known-key verification: a fixed-base table for one public key A.
//
// kTableWindows windows of 8 affine Niels points, windows[i][j] =
// (j+1)·16^(g·i)·(−A) with g = 64 / kTableWindows radix-16 digits per window,
// so k·(−A) is g passes of kTableWindows mixed additions with 4 doublings
// between passes: 16 windows give 64 additions and 12 doublings where the
// Straus pass pays a 253-step doubling chain, and s·B runs on the base
// table. Variable-time like every verification path: its inputs are public.
// ---------------------------------------------------------------------------

constexpr int kTableWindows = 16;
constexpr int kDigitsPerWindow = 64 / kTableWindows;

struct KeyTable {
  std::array<std::array<Niels, 8>, kTableWindows> windows;
};
static_assert(sizeof(KeyTable) <= 16 * 1024, "a key table stays within 16 KiB");

// nullptr when A does not decode: ed25519_verify rejects every signature
// under such a key, and so does a holder without a table.
std::unique_ptr<const KeyTable> build_key_table(
    const Ed25519PublicKey& public_key) {
  const auto a_point = point_decode(public_key);
  // ct-ok: the public key is a public input to verification.
  if (!a_point) return nullptr;
  auto table = std::make_unique<KeyTable>();
  Point window_base = point_neg(*a_point);  // 16^(g·i)·(−A)
  for (auto& window : table->windows) {
    window = window_multiples(window_base);
    for (int d = 0; d < 4 * kDigitsPerWindow; ++d) {
      window_base = point_double(window_base);
    }
  }
  return table;
}

// s·B − k·A: two fixed-base passes, one on the base table and one on A's.
Point known_key_check(const KeyTable& table, const ScalarBytes& s,
                      const ScalarBytes& k) {
  const auto e = to_radix16(k);
  Point h = point_identity();
  for (int m = kDigitsPerWindow - 1; m >= 0; --m) {
    if (m != kDigitsPerWindow - 1) {
      for (int d = 0; d < 4; ++d) h = point_double(h);
    }
    for (int i = 0; i < kTableWindows; ++i) {
      h = madd_digit(h, table.windows[static_cast<std::size_t>(i)],
                     e[static_cast<std::size_t>(kDigitsPerWindow * i + m)]);
    }
  }
  return point_add(base_scalar_mul(s), h);
}

}  // namespace

struct Ed25519VerifyKey::State {
  std::atomic<std::uint32_t> verifications{0};
  std::mutex build_mutex;
  std::atomic<bool> ready{false};
  std::unique_ptr<const KeyTable> table;  // written once, before `ready`
};

Ed25519VerifyKey::Ed25519VerifyKey(const Ed25519PublicKey& public_key)
    : public_key_(public_key), state_(std::make_shared<State>()) {}

bool Ed25519VerifyKey::has_table() const {
  return state_->ready.load(std::memory_order_acquire) && state_->table;
}

bool Ed25519VerifyKey::verify(ByteView message, ByteView signature) const {
  State& st = *state_;
  if (!st.ready.load(std::memory_order_acquire)) {
    // A key checked once gets no table.
    if (st.verifications.fetch_add(1, std::memory_order_relaxed) == 0) {
      return ed25519_verify(public_key_, message, signature);
    }
    const std::lock_guard<std::mutex> lock(st.build_mutex);
    if (!st.ready.load(std::memory_order_relaxed)) {
      st.table = build_key_table(public_key_);
      st.ready.store(true, std::memory_order_release);
    }
  }
  // ct-ok: a missing table means A does not decode, a public fact.
  if (!st.table) return false;
  const auto challenge = challenge_for(public_key_, message, signature);
  // ct-ok: verification inputs (public key, signature) are public values.
  if (!challenge) return false;
  return matches_r(known_key_check(*st.table, challenge->s, challenge->k),
                   signature);
}

Ed25519PublicKey ed25519_public_key(const Ed25519Seed& seed) {
  return ed25519_expand_key(seed).public_key;
}

Ed25519SigningKey ed25519_expand_key(const Ed25519Seed& seed) {
  const Zeroizing<Sha512Digest> h = Sha512::hash(seed);
  // The clamped scalar, zero-extended to 64 bytes and reduced mod L once
  // here so that signing pays no reduction for it.
  Zeroizing<std::array<std::uint8_t, 64>> wide;
  const auto clamped = clamp_scalar(h->data());
  std::copy(clamped.begin(), clamped.end(), wide->begin());
  Ed25519SigningKey key;
  key.scalar = sc_reduce(*wide);
  std::memcpy(key.prefix.data(), h->data() + 32, 32);
  key.public_key = point_encode(base_scalar_mul(key.scalar));
  return key;
}

Ed25519KeyPair ed25519_generate(RandomSource& rng) {
  Ed25519KeyPair kp;
  rng.fill(kp.seed);
  kp.public_key = ed25519_public_key(kp.seed);
  return kp;
}

Ed25519Signature ed25519_sign(const Ed25519SigningKey& key, ByteView message) {
  // r = SHA512(prefix || M) mod L
  Sha512 hr;
  hr.update(key.prefix);
  hr.update(message);
  const ScalarBytes r = sc_reduce(hr.finish());
  const auto r_enc = point_encode(base_scalar_mul(r));

  // k = SHA512(R || A || M) mod L
  Sha512 hk;
  hk.update(r_enc);
  hk.update(key.public_key);
  hk.update(message);
  const ScalarBytes k = sc_reduce(hk.finish());

  // s = (r + k * a) mod L
  const ScalarBytes s = sc_muladd(k, key.scalar, r);

  Ed25519Signature sig;
  std::memcpy(sig.data(), r_enc.data(), 32);
  std::memcpy(sig.data() + 32, s.data(), 32);
  return sig;
}

bool ed25519_verify(const Ed25519PublicKey& public_key, ByteView message,
                    ByteView signature) {
  const auto challenge = challenge_for(public_key, message, signature);
  // ct-ok: verification inputs (public key, signature) are public values.
  if (!challenge) return false;
  const auto a_point = point_decode(public_key);
  // ct-ok: the public key is a public input to verification.
  if (!a_point) return false;
  // s·B − k·A = k·(−A) + s·B in one interleaved Straus pass with shared
  // doublings.
  return matches_r(double_scalarmult_vartime(challenge->k, point_neg(*a_point),
                                             challenge->s),
                   signature);
}

std::vector<bool> ed25519_verify_batch(std::span<const Ed25519BatchItem> items,
                                       RandomSource* rng) {
  const std::size_t n = items.size();
  std::vector<bool> ok(n, false);
  if (n == 0) return ok;

  // Input validation identical to single verify; invalid items are settled
  // here and never enter the combined equation.
  struct Candidate {
    std::size_t index;
    DecodedVerify decoded;
    ScalarBytes z;  // 128-bit blinding coefficient
  };
  std::vector<Candidate> candidates;
  candidates.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto decoded = decode_for_batch(items[i].public_key, items[i].message,
                                    items[i].signature);
    if (decoded) candidates.push_back({i, std::move(*decoded), ScalarBytes{}});
  }
  if (candidates.empty()) return ok;

  // A single survivor gains nothing from the batch equation.
  if (candidates.size() == 1) {
    const auto& item = items[candidates[0].index];
    ok[candidates[0].index] =
        ed25519_verify(item.public_key, item.message, item.signature);
    return ok;
  }

  // Blinding coefficients: 128 bits each, either from the caller's RNG or
  // derived by hashing the whole batch (the derivation commits every z_i to
  // all signatures, so an adversary cannot pick signatures afterwards).
  Sha512Digest batch_digest{};
  if (!rng) {
    Sha512 h;
    h.update(to_bytes("vnfsgx-ed25519-batch-v1"));
    for (const Candidate& c : candidates) {
      const auto& item = items[c.index];
      h.update(item.public_key);
      h.update(item.signature);
      h.update(Sha512::hash(item.message));
    }
    batch_digest = h.finish();
  }
  for (std::size_t j = 0; j < candidates.size(); ++j) {
    // z < 2^128 < L, so it needs no reduction.
    ScalarBytes& z = candidates[j].z;
    if (rng) {
      std::array<std::uint8_t, 16> raw{};
      rng->fill(raw);
      std::copy(raw.begin(), raw.end(), z.begin());
    } else {
      Sha512 h;
      h.update(batch_digest);
      std::array<std::uint8_t, 8> idx{};
      for (int b = 0; b < 8; ++b) {
        idx[static_cast<std::size_t>(b)] =
            static_cast<std::uint8_t>(j >> (8 * b));
      }
      h.update(idx);
      const Sha512Digest zd = h.finish();
      std::copy(zd.begin(), zd.begin() + 16, z.begin());
    }
    z[0] |= 1;  // never zero: a zero coefficient drops its item
  }

  // Batch equation scalars:
  //   per item:  z_i (for R_i) and z_i*k_i mod L (for A_i),
  //   combined:  Σ z_i*s_i mod L (for the subtracted base term).
  // One Straus pass over all 2·m+1 terms shares the 256-double chain that
  // single verification pays per signature.
  struct Term {
    std::array<Point, 8> odd;  // P, 3P, ..., 15P
    std::array<std::int8_t, 256> digits;
  };
  std::vector<Term> terms(2 * candidates.size());
  ScalarBytes s_total{};
  for (std::size_t j = 0; j < candidates.size(); ++j) {
    const Candidate& c = candidates[j];
    const ScalarBytes zk = sc_muladd(c.z, c.decoded.challenge.k, ScalarBytes{});
    s_total = sc_muladd(c.z, c.decoded.challenge.s, s_total);

    Term& tr = terms[2 * j];      // z_i · R_i
    Term& ta = terms[2 * j + 1];  // (z_i·k_i) · A_i
    slide(tr.digits.data(), c.z);
    slide(ta.digits.data(), zk);
    for (Term* t : {&tr, &ta}) {
      const Point& p = (t == &tr) ? c.decoded.r : c.decoded.a;
      t->odd[0] = p;
      const Point p2 = point_double(p);
      for (int m = 1; m < 8; ++m) {
        t->odd[static_cast<std::size_t>(m)] =
            point_add(t->odd[static_cast<std::size_t>(m - 1)], p2);
      }
    }
  }
  std::array<std::int8_t, 256> base_digits;
  slide(base_digits.data(), s_total);
  const auto& base_odd = base_odd_table();

  int top = 255;
  const auto any_digit_at = [&](int i) {
    if (base_digits[static_cast<std::size_t>(i)]) return true;
    for (const Term& t : terms) {
      if (t.digits[static_cast<std::size_t>(i)]) return true;
    }
    return false;
  };
  while (top >= 0 && !any_digit_at(top)) --top;

  Point h = point_identity();
  for (int i = top; i >= 0; --i) {
    h = point_double(h);
    for (const Term& t : terms) {
      const std::int8_t d = t.digits[static_cast<std::size_t>(i)];
      if (d > 0) {
        h = point_add(h, t.odd[static_cast<std::size_t>(d / 2)]);
      } else if (d < 0) {
        h = point_add(h, point_neg(t.odd[static_cast<std::size_t>(-d / 2)]));
      }
    }
    // The base term is subtracted, so its additions flip sign.
    const std::int8_t d = base_digits[static_cast<std::size_t>(i)];
    if (d > 0) {
      h = point_msub(h, base_odd[static_cast<std::size_t>(d / 2)]);
    } else if (d < 0) {
      h = point_madd(h, base_odd[static_cast<std::size_t>(-d / 2)]);
    }
  }

  if (point_is_identity(h)) {
    for (const Candidate& c : candidates) ok[c.index] = true;
    return ok;
  }
  // The combination failed: at least one signature is bad. Re-verify each
  // survivor individually so the verdicts stay bit-exact with single verify
  // and the culprit is identified precisely.
  for (const Candidate& c : candidates) {
    const auto& item = items[c.index];
    ok[c.index] = ed25519_verify(item.public_key, item.message, item.signature);
  }
  return ok;
}

std::array<std::uint8_t, 32> ed25519_base_montgomery_u(
    const std::array<std::uint8_t, 32>& scalar_le) {
  const Point p = base_scalar_mul(scalar_le);
  // u = (1+y)/(1-y) with affine y = Y/Z, so u = (Z+Y)/(Z-Y). A clamped
  // scalar is never 0 mod L (no multiple of odd L in [2^254, 2^255) is
  // divisible by 8), so k·B is never the identity and Z-Y is invertible.
  return fe_to_bytes(fe_mul(fe_add(p.z, p.y), fe_invert(fe_sub(p.z, p.y))));
}

namespace detail {

std::array<std::uint8_t, 32> base_mul_ladder(
    const std::array<std::uint8_t, 32>& scalar_le) {
  return point_encode(point_scalar_mul(base_point(), scalar_le));
}

std::array<std::uint8_t, 32> base_mul_windowed(
    const std::array<std::uint8_t, 32>& scalar_le) {
  return point_encode(base_scalar_mul(scalar_le));
}

std::array<std::uint8_t, 32> scalar_reduce_wide(
    const std::array<std::uint8_t, 64>& wide_le) {
  return sc_reduce(wide_le);
}

std::array<std::uint8_t, 32> scalar_mul_add(
    const std::array<std::uint8_t, 32>& a,
    const std::array<std::uint8_t, 32>& b,
    const std::array<std::uint8_t, 32>& c) {
  return sc_muladd(a, b, c);
}

}  // namespace detail

}  // namespace vnfsgx::crypto
