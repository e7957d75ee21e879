#include "crypto/sha256.h"

#include <cstring>

#include "common/error.h"

#if defined(__x86_64__) || defined(__i386__)
#define VNFSGX_SHANI_COMPILED 1
#include <immintrin.h>
#endif

namespace vnfsgx::crypto {

namespace {

alignas(16) constexpr std::uint32_t kK[64] = {
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

inline std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

void compress_portable(std::uint32_t state[8], const std::uint8_t* data,
                       std::size_t blocks) {
  for (; blocks > 0; --blocks, data += kSha256BlockSize) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(data[i * 4]) << 24) |
             (static_cast<std::uint32_t>(data[i * 4 + 1]) << 16) |
             (static_cast<std::uint32_t>(data[i * 4 + 2]) << 8) |
             data[i * 4 + 3];
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
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

#if defined(VNFSGX_SHANI_COMPILED)

bool cpu_has_shani() {
  static const bool available = __builtin_cpu_supports("sha") &&
                                __builtin_cpu_supports("sse4.1") &&
                                __builtin_cpu_supports("ssse3");
  return available;
}

// SHA-NI rounds. SHA256RNDS2 keeps the state as two lanes-reversed halves
// (ABEF and CDGH) and runs two rounds per instruction; SHA256MSG1/MSG2
// compute the message schedule four words at a time. Each of the 16 groups
// below is four rounds: w holds W[4g..4g+3] and m[] the last four groups.
__attribute__((target("sha,sse4.1,ssse3"))) void compress_shani(
    std::uint32_t state[8], const std::uint8_t* data, std::size_t blocks) {
  const __m128i byteswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

  for (; blocks > 0; --blocks, data += kSha256BlockSize) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i m[4];
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      __m128i w;
      if (g < 4) {
        w = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * g)),
            byteswap);
      } else {
        // W[i] = σ1(W[i-2]) + W[i-7] + σ0(W[i-15]) + W[i-16], four at once:
        // MSG1 adds σ0, the alignr supplies W[i-7..i-4], MSG2 adds σ1.
        const __m128i w16 = m[g & 3], w12 = m[(g + 1) & 3];
        const __m128i w8 = m[(g + 2) & 3], w4 = m[(g + 3) & 3];
        w = _mm_add_epi32(_mm_sha256msg1_epu32(w16, w12),
                          _mm_alignr_epi8(w4, w8, 4));
        w = _mm_sha256msg2_epu32(w, w4);
      }
      m[g & 3] = w;
      const __m128i kw = _mm_add_epi32(
          w, _mm_load_si128(reinterpret_cast<const __m128i*>(kK + 4 * g)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, kw);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(kw, 0x0e));
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xf0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}

#endif  // VNFSGX_SHANI_COMPILED

}  // namespace

bool sha256_hw_available() {
#if defined(VNFSGX_SHANI_COMPILED)
  return cpu_has_shani();
#else
  return false;
#endif
}

Sha256::Sha256()
    : Sha256([] {
#if defined(VNFSGX_SHANI_COMPILED)
        if (cpu_has_shani()) return &compress_shani;
#endif
        return &compress_portable;
      }()) {}

void Sha256::reset() {
  state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  buffer_len_ = 0;
  total_len_ = 0;
}

void Sha256::update(ByteView data) {
  total_len_ += data.size();
  std::size_t off = 0;
  if (buffer_len_ > 0) {
    const std::size_t need = kSha256BlockSize - buffer_len_;
    const std::size_t take = data.size() < need ? data.size() : need;
    std::copy(data.begin(), data.begin() + static_cast<std::ptrdiff_t>(take),
              buffer_.begin() + static_cast<std::ptrdiff_t>(buffer_len_));
    buffer_len_ += take;
    off = take;
    if (buffer_len_ == kSha256BlockSize) {
      compress_(state_.data(), buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }
  const std::size_t blocks = (data.size() - off) / kSha256BlockSize;
  if (blocks > 0) {
    compress_(state_.data(), data.data() + off, blocks);
    off += blocks * kSha256BlockSize;
  }
  if (off < data.size()) {
    std::copy(data.begin() + static_cast<std::ptrdiff_t>(off), data.end(),
              buffer_.begin());
    buffer_len_ = data.size() - off;
  }
}

Sha256Digest Sha256::finish() {
  const std::uint64_t bit_len = total_len_ * 8;
  // 0x80, zeros up to the 8-byte length field, spilling into a second
  // block when fewer than 9 bytes are left in this one.
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > kSha256BlockSize - 8) {
    std::memset(buffer_.data() + buffer_len_, 0,
                kSha256BlockSize - buffer_len_);
    compress_(state_.data(), buffer_.data(), 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0,
              kSha256BlockSize - 8 - buffer_len_);
  for (int i = 0; i < 8; ++i) {
    buffer_[kSha256BlockSize - 8 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(bit_len >> (56 - i * 8));
  }
  compress_(state_.data(), buffer_.data(), 1);

  Sha256Digest out;
  for (int i = 0; i < 8; ++i) {
    out[i * 4] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[i * 4 + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[i * 4 + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[i * 4 + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

Bytes sha256(ByteView data) {
  const Sha256Digest d = Sha256::hash(data);
  return Bytes(d.begin(), d.end());
}

namespace detail {

Sha256Digest sha256_portable(ByteView data) {
  Sha256 h(&compress_portable);
  h.update(data);
  return h.finish();
}

Sha256Digest sha256_hw(ByteView data) {
#if defined(VNFSGX_SHANI_COMPILED)
  if (cpu_has_shani()) {
    Sha256 h(&compress_shani);
    h.update(data);
    return h.finish();
  }
#endif
  throw CryptoError("sha256: SHA-NI rounds are not available on this CPU");
}

}  // namespace detail

}  // namespace vnfsgx::crypto
