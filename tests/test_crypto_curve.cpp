// X25519 (RFC 7748) and Ed25519 (RFC 8032) tests against the RFC vectors,
// plus algebraic properties (DH agreement, signature malleability checks)
// and the GF(2^255 - 19) kernels underneath both.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.h"
#include "common/hex.h"
#include "crypto/ed25519.h"
#include "crypto/field25519.h"
#include "crypto/random.h"
#include "crypto/sha256.h"
#include "crypto/x25519.h"

namespace vnfsgx::crypto {
namespace {

X25519Key key_from_hex(std::string_view h) {
  const Bytes b = from_hex(h);
  X25519Key k;
  std::copy(b.begin(), b.end(), k.begin());
  return k;
}

Ed25519Seed seed_from_hex(std::string_view h) {
  const Bytes b = from_hex(h);
  Ed25519Seed s;
  std::copy(b.begin(), b.end(), s.begin());
  return s;
}

TEST(X25519, Rfc7748Vector1) {
  const auto scalar = key_from_hex(
      "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
  const auto point = key_from_hex(
      "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
  const auto out = x25519(scalar, point);
  EXPECT_EQ(to_hex(out),
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552");
}

TEST(X25519, Rfc7748Vector2) {
  const auto scalar = key_from_hex(
      "4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d");
  const auto point = key_from_hex(
      "e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493");
  const auto out = x25519(scalar, point);
  EXPECT_EQ(to_hex(out),
            "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957");
}

TEST(X25519, Rfc7748DiffieHellman) {
  // Bob's RFC 7748 §6.1 keypair, plus Alice's published *public* key and
  // the published shared secret K = X25519(b, alice_pub).
  const auto bob_priv = key_from_hex(
      "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb");
  const auto bob_pub = x25519_base(bob_priv);
  EXPECT_EQ(to_hex(bob_pub),
            "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f");
  const auto alice_pub = key_from_hex(
      "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a");
  const Bytes k = x25519_shared(bob_priv, alice_pub);
  EXPECT_EQ(to_hex(k),
            "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742");
}

TEST(X25519, GeneratedPairsAgree) {
  DeterministicRandom rng(99);
  for (int i = 0; i < 8; ++i) {
    const auto a = x25519_generate(rng);
    const auto b = x25519_generate(rng);
    EXPECT_EQ(x25519_shared(a.private_key, b.public_key),
              x25519_shared(b.private_key, a.public_key));
  }
}

TEST(X25519, BasePointFastPathMatchesGenericLadder) {
  // x25519_base rides the Ed25519 window table + birational map; it must
  // stay bit-identical to the generic Montgomery ladder applied to the
  // base point u=9, for any scalar (clamping happens inside both paths).
  X25519Key base{};
  base[0] = 9;
  DeterministicRandom rng(4242);
  for (int i = 0; i < 32; ++i) {
    X25519Key scalar;
    rng.fill(scalar);
    EXPECT_EQ(to_hex(x25519_base(scalar)), to_hex(x25519(scalar, base)))
        << "scalar " << to_hex(scalar);
  }
}

TEST(X25519, RejectsLowOrderPoint) {
  DeterministicRandom rng(1);
  const auto kp = x25519_generate(rng);
  X25519Key zero{};
  EXPECT_THROW(x25519_shared(kp.private_key, zero), CryptoError);
  X25519Key one{};
  one[0] = 1;
  EXPECT_THROW(x25519_shared(kp.private_key, one), CryptoError);
}

// RFC 8032 §7.1 test vectors.
TEST(Ed25519, Rfc8032Test1EmptyMessage) {
  const auto seed = seed_from_hex(
      "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60");
  const auto pub = ed25519_public_key(seed);
  EXPECT_EQ(to_hex(pub),
            "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a");
  const auto sig = ed25519_sign(ed25519_expand_key(seed), {});
  EXPECT_EQ(to_hex(ByteView(sig.data(), sig.size())),
            "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
            "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b");
  EXPECT_TRUE(ed25519_verify(pub, {}, ByteView(sig.data(), sig.size())));
}

TEST(Ed25519, Rfc8032Test2OneByte) {
  const auto seed = seed_from_hex(
      "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb");
  const auto pub = ed25519_public_key(seed);
  EXPECT_EQ(to_hex(pub),
            "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c");
  const Bytes msg = from_hex("72");
  const auto sig = ed25519_sign(ed25519_expand_key(seed), msg);
  EXPECT_EQ(to_hex(ByteView(sig.data(), sig.size())),
            "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
            "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00");
  EXPECT_TRUE(ed25519_verify(pub, msg, ByteView(sig.data(), sig.size())));
}

TEST(Ed25519, Rfc8032Test3TwoBytes) {
  const auto seed = seed_from_hex(
      "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7");
  const auto pub = ed25519_public_key(seed);
  EXPECT_EQ(to_hex(pub),
            "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025");
  const Bytes msg = from_hex("af82");
  const auto sig = ed25519_sign(ed25519_expand_key(seed), msg);
  EXPECT_EQ(to_hex(ByteView(sig.data(), sig.size())),
            "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac"
            "18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a");
  EXPECT_TRUE(ed25519_verify(pub, msg, ByteView(sig.data(), sig.size())));
}

TEST(Ed25519, TamperedSignatureRejected) {
  DeterministicRandom rng(5);
  const auto kp = ed25519_generate(rng);
  const Bytes msg = to_bytes("attestation quote body");
  auto sig = ed25519_sign(ed25519_expand_key(kp.seed), msg);
  EXPECT_TRUE(ed25519_verify(kp.public_key, msg, ByteView(sig.data(), 64)));
  for (std::size_t i = 0; i < sig.size(); i += 5) {
    auto bad = sig;
    bad[i] ^= 1;
    EXPECT_FALSE(ed25519_verify(kp.public_key, msg, ByteView(bad.data(), 64)))
        << "byte " << i;
  }
}

TEST(Ed25519, TamperedMessageRejected) {
  DeterministicRandom rng(6);
  const auto kp = ed25519_generate(rng);
  const Bytes msg = to_bytes("the signed message");
  const auto sig = ed25519_sign(ed25519_expand_key(kp.seed), msg);
  Bytes other = msg;
  other.back() ^= 1;
  EXPECT_FALSE(ed25519_verify(kp.public_key, other, ByteView(sig.data(), 64)));
  EXPECT_FALSE(ed25519_verify(kp.public_key, {}, ByteView(sig.data(), 64)));
}

TEST(Ed25519, WrongKeyRejected) {
  DeterministicRandom rng(7);
  const auto kp1 = ed25519_generate(rng);
  const auto kp2 = ed25519_generate(rng);
  const Bytes msg = to_bytes("msg");
  const auto sig = ed25519_sign(ed25519_expand_key(kp1.seed), msg);
  EXPECT_FALSE(ed25519_verify(kp2.public_key, msg, ByteView(sig.data(), 64)));
}

TEST(Ed25519, NonCanonicalSRejected) {
  // s >= L must be rejected (malleability defence). Take a valid signature
  // and add L to s (fits because s < L < 2^253).
  DeterministicRandom rng(8);
  const auto kp = ed25519_generate(rng);
  const Bytes msg = to_bytes("msg");
  auto sig = ed25519_sign(ed25519_expand_key(kp.seed), msg);
  // L = 2^252 + 27742317777372353535851937790883648493, little-endian.
  const Bytes l_le = from_hex(
      "edd3f55c1a631258d69cf7a2def9de14"
      "00000000000000000000000000000010");
  ASSERT_EQ(l_le.size(), 32u);
  unsigned carry = 0;
  for (int i = 0; i < 32; ++i) {
    const unsigned v = sig[static_cast<std::size_t>(32 + i)] + l_le[static_cast<std::size_t>(i)] + carry;
    sig[static_cast<std::size_t>(32 + i)] = static_cast<std::uint8_t>(v);
    carry = v >> 8;
  }
  EXPECT_FALSE(ed25519_verify(kp.public_key, msg, ByteView(sig.data(), 64)));
}

TEST(Ed25519, BadSignatureLengthRejected) {
  DeterministicRandom rng(9);
  const auto kp = ed25519_generate(rng);
  const auto sig = ed25519_sign(ed25519_expand_key(kp.seed), to_bytes("m"));
  EXPECT_FALSE(ed25519_verify(kp.public_key, to_bytes("m"),
                              ByteView(sig.data(), 63)));
  EXPECT_FALSE(ed25519_verify(kp.public_key, to_bytes("m"), {}));
}

// Property: sign/verify round trip across message sizes and keys.
class Ed25519Sweep : public ::testing::TestWithParam<int> {};

TEST_P(Ed25519Sweep, SignVerifyRoundTrip) {
  DeterministicRandom rng(static_cast<std::uint64_t>(GetParam()));
  const auto kp = ed25519_generate(rng);
  const Bytes msg = rng.bytes(static_cast<std::size_t>(GetParam()) * 17 % 300);
  const auto sig = ed25519_sign(ed25519_expand_key(kp.seed), msg);
  EXPECT_TRUE(ed25519_verify(kp.public_key, msg, ByteView(sig.data(), 64)));
}

INSTANTIATE_TEST_SUITE_P(Keys, Ed25519Sweep, ::testing::Range(0, 12));

// Cross-check the windowed fixed-base path against the reference
// double-and-add ladder on edge-case and random scalars. The window table,
// radix-16 recoding, and Niels mixed additions share no code with the
// ladder, so agreement pins them independently of the RFC vectors.
TEST(Ed25519, WindowedBaseMulMatchesLadder) {
  std::array<std::uint8_t, 32> scalar{};
  // Zero, one, two, and the largest single-limb values.
  EXPECT_EQ(detail::base_mul_windowed(scalar), detail::base_mul_ladder(scalar));
  scalar[0] = 1;
  EXPECT_EQ(detail::base_mul_windowed(scalar), detail::base_mul_ladder(scalar));
  scalar[0] = 2;
  EXPECT_EQ(detail::base_mul_windowed(scalar), detail::base_mul_ladder(scalar));
  scalar.fill(0xff);
  scalar[31] = 0x1f;  // just below 2^253
  EXPECT_EQ(detail::base_mul_windowed(scalar), detail::base_mul_ladder(scalar));

  DeterministicRandom rng(0x25519);
  for (int i = 0; i < 64; ++i) {
    const Bytes r = rng.bytes(32);
    std::copy(r.begin(), r.end(), scalar.begin());
    scalar[31] &= 0x1f;  // keep within the table path's 2^253 domain
    ASSERT_EQ(detail::base_mul_windowed(scalar), detail::base_mul_ladder(scalar))
        << "iteration " << i;
    // Clamped form, as used by key generation and signing.
    scalar[0] &= 248;
    scalar[31] &= 63;
    scalar[31] |= 64;
    ASSERT_EQ(detail::base_mul_windowed(scalar), detail::base_mul_ladder(scalar))
        << "clamped iteration " << i;
  }
}

// 1000 random keys/messages through the full windowed-sign + Straus-verify
// pipeline, with a tamper check on each round.
TEST(Ed25519, RandomSignVerifyTamperSweep) {
  DeterministicRandom rng(0x8032);
  for (int i = 0; i < 1000; ++i) {
    const auto kp = ed25519_generate(rng);
    const Bytes msg = rng.bytes(static_cast<std::size_t>(i) % 97);
    const auto sig = ed25519_sign(ed25519_expand_key(kp.seed), msg);
    ASSERT_TRUE(ed25519_verify(kp.public_key, msg, ByteView(sig.data(), 64)))
        << "iteration " << i;
    auto bad = sig;
    bad[static_cast<std::size_t>(i) % 64] ^= 1;
    ASSERT_FALSE(ed25519_verify(kp.public_key, msg, ByteView(bad.data(), 64)))
        << "iteration " << i;
  }
}

// Expanded-key signing must be byte-identical to the seed-based signing it
// replaced. The digest below was produced by the previous implementation
// (public key re-derived from the seed, two fixed-base multiplies per
// signature) over these same 1,000 random keys and messages.
TEST(Ed25519, ExpandedKeySignaturesMatchSeedSigning) {
  DeterministicRandom rng(0x5167);
  Sha256 all;
  for (int i = 0; i < 1000; ++i) {
    const auto kp = ed25519_generate(rng);
    const Bytes msg = rng.bytes(static_cast<std::size_t>(i) % 131);
    const Ed25519SigningKey key = ed25519_expand_key(kp.seed);
    ASSERT_EQ(key.public_key, kp.public_key) << "iteration " << i;
    const auto sig = ed25519_sign(key, msg);
    all.update(ByteView(sig.data(), sig.size()));
  }
  const auto digest = all.finish();
  EXPECT_EQ(to_hex(ByteView(digest.data(), digest.size())),
            "1033ffa9ef1da47a26a1d819cdeeb256666fcc4bcd700b6edb6ee79a5481a127");
}

}  // namespace
}  // namespace vnfsgx::crypto

namespace vnfsgx::crypto {
namespace {

TEST(X25519, Rfc7748IteratedVector1000) {
  // RFC 7748 §5.2: iterate k' = X25519(k, u), u' = k. After 1000
  // iterations: 684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51
  X25519Key k{};
  X25519Key u{};
  k[0] = 9;
  u[0] = 9;
  for (int i = 0; i < 1000; ++i) {
    const X25519Key next = x25519(k, u);
    u = k;
    k = next;
  }
  EXPECT_EQ(to_hex(k),
            "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51");
}

}  // namespace
}  // namespace vnfsgx::crypto

// ---------------------------------------------------------------------------
// Ed25519 batch verification: the fleet-attestation fast path. Verdicts must
// be bit-exact with per-signature ed25519_verify across valid, tampered, and
// malformed inputs, with and without a caller-supplied RandomSource for the
// blinding coefficients.
// ---------------------------------------------------------------------------
namespace vnfsgx::crypto {
namespace {

Ed25519Seed batch_seed_from_hex(std::string_view h) {
  const Bytes b = from_hex(h);
  Ed25519Seed s;
  std::copy(b.begin(), b.end(), s.begin());
  return s;
}

struct SignedMessage {
  Ed25519PublicKey public_key{};
  Bytes message;
  Ed25519Signature signature{};
};

std::vector<SignedMessage> make_signed(DeterministicRandom& rng,
                                       std::size_t count) {
  std::vector<SignedMessage> out(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto kp = ed25519_generate(rng);
    out[i].public_key = kp.public_key;
    out[i].message = rng.bytes(i % 113);
    out[i].signature =
        ed25519_sign(ed25519_expand_key(kp.seed), out[i].message);
  }
  return out;
}

std::vector<Ed25519BatchItem> to_items(const std::vector<SignedMessage>& in) {
  std::vector<Ed25519BatchItem> items(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    items[i].public_key = in[i].public_key;
    items[i].message = ByteView(in[i].message);
    items[i].signature = ByteView(in[i].signature.data(), 64);
  }
  return items;
}

void expect_matches_single(const std::vector<SignedMessage>& batch,
                           RandomSource* rng) {
  const auto items = to_items(batch);
  const std::vector<bool> verdicts =
      ed25519_verify_batch(std::span<const Ed25519BatchItem>(items), rng);
  ASSERT_EQ(verdicts.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(verdicts[i],
              ed25519_verify(items[i].public_key, items[i].message,
                             items[i].signature))
        << "index " << i;
  }
}

TEST(Ed25519Batch, EmptyBatch) {
  EXPECT_TRUE(
      ed25519_verify_batch(std::span<const Ed25519BatchItem>(), nullptr)
          .empty());
}

TEST(Ed25519Batch, Rfc8032VectorsAllAccepted) {
  // The three RFC 8032 §7.1 vectors already exercised one-by-one above,
  // now verified as one batch.
  struct Vector {
    const char* seed;
    const char* msg;
  };
  const Vector vectors[] = {
      {"9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
       ""},
      {"4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
       "72"},
      {"c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
       "af82"},
  };
  std::vector<SignedMessage> batch;
  for (const Vector& v : vectors) {
    SignedMessage sm;
    const Ed25519Seed seed = batch_seed_from_hex(v.seed);
    sm.public_key = ed25519_public_key(seed);
    sm.message = from_hex(v.msg);
    sm.signature = ed25519_sign(ed25519_expand_key(seed), sm.message);
    batch.push_back(std::move(sm));
  }
  expect_matches_single(batch, nullptr);
  const auto items = to_items(batch);
  const auto verdicts =
      ed25519_verify_batch(std::span<const Ed25519BatchItem>(items), nullptr);
  for (const bool ok : verdicts) EXPECT_TRUE(ok);
}

TEST(Ed25519Batch, SixtyFourValidSignaturesPass) {
  DeterministicRandom rng(0xba7c);
  const auto batch = make_signed(rng, 64);
  const auto items = to_items(batch);
  // Random and deterministic coefficient derivation must both accept.
  for (RandomSource* coeff_rng : {static_cast<RandomSource*>(&rng),
                                  static_cast<RandomSource*>(nullptr)}) {
    const auto verdicts = ed25519_verify_batch(
        std::span<const Ed25519BatchItem>(items), coeff_rng);
    ASSERT_EQ(verdicts.size(), 64u);
    for (std::size_t i = 0; i < verdicts.size(); ++i) {
      EXPECT_TRUE(verdicts[i]) << "index " << i;
    }
  }
}

TEST(Ed25519Batch, TamperedSignatureInSixtyFourIsolated) {
  // One forged report in a 64-quote fleet: the batch equation fails, the
  // per-item fallback pins the culprit, and the other 63 still pass.
  DeterministicRandom rng(0xf1ee);
  auto batch = make_signed(rng, 64);
  const std::size_t victim = 23;
  batch[victim].signature[10] ^= 0x40;
  const auto items = to_items(batch);
  const auto verdicts =
      ed25519_verify_batch(std::span<const Ed25519BatchItem>(items), &rng);
  ASSERT_EQ(verdicts.size(), 64u);
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    EXPECT_EQ(verdicts[i], i != victim) << "index " << i;
  }
}

TEST(Ed25519Batch, TamperedMessageIsolated) {
  DeterministicRandom rng(0x5eed);
  auto batch = make_signed(rng, 16);
  batch[7].message.push_back(0x00);
  expect_matches_single(batch, &rng);
}

TEST(Ed25519Batch, WrongKeyIsolated) {
  DeterministicRandom rng(0xabcd);
  auto batch = make_signed(rng, 8);
  const auto other = ed25519_generate(rng);
  batch[3].public_key = other.public_key;
  expect_matches_single(batch, nullptr);
}

TEST(Ed25519Batch, MalformedItemsRejectedWithoutPoisoningBatch) {
  DeterministicRandom rng(0x0bad);
  auto batch = make_signed(rng, 8);
  auto items = to_items(batch);
  // Truncated signature and non-canonical S: both must be individually
  // rejected while the six well-formed signatures pass.
  items[1].signature = ByteView(items[1].signature.data(), 63);
  static std::array<std::uint8_t, 64> high_s{};
  high_s.fill(0xff);
  items[5].signature = ByteView(high_s.data(), high_s.size());
  const auto verdicts =
      ed25519_verify_batch(std::span<const Ed25519BatchItem>(items), &rng);
  ASSERT_EQ(verdicts.size(), 8u);
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    EXPECT_EQ(verdicts[i], i != 1 && i != 5) << "index " << i;
  }
}

TEST(Ed25519Batch, SingleItemBatch) {
  DeterministicRandom rng(0x0001);
  const auto batch = make_signed(rng, 1);
  expect_matches_single(batch, nullptr);
}

// R encodings that name no point, or name one non-canonically. Batch
// verification rejects them when decoding R; single verification rejects
// them because they never equal the canonical encoding of s·B − k·A.
enum class BadR { kYAtLeastP, kZeroXNegative, kNonSquare };

void set_malformed_r(Ed25519Signature& sig, BadR kind, std::uint8_t variant) {
  std::array<std::uint8_t, 32> r{};
  switch (kind) {
    case BadR::kYAtLeastP:
      // y = p + t for t in [0, 18]: p = 2^255 - 19 is ed ff .. ff 7f.
      r.fill(0xff);
      r[0] = static_cast<std::uint8_t>(0xed + variant % 19);
      r[31] = (variant & 0x20) ? 0xff : 0x7f;  // either sign bit
      break;
    case BadR::kZeroXNegative:
      // The two points with x = 0, y = 1 and y = p - 1 = -1, with the sign
      // bit set (only sign 0 is canonical for x = 0).
      if (variant & 1) {
        r.fill(0xff);
        r[0] = 0xec;
      } else {
        r[0] = 0x01;
        r[31] = 0x80;
      }
      break;
    case BadR::kNonSquare:
      // y = 2: (y^2 - 1) / (d·y^2 + 1) is not a square mod p.
      r[0] = 0x02;
      r[31] = (variant & 1) ? 0x80 : 0x00;
      break;
  }
  std::copy(r.begin(), r.end(), sig.begin());
}

TEST(Ed25519Batch, RandomSweepMatchesSingleVerify) {
  // Random batches with random tampering, including malformed R values:
  // every verdict must match the single-signature verifier exactly, and a
  // malformed R is always rejected (as the R-decoding verifier did).
  DeterministicRandom rng(0x57ab1e);
  int malformed[3] = {0, 0, 0};
  for (int round = 0; round < 10; ++round) {
    auto batch = make_signed(rng, 1 + (static_cast<std::size_t>(round) * 7) % 33);
    std::vector<bool> bad_r(batch.size(), false);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      auto& sm = batch[i];
      const Bytes coin = rng.bytes(2);
      if (coin[0] < 64) {
        sm.signature[coin[0] % 64] ^= 1;
      } else if (coin[0] < 96) {
        sm.message.push_back(0x5a);
      } else if (coin[0] < 144) {
        const int kind = (coin[0] - 96) / 16;
        set_malformed_r(sm.signature, static_cast<BadR>(kind), coin[1]);
        bad_r[i] = true;
        ++malformed[kind];
      }
    }
    expect_matches_single(batch, round % 2 ? &rng : nullptr);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (!bad_r[i]) continue;
      EXPECT_FALSE(ed25519_verify(batch[i].public_key, batch[i].message,
                                  ByteView(batch[i].signature.data(), 64)))
          << "round " << round << " index " << i;
    }
  }
  for (const int count : malformed) EXPECT_GE(count, 3);
}

// ---------------------------------------------------------------------------
// Known-key verification (Ed25519VerifyKey): from the second verification on
// it runs on the key's fixed-base table, and every verdict must equal
// ed25519_verify's.
// ---------------------------------------------------------------------------

// A verification key whose table is already built (two verifications).
Ed25519VerifyKey warmed(const Ed25519PublicKey& public_key) {
  Ed25519VerifyKey key(public_key);
  for (int i = 0; i < 2; ++i) (void)key.verify(to_bytes("warm"), Bytes(64, 0));
  return key;
}

void expect_known_key_matches(const Ed25519VerifyKey& key, ByteView message,
                              ByteView signature, const std::string& what) {
  EXPECT_EQ(key.verify(message, signature),
            ed25519_verify(key.public_key(), message, signature))
      << what;
}

void expect_malformed_matches(const Ed25519VerifyKey& key, ByteView message,
                              const Ed25519Signature& sig, int kind,
                              int variant) {
  expect_known_key_matches(key, message, ByteView(sig.data(), 64),
                           "malformed R kind " + std::to_string(kind) +
                               " variant " + std::to_string(variant));
}

TEST(Ed25519KnownKey, TableBuiltOnSecondVerificationOnly) {
  DeterministicRandom rng(0x7ab1e);
  const auto kp = ed25519_generate(rng);
  const Bytes msg = to_bytes("anchor");
  const auto sig = ed25519_sign(ed25519_expand_key(kp.seed), msg);
  Ed25519VerifyKey key(kp.public_key);
  EXPECT_TRUE(key.verify(msg, ByteView(sig.data(), 64)));
  EXPECT_FALSE(key.has_table());
  EXPECT_TRUE(key.verify(msg, ByteView(sig.data(), 64)));
  EXPECT_TRUE(key.has_table());
  // Copies share the table.
  const Ed25519VerifyKey copy = key;
  EXPECT_TRUE(copy.has_table());
  EXPECT_TRUE(copy.verify(msg, ByteView(sig.data(), 64)));
}

TEST(Ed25519KnownKey, Rfc8032VectorsMatchSingleVerify) {
  const char* seeds[] = {
      "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
      "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
      "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7"};
  const char* messages[] = {"", "72", "af82"};
  for (int v = 0; v < 3; ++v) {
    const Ed25519Seed seed = batch_seed_from_hex(seeds[v]);
    const Bytes msg = from_hex(messages[v]);
    const auto sig = ed25519_sign(ed25519_expand_key(seed), msg);
    const Ed25519VerifyKey key = warmed(ed25519_public_key(seed));
    ASSERT_TRUE(key.has_table());
    EXPECT_TRUE(key.verify(msg, ByteView(sig.data(), 64))) << "vector " << v;
    auto bad = sig;
    bad[63] ^= 0x01;
    expect_known_key_matches(key, msg, ByteView(bad.data(), 64),
                             "vector " + std::to_string(v));
  }
}

TEST(Ed25519KnownKey, SeededValidAndTamperedMatchSingleVerify) {
  DeterministicRandom rng(0xa11c0);
  std::vector<Ed25519SigningKey> signers;
  std::vector<Ed25519VerifyKey> anchors;
  for (int k = 0; k < 25; ++k) {
    const auto kp = ed25519_generate(rng);
    signers.push_back(ed25519_expand_key(kp.seed));
    anchors.push_back(warmed(kp.public_key));
  }
  int rejected = 0;
  for (int i = 0; i < 1000; ++i) {
    const std::size_t k = static_cast<std::size_t>(i) % signers.size();
    Bytes msg = rng.bytes(static_cast<std::size_t>(i) % 151);
    auto sig = ed25519_sign(signers[k], msg);
    const std::string what = "iteration " + std::to_string(i);
    ASSERT_TRUE(anchors[k].verify(msg, ByteView(sig.data(), 64))) << what;
    // Tamper one way per iteration: a signature bit, the message, or the
    // key (another anchor's table on this signature).
    switch (i % 3) {
      case 0:
        sig[static_cast<std::size_t>(i) % 64] ^=
            static_cast<std::uint8_t>(1u << (i % 8));
        break;
      case 1:
        msg.push_back(static_cast<std::uint8_t>(i));
        break;
      default:
        break;
    }
    const Ed25519VerifyKey& key =
        i % 3 == 2 ? anchors[(k + 1) % anchors.size()] : anchors[k];
    const bool verdict = key.verify(msg, ByteView(sig.data(), 64));
    ASSERT_EQ(verdict, ed25519_verify(key.public_key(), msg,
                                      ByteView(sig.data(), 64)))
        << what;
    rejected += verdict ? 0 : 1;
  }
  EXPECT_EQ(rejected, 1000);
}

TEST(Ed25519KnownKey, MalformedRAndSMatchSingleVerify) {
  DeterministicRandom rng(0xbad5);
  const auto kp = ed25519_generate(rng);
  const Ed25519SigningKey signer = ed25519_expand_key(kp.seed);
  const Ed25519VerifyKey key = warmed(kp.public_key);
  const Bytes msg = to_bytes("malformed");
  const auto good = ed25519_sign(signer, msg);
  for (int kind = 0; kind < 3; ++kind) {
    for (int variant = 0; variant < 64; ++variant) {
      auto sig = good;
      set_malformed_r(sig, static_cast<BadR>(kind),
                      static_cast<std::uint8_t>(variant));
      EXPECT_FALSE(key.verify(msg, ByteView(sig.data(), 64)));
      expect_malformed_matches(key, msg, sig, kind, variant);
    }
  }
  // S >= L: s + L (the same point, a non-canonical scalar), L itself, and
  // every top byte above L's.
  const Bytes l_le = from_hex(
      "edd3f55c1a631258d69cf7a2def9de14"
      "00000000000000000000000000000010");
  auto s_plus_l = good;
  unsigned carry = 0;
  for (std::size_t i = 0; i < 32; ++i) {
    const unsigned v = s_plus_l[32 + i] + l_le[i] + carry;
    s_plus_l[32 + i] = static_cast<std::uint8_t>(v);
    carry = v >> 8;
  }
  auto s_is_l = good;
  std::copy(l_le.begin(), l_le.end(), s_is_l.begin() + 32);
  std::vector<Ed25519Signature> bad_s = {s_plus_l, s_is_l};
  for (int top = 0x10; top <= 0xff; top += 0x1f) {
    auto sig = good;
    sig[63] = static_cast<std::uint8_t>(top);
    bad_s.push_back(sig);
  }
  for (const auto& sig : bad_s) {
    EXPECT_FALSE(key.verify(msg, ByteView(sig.data(), 64)));
    EXPECT_FALSE(ed25519_verify(kp.public_key, msg, ByteView(sig.data(), 64)));
  }
  // Wrong lengths.
  EXPECT_FALSE(key.verify(msg, ByteView(good.data(), 63)));
  EXPECT_FALSE(key.verify(msg, {}));
}

TEST(Ed25519KnownKey, NonCanonicalKeysMatchSingleVerify) {
  // Keys whose encoding names no point or names one non-canonically: the
  // R sweep's encodings, used as A. Neither verifier accepts anything
  // under them, and no table is built.
  DeterministicRandom rng(0xac0);
  const auto kp = ed25519_generate(rng);
  const Bytes msg = to_bytes("non-canonical A");
  const auto sig = ed25519_sign(ed25519_expand_key(kp.seed), msg);
  for (int kind = 0; kind < 3; ++kind) {
    for (int variant = 0; variant < 64; ++variant) {
      Ed25519Signature carrier{};
      set_malformed_r(carrier, static_cast<BadR>(kind),
                      static_cast<std::uint8_t>(variant));
      Ed25519PublicKey bad_key;
      std::copy(carrier.begin(), carrier.begin() + 32, bad_key.begin());
      const Ed25519VerifyKey key = warmed(bad_key);
      EXPECT_FALSE(key.has_table());
      EXPECT_FALSE(key.verify(msg, ByteView(sig.data(), 64)));
      EXPECT_FALSE(ed25519_verify(bad_key, msg, ByteView(sig.data(), 64)));
    }
  }
}

}  // namespace
}  // namespace vnfsgx::crypto

// ---------------------------------------------------------------------------
// GF(2^255 - 19) kernels: the inlined squaring against the multiply, the
// documented limb bound under chained add/sub, and the shift-packing
// fe_to_bytes against the bit-loop packing it replaced.
// ---------------------------------------------------------------------------
namespace vnfsgx::crypto {
namespace {

constexpr std::uint64_t kM51 = (1ULL << 51) - 1;

std::uint64_t random_u64(DeterministicRandom& rng) {
  std::uint64_t v = 0;
  for (const std::uint8_t b : rng.bytes(8)) v = (v << 8) | b;
  return v;
}

Fe random_fe(DeterministicRandom& rng, std::uint64_t limb_bound) {
  Fe a;
  for (auto& limb : a.v) limb = random_u64(rng) % limb_bound;
  return a;
}

bool loosely_reduced(const Fe& a) {
  for (const std::uint64_t limb : a.v) {
    if (limb >= kFeLimbBound) return false;
  }
  return true;
}

// The previous fe_to_bytes: carry passes, a conditional subtraction of p,
// then a 255-step bit loop.
std::array<std::uint8_t, 32> reference_to_bytes(const Fe& a) {
  std::uint64_t l[5] = {a.v[0], a.v[1], a.v[2], a.v[3], a.v[4]};
  for (int pass = 0; pass < 3; ++pass) {
    for (int i = 0; i < 4; ++i) {
      l[i + 1] += l[i] >> 51;
      l[i] &= kM51;
    }
    l[0] += 19 * (l[4] >> 51);
    l[4] &= kM51;
  }
  std::uint64_t s[5];
  std::uint64_t carry = 19;
  for (int i = 0; i < 5; ++i) {
    s[i] = l[i] + carry;
    carry = s[i] >> 51;
    s[i] &= kM51;
  }
  const std::uint64_t mask = 0 - carry;  // carry out of bit 255: t >= p
  for (int i = 0; i < 5; ++i) l[i] = (l[i] & ~mask) | (s[i] & mask);
  std::array<std::uint8_t, 32> out{};
  int bitpos = 0;
  for (int i = 0; i < 5; ++i) {
    for (int bit = 0; bit < 51; ++bit, ++bitpos) {
      if ((l[i] >> bit) & 1) {
        out[static_cast<std::size_t>(bitpos >> 3)] |=
            static_cast<std::uint8_t>(1u << (bitpos & 7));
      }
    }
  }
  return out;
}

TEST(Field25519, SquareMatchesMultiply) {
  const std::uint64_t top = kFeLimbBound - 1;
  std::vector<Fe> inputs = {fe_zero(), fe_one(),
                            Fe{{top, top, top, top, top}},
                            Fe{{kM51 - 19, kM51, kM51, kM51, kM51}}};
  DeterministicRandom rng(0xf1e1d);
  for (int i = 0; i < 1000; ++i) inputs.push_back(random_fe(rng, kFeLimbBound));
  for (const Fe& a : inputs) {
    const Fe sq = fe_sq(a);
    EXPECT_EQ(fe_to_bytes(sq), fe_to_bytes(fe_mul(a, a)));
    EXPECT_TRUE(loosely_reduced(sq));
  }
}

TEST(Field25519, ChainedAddSubStaysWithinBound) {
  DeterministicRandom rng(0xadd5);
  std::vector<Fe> operands;
  for (int i = 0; i < 64; ++i) operands.push_back(random_fe(rng, kFeLimbBound));
  operands.push_back(Fe{{kFeLimbBound - 1, kFeLimbBound - 1, kFeLimbBound - 1,
                         kFeLimbBound - 1, kFeLimbBound - 1}});
  const Fe start = random_fe(rng, kFeLimbBound);
  Fe x = start;
  std::vector<std::pair<bool, std::size_t>> ops;
  for (int i = 0; i < 5000; ++i) {
    const Bytes coin = rng.bytes(2);
    const bool add = coin[0] & 1;
    const std::size_t k = coin[1] % operands.size();
    x = add ? fe_add(x, operands[k]) : fe_sub(x, operands[k]);
    ASSERT_TRUE(loosely_reduced(x)) << "step " << i;
    ops.emplace_back(add, k);
  }
  const Fe neg = fe_neg(x);
  EXPECT_TRUE(loosely_reduced(neg));
  EXPECT_TRUE(fe_is_zero(fe_add(x, neg)));
  // Undo every step: the chain must land back on the starting value.
  for (auto it = ops.rbegin(); it != ops.rend(); ++it) {
    x = it->first ? fe_sub(x, operands[it->second])
                  : fe_add(x, operands[it->second]);
    ASSERT_TRUE(loosely_reduced(x));
  }
  EXPECT_EQ(fe_to_bytes(x), fe_to_bytes(start));
}

TEST(Field25519, ToBytesMatchesBitLoopReference) {
  const std::uint64_t two_m = (1ULL << 52) - 2;
  const std::uint64_t top63 = (1ULL << 63) - 1;
  struct Case {
    const char* name;
    Fe value;
    const char* expected_hex;
  };
  const Case cases[] = {
      {"p-1", Fe{{kM51 - 19, kM51, kM51, kM51, kM51}},
       "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"},
      {"p", Fe{{kM51 - 18, kM51, kM51, kM51, kM51}},
       "0000000000000000000000000000000000000000000000000000000000000000"},
      {"p+1", Fe{{kM51 - 17, kM51, kM51, kM51, kM51}},
       "0100000000000000000000000000000000000000000000000000000000000000"},
      {"2p-1", Fe{{two_m - 37, two_m, two_m, two_m, two_m}},
       "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"},
      {"2^255-1", Fe{{kM51, kM51, kM51, kM51, kM51}},
       "1200000000000000000000000000000000000000000000000000000000000000"},
      // The documented input ceiling: every limb just under 2^63.
      {"limbs 2^63-1", Fe{{top63, top63, top63, top63, top63}},
       "ff2f01000000f87f00000000c0ff0300000000fe1f00000000f0ff0000000000"},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(to_hex(fe_to_bytes(c.value)), c.expected_hex) << c.name;
    EXPECT_EQ(fe_to_bytes(c.value), reference_to_bytes(c.value)) << c.name;
  }
  DeterministicRandom rng(0xb17e);
  for (int i = 0; i < 2000; ++i) {
    const Fe a = random_fe(rng, i % 2 ? kFeLimbBound : (1ULL << 52));
    ASSERT_EQ(fe_to_bytes(a), reference_to_bytes(a)) << "iteration " << i;
  }
  // Round trip through the encoding for canonical inputs.
  for (int i = 0; i < 200; ++i) {
    std::array<std::uint8_t, 32> bytes;
    rng.fill(bytes);
    bytes[31] &= 0x3f;  // < 2^254 < p
    EXPECT_EQ(fe_to_bytes(fe_from_bytes(bytes)), bytes);
  }
}

}  // namespace
}  // namespace vnfsgx::crypto

// ---------------------------------------------------------------------------
// Scalars mod L: the radix-2^21 reduce and mul-add against the bit-serial
// long division they replaced, kept here as the oracle.
// ---------------------------------------------------------------------------
namespace vnfsgx::crypto {
namespace {

using Scalar32 = std::array<std::uint8_t, 32>;
using Wide64 = std::array<std::uint8_t, 64>;

// The previous implementation: 32-bit limbs, one shift-and-subtract step
// per input bit.
struct OracleScalar {
  std::array<std::uint32_t, 9> limb{};
};

constexpr std::array<std::uint32_t, 9> kOracleL = {
    0x5cf5d3edu, 0x5812631au, 0xa2f79cd6u, 0x14def9deu, 0u,
    0u,          0u,          0x10000000u, 0u};

int oracle_cmp_order(const OracleScalar& a) {
  for (int i = 8; i >= 0; --i) {
    const auto idx = static_cast<std::size_t>(i);
    if (a.limb[idx] != kOracleL[idx]) return a.limb[idx] < kOracleL[idx] ? -1 : 1;
  }
  return 0;
}

void oracle_sub_order(OracleScalar& a) {
  std::uint64_t borrow = 0;
  for (std::size_t i = 0; i < 9; ++i) {
    const std::uint64_t d =
        static_cast<std::uint64_t>(a.limb[i]) - kOracleL[i] - borrow;
    a.limb[i] = static_cast<std::uint32_t>(d);
    borrow = (d >> 32) & 1;
  }
}

OracleScalar oracle_from_bytes_wide(ByteView bytes_le) {
  OracleScalar r;
  for (std::size_t byte_idx = bytes_le.size(); byte_idx-- > 0;) {
    const std::uint8_t byte = bytes_le[byte_idx];
    for (int bit = 7; bit >= 0; --bit) {
      std::uint32_t carry = (byte >> bit) & 1;
      for (std::size_t i = 0; i < 9; ++i) {
        const std::uint32_t next_carry = r.limb[i] >> 31;
        r.limb[i] = (r.limb[i] << 1) | carry;
        carry = next_carry;
      }
      if (oracle_cmp_order(r) >= 0) oracle_sub_order(r);
    }
  }
  return r;
}

Scalar32 oracle_to_bytes(const OracleScalar& s) {
  Scalar32 out{};
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t b = 0; b < 4; ++b) {
      out[i * 4 + b] = static_cast<std::uint8_t>(s.limb[i] >> (8 * b));
    }
  }
  return out;
}

Scalar32 oracle_reduce(const Wide64& wide) {
  return oracle_to_bytes(oracle_from_bytes_wide(wide));
}

// (a·b + c) mod L by schoolbook product into 68 bytes, then the oracle
// reduction.
Scalar32 oracle_mul_add(const Scalar32& a, const Scalar32& b,
                        const Scalar32& c) {
  std::array<std::uint64_t, 17> acc{};
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 8; ++j) {
      std::uint64_t ai = 0, bj = 0;
      for (std::size_t k = 0; k < 4; ++k) {
        ai |= static_cast<std::uint64_t>(a[i * 4 + k]) << (8 * k);
        bj |= static_cast<std::uint64_t>(b[j * 4 + k]) << (8 * k);
      }
      const std::uint64_t p = ai * bj;
      acc[i + j] += p & 0xffffffffu;
      acc[i + j + 1] += (p >> 32) + (acc[i + j] >> 32);
      acc[i + j] &= 0xffffffffu;
    }
  }
  for (std::size_t i = 0; i < 8; ++i) {
    std::uint64_t ci = 0;
    for (std::size_t k = 0; k < 4; ++k) {
      ci |= static_cast<std::uint64_t>(c[i * 4 + k]) << (8 * k);
    }
    acc[i] += ci;
  }
  Bytes wide(17 * 4);
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < 17; ++i) {
    const std::uint64_t v = acc[i] + carry;
    carry = v >> 32;
    for (std::size_t k = 0; k < 4; ++k) {
      wide[i * 4 + k] = static_cast<std::uint8_t>(v >> (8 * k));
    }
  }
  return oracle_to_bytes(oracle_from_bytes_wide(wide));
}

// L − 1, L and 2^n − 1 as little-endian strings of `size` bytes.
std::vector<std::uint8_t> edge(const char* which, std::size_t size) {
  std::vector<std::uint8_t> v(size, 0);
  const Bytes l_le = from_hex(
      "edd3f55c1a631258d69cf7a2def9de14"
      "00000000000000000000000000000010");
  if (std::string_view(which) == "max") {
    std::fill(v.begin(), v.end(), 0xff);
  } else if (std::string_view(which) != "zero") {
    std::copy(l_le.begin(), l_le.end(), v.begin());
    if (std::string_view(which) == "l-1") v[0] = 0xec;
  }
  return v;
}

TEST(Ed25519Scalar, ReduceWideMatchesBitSerialOracle) {
  for (const char* which : {"zero", "l-1", "l", "max"}) {
    Wide64 wide{};
    const auto v = edge(which, 64);
    std::copy(v.begin(), v.end(), wide.begin());
    EXPECT_EQ(detail::scalar_reduce_wide(wide), oracle_reduce(wide)) << which;
  }
  DeterministicRandom rng(0x5c41a);
  for (int i = 0; i < 10000; ++i) {
    Wide64 wide;
    rng.fill(wide);
    // Every fifth input is a zero-extended 32-byte value, the shape key
    // expansion reduces.
    if (i % 5 == 1) std::fill(wide.begin() + 32, wide.end(), 0);
    ASSERT_EQ(detail::scalar_reduce_wide(wide), oracle_reduce(wide))
        << "iteration " << i;
  }
}

TEST(Ed25519Scalar, MulAddMatchesBitSerialOracle) {
  const char* edges[] = {"zero", "l-1", "l", "max"};
  for (const char* ea : edges) {
    for (const char* eb : edges) {
      for (const char* ec : edges) {
        Scalar32 a{}, b{}, c{};
        const auto va = edge(ea, 32), vb = edge(eb, 32), vc = edge(ec, 32);
        std::copy(va.begin(), va.end(), a.begin());
        std::copy(vb.begin(), vb.end(), b.begin());
        std::copy(vc.begin(), vc.end(), c.begin());
        EXPECT_EQ(detail::scalar_mul_add(a, b, c), oracle_mul_add(a, b, c))
            << ea << " * " << eb << " + " << ec;
      }
    }
  }
  DeterministicRandom rng(0x5c41b);
  for (int i = 0; i < 10000; ++i) {
    Scalar32 a, b, c;
    rng.fill(a);
    rng.fill(b);
    rng.fill(c);
    ASSERT_EQ(detail::scalar_mul_add(a, b, c), oracle_mul_add(a, b, c))
        << "iteration " << i;
  }
}

}  // namespace
}  // namespace vnfsgx::crypto
