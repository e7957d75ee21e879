// SUB-CRYPTO: throughput/latency of the from-scratch primitives every other
// experiment sits on. Calibrates the absolute numbers reported by the
// workflow benches (see EXPERIMENTS.md).
#include <benchmark/benchmark.h>

#include "crypto/ed25519.h"
#include "crypto/gcm.h"
#include "crypto/hkdf.h"
#include "crypto/hmac.h"
#include "crypto/random.h"
#include "crypto/sha256.h"
#include "crypto/x25519.h"

namespace vnfsgx::crypto {
namespace {

void BM_Sha256(benchmark::State& state) {
  DeterministicRandom rng(1);
  const Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sha256(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
// 55 bytes pads into one block, 56 spills into a second.
BENCHMARK(BM_Sha256)->Arg(55)->Arg(56)->Arg(64)->Arg(1024)->Arg(16384);

void BM_HmacSha256(benchmark::State& state) {
  DeterministicRandom rng(2);
  const Bytes key = rng.bytes(32);
  const Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(hmac_sha256(key, data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(64)->Arg(1024)->Arg(16384);

void BM_AesGcmSeal(benchmark::State& state) {
  DeterministicRandom rng(3);
  const AesGcm gcm(rng.bytes(16));
  const Bytes nonce = rng.bytes(12);
  const Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(gcm.seal(nonce, data, {}));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_AesGcmSeal)->Arg(64)->Arg(1024)->Arg(16384);

void BM_AesGcmOpen(benchmark::State& state) {
  DeterministicRandom rng(3);
  const AesGcm gcm(rng.bytes(16));
  const Bytes nonce = rng.bytes(12);
  const Bytes sealed =
      gcm.seal(nonce, rng.bytes(static_cast<std::size_t>(state.range(0))), {});
  for (auto _ : state) {
    benchmark::DoNotOptimize(gcm.open(nonce, sealed, {}));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_AesGcmOpen)->Arg(64)->Arg(1024)->Arg(16384);

void BM_AesGcmSealInPlace(benchmark::State& state) {
  // The TLS record path: no allocation, ciphertext over the plaintext.
  DeterministicRandom rng(3);
  const AesGcm gcm(rng.bytes(16));
  const Bytes nonce = rng.bytes(12);
  const std::size_t len = static_cast<std::size_t>(state.range(0));
  Bytes buf = rng.bytes(len + kGcmTagSize);
  for (auto _ : state) {
    gcm.seal_in_place(nonce, buf.data(), len, {}, buf.data() + len);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_AesGcmSealInPlace)->Arg(64)->Arg(1024)->Arg(16384);

void BM_X25519SharedSecret(benchmark::State& state) {
  DeterministicRandom rng(4);
  const auto a = x25519_generate(rng);
  const auto b = x25519_generate(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(x25519_shared(a.private_key, b.public_key));
  }
}
BENCHMARK(BM_X25519SharedSecret);

void BM_Ed25519KeyGen(benchmark::State& state) {
  DeterministicRandom rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ed25519_generate(rng));
  }
}
BENCHMARK(BM_Ed25519KeyGen);

// The once-per-holder derivation that signing no longer repeats.
void BM_Ed25519ExpandKey(benchmark::State& state) {
  DeterministicRandom rng(6);
  const auto kp = ed25519_generate(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ed25519_expand_key(kp.seed));
  }
}
BENCHMARK(BM_Ed25519ExpandKey);

void BM_Ed25519Sign(benchmark::State& state) {
  DeterministicRandom rng(6);
  const auto key = ed25519_expand_key(ed25519_generate(rng).seed);
  const Bytes msg = rng.bytes(256);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ed25519_sign(key, msg));
  }
}
BENCHMARK(BM_Ed25519Sign);

void BM_Ed25519Verify(benchmark::State& state) {
  DeterministicRandom rng(7);
  const auto kp = ed25519_generate(rng);
  const Bytes msg = rng.bytes(256);
  const auto sig = ed25519_sign(ed25519_expand_key(kp.seed), msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ed25519_verify(kp.public_key, msg, ByteView(sig.data(), sig.size())));
  }
}
BENCHMARK(BM_Ed25519Verify);

// A trust anchor's verification key with its fixed-base table built: two
// fixed-base passes instead of the Straus doubling chain.
void BM_Ed25519VerifyKnownKey(benchmark::State& state) {
  DeterministicRandom rng(7);
  const auto kp = ed25519_generate(rng);
  const Bytes msg = rng.bytes(256);
  const auto sig = ed25519_sign(ed25519_expand_key(kp.seed), msg);
  const Ed25519VerifyKey key(kp.public_key);
  for (int i = 0; i < 2; ++i) key.verify(msg, ByteView(sig.data(), sig.size()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.verify(msg, ByteView(sig.data(), sig.size())));
  }
}
BENCHMARK(BM_Ed25519VerifyKnownKey);

// One SHA-512 digest reduced mod L (twice per signature, once per
// verification).
void BM_ScalarReduceWide(benchmark::State& state) {
  DeterministicRandom rng(9);
  std::array<std::uint8_t, 64> wide;
  rng.fill(wide);
  for (auto _ : state) {
    benchmark::DoNotOptimize(detail::scalar_reduce_wide(wide));
    wide[0] ^= 1;
  }
}
BENCHMARK(BM_ScalarReduceWide);

// s = (k·a + r) mod L, once per signature.
void BM_ScalarMulAdd(benchmark::State& state) {
  DeterministicRandom rng(10);
  std::array<std::uint8_t, 32> a, b, c;
  rng.fill(a);
  rng.fill(b);
  rng.fill(c);
  for (auto _ : state) {
    benchmark::DoNotOptimize(detail::scalar_mul_add(a, b, c));
    c[0] ^= 1;
  }
}
BENCHMARK(BM_ScalarMulAdd);

void BM_HkdfExpandLabel(benchmark::State& state) {
  DeterministicRandom rng(8);
  const Bytes secret = rng.bytes(32);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hkdf_expand_label(secret, "key", {}, 32));
  }
}
BENCHMARK(BM_HkdfExpandLabel);

}  // namespace
}  // namespace vnfsgx::crypto
