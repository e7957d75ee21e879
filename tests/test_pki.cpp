// PKI tests: TLV, certificates, CA, CRL, trust store policy.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "common/sim_clock.h"
#include "crypto/random.h"
#include "pki/ca.h"
#include "pki/tlv.h"
#include "pki/truststore.h"

namespace vnfsgx::pki {
namespace {

using crypto::DeterministicRandom;

TEST(Tlv, RoundTrip) {
  TlvWriter w;
  w.add_u8(1, 0xab);
  w.add_u32(2, 0xdeadbeef);
  w.add_u64(3, 0x0123456789abcdefULL);
  w.add_string(4, "hello");
  w.add_bytes(5, Bytes{0x01, 0x02});

  TlvReader r(w.bytes());
  EXPECT_EQ(r.expect_u8(1), 0xab);
  EXPECT_EQ(r.expect_u32(2), 0xdeadbeefu);
  EXPECT_EQ(r.expect_u64(3), 0x0123456789abcdefULL);
  EXPECT_EQ(r.expect_string(4), "hello");
  EXPECT_EQ(r.expect_bytes(5), (Bytes{0x01, 0x02}));
  EXPECT_TRUE(r.done());
}

TEST(Tlv, WrongTagThrows) {
  TlvWriter w;
  w.add_u8(1, 7);
  TlvReader r(w.bytes());
  EXPECT_THROW(r.expect_u8(2), ParseError);
}

TEST(Tlv, TruncatedThrows) {
  TlvWriter w;
  w.add_string(1, "payload");
  Bytes data = w.take();
  data.pop_back();
  TlvReader r(data);
  EXPECT_THROW(r.expect_string(1), ParseError);
}

TEST(Tlv, BadScalarLengthThrows) {
  TlvWriter w;
  w.add_string(1, "xyz");  // 3 bytes, not a valid u32
  TlvReader r(w.bytes());
  EXPECT_THROW(r.expect_u32(1), ParseError);
}

TEST(Tlv, PeekDoesNotConsume) {
  TlvWriter w;
  w.add_u8(9, 1);
  TlvReader r(w.bytes());
  EXPECT_EQ(r.peek_tag(), 9);
  EXPECT_EQ(r.peek_tag(), 9);
  EXPECT_EQ(r.expect_u8(9), 1);
}

class PkiFixture : public ::testing::Test {
 protected:
  PkiFixture()
      : rng_(42),
        clock_(1'700'000'000),
        ca_(DistinguishedName{"verification-manager", "RISE"}, rng_, clock_) {}

  DeterministicRandom rng_;
  SimClock clock_;
  CertificateAuthority ca_;
};

TEST_F(PkiFixture, RootIsSelfSignedCa) {
  const Certificate& root = ca_.root_certificate();
  EXPECT_TRUE(root.is_ca);
  EXPECT_EQ(root.subject, root.issuer);
  EXPECT_TRUE(root.verify_signature(root.public_key));
  EXPECT_TRUE(root.allows(KeyUsage::kCertSign));
}

TEST_F(PkiFixture, CertificateEncodingRoundTrip) {
  const auto subject_key = crypto::ed25519_generate(rng_);
  const Certificate cert =
      ca_.issue({"vnf-1.example", "tenant"}, subject_key.public_key,
                static_cast<std::uint8_t>(KeyUsage::kClientAuth));
  const Certificate decoded = Certificate::decode(cert.encode());
  EXPECT_EQ(decoded, cert);
  EXPECT_EQ(decoded.fingerprint(), cert.fingerprint());
}

TEST_F(PkiFixture, DecodeRejectsCorruption) {
  const auto key = crypto::ed25519_generate(rng_);
  const Certificate cert = ca_.issue(
      {"x", ""}, key.public_key, static_cast<std::uint8_t>(KeyUsage::kClientAuth));
  Bytes data = cert.encode();
  data.push_back(0);  // trailing garbage
  EXPECT_THROW(Certificate::decode(data), ParseError);
  Bytes truncated = cert.encode();
  truncated.resize(truncated.size() / 2);
  EXPECT_THROW(Certificate::decode(truncated), ParseError);
}

TEST_F(PkiFixture, IssuedCertVerifiesAgainstRoot) {
  const auto key = crypto::ed25519_generate(rng_);
  const Certificate cert = ca_.issue(
      {"vnf-2", ""}, key.public_key,
      static_cast<std::uint8_t>(KeyUsage::kClientAuth));
  EXPECT_TRUE(cert.verify_signature(ca_.root_certificate().public_key));
  EXPECT_FALSE(cert.is_ca);
  EXPECT_EQ(cert.issuer, ca_.root_certificate().subject);
}

TEST_F(PkiFixture, SerialsAreUnique) {
  const auto key = crypto::ed25519_generate(rng_);
  const auto c1 = ca_.issue({"a", ""}, key.public_key, 1);
  const auto c2 = ca_.issue({"b", ""}, key.public_key, 1);
  EXPECT_NE(c1.serial, c2.serial);
  EXPECT_EQ(ca_.issued_count(), 2u);
}

TEST_F(PkiFixture, TrustStoreAcceptsValidLeaf) {
  TrustStore store;
  store.add_root(ca_.root_certificate());
  const auto key = crypto::ed25519_generate(rng_);
  const Certificate leaf = ca_.issue(
      {"vnf-3", ""}, key.public_key,
      static_cast<std::uint8_t>(KeyUsage::kClientAuth));
  EXPECT_TRUE(store.verify(leaf, KeyUsage::kClientAuth, clock_.now()).ok());
}

TEST_F(PkiFixture, TrustStoreRejectsUnknownIssuer) {
  TrustStore store;  // empty
  const auto key = crypto::ed25519_generate(rng_);
  const Certificate leaf = ca_.issue(
      {"vnf", ""}, key.public_key,
      static_cast<std::uint8_t>(KeyUsage::kClientAuth));
  EXPECT_EQ(store.verify(leaf, KeyUsage::kClientAuth, clock_.now()).status,
            VerifyStatus::kUnknownIssuer);
}

TEST_F(PkiFixture, TrustStoreRejectsForgedSignature) {
  TrustStore store;
  store.add_root(ca_.root_certificate());
  const auto key = crypto::ed25519_generate(rng_);
  Certificate leaf = ca_.issue(
      {"vnf", ""}, key.public_key,
      static_cast<std::uint8_t>(KeyUsage::kClientAuth));
  leaf.subject.common_name = "vnf-imposter";  // invalidates the signature
  EXPECT_EQ(store.verify(leaf, KeyUsage::kClientAuth, clock_.now()).status,
            VerifyStatus::kBadSignature);
}

TEST_F(PkiFixture, TrustStoreEnforcesValidityWindow) {
  TrustStore store;
  store.add_root(ca_.root_certificate());
  const auto key = crypto::ed25519_generate(rng_);
  const Certificate leaf = ca_.issue(
      {"vnf", ""}, key.public_key,
      static_cast<std::uint8_t>(KeyUsage::kClientAuth), /*validity=*/3600);
  EXPECT_EQ(store.verify(leaf, KeyUsage::kClientAuth, leaf.not_before - 10).status,
            VerifyStatus::kNotYetValid);
  EXPECT_EQ(store.verify(leaf, KeyUsage::kClientAuth, leaf.not_after + 10).status,
            VerifyStatus::kExpired);
  EXPECT_TRUE(store.verify(leaf, KeyUsage::kClientAuth, leaf.not_before + 1).ok());
}

TEST_F(PkiFixture, TrustStoreEnforcesKeyUsage) {
  TrustStore store;
  store.add_root(ca_.root_certificate());
  const auto key = crypto::ed25519_generate(rng_);
  const Certificate leaf = ca_.issue(
      {"vnf", ""}, key.public_key,
      static_cast<std::uint8_t>(KeyUsage::kClientAuth));
  EXPECT_EQ(store.verify(leaf, KeyUsage::kServerAuth, clock_.now()).status,
            VerifyStatus::kWrongUsage);
}

TEST_F(PkiFixture, RevocationRoundTrip) {
  TrustStore store;
  store.add_root(ca_.root_certificate());
  const auto key = crypto::ed25519_generate(rng_);
  const Certificate leaf = ca_.issue(
      {"vnf", ""}, key.public_key,
      static_cast<std::uint8_t>(KeyUsage::kClientAuth));
  EXPECT_TRUE(store.verify(leaf, KeyUsage::kClientAuth, clock_.now()).ok());

  const RevocationList crl = ca_.revoke(leaf.serial);
  store.set_crl(crl);
  EXPECT_EQ(store.verify(leaf, KeyUsage::kClientAuth, clock_.now()).status,
            VerifyStatus::kRevoked);
}

TEST_F(PkiFixture, CrlEncodingRoundTrip) {
  ca_.revoke(5);
  ca_.revoke(9);
  const RevocationList crl = ca_.current_crl();
  const RevocationList decoded = RevocationList::decode(crl.encode());
  EXPECT_EQ(decoded.revoked_serials, (std::vector<std::uint64_t>{5, 9}));
  EXPECT_TRUE(decoded.verify_signature(ca_.root_certificate().public_key));
  EXPECT_TRUE(decoded.is_revoked(5));
  EXPECT_FALSE(decoded.is_revoked(6));
}

TEST_F(PkiFixture, TamperedCrlRejectedByTrustStore) {
  TrustStore store;
  store.add_root(ca_.root_certificate());
  RevocationList crl = ca_.revoke(7);
  crl.revoked_serials.push_back(1234);  // tamper after signing
  EXPECT_THROW(store.set_crl(crl), Error);
}

TEST_F(PkiFixture, CrlFromUnknownIssuerRejected) {
  TrustStore store;  // no roots
  EXPECT_THROW(store.set_crl(ca_.current_crl()), Error);
}

TEST_F(PkiFixture, AddRootRejectsNonCa) {
  const auto key = crypto::ed25519_generate(rng_);
  const Certificate leaf = ca_.issue(
      {"vnf", ""}, key.public_key,
      static_cast<std::uint8_t>(KeyUsage::kClientAuth));
  TrustStore store;
  EXPECT_THROW(store.add_root(leaf), Error);
}

TEST_F(PkiFixture, UnknownExtensionRoundTripsAndValidates) {
  // Hand-rolled issuance so an extension nobody recognizes sits inside the
  // signed TBS (RA-TLS forward-compat: old peers must carry it untouched).
  const auto root_kp = crypto::ed25519_generate(rng_);
  Certificate root;
  root.serial = 1;
  root.subject = root.issuer = {"ext-ca", ""};
  root.not_before = clock_.now() - 10;
  root.not_after = clock_.now() + 3600;
  root.public_key = root_kp.public_key;
  root.is_ca = true;
  root.key_usage = static_cast<std::uint8_t>(KeyUsage::kCertSign);
  const auto root_key = crypto::ed25519_expand_key(root_kp.seed);
  root.signature = crypto::ed25519_sign(root_key, root.tbs());

  const auto leaf_kp = crypto::ed25519_generate(rng_);
  Certificate leaf;
  leaf.serial = 2;
  leaf.subject = {"vnf-1", ""};
  leaf.issuer = root.subject;
  leaf.not_before = clock_.now() - 10;
  leaf.not_after = clock_.now() + 3600;
  leaf.public_key = leaf_kp.public_key;
  leaf.key_usage = static_cast<std::uint8_t>(KeyUsage::kClientAuth);
  leaf.extensions.push_back({0x46555455, Bytes{0x01, 0x02, 0x03}});  // "FUTU"
  leaf.extensions.push_back({0x58595a30, rng_.bytes(16)});           // "XYZ0"
  leaf.signature = crypto::ed25519_sign(root_key, leaf.tbs());

  // Parse -> re-encode is byte-identical, order and raw bytes preserved.
  const Bytes wire = leaf.encode();
  const Certificate decoded = Certificate::decode(wire);
  EXPECT_EQ(decoded, leaf);
  EXPECT_EQ(decoded.encode(), wire);
  ASSERT_EQ(decoded.extensions.size(), 2u);
  ASSERT_NE(decoded.find_extension(0x46555455), nullptr);
  EXPECT_EQ(decoded.find_extension(0x46555455)->value,
            (Bytes{0x01, 0x02, 0x03}));
  EXPECT_EQ(decoded.find_extension(0x99), nullptr);

  // A validator that does not recognize the extensions ignores them...
  TrustStore store;
  store.add_root(root);
  EXPECT_TRUE(store.verify(decoded, KeyUsage::kClientAuth, clock_.now()).ok());

  // ...but they are still signature-protected: tampering breaks the chain.
  Certificate tampered = decoded;
  tampered.extensions[0].value.push_back(0xff);
  EXPECT_EQ(store.verify(tampered, KeyUsage::kClientAuth, clock_.now()).status,
            VerifyStatus::kBadSignature);
}

TEST_F(PkiFixture, NoExtensionsEncodeMatchesLegacyFormat) {
  // A certificate without extensions emits zero extension TLVs: its TBS is
  // byte-for-byte the pre-extension wire format, so old signatures and
  // fingerprints stay valid.
  const auto key = crypto::ed25519_generate(rng_);
  const Certificate cert =
      ca_.issue({"vnf-legacy", "tenant"}, key.public_key,
                static_cast<std::uint8_t>(KeyUsage::kClientAuth));
  ASSERT_TRUE(cert.extensions.empty());

  TlvWriter w;  // the legacy TBS layout, tags per certificate.cpp
  w.add_u64(0x01, cert.serial);
  w.add_string(0x02, cert.subject.common_name);
  w.add_string(0x03, cert.subject.organization);
  w.add_string(0x04, cert.issuer.common_name);
  w.add_string(0x05, cert.issuer.organization);
  w.add_u64(0x06, static_cast<std::uint64_t>(cert.not_before));
  w.add_u64(0x07, static_cast<std::uint64_t>(cert.not_after));
  w.add_bytes(0x08, cert.public_key);
  w.add_u8(0x09, cert.is_ca ? 1 : 0);
  w.add_u8(0x0a, cert.key_usage);
  EXPECT_EQ(cert.tbs(), w.bytes());
}

TEST_F(PkiFixture, CertFromDifferentCaRejected) {
  DeterministicRandom rng2(77);
  CertificateAuthority other_ca(DistinguishedName{"rogue-ca", ""}, rng2, clock_);
  const auto key = crypto::ed25519_generate(rng2);
  const Certificate leaf = other_ca.issue(
      {"vnf", ""}, key.public_key,
      static_cast<std::uint8_t>(KeyUsage::kClientAuth));

  TrustStore store;
  store.add_root(ca_.root_certificate());
  EXPECT_EQ(store.verify(leaf, KeyUsage::kClientAuth, clock_.now()).status,
            VerifyStatus::kUnknownIssuer);
}

}  // namespace
}  // namespace vnfsgx::pki

// ---------------------------------------------------------------------------
// Intermediate CA chains (per-tenant issuance delegation).
// ---------------------------------------------------------------------------

namespace vnfsgx::pki {
namespace {

class ChainFixture : public PkiFixture {
 protected:
  ChainFixture()
      : tenant_ca_(CertificateAuthority::subordinate(
            {"tenant-a-ca", "tenant-a"}, ca_, rng_, clock_)) {}

  std::unique_ptr<CertificateAuthority> tenant_ca_;
};

TEST_F(ChainFixture, SubordinateCertSignedByParent) {
  EXPECT_FALSE(tenant_ca_->is_root());
  EXPECT_TRUE(ca_.is_root());
  const Certificate& sub_cert = tenant_ca_->root_certificate();
  EXPECT_TRUE(sub_cert.is_ca);
  EXPECT_EQ(sub_cert.issuer, ca_.root_certificate().subject);
  EXPECT_TRUE(sub_cert.verify_signature(ca_.root_certificate().public_key));
}

TEST_F(ChainFixture, ChainVerifiesThroughIntermediate) {
  const auto key = crypto::ed25519_generate(rng_);
  const Certificate leaf = tenant_ca_->issue(
      {"vnf-1.tenant-a", ""}, key.public_key,
      static_cast<std::uint8_t>(KeyUsage::kClientAuth));

  TrustStore store;
  store.add_root(ca_.root_certificate());
  // Direct verification fails (issuer is not a root)...
  EXPECT_EQ(store.verify(leaf, KeyUsage::kClientAuth, clock_.now()).status,
            VerifyStatus::kUnknownIssuer);
  // ...chain verification succeeds.
  const Certificate chain[] = {tenant_ca_->root_certificate()};
  EXPECT_TRUE(
      store.verify_chain(leaf, chain, KeyUsage::kClientAuth, clock_.now()).ok());
}

TEST_F(ChainFixture, TwoLevelChain) {
  auto team_ca = CertificateAuthority::subordinate({"team-ca", "tenant-a"},
                                                   *tenant_ca_, rng_, clock_);
  const auto key = crypto::ed25519_generate(rng_);
  const Certificate leaf = team_ca->issue(
      {"vnf-deep", ""}, key.public_key,
      static_cast<std::uint8_t>(KeyUsage::kClientAuth));
  TrustStore store;
  store.add_root(ca_.root_certificate());
  const Certificate chain[] = {team_ca->root_certificate(),
                               tenant_ca_->root_certificate()};
  EXPECT_TRUE(
      store.verify_chain(leaf, chain, KeyUsage::kClientAuth, clock_.now()).ok());
  // Wrong order fails.
  const Certificate bad_order[] = {tenant_ca_->root_certificate(),
                                   team_ca->root_certificate()};
  EXPECT_FALSE(store.verify_chain(leaf, bad_order, KeyUsage::kClientAuth,
                                  clock_.now()).ok());
}

TEST_F(ChainFixture, RevokedIntermediateBreaksChain) {
  const auto key = crypto::ed25519_generate(rng_);
  const Certificate leaf = tenant_ca_->issue(
      {"vnf-1", ""}, key.public_key,
      static_cast<std::uint8_t>(KeyUsage::kClientAuth));
  TrustStore store;
  store.add_root(ca_.root_certificate());
  // Root revokes the tenant CA's certificate.
  store.set_crl(ca_.revoke(tenant_ca_->root_certificate().serial));
  const Certificate chain[] = {tenant_ca_->root_certificate()};
  EXPECT_EQ(store.verify_chain(leaf, chain, KeyUsage::kClientAuth, clock_.now())
                .status,
            VerifyStatus::kRevoked);
}

TEST_F(ChainFixture, NonCaIntermediateRejected) {
  const auto key = crypto::ed25519_generate(rng_);
  const Certificate fake_intermediate = ca_.issue(
      {"not-a-ca", ""}, key.public_key,
      static_cast<std::uint8_t>(KeyUsage::kClientAuth));
  const auto leaf_key = crypto::ed25519_generate(rng_);
  // Sign a "leaf" with the non-CA key by hand.
  Certificate leaf;
  leaf.serial = 999;
  leaf.subject = {"evil", ""};
  leaf.issuer = fake_intermediate.subject;
  leaf.not_before = clock_.now();
  leaf.not_after = clock_.now() + 3600;
  leaf.public_key = leaf_key.public_key;
  leaf.key_usage = static_cast<std::uint8_t>(KeyUsage::kClientAuth);
  leaf.signature =
      crypto::ed25519_sign(crypto::ed25519_expand_key(key.seed), leaf.tbs());

  TrustStore store;
  store.add_root(ca_.root_certificate());
  const Certificate chain[] = {fake_intermediate};
  EXPECT_EQ(store.verify_chain(leaf, chain, KeyUsage::kClientAuth, clock_.now())
                .status,
            VerifyStatus::kIssuerNotCa);
}

TEST_F(ChainFixture, ExpiredIntermediateRejected) {
  auto brief_ca = CertificateAuthority::subordinate(
      {"brief-ca", ""}, ca_, rng_, clock_, /*validity=*/60);
  const auto key = crypto::ed25519_generate(rng_);
  const Certificate leaf = brief_ca->issue(
      {"vnf", ""}, key.public_key,
      static_cast<std::uint8_t>(KeyUsage::kClientAuth), /*validity=*/3600);
  TrustStore store;
  store.add_root(ca_.root_certificate());
  clock_.advance(120);  // intermediate expired, leaf still valid
  const Certificate chain[] = {brief_ca->root_certificate()};
  EXPECT_EQ(store.verify_chain(leaf, chain, KeyUsage::kClientAuth, clock_.now())
                .status,
            VerifyStatus::kExpired);
}

TEST_F(ChainFixture, EmptyChainEqualsDirectVerification) {
  const auto key = crypto::ed25519_generate(rng_);
  const Certificate leaf = ca_.issue(
      {"direct", ""}, key.public_key,
      static_cast<std::uint8_t>(KeyUsage::kClientAuth));
  TrustStore store;
  store.add_root(ca_.root_certificate());
  EXPECT_TRUE(store.verify_chain(leaf, {}, KeyUsage::kClientAuth, clock_.now())
                  .ok());
}

}  // namespace
}  // namespace vnfsgx::pki

// ---------------------------------------------------------------------------
// Validation cache + sorted CRL index (the controller-side hot path).
// ---------------------------------------------------------------------------
namespace vnfsgx::pki {
namespace {

class CacheFixture : public PkiFixture {
 protected:
  Certificate issue_client(const std::string& cn) {
    const auto kp = crypto::ed25519_generate(rng_);
    return ca_.issue({cn, "RISE"}, kp.public_key,
                     static_cast<std::uint8_t>(KeyUsage::kClientAuth), 3600);
  }
};

TEST_F(CacheFixture, RepeatVerifyHitsCache) {
  TrustStore store;
  store.add_root(ca_.root_certificate());
  const Certificate leaf = issue_client("vnf-a");
  const std::uint64_t misses0 = store.cache_misses();
  EXPECT_TRUE(store.verify(leaf, KeyUsage::kClientAuth, clock_.now()).ok());
  EXPECT_EQ(store.cache_misses(), misses0 + 1);
  const std::uint64_t hits0 = store.cache_hits();
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(store.verify(leaf, KeyUsage::kClientAuth, clock_.now()).ok());
  }
  EXPECT_EQ(store.cache_hits(), hits0 + 5);
  EXPECT_EQ(store.cache_misses(), misses0 + 1);
}

TEST_F(CacheFixture, ValidityWindowRecheckedOnHit) {
  // Cached verdicts memoize only time-independent facts; an expired cert
  // must be rejected even when its verdict is hot in the cache.
  TrustStore store;
  store.add_root(ca_.root_certificate());
  const Certificate leaf = issue_client("vnf-a");
  EXPECT_TRUE(store.verify(leaf, KeyUsage::kClientAuth, clock_.now()).ok());
  EXPECT_EQ(store.verify(leaf, KeyUsage::kClientAuth, leaf.not_after + 1)
                .status,
            VerifyStatus::kExpired);
  EXPECT_EQ(store.verify(leaf, KeyUsage::kClientAuth, leaf.not_before - 1)
                .status,
            VerifyStatus::kNotYetValid);
}

TEST_F(CacheFixture, RevocationInvalidatesOnNextRequest) {
  // The no-stale-grant property: after update(set_crl) returns, the very
  // next verify must observe the revocation — no window where the cache
  // serves the old verdict.
  TrustStore store;
  store.add_root(ca_.root_certificate());
  const Certificate leaf = issue_client("vnf-a");
  EXPECT_TRUE(store.verify(leaf, KeyUsage::kClientAuth, clock_.now()).ok());
  EXPECT_TRUE(store.verify(leaf, KeyUsage::kClientAuth, clock_.now()).ok());

  store.set_crl(ca_.revoke(leaf.serial));
  EXPECT_EQ(store.verify(leaf, KeyUsage::kClientAuth, clock_.now()).status,
            VerifyStatus::kRevoked);
}

TEST_F(CacheFixture, AddRootInvalidates) {
  TrustStore store;
  const Certificate leaf = issue_client("vnf-a");
  EXPECT_EQ(store.verify(leaf, KeyUsage::kClientAuth, clock_.now()).status,
            VerifyStatus::kUnknownIssuer);
  store.add_root(ca_.root_certificate());
  EXPECT_TRUE(store.verify(leaf, KeyUsage::kClientAuth, clock_.now()).ok());
}

TEST_F(CacheFixture, BatchVerifyMatchesSingle) {
  TrustStore store;
  store.add_root(ca_.root_certificate());
  std::vector<Certificate> certs;
  for (int i = 0; i < 24; ++i) {
    certs.push_back(issue_client("vnf-" + std::to_string(i)));
  }
  // Mix in failures: forged signature, revoked, unknown issuer.
  certs[3].signature[0] ^= 1;
  store.set_crl(ca_.revoke(certs[9].serial));
  certs[17].issuer.common_name = "nobody";

  const auto batch = store.verify_batch(
      std::span<const Certificate>(certs), KeyUsage::kClientAuth,
      clock_.now());
  ASSERT_EQ(batch.size(), certs.size());
  TrustStore fresh;
  fresh.add_root(ca_.root_certificate());
  fresh.set_crl(ca_.current_crl());
  for (std::size_t i = 0; i < certs.size(); ++i) {
    EXPECT_EQ(batch[i].status,
              fresh.verify(certs[i], KeyUsage::kClientAuth, clock_.now())
                  .status)
        << "index " << i;
  }
  // And the batch warmed the cache.
  const std::uint64_t hits0 = store.cache_hits();
  (void)store.verify(certs[0], KeyUsage::kClientAuth, clock_.now());
  EXPECT_EQ(store.cache_hits(), hits0 + 1);
}

TEST_F(CacheFixture, ConcurrentRevokeWhileValidating) {
  // Races a revocation against a validation storm (run under TSan in CI).
  // Invariant: once set_crl has returned, every verify observes kRevoked.
  TrustStore store;
  store.add_root(ca_.root_certificate());
  const Certificate leaf = issue_client("vnf-a");
  const Certificate bystander = issue_client("vnf-b");
  const RevocationList crl = ca_.revoke(leaf.serial);

  std::atomic<bool> revoked{false};
  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  std::vector<std::thread> verifiers;
  for (int t = 0; t < 4; ++t) {
    verifiers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const bool after = revoked.load(std::memory_order_acquire);
        const VerifyResult r =
            store.verify(leaf, KeyUsage::kClientAuth, clock_.now());
        const VerifyResult other =
            store.verify(bystander, KeyUsage::kClientAuth, clock_.now());
        if (!other.ok()) violations.fetch_add(1);
        if (after && r.status != VerifyStatus::kRevoked) {
          violations.fetch_add(1);
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  store.set_crl(crl);
  revoked.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stop.store(true, std::memory_order_release);
  for (auto& t : verifiers) t.join();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(store.verify(leaf, KeyUsage::kClientAuth, clock_.now()).status,
            VerifyStatus::kRevoked);
}

TEST_F(CacheFixture, CrlBinarySearchMatchesLinear) {
  // The CA emits sorted CRLs (binary-searched); decode() of an unsorted
  // list falls back to the linear scan. Both must agree.
  for (const std::uint64_t serial :
       {std::uint64_t{5}, std::uint64_t{800}, std::uint64_t{12345}}) {
    (void)ca_.revoke(serial);
  }
  const RevocationList crl = ca_.revoke(40);
  EXPECT_TRUE(crl.serials_sorted);
  EXPECT_TRUE(std::is_sorted(crl.revoked_serials.begin(),
                             crl.revoked_serials.end()));
  for (const std::uint64_t s : {5u, 40u, 800u, 12345u}) {
    EXPECT_TRUE(crl.is_revoked(s)) << s;
  }
  EXPECT_FALSE(crl.is_revoked(6));
  EXPECT_FALSE(crl.is_revoked(99999));

  // Round-trips keep sortedness; hand-built unsorted lists stay correct.
  const RevocationList decoded = RevocationList::decode(crl.encode());
  EXPECT_TRUE(decoded.serials_sorted);
  EXPECT_TRUE(decoded.verify_signature(ca_.root_certificate().public_key));
  RevocationList unsorted = crl;
  unsorted.serials_sorted = false;
  std::reverse(unsorted.revoked_serials.begin(),
               unsorted.revoked_serials.end());
  for (const std::uint64_t s : {5u, 40u, 800u, 12345u}) {
    EXPECT_TRUE(unsorted.is_revoked(s)) << s;
  }
}

TEST_F(CacheFixture, OutOfOrderRevocationStillSignsCorrectly) {
  // Out-of-order serials force the CA to rebuild its cached TLV serial
  // block; the resulting CRL must still verify and stay sorted.
  (void)ca_.revoke(100);
  (void)ca_.revoke(7);  // insertion in the middle -> rebuild
  const RevocationList crl = ca_.revoke(50);
  EXPECT_TRUE(crl.serials_sorted);
  EXPECT_EQ(crl.revoked_serials, (std::vector<std::uint64_t>{7, 50, 100}));
  EXPECT_TRUE(crl.verify_signature(ca_.root_certificate().public_key));
  EXPECT_TRUE(RevocationList::decode(crl.encode())
                  .verify_signature(ca_.root_certificate().public_key));
}

}  // namespace
}  // namespace vnfsgx::pki
