// RA-TLS tests: attestation-bound certificate issuance, handshake-time
// appraisal, first-contact controller enrollment, mutually attested
// VNF<->VNF channels, and the negative space (wrong-key quotes, tampered
// signatures, rejected measurements, garbage evidence, downgrades).
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <thread>

#include "common/sim_clock.h"
#include "controller/controller.h"
#include "crypto/random.h"
#include "host/container_host.h"
#include "http/client.h"
#include "ias/service.h"
#include "json/json.h"
#include "net/inmemory.h"
#include "pki/ca.h"
#include "ratls/evidence.h"
#include "ratls/issue.h"
#include "ratls/verifier.h"
#include "tls/session.h"
#include "vnf/functions.h"
#include "vnf/vnf.h"

namespace vnfsgx::ratls {
namespace {

using crypto::DeterministicRandom;

sgx::PlatformOptions fast_sgx() {
  sgx::PlatformOptions o;
  o.crossing_cost = std::chrono::nanoseconds(0);
  return o;
}

class RatlsFixture : public ::testing::Test {
 protected:
  RatlsFixture()
      : rng_(59),
        clock_(1'700'000'000),
        vendor_(crypto::ed25519_generate(rng_)),
        ca_(pki::DistinguishedName{"vm-ca", "vnfsgx"}, rng_, clock_),
        host_("host-1", rng_, fast_sgx()),
        ias_(rng_, clock_) {
    host_.boot();
    // EPID join: the host platform's attestation key registers with IAS;
    // the RA-TLS verifier looks it up from there.
    ias_.register_platform(
        host_.sgx().platform_id(),
        host_.sgx().quoting_enclave().attestation_public_key());
  }

  vnf::Vnf make_vnf(const std::string& name) {
    return vnf::Vnf(name, host_, vendor_.seed,
                    std::make_unique<vnf::MonitorFunction>());
  }

  /// Enclave-side issuance: report ECALL -> QE quote -> issue ECALL.
  pki::Certificate issue_for(vnf::Vnf& vnf, std::uint64_t serial = 1) {
    vnf.credentials().generate_key();
    return vnf.credentials().issue_ratls_certificate(
        host_.sgx().quoting_enclave(), crypto::Sha256Digest{},
        vendor_.public_key, serial, {vnf.name(), ""}, clock_.now() - 10,
        clock_.now() + 3600);
  }

  VerifierPolicy policy() {
    VerifierPolicy p;
    p.attestation_key = [this](const sgx::PlatformId& id) {
      return ias_.attestation_key(id);
    };
    p.enclave_allowed = [](const sgx::Measurement& m) {
      return m == vnf::credential_enclave_measurement();
    };
    return p;
  }

  /// TLS config presenting an RA-TLS certificate, signing with the
  /// in-enclave key.
  tls::Config ratls_tls_config(vnf::Vnf& vnf, const pki::Certificate& cert,
                               const pki::TrustStore* trust) {
    tls::Config c;
    c.certificate = cert;
    c.signer = [&vnf](ByteView data) { return vnf.credentials().sign(data); };
    c.truststore = trust;
    c.clock = &clock_;
    c.rng = &rng_;
    return c;
  }

  /// Run a handshake expecting the server to reject the client's
  /// certificate with a SecurityViolation. The client side may observe the
  /// rejection during connect or on its first read, depending on timing.
  void expect_server_security_violation(tls::Config client_cfg,
                                        tls::Config server_cfg) {
    auto [client_end, server_end] = net::make_pipe();
    auto server = std::async(
        std::launch::async, [&server_cfg, s = std::move(server_end)]() mutable {
          return tls::Session::accept(std::move(s), server_cfg);
        });
    try {
      auto client =
          tls::Session::connect(std::move(client_end), client_cfg);
      std::array<std::uint8_t, 1> buf;
      client->read(buf);
    } catch (const Error&) {
      // expected: the server's fatal alert surfaces client-side as an error
    }
    EXPECT_THROW(server.get(), SecurityViolation);
  }

  DeterministicRandom rng_;
  SimClock clock_;
  crypto::Ed25519KeyPair vendor_;
  pki::CertificateAuthority ca_;
  host::ContainerHost host_;
  ias::IasService ias_;
};

// ---------------------------------------------------------------------------
// Evidence plumbing
// ---------------------------------------------------------------------------

TEST_F(RatlsFixture, EvidenceRoundTrips) {
  Evidence e;
  e.quote.platform_id = host_.sgx().platform_id();
  e.quote.body.isv_prod_id = 7;
  e.quote.body.isv_svn = 3;
  e.iml_digest[0] = 0xaa;
  e.vendor_key = vendor_.public_key;
  e.isv_prod_id = 7;
  e.isv_svn = 3;

  const Evidence back = Evidence::decode(e.encode());
  EXPECT_EQ(back.quote.platform_id, e.quote.platform_id);
  EXPECT_EQ(back.quote.body, e.quote.body);
  EXPECT_EQ(back.iml_digest, e.iml_digest);
  EXPECT_EQ(back.vendor_key, e.vendor_key);
  EXPECT_EQ(back.isv_prod_id, e.isv_prod_id);
  EXPECT_EQ(back.isv_svn, e.isv_svn);

  pki::Certificate cert;
  EXPECT_FALSE(carries_evidence(cert));
  cert.extensions.push_back(to_extension(e));
  EXPECT_TRUE(carries_evidence(cert));
  ASSERT_TRUE(find_evidence(cert).has_value());
}

TEST_F(RatlsFixture, ReportDataDiffersFromEnrollmentBinding) {
  // The domain separator keeps RA-TLS report data disjoint from the
  // enrollment protocol's SHA256(nonce || key) binding.
  const auto kp = crypto::ed25519_generate(rng_);
  const sgx::ReportData ratls_rd = report_data_for_key(kp.public_key);
  std::array<std::uint8_t, 32> nonce{};
  const sgx::ReportData enroll_rd =
      vnf::credential_report_data(nonce, kp.public_key);
  EXPECT_NE(ratls_rd, enroll_rd);
}

// ---------------------------------------------------------------------------
// Issuance + appraisal
// ---------------------------------------------------------------------------

TEST_F(RatlsFixture, EnclaveIssuedCertificateAppraisesOk) {
  vnf::Vnf vnf = make_vnf("vnf-1");
  const pki::Certificate cert = issue_for(vnf);

  // Self-signed, both auth usages, evidence attached.
  EXPECT_EQ(cert.subject.common_name, "vnf-1");
  EXPECT_EQ(cert.issuer, cert.subject);
  EXPECT_TRUE(cert.allows(pki::KeyUsage::kClientAuth));
  EXPECT_TRUE(cert.allows(pki::KeyUsage::kServerAuth));
  EXPECT_TRUE(carries_evidence(cert));
  // The enclave installed it as its active credential.
  EXPECT_EQ(vnf.credentials().certificate(), cert);

  const Verifier verifier(policy());
  EXPECT_EQ(verifier.appraise(cert), pki::VerifyStatus::kOk);

  // Through a truststore (no CA roots at all): verdict is attested-ok.
  pki::TrustStore store;
  store.set_attested_verifier(&verifier);
  const auto result =
      store.verify(cert, pki::KeyUsage::kClientAuth, clock_.now());
  EXPECT_TRUE(result.ok());
  EXPECT_TRUE(result.attested);
}

TEST_F(RatlsFixture, EnclaveRefusesQuoteForForeignKey) {
  // The issue ECALL must reject a quote that does not bind the enclave's
  // own key (untrusted code cannot graft someone else's attestation).
  vnf::Vnf vnf1 = make_vnf("vnf-1");
  vnf::Vnf vnf2 = make_vnf("vnf-2");
  vnf1.credentials().generate_key();
  vnf2.credentials().generate_key();

  auto& qe = host_.sgx().quoting_enclave();
  const Bytes report2 = vnf2.enclave()->call(
      vnf::kOpRatlsReport, vnf::encode_ratls_report_request(qe.target_info()));
  const sgx::Quote quote2 = qe.quote(sgx::Report::decode(report2));
  EXPECT_THROW(
      vnf1.enclave()->call(
          vnf::kOpRatlsIssue,
          vnf::encode_ratls_issue(quote2.encode(), crypto::Sha256Digest{},
                                  vendor_.public_key, 1, {"vnf-1", ""},
                                  clock_.now() - 10, clock_.now() + 3600)),
      SecurityViolation);
}

TEST_F(RatlsFixture, BatchAppraisalMatchesScalar) {
  vnf::Vnf vnf1 = make_vnf("vnf-1");
  vnf::Vnf vnf2 = make_vnf("vnf-2");
  const pki::Certificate c1 = issue_for(vnf1, 1);
  pki::Certificate c2 = issue_for(vnf2, 2);
  c2.extensions[0].value.back() ^= 0x01;  // corrupt vnf-2's evidence

  const Verifier verifier(policy());
  const pki::Certificate* leaves[] = {&c1, &c2};
  const auto verdicts = verifier.appraise_batch(leaves);
  ASSERT_EQ(verdicts.size(), 2u);
  EXPECT_EQ(verdicts[0], verifier.appraise(c1));
  EXPECT_EQ(verdicts[1], verifier.appraise(c2));
  EXPECT_EQ(verdicts[0], pki::VerifyStatus::kOk);
  EXPECT_EQ(verdicts[1], pki::VerifyStatus::kAttestationFailed);
}

TEST_F(RatlsFixture, PolicyBumpInvalidatesCachedAccept) {
  vnf::Vnf vnf = make_vnf("vnf-1");
  const pki::Certificate cert = issue_for(vnf);

  std::atomic<bool> allow{true};
  std::atomic<std::uint64_t> generation{1};
  VerifierPolicy p = policy();
  p.enclave_allowed = [&allow](const sgx::Measurement&) {
    return allow.load();
  };
  p.policy_generation = [&generation] { return generation.load(); };
  const Verifier verifier(p);

  pki::TrustStore store;
  store.set_attested_verifier(&verifier);
  EXPECT_TRUE(store.verify(cert, pki::KeyUsage::kClientAuth, clock_.now()).ok());
  // Same policy: served from cache, still ok.
  EXPECT_TRUE(store.verify(cert, pki::KeyUsage::kClientAuth, clock_.now()).ok());

  // Policy change: measurement no longer allowed, generation bumped. The
  // cached accept must NOT be served — the very next verify re-appraises.
  allow.store(false);
  generation.fetch_add(1);
  const auto result =
      store.verify(cert, pki::KeyUsage::kClientAuth, clock_.now());
  EXPECT_EQ(result.status, pki::VerifyStatus::kAttestationFailed);
  EXPECT_FALSE(result.attested);
}

// ---------------------------------------------------------------------------
// First-contact enrollment (the acceptance scenario): a VNF with NO
// pre-provisioned CA certificate completes a mutually authenticated
// handshake with the controller and enrolls over that single connection.
// ---------------------------------------------------------------------------

TEST_F(RatlsFixture, FirstContactEnrollmentOverOneConnection) {
  dataplane::Fabric fabric;
  controller::ControllerConfig cfg;
  cfg.mode = controller::SecurityMode::kTrustedHttps;
  const auto server_kp = crypto::ed25519_generate(rng_);
  cfg.certificate = ca_.issue(
      {"controller", ""}, server_kp.public_key,
      static_cast<std::uint8_t>(pki::KeyUsage::kServerAuth));
  cfg.signer = tls::Config::software_signer(server_kp.seed);
  cfg.require_attested_clients = true;
  cfg.clock = &clock_;
  cfg.rng = &rng_;
  controller::Controller ctrl(cfg, fabric);

  // NO trust_ca() for clients: the attested verifier is the only client
  // trust anchor the controller holds.
  const Verifier verifier(policy());
  ctrl.set_attested_verifier(&verifier);

  vnf::Vnf vnf = make_vnf("vnf-1");
  const pki::Certificate cert = issue_for(vnf);

  // Client verifies the controller's CA-issued server certificate.
  pki::TrustStore client_trust;
  client_trust.add_root(ca_.root_certificate());

  auto [client_end, server_end] = net::make_pipe();
  std::thread server([&ctrl, s = std::move(server_end)]() mutable {
    ctrl.serve(std::move(s));
  });

  tls::Config tls_cfg = ratls_tls_config(vnf, cert, &client_trust);
  tls_cfg.expected_server_name = "controller";
  http::Client client(tls::Session::connect(std::move(client_end), tls_cfg));
  const auto res = client.post("/wm/vnfsgx/enroll/json", "{}");
  EXPECT_EQ(res.status, 200);
  const auto body = json::parse(vnfsgx::to_string(res.body));
  EXPECT_EQ(body.at("status").as_string(), "enrolled");
  EXPECT_EQ(body.at("identity").as_string(), "vnf-1");
  client.close();
  server.join();

  ASSERT_EQ(ctrl.enrolled_identities().size(), 1u);
  EXPECT_EQ(ctrl.enrolled_identities()[0], "vnf-1");
  EXPECT_EQ(ctrl.rejected_connections(), 0u);
  // Exactly one request on exactly one connection did the whole job.
  EXPECT_EQ(ctrl.requests_served(), 1u);
  // And the authenticated identity is authorized for writes immediately.
  const auto log = ctrl.audit_log();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].identity, "vnf-1");
}

TEST_F(RatlsFixture, UnattestedClientCannotEnroll) {
  // A CA-issued (unattested) client passes the handshake when the
  // controller still trusts the CA, but the enrollment route refuses it.
  dataplane::Fabric fabric;
  controller::ControllerConfig cfg;
  cfg.mode = controller::SecurityMode::kTrustedHttps;
  const auto server_kp = crypto::ed25519_generate(rng_);
  cfg.certificate = ca_.issue(
      {"controller", ""}, server_kp.public_key,
      static_cast<std::uint8_t>(pki::KeyUsage::kServerAuth));
  cfg.signer = tls::Config::software_signer(server_kp.seed);
  cfg.clock = &clock_;
  cfg.rng = &rng_;
  controller::Controller ctrl(cfg, fabric);
  ctrl.trust_ca(ca_.root_certificate());

  const auto client_kp = crypto::ed25519_generate(rng_);
  const auto client_cert = ca_.issue(
      {"legacy", ""}, client_kp.public_key,
      static_cast<std::uint8_t>(pki::KeyUsage::kClientAuth));

  pki::TrustStore client_trust;
  client_trust.add_root(ca_.root_certificate());

  auto [client_end, server_end] = net::make_pipe();
  std::thread server([&ctrl, s = std::move(server_end)]() mutable {
    ctrl.serve(std::move(s));
  });
  tls::Config tls_cfg;
  tls_cfg.certificate = client_cert;
  tls_cfg.signer = tls::Config::software_signer(client_kp.seed);
  tls_cfg.truststore = &client_trust;
  tls_cfg.clock = &clock_;
  tls_cfg.rng = &rng_;
  http::Client client(tls::Session::connect(std::move(client_end), tls_cfg));
  EXPECT_EQ(client.post("/wm/vnfsgx/enroll/json", "{}").status, 403);
  client.close();
  server.join();
  EXPECT_TRUE(ctrl.enrolled_identities().empty());
}

// ---------------------------------------------------------------------------
// VNF <-> VNF mutually attested channel
// ---------------------------------------------------------------------------

TEST_F(RatlsFixture, VnfToVnfMutuallyAttestedChannel) {
  vnf::Vnf server_vnf = make_vnf("vnf-a");
  vnf::Vnf client_vnf = make_vnf("vnf-b");
  const pki::Certificate server_cert = issue_for(server_vnf, 1);
  const pki::Certificate client_cert = issue_for(client_vnf, 2);

  const Verifier verifier(policy());
  pki::TrustStore trust;  // no CA roots: attestation is the only anchor
  trust.set_attested_verifier(&verifier);

  tls::Config server_cfg = ratls_tls_config(server_vnf, server_cert, &trust);
  server_cfg.require_client_certificate = true;
  server_cfg.require_attested_peer = true;

  tls::Config client_cfg = ratls_tls_config(client_vnf, client_cert, &trust);
  client_cfg.require_attested_peer = true;
  client_cfg.expected_server_name = "vnf-a";

  auto [client_end, server_end] = net::make_pipe();
  auto server = std::async(
      std::launch::async, [&server_cfg, s = std::move(server_end)]() mutable {
        return tls::Session::accept(std::move(s), server_cfg);
      });
  auto client = tls::Session::connect(std::move(client_end), client_cfg);
  auto server_session = server.get();

  // One handshake, both directions attested AND authenticated.
  EXPECT_TRUE(client->peer_attested());
  EXPECT_TRUE(server_session->peer_attested());
  EXPECT_EQ(client->peer_identity(), "vnf-a");
  EXPECT_EQ(server_session->peer_identity(), "vnf-b");

  client->write(to_bytes("ping"));
  std::array<std::uint8_t, 4> buf{};
  ASSERT_EQ(server_session->read(buf), 4u);
  EXPECT_EQ(to_string(Bytes(buf.begin(), buf.end())), "ping");
  client->close();
  server_session->close();
}

// ---------------------------------------------------------------------------
// Negative space: every tampered or downgraded presentation dies with a
// SecurityViolation at the verifying peer.
// ---------------------------------------------------------------------------

/// Hand-crafted RA-TLS material signed by a software "platform": lets each
/// negative case corrupt exactly one link in the evidence chain.
struct CraftedIdentity {
  pki::Certificate cert;
  crypto::Ed25519Seed seed;
};

class RatlsNegativeFixture : public RatlsFixture {
 protected:
  RatlsNegativeFixture() : attestation_(crypto::ed25519_generate(rng_)) {
    platform_id_.fill(0x42);
    mr_enclave_.fill(0x01);
  }

  /// A policy anchored at the software platform + crafted measurement.
  VerifierPolicy crafted_policy() {
    VerifierPolicy p;
    p.attestation_key = [this](const sgx::PlatformId& id)
        -> std::optional<crypto::Ed25519PublicKey> {
      if (id != platform_id_) return std::nullopt;
      return attestation_.public_key;
    };
    p.enclave_allowed = [this](const sgx::Measurement& m) {
      return m == mr_enclave_;
    };
    return p;
  }

  Evidence evidence_for(const crypto::Ed25519PublicKey& bound_key) {
    Evidence e;
    e.quote.platform_id = platform_id_;
    e.quote.body.mr_enclave = mr_enclave_;
    crypto::Sha256 h;
    h.update(vendor_.public_key);
    e.quote.body.mr_signer = h.finish();
    e.quote.body.isv_prod_id = 1;
    e.quote.body.isv_svn = 1;
    e.quote.body.report_data = report_data_for_key(bound_key);
    e.quote.signature = crypto::ed25519_sign(
        crypto::ed25519_expand_key(attestation_.seed), e.quote.encode_tbs());
    e.vendor_key = vendor_.public_key;
    e.isv_prod_id = 1;
    e.isv_svn = 1;
    return e;
  }

  /// Generate a keypair, build evidence for it via `make_evidence` (which
  /// may corrupt exactly one link in the chain), self-sign.
  CraftedIdentity crafted_identity(
      const std::string& cn,
      const std::function<Evidence(const crypto::Ed25519PublicKey&)>&
          make_evidence) {
    const auto kp = crypto::ed25519_generate(rng_);
    CertificateSpec spec;
    spec.subject = {cn, ""};
    spec.not_before = clock_.now() - 10;
    spec.not_after = clock_.now() + 3600;
    const auto cert = make_certificate(
        spec, kp.public_key, make_evidence(kp.public_key),
        [key = crypto::ed25519_expand_key(kp.seed)](ByteView data) {
          return crypto::ed25519_sign(key, data);
        });
    return {cert, kp.seed};
  }

  /// Server demanding attested clients, anchored at crafted_policy's
  /// verifier (which must outlive the handshake — member storage).
  tls::Config attested_server_config() {
    verifier_ = std::make_unique<Verifier>(crafted_policy());
    trust_.set_attested_verifier(verifier_.get());
    const auto kp = crypto::ed25519_generate(rng_);
    tls::Config c;
    c.certificate = ca_.issue(
        {"server", ""}, kp.public_key,
        static_cast<std::uint8_t>(pki::KeyUsage::kServerAuth));
    c.signer = tls::Config::software_signer(kp.seed);
    c.require_client_certificate = true;
    c.require_attested_peer = true;
    c.truststore = &trust_;
    c.clock = &clock_;
    c.rng = &rng_;
    return c;
  }

  tls::Config crafted_client_config(const CraftedIdentity& id) {
    tls::Config c;
    c.certificate = id.cert;
    c.signer = tls::Config::software_signer(id.seed);
    c.truststore = &client_trust_;
    c.clock = &clock_;
    c.rng = &rng_;
    if (client_trust_.roots().empty()) {
      client_trust_.add_root(ca_.root_certificate());
    }
    return c;
  }

  crypto::Ed25519KeyPair attestation_;
  sgx::PlatformId platform_id_{};
  sgx::Measurement mr_enclave_{};
  pki::TrustStore trust_;
  pki::TrustStore client_trust_;
  std::unique_ptr<Verifier> verifier_;
};

TEST_F(RatlsNegativeFixture, CraftedBaselineHandshakes) {
  // Sanity: the crafted chain is accepted when nothing is corrupted, so
  // the negative cases below fail for the corrupted link, not the setup.
  tls::Config server_cfg = attested_server_config();
  const auto id = crafted_identity(
      "vnf-x", [this](const auto& key) { return evidence_for(key); });
  tls::Config client_cfg = crafted_client_config(id);
  auto [client_end, server_end] = net::make_pipe();
  auto server = std::async(
      std::launch::async, [&server_cfg, s = std::move(server_end)]() mutable {
        return tls::Session::accept(std::move(s), server_cfg);
      });
  auto client = tls::Session::connect(std::move(client_end), client_cfg);
  auto server_session = server.get();
  EXPECT_TRUE(server_session->peer_attested());
  EXPECT_EQ(server_session->peer_identity(), "vnf-x");
  client->close();
  server_session->close();
}

TEST_F(RatlsNegativeFixture, QuoteOverWrongKeyRejected) {
  tls::Config server_cfg = attested_server_config();
  // Evidence binds a DIFFERENT key than the certificate presents.
  const auto other = crypto::ed25519_generate(rng_);
  const auto id = crafted_identity("vnf-x", [this, &other](const auto&) {
    return evidence_for(other.public_key);
  });
  expect_server_security_violation(crafted_client_config(id), server_cfg);
}

TEST_F(RatlsNegativeFixture, TamperedQuoteSignatureRejected) {
  tls::Config server_cfg = attested_server_config();
  const auto id = crafted_identity("vnf-x", [this](const auto& key) {
    Evidence e = evidence_for(key);
    e.quote.signature[0] ^= 0x80;
    return e;
  });
  expect_server_security_violation(crafted_client_config(id), server_cfg);
}

TEST_F(RatlsNegativeFixture, DisallowedMeasurementRejected) {
  tls::Config server_cfg = attested_server_config();
  const auto id = crafted_identity("vnf-x", [this](const auto& key) {
    // Different enclave measurement, re-signed by the genuine platform so
    // everything except the measurement policy passes.
    Evidence e = evidence_for(key);
    e.quote.body.mr_enclave.fill(0x77);
    e.quote.signature = crypto::ed25519_sign(
        crypto::ed25519_expand_key(attestation_.seed), e.quote.encode_tbs());
    return e;
  });
  expect_server_security_violation(crafted_client_config(id), server_cfg);
}

TEST_F(RatlsNegativeFixture, GarbageEvidenceBytesRejected) {
  tls::Config server_cfg = attested_server_config();
  auto id = crafted_identity(
      "vnf-x", [this](const auto& key) { return evidence_for(key); });
  // Stale/garbage extension payload: same id, unparseable bytes.
  id.cert.extensions[0].value = rng_.bytes(41);
  expect_server_security_violation(crafted_client_config(id), server_cfg);
}

TEST_F(RatlsNegativeFixture, PlainCertificateDowngradeRejected) {
  // Policy requires attestation; a valid CA-issued certificate without
  // evidence must NOT be accepted (the downgrade attack).
  tls::Config server_cfg = attested_server_config();
  trust_.add_root(ca_.root_certificate());  // CA chain would validate it
  const auto kp = crypto::ed25519_generate(rng_);
  const auto cert = ca_.issue(
      {"legacy", ""}, kp.public_key,
      static_cast<std::uint8_t>(pki::KeyUsage::kClientAuth));
  expect_server_security_violation(crafted_client_config({cert, kp.seed}),
                                   server_cfg);
}

}  // namespace
}  // namespace vnfsgx::ratls
