// Verification Manager tests: protocol round trips, appraisal policy, and
// the full Figure-1 workflow (attest host -> attest VNF -> provision ->
// enroll with the controller), plus the adversarial paths.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "common/base64.h"
#include "common/sim_clock.h"
#include "controller/controller.h"
#include "core/host_agent.h"
#include "core/verification_manager.h"
#include "crypto/random.h"
#include "http/client.h"
#include "net/framing.h"
#include "net/inmemory.h"
#include "pki/tlv.h"
#include "testbed/testbed.h"
#include "vnf/functions.h"

namespace vnfsgx::core {
namespace {

using crypto::DeterministicRandom;

TEST(Protocol, RoundTrips) {
  AttestHostRequest ahr;
  ahr.nonce[0] = 1;
  EXPECT_EQ(decode_attest_host_request(encode(ahr)).nonce, ahr.nonce);

  AttestHostResponse ahs;
  ahs.quote = to_bytes("quote");
  ahs.iml = to_bytes("iml");
  const auto ahs2 = decode_attest_host_response(encode(ahs));
  EXPECT_EQ(ahs2.quote, ahs.quote);
  EXPECT_EQ(ahs2.iml, ahs.iml);

  AttestVnfRequest avr;
  avr.vnf_name = "vnf-1";
  avr.nonce[5] = 9;
  const auto avr2 = decode_attest_vnf_request(encode(avr));
  EXPECT_EQ(avr2.vnf_name, "vnf-1");
  EXPECT_EQ(avr2.nonce, avr.nonce);

  ProvisionRequest pr;
  pr.vnf_name = "v";
  pr.certificate = to_bytes("cert");
  const auto pr2 = decode_provision_request(encode(pr));
  EXPECT_EQ(pr2.vnf_name, "v");
  EXPECT_EQ(pr2.certificate, pr.certificate);

  ProvisionResponse ps;
  ps.ok = true;
  ps.detail = "done";
  const auto ps2 = decode_provision_response(encode(ps));
  EXPECT_TRUE(ps2.ok);
  EXPECT_EQ(ps2.detail, "done");

  ErrorMessage em{"boom"};
  EXPECT_EQ(decode_error(encode(em)).what, "boom");

  EXPECT_EQ(peek_type(encode(em)), MessageType::kError);
  EXPECT_THROW(peek_type({}), ParseError);
  EXPECT_THROW(decode_attest_host_request(encode(em)), ProtocolError);
}

// The message encoder before the type byte was written in place: a body
// built by a growing TlvWriter, then copied behind the type byte. Kept as
// the oracle that the wire bytes did not move.
Bytes with_type_oracle(MessageType type, const pki::TlvWriter& body) {
  Bytes out;
  append_u8(out, static_cast<std::uint8_t>(type));
  append(out, body.bytes());
  return out;
}

TEST(Protocol, AttestHostResponseMatchesOldEncoder) {
  AttestHostResponse m;
  m.quote = to_bytes("quote bytes");
  m.iml.resize(123'890);
  for (std::size_t i = 0; i < m.iml.size(); ++i) {
    m.iml[i] = static_cast<std::uint8_t>(i * 31);
  }
  for (const bool with_tpm : {false, true}) {
    m.tpm_quote = with_tpm ? to_bytes("tpm quote") : Bytes{};
    pki::TlvWriter body;
    body.add_bytes(0x02, m.quote);
    body.add_bytes(0x03, m.iml);
    if (with_tpm) body.add_bytes(0x0a, m.tpm_quote);
    const Bytes encoded = encode(m);
    EXPECT_EQ(encoded, with_type_oracle(MessageType::kAttestHostResponse, body))
        << "with_tpm=" << with_tpm;
    EXPECT_EQ(encoded.capacity(), encoded.size());  // pre-sized, no regrowth
    const AttestHostResponse decoded = decode_attest_host_response(encoded);
    EXPECT_EQ(decoded.iml, m.iml);
    EXPECT_EQ(decoded.tpm_quote, m.tpm_quote);
  }
}

TEST(Protocol, SmallMessagesMatchOldEncoder) {
  AttestVnfRequest request;
  request.vnf_name = "vnf-1";
  request.nonce[3] = 7;
  pki::TlvWriter request_body;
  request_body.add_bytes(0x04, to_bytes(request.vnf_name));
  request_body.add_bytes(0x01, request.nonce);
  EXPECT_EQ(encode(request),
            with_type_oracle(MessageType::kAttestVnfRequest, request_body));

  ErrorMessage error{"boom"};
  pki::TlvWriter error_body;
  error_body.add_bytes(0x09, to_bytes(error.what));
  EXPECT_EQ(encode(error), with_type_oracle(MessageType::kError, error_body));
}

TEST(AppraisalDatabaseTest, VerdictLogic) {
  AppraisalDatabase db;
  const ima::Digest good = crypto::Sha256::hash(to_bytes("good"));
  const ima::Digest evil = crypto::Sha256::hash(to_bytes("evil"));
  db.expect_file("/bin/app", good);

  ima::MeasurementList ok;
  ok.add_measurement(good, "/bin/app");
  EXPECT_TRUE(db.appraise(ok).trustworthy);

  ima::MeasurementList mismatch;
  mismatch.add_measurement(evil, "/bin/app");
  const auto r1 = db.appraise(mismatch);
  EXPECT_FALSE(r1.trustworthy);
  EXPECT_EQ(r1.offending_paths, std::vector<std::string>{"/bin/app"});

  ima::MeasurementList unknown;
  unknown.add_measurement(good, "/bin/unknown");
  EXPECT_FALSE(db.appraise(unknown).trustworthy);

  ima::MeasurementList violated = ok;
  violated.add_violation("/bin/app");
  EXPECT_FALSE(db.appraise(violated).trustworthy);

  // Learning a golden list makes it pass.
  AppraisalDatabase learned;
  learned.learn(mismatch);
  EXPECT_TRUE(learned.appraise(mismatch).trustworthy);
}

// ---------------------------------------------------------------------------
// Full-system testbed
// ---------------------------------------------------------------------------

/// The shared Figure-1 testbed with one healthy, golden-enrolled host
/// "host-1". Test bodies use the short names below.
class Testbed : public ::testing::Test {
 protected:
  Testbed()
      : sim_(bed_.add_host("host-1")),
        clock_(bed_.clock),
        net_(bed_.net),
        vendor_(bed_.vendor),
        host_(*sim_.machine),
        vm_(bed_.vm),
        agent_(*sim_.agent) {
    // Golden-host enrollment: learn the healthy host's measurements.
    bed_.learn_golden(sim_);
  }

  /// Learn additional measurements the host produced since setup (e.g.
  /// container entrypoints from VNF deployment).
  void relearn() { bed_.learn_golden(sim_); }

  net::StreamPtr channel() { return bed_.agent_channel(sim_); }

  /// Relay one request frame to host-1's real agent and return its reply:
  /// the upstream leg of the in-path adversaries below.
  Bytes forward_to_host(ByteView request) {
    auto upstream = channel();
    net::write_frame(*upstream, request);
    return net::read_frame(*upstream);
  }

  testbed::Testbed bed_;
  testbed::SimHost& sim_;
  SimClock& clock_;
  net::InMemoryNetwork& net_;
  crypto::Ed25519KeyPair& vendor_;
  host::ContainerHost& host_;
  VerificationManager& vm_;
  HostAgent& agent_;
};

TEST_F(Testbed, HostAttestationSucceedsOnHealthyHost) {
  auto ch = channel();
  const HostAttestation result = vm_.attest_host(*ch);
  EXPECT_TRUE(result.trustworthy) << result.reason;
  EXPECT_EQ(result.quote_status, ias::QuoteStatus::kOk);
  EXPECT_GT(result.iml_entries, 0u);
  EXPECT_TRUE(vm_.platform_trusted(host_.sgx().platform_id()));
  EXPECT_EQ(vm_.hosts_attested(), 1u);
}

TEST_F(Testbed, HostAttestationFailsOnCompromisedHost) {
  host_.compromise_file("/usr/bin/dockerd");
  auto ch = channel();
  const HostAttestation result = vm_.attest_host(*ch);
  EXPECT_FALSE(result.trustworthy);
  EXPECT_EQ(result.quote_status, ias::QuoteStatus::kOk);  // quote fine
  EXPECT_FALSE(result.appraisal.trustworthy);             // appraisal not
  EXPECT_EQ(result.appraisal.offending_paths,
            std::vector<std::string>{"/usr/bin/dockerd"});
  EXPECT_FALSE(vm_.platform_trusted(host_.sgx().platform_id()));
}

TEST_F(Testbed, HostAttestationFailsOnUnregisteredPlatform) {
  // A host the testbed never registered with IAS (no EPID join).
  DeterministicRandom rng2(62);
  host::ContainerHost stranger("stranger", rng2, sgx::PlatformOptions{});
  stranger.boot();
  stranger.load_attestation_enclave(vendor_.seed);
  HostAgent stranger_agent(stranger);
  bed_.serve_agent("stranger:7000", [&stranger_agent](ByteView request) {
    return stranger_agent.serve_frame(request);
  });
  auto ch = net_.connect("stranger:7000");
  const HostAttestation result = vm_.attest_host(*ch);
  EXPECT_FALSE(result.trustworthy);
  EXPECT_EQ(result.quote_status, ias::QuoteStatus::kUnknownPlatform);
}

TEST_F(Testbed, HostAttestationFailsOnRevokedPlatform) {
  bed_.ias.revoke_platform(host_.sgx().platform_id());
  auto ch = channel();
  const HostAttestation result = vm_.attest_host(*ch);
  EXPECT_FALSE(result.trustworthy);
  EXPECT_EQ(result.quote_status, ias::QuoteStatus::kGroupRevoked);
}

TEST_F(Testbed, VnfAttestationRequiresTrustedHost) {
  vnf::Vnf vnf("vnf-1", host_, vendor_.seed,
               std::make_unique<vnf::MonitorFunction>());
  agent_.register_vnf(vnf);
  auto ch = channel();
  // Host not attested yet: VNF attestation must refuse.
  const VnfAttestation result = vm_.attest_vnf(*ch, "vnf-1");
  EXPECT_FALSE(result.trustworthy);
  EXPECT_EQ(result.reason, "hosting platform not attested");
}

TEST_F(Testbed, FullEnrollmentWorkflow) {
  // Deploy the VNF (this measures its container entrypoint; relearn).
  vnf::Vnf vnf("vnf-1", host_, vendor_.seed,
               std::make_unique<vnf::MonitorFunction>());
  agent_.register_vnf(vnf);
  relearn();

  auto ch = channel();
  // Steps 1-2.
  const HostAttestation host_result = vm_.attest_host(*ch);
  ASSERT_TRUE(host_result.trustworthy) << host_result.reason;
  // Steps 3-4.
  const VnfAttestation vnf_result = vm_.attest_vnf(*ch, "vnf-1");
  ASSERT_TRUE(vnf_result.trustworthy) << vnf_result.reason;
  // Step 5.
  const auto cert = vm_.enroll_vnf(*ch, "vnf-1", "vnf-1.tenant-a");
  ASSERT_TRUE(cert.has_value());
  EXPECT_EQ(cert->subject.common_name, "vnf-1.tenant-a");
  EXPECT_EQ(cert->public_key, vnf_result.public_key);
  EXPECT_TRUE(cert->verify_signature(vm_.ca_certificate().public_key));

  // The enclave now holds the certificate.
  EXPECT_EQ(vnf.credentials().certificate().serial, cert->serial);
  EXPECT_EQ(vm_.credentials_issued(), 1u);
}

TEST_F(Testbed, EnrollRefusedWithoutAttestation) {
  vnf::Vnf vnf("vnf-1", host_, vendor_.seed,
               std::make_unique<vnf::MonitorFunction>());
  agent_.register_vnf(vnf);
  auto ch = channel();
  EXPECT_FALSE(vm_.enroll_vnf(*ch, "vnf-1", "cn").has_value());
}

TEST_F(Testbed, AttestUnknownVnfFails) {
  auto ch = channel();
  vm_.attest_host(*ch);
  const VnfAttestation result = vm_.attest_vnf(*ch, "ghost");
  EXPECT_FALSE(result.trustworthy);
  EXPECT_NE(result.reason.find("unknown VNF"), std::string::npos);
}

TEST_F(Testbed, Step6VnfSpeaksToControllerFromEnclave) {
  vnf::Vnf vnf("vnf-1", host_, vendor_.seed,
               std::make_unique<vnf::FirewallFunction>());
  agent_.register_vnf(vnf);
  relearn();
  auto ch = channel();
  ASSERT_TRUE(vm_.attest_host(*ch).trustworthy);
  ASSERT_TRUE(vm_.attest_vnf(*ch, "vnf-1").trustworthy);
  ASSERT_TRUE(vm_.enroll_vnf(*ch, "vnf-1", "vnf-1").has_value());

  dataplane::Fabric fabric;
  fabric.add_switch(1);
  controller::Controller& controller = bed_.start_controller(
      fabric, controller::SecurityMode::kTrustedHttps);

  // Step 6: the VNF's enclave terminates the TLS session; HTTP runs over
  // the enclave tunnel.
  vnf.credentials().tls_open(net_.connect(testbed::kControllerAddress),
                             clock_.now(), "controller", vm_.ca_certificate());
  vnf::EnclaveTlsStream tunnel(vnf.credentials());
  http::Connection conn(tunnel);
  http::Request push;
  push.method = "POST";
  push.target = "/wm/staticflowpusher/json";
  push.body = to_bytes(
      R"({"name":"fw-1","switch":1,"priority":100,"tcp_dst":23,"actions":"drop"})");
  conn.write(push);
  const auto response = conn.read_response();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 200);
  vnf.credentials().tls_close();

  EXPECT_EQ(fabric.find_switch(1)->flows().size(), 1u);
  const auto log = controller.audit_log();
  ASSERT_FALSE(log.empty());
  EXPECT_EQ(log.back().identity, "vnf-1");
}

TEST_F(Testbed, RevokedCredentialLockedOutOfController) {
  vnf::Vnf vnf("vnf-1", host_, vendor_.seed,
               std::make_unique<vnf::MonitorFunction>());
  agent_.register_vnf(vnf);
  relearn();
  auto ch = channel();
  ASSERT_TRUE(vm_.attest_host(*ch).trustworthy);
  ASSERT_TRUE(vm_.attest_vnf(*ch, "vnf-1").trustworthy);
  const auto cert = vm_.enroll_vnf(*ch, "vnf-1", "vnf-1");
  ASSERT_TRUE(cert.has_value());

  dataplane::Fabric fabric;
  controller::Controller& controller = bed_.start_controller(
      fabric, controller::SecurityMode::kTrustedHttps);
  // Host compromise response: revoke everything on the platform and push
  // the CRL to the controller.
  controller.update_crl(vm_.revoke_platform(host_.sgx().platform_id()));

  // TLS-1.3 semantics: the rejection surfaces at the handshake or on the
  // first exchange, depending on timing; the session must never work.
  EXPECT_THROW(
      {
        vnf.credentials().tls_open(net_.connect(testbed::kControllerAddress),
                                   clock_.now(), "controller",
                                   vm_.ca_certificate());
        vnf.credentials().tls_send(to_bytes("GET / HTTP/1.1\r\n\r\n"));
        if (vnf.credentials().tls_recv(16).empty()) {
          throw IoError("server closed without answering");
        }
      },
      Error);
  // tls_close is a no-op if the handshake already failed.
  try {
    vnf.credentials().tls_close();
  } catch (const Error&) {
  }
  EXPECT_FALSE(vm_.platform_trusted(host_.sgx().platform_id()));
}

TEST_F(Testbed, StaleImlReplayRejected) {
  // A malicious agent that snapshots a healthy IML+quote and replays it
  // after the host is compromised: the quote binds the *nonce*, so the
  // replayed quote fails the report-data check.
  auto enclave = host_.attestation_enclave();
  const Bytes healthy_iml = host_.ima().list().encode();
  std::array<std::uint8_t, 32> old_nonce{};
  old_nonce[0] = 0xaa;
  const Bytes report_bytes = enclave->call(
      host::kOpCreateImlReport,
      host::encode_iml_report_request(
          old_nonce, healthy_iml,
          host_.sgx().quoting_enclave().target_info()));
  const sgx::Quote stale_quote = host_.sgx().quoting_enclave().quote(
      sgx::Report::decode(report_bytes));

  // Replay agent answering every challenge with the stale material.
  AttestHostResponse stale;
  stale.quote = stale_quote.encode();
  stale.iml = healthy_iml;
  bed_.serve_agent("replayer:7000",
                   [replay = encode(stale)](ByteView) { return replay; });

  auto ch = net_.connect("replayer:7000");
  const HostAttestation result = vm_.attest_host(*ch);
  EXPECT_FALSE(result.trustworthy);
  EXPECT_NE(result.reason.find("replay"), std::string::npos);
}

TEST_F(Testbed, TamperedImlInTransitRejected) {
  // A man-in-the-middle that alters the IML after the enclave quoted it:
  // report data binds the exact bytes, so appraisal never even runs.
  bed_.serve_agent("mitm:7000", [this](ByteView request) {
    Bytes response = forward_to_host(request);
    if (peek_type(response) == MessageType::kAttestHostResponse) {
      AttestHostResponse r = decode_attest_host_response(response);
      ima::MeasurementList iml = ima::MeasurementList::decode(r.iml);
      // Hide the dockerd entry (e.g. to mask a compromise).
      ima::MeasurementList filtered;
      for (const auto& e : iml.entries()) {
        if (e.file_path != "/usr/bin/dockerd") {
          filtered.add_measurement(e.file_digest, e.file_path);
        }
      }
      r.iml = filtered.encode();
      response = encode(r);
    }
    return response;
  });

  auto ch = net_.connect("mitm:7000");
  const HostAttestation result = vm_.attest_host(*ch);
  EXPECT_FALSE(result.trustworthy);
  EXPECT_NE(result.reason.find("replay"), std::string::npos);
}

TEST_F(Testbed, MultipleVnfsEnrollIndependently) {
  vnf::Vnf vnf1("vnf-1", host_, vendor_.seed,
                std::make_unique<vnf::FirewallFunction>());
  vnf::Vnf vnf2("vnf-2", host_, vendor_.seed,
                std::make_unique<vnf::MonitorFunction>());
  agent_.register_vnf(vnf1);
  agent_.register_vnf(vnf2);
  relearn();

  auto ch = channel();
  ASSERT_TRUE(vm_.attest_host(*ch).trustworthy);
  ASSERT_TRUE(vm_.attest_vnf(*ch, "vnf-1").trustworthy);
  ASSERT_TRUE(vm_.attest_vnf(*ch, "vnf-2").trustworthy);
  const auto c1 = vm_.enroll_vnf(*ch, "vnf-1", "vnf-1");
  const auto c2 = vm_.enroll_vnf(*ch, "vnf-2", "vnf-2");
  ASSERT_TRUE(c1.has_value());
  ASSERT_TRUE(c2.has_value());
  EXPECT_NE(c1->serial, c2->serial);
  EXPECT_NE(c1->public_key, c2->public_key);  // distinct enclave keys
  EXPECT_EQ(vm_.credentials_issued(), 2u);
}

}  // namespace
}  // namespace vnfsgx::core

// ---------------------------------------------------------------------------
// §4 extension: TPM-anchored IML verification.
// ---------------------------------------------------------------------------

namespace vnfsgx::core {
namespace {

/// Serve an agent that sanitizes the IML (drops the dockerd entry) BEFORE
/// handing it to the attestation enclave — the root-attacker capability the
/// paper's base design cannot detect, because the enclave faithfully binds
/// whatever bytes it is given.
void serve_sanitizing_agent(testbed::Testbed& bed, const std::string& address,
                            host::ContainerHost& machine) {
  bed.serve_agent(address, [&machine](ByteView request) {
    const AttestHostRequest req = decode_attest_host_request(request);
    // Root sanitizes the in-kernel measurement list it reports.
    ima::MeasurementList sanitized;
    for (const auto& e : machine.ima().list().entries()) {
      if (e.file_path != "/usr/bin/dockerd") {
        sanitized.add_measurement(e.file_digest, e.file_path);
      }
    }
    const Bytes iml = sanitized.encode();
    const auto qe_target = machine.sgx().quoting_enclave().target_info();
    const Bytes report = machine.attestation_enclave()->call(
        host::kOpCreateImlReport,
        host::encode_iml_report_request(req.nonce, iml, qe_target));
    AttestHostResponse response;
    response.quote = machine.sgx()
                         .quoting_enclave()
                         .quote(sgx::Report::decode(report))
                         .encode();
    response.iml = iml;
    // Root cannot forge the TPM, so the best it can do is quote the true
    // PCR (or omit the quote; both fail verification).
    response.tpm_quote =
        machine.tpm().quote(ima::kImaPcrIndex, req.nonce).encode();
    return encode(response);
  });
}

TEST_F(Testbed, SanitizedImlUndetectedWithoutTpm) {
  // The paper's §4 admission: without a hardware root of trust, a root
  // attacker who compromised dockerd and then hides its IML entry passes
  // attestation. (The tampered dockerd ran, so the true IML has the bad
  // digest; the sanitized one simply omits it.)
  host_.compromise_file("/usr/bin/dockerd");
  serve_sanitizing_agent(bed_, "rootkit:7000", host_);
  auto ch = net_.connect("rootkit:7000");
  const HostAttestation result = vm_.attest_host(*ch);
  EXPECT_TRUE(result.trustworthy)
      << "unexpected: base design detected the sanitization";
  EXPECT_FALSE(result.tpm_verified);
}

TEST_F(Testbed, SanitizedImlDetectedWithTpm) {
  // With the §4 extension (AIK enrolled), the same attack fails: the
  // sanitized IML's aggregate cannot match the authenticated PCR-10.
  vm_.enroll_platform_aik(host_.sgx().platform_id(),
                          host_.tpm().aik_public_key());
  host_.compromise_file("/usr/bin/dockerd");
  serve_sanitizing_agent(bed_, "rootkit:7000", host_);
  auto ch = net_.connect("rootkit:7000");
  const HostAttestation result = vm_.attest_host(*ch);
  EXPECT_FALSE(result.trustworthy);
  EXPECT_NE(result.reason.find("PCR-10"), std::string::npos) << result.reason;
}

TEST_F(Testbed, HonestHostPassesTpmCheck) {
  vm_.enroll_platform_aik(host_.sgx().platform_id(),
                          host_.tpm().aik_public_key());
  auto ch = channel();
  const HostAttestation result = vm_.attest_host(*ch);
  EXPECT_TRUE(result.trustworthy) << result.reason;
  EXPECT_TRUE(result.tpm_verified);
}

TEST_F(Testbed, MissingTpmQuoteRejectedWhenAikEnrolled) {
  vm_.enroll_platform_aik(host_.sgx().platform_id(),
                          host_.tpm().aik_public_key());
  // An agent that strips the TPM quote (downgrade attack).
  bed_.serve_agent("stripper:7000", [this](ByteView request) {
    Bytes response = forward_to_host(request);
    if (peek_type(response) == MessageType::kAttestHostResponse) {
      AttestHostResponse r = decode_attest_host_response(response);
      r.tpm_quote.clear();
      response = encode(r);
    }
    return response;
  });
  auto ch = net_.connect("stripper:7000");
  const HostAttestation result = vm_.attest_host(*ch);
  EXPECT_FALSE(result.trustworthy);
  EXPECT_NE(result.reason.find("TPM quote required"), std::string::npos);
}

TEST_F(Testbed, WrongAikRejected) {
  // Enroll a mismatched AIK (e.g. stale inventory): quotes must not verify.
  crypto::DeterministicRandom other_rng(77);
  ima::Tpm other_tpm(other_rng);
  vm_.enroll_platform_aik(host_.sgx().platform_id(),
                          other_tpm.aik_public_key());
  auto ch = channel();
  const HostAttestation result = vm_.attest_host(*ch);
  EXPECT_FALSE(result.trustworthy);
  EXPECT_NE(result.reason.find("signature invalid"), std::string::npos);
}

}  // namespace
}  // namespace vnfsgx::core

// ---------------------------------------------------------------------------
// Operator REST API + key rotation.
// ---------------------------------------------------------------------------

namespace vnfsgx::core {
namespace {

class VmApiTestbed : public Testbed {
 protected:
  VmApiTestbed() { bed_.serve_vm_api(); }

  net::StreamPtr vm_api() { return net_.connect(testbed::kVmAddress); }

  json::Value get_json(const std::string& target) {
    http::Client client(vm_api());
    const auto res = client.get(target);
    EXPECT_EQ(res.status, 200) << target;
    client.close();
    return json::parse(vnfsgx::to_string(res.body));
  }
};

TEST_F(VmApiTestbed, StatusReflectsAttestations) {
  auto before = get_json("/vm/status");
  EXPECT_EQ(before.at("hostsAttested").as_int(), 0);

  auto ch = channel();
  ASSERT_TRUE(vm_.attest_host(*ch).trustworthy);

  auto after = get_json("/vm/status");
  EXPECT_EQ(after.at("hostsAttested").as_int(), 1);
  EXPECT_EQ(after.at("trustedPlatforms").as_int(), 1);
  EXPECT_EQ(after.at("ca").as_string().substr(0, 3), "CN=");
}

TEST_F(VmApiTestbed, CaCertificateDownloadVerifies) {
  const auto body = get_json("/vm/ca/certificate");
  const pki::Certificate cert = pki::Certificate::decode(
      base64_decode(body.at("certificate").as_string()));
  EXPECT_EQ(cert, vm_.ca_certificate());
  EXPECT_EQ(body.at("fingerprint").as_string(), cert.fingerprint());
}

TEST_F(VmApiTestbed, CrlDownloadAndRevocation) {
  auto empty = get_json("/vm/ca/crl");
  EXPECT_EQ(empty.at("revokedSerials").as_int(), 0);

  http::Client client(vm_api());
  const auto res = client.post("/vm/revoke", R"({"serial": 42})");
  EXPECT_EQ(res.status, 200);
  client.close();

  auto after = get_json("/vm/ca/crl");
  EXPECT_EQ(after.at("revokedSerials").as_int(), 1);
  const pki::RevocationList crl = pki::RevocationList::decode(
      base64_decode(after.at("crl").as_string()));
  EXPECT_TRUE(crl.is_revoked(42));
  EXPECT_TRUE(crl.verify_signature(
      crypto::Ed25519VerifyKey(vm_.ca_certificate().public_key)));
}

TEST_F(VmApiTestbed, PlatformListingAndRevocation) {
  auto ch = channel();
  ASSERT_TRUE(vm_.attest_host(*ch).trustworthy);
  const auto platforms = get_json("/vm/platforms");
  ASSERT_EQ(platforms.at("trusted").as_array().size(), 1u);
  const std::string id_hex = platforms.at("trusted").as_array()[0].as_string();

  http::Client client(vm_api());
  const auto res =
      client.post("/vm/revoke-platform", R"({"platformId":")" + id_hex + R"("})");
  EXPECT_EQ(res.status, 200);
  client.close();
  EXPECT_TRUE(get_json("/vm/platforms").at("trusted").as_array().empty());
  EXPECT_FALSE(vm_.platform_trusted(host_.sgx().platform_id()));
}

TEST_F(VmApiTestbed, BadRequestsRejected) {
  http::Client client(vm_api());
  EXPECT_EQ(client.post("/vm/revoke", "not json").status, 400);
  EXPECT_EQ(client.post("/vm/revoke", R"({"wrong":1})").status, 400);
  EXPECT_EQ(client.post("/vm/revoke-platform", R"({"platformId":"zz"})").status,
            400);
  EXPECT_EQ(client.post("/vm/revoke-platform", R"({"platformId":"abcd"})").status,
            400);  // wrong length
  client.close();
}

TEST_F(Testbed, KeyRotationInvalidatesOldCredential) {
  vnf::Vnf vnf("vnf-1", host_, vendor_.seed,
               std::make_unique<vnf::MonitorFunction>());
  agent_.register_vnf(vnf);
  relearn();
  auto ch = channel();
  ASSERT_TRUE(vm_.attest_host(*ch).trustworthy);
  ASSERT_TRUE(vm_.attest_vnf(*ch, "vnf-1").trustworthy);
  const auto old_cert = vm_.enroll_vnf(*ch, "vnf-1", "vnf-1");
  ASSERT_TRUE(old_cert.has_value());
  const auto old_key = vnf.credentials().generate_key();

  // Rotate: fresh key, certificate gone.
  const auto new_key = vnf.credentials().rotate_key();
  EXPECT_NE(new_key, old_key);
  EXPECT_THROW(vnf.credentials().certificate(), Error);
  // The old certificate no longer matches the enclave key.
  EXPECT_THROW(vnf.credentials().install_certificate(*old_cert),
               SecurityViolation);

  // Re-attestation + re-enrollment picks up the new key.
  const auto re = vm_.attest_vnf(*ch, "vnf-1");
  ASSERT_TRUE(re.trustworthy);
  EXPECT_EQ(re.public_key, new_key);
  const auto new_cert = vm_.enroll_vnf(*ch, "vnf-1", "vnf-1");
  ASSERT_TRUE(new_cert.has_value());
  EXPECT_EQ(new_cert->public_key, new_key);
  EXPECT_EQ(vnf.credentials().certificate().serial, new_cert->serial);
}

TEST_F(Testbed, RotationSignsWithNewKeyOnly) {
  vnf::Vnf vnf("vnf-1", host_, vendor_.seed,
               std::make_unique<vnf::MonitorFunction>());
  const auto old_key = vnf.credentials().generate_key();
  const auto new_key = vnf.credentials().rotate_key();
  const auto sig = vnf.credentials().sign(to_bytes("msg"));
  EXPECT_TRUE(crypto::ed25519_verify(new_key, to_bytes("msg"),
                                     ByteView(sig.data(), sig.size())));
  EXPECT_FALSE(crypto::ed25519_verify(old_key, to_bytes("msg"),
                                      ByteView(sig.data(), sig.size())));
}

// ---------------------------------------------------------------------------
// Appraisal policy changes
// ---------------------------------------------------------------------------

TEST_F(Testbed, MismatchingExpectFileFailsTheNextAttestation) {
  auto ch = channel();
  ASSERT_TRUE(vm_.attest_host(*ch).trustworthy);

  // A policy change takes effect on the very next attestation: no verdict
  // for the old policy is ever served.
  const ima::ImaEntry measured = host_.ima().list().entries().front();
  vm_.appraisal().expect_file(measured.file_path,
                              crypto::Sha256::hash(to_bytes("other build")));
  const HostAttestation refused = vm_.attest_host(*ch);
  EXPECT_FALSE(refused.trustworthy);
  EXPECT_EQ(refused.reason, "IML appraisal failed: file digest mismatch");
  EXPECT_EQ(refused.appraisal.offending_paths,
            std::vector<std::string>{measured.file_path});

  vm_.appraisal().expect_file(measured.file_path, measured.file_digest);
  EXPECT_TRUE(vm_.attest_host(*ch).trustworthy);
}

TEST_F(Testbed, PolicyWritesDuringAttestationsAreSafe) {
  // The policy is written while attestations read it (the TSan lane checks
  // the locking). The writer re-asserts the golden digests of the very
  // entries the appraisal looks up, so every verdict stays trustworthy.
  const std::vector<ima::ImaEntry> golden = host_.ima().list().entries();
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (std::size_t i = 0; !done.load(); ++i) {
      const ima::ImaEntry& entry = golden[i % golden.size()];
      if (!entry.is_violation()) {
        vm_.appraisal().expect_file(entry.file_path, entry.file_digest);
      }
    }
  });
  auto ch = channel();
  for (int i = 0; i < 20; ++i) {
    const HostAttestation result = vm_.attest_host(*ch);
    EXPECT_TRUE(result.trustworthy) << result.reason;
  }
  done = true;
  writer.join();
}

// ---------------------------------------------------------------------------
// Fleet attestation
// ---------------------------------------------------------------------------

/// Like Testbed, with a fleet of VNFs deployed on host-1 up front.
/// attest_fleet drives concurrent bursts on the host agent from several
/// runtime workers; the testbed's locked RNG keeps their enclave key
/// generation safe.
class FleetTestbed : public Testbed {
 protected:
  static constexpr std::size_t kFleetSize = 8;

  FleetTestbed() {
    for (std::size_t i = 0; i < kFleetSize; ++i) {
      vnfs_.push_back(std::make_unique<vnf::Vnf>(
          "vnf-" + std::to_string(i), host_, vendor_.seed,
          std::make_unique<vnf::MonitorFunction>()));
      agent_.register_vnf(*vnfs_.back());
    }
    relearn();
  }

  std::vector<std::unique_ptr<vnf::Vnf>> vnfs_;
};

TEST_F(FleetTestbed, FleetAttestationMatchesSerialVerdicts) {
  auto host_ch = channel();
  ASSERT_TRUE(vm_.attest_host(*host_ch).trustworthy);

  std::vector<net::StreamPtr> channels;
  std::vector<FleetTarget> targets;
  for (std::size_t i = 0; i < kFleetSize; ++i) {
    channels.push_back(channel());
    targets.push_back({channels.back().get(), "vnf-" + std::to_string(i)});
  }
  const auto results = vm_.attest_fleet(targets, /*max_workers=*/4);
  ASSERT_EQ(results.size(), kFleetSize);
  for (std::size_t i = 0; i < kFleetSize; ++i) {
    EXPECT_TRUE(results[i].trustworthy)
        << targets[i].vnf_name << ": " << results[i].reason;
    EXPECT_EQ(results[i].quote_status, ias::QuoteStatus::kOk);
    EXPECT_EQ(results[i].platform_id, host_.sgx().platform_id());
  }
  EXPECT_EQ(vm_.vnfs_attested(), kFleetSize);
  EXPECT_EQ(vm_.attested_vnf_names().size(), kFleetSize);
  // Nine IAS round-trips (host + fleet) rode the keep-alive pool, so dials
  // are bounded by the pool window rather than the request count.
  EXPECT_LE(vm_.ias_client().connections_dialed(), 8u);

  // Fleet-attested VNFs enroll exactly like serially attested ones.
  const auto cert = vm_.enroll_vnf(*channels[0], "vnf-0", "vnf-0");
  EXPECT_TRUE(cert.has_value());
}

TEST_F(FleetTestbed, FleetIsolatesFailureToTheOffendingVnf) {
  auto host_ch = channel();
  ASSERT_TRUE(vm_.attest_host(*host_ch).trustworthy);

  std::vector<net::StreamPtr> channels;
  std::vector<FleetTarget> targets;
  for (std::size_t i = 0; i < kFleetSize; ++i) {
    channels.push_back(channel());
    const std::string name =
        (i == 3) ? "ghost" : "vnf-" + std::to_string(i);
    targets.push_back({channels.back().get(), name});
  }
  const auto results = vm_.attest_fleet(targets, /*max_workers=*/4);
  ASSERT_EQ(results.size(), kFleetSize);
  for (std::size_t i = 0; i < kFleetSize; ++i) {
    if (i == 3) {
      EXPECT_FALSE(results[i].trustworthy);
      EXPECT_FALSE(results[i].reason.empty());
    } else {
      EXPECT_TRUE(results[i].trustworthy) << results[i].reason;
    }
  }
  EXPECT_EQ(vm_.vnfs_attested(), kFleetSize - 1);
}

TEST_F(FleetTestbed, FleetFailsEveryTargetWhenIasKeyIsRogue) {
  auto host_ch = channel();
  ASSERT_TRUE(vm_.attest_host(*host_ch).trustworthy);

  // A VM that pins a key the IAS never signed with: every worker's own
  // signature check refuses its report.
  VerificationManager rogue_vm(
      bed_.rng, clock_,
      ias::IasClient([this] { return net_.connect(testbed::kIasAddress); },
                     crypto::ed25519_generate(bed_.rng).public_key));
  std::vector<net::StreamPtr> channels;
  std::vector<FleetTarget> targets;
  for (std::size_t i = 0; i < kFleetSize; ++i) {
    channels.push_back(channel());
    targets.push_back({channels.back().get(), "vnf-" + std::to_string(i)});
  }
  const auto results = rogue_vm.attest_fleet(targets, /*max_workers=*/4);
  ASSERT_EQ(results.size(), kFleetSize);
  for (const auto& r : results) {
    EXPECT_FALSE(r.trustworthy);
    EXPECT_EQ(r.reason, "ias: report signature verification failed");
  }
  EXPECT_EQ(rogue_vm.vnfs_attested(), 0u);
}

TEST_F(FleetTestbed, FleetRejectsEveryVnfOnUnattestedHost) {
  // attest_host was never called: the platform is untrusted, and every
  // member of the fleet must be rejected — same verdict as attest_vnf.
  std::vector<net::StreamPtr> channels;
  std::vector<FleetTarget> targets;
  for (std::size_t i = 0; i < kFleetSize; ++i) {
    channels.push_back(channel());
    targets.push_back({channels.back().get(), "vnf-" + std::to_string(i)});
  }
  const auto results = vm_.attest_fleet(targets, /*max_workers=*/4);
  ASSERT_EQ(results.size(), kFleetSize);
  for (const auto& r : results) {
    EXPECT_FALSE(r.trustworthy);
    EXPECT_FALSE(r.reason.empty());
  }
  EXPECT_EQ(vm_.vnfs_attested(), 0u);
}

}  // namespace
}  // namespace vnfsgx::core
