// VNF tests: credential enclave semantics (key confinement, certificate
// binding, sealing, in-enclave TLS), framework deployment, sample functions.
#include <gtest/gtest.h>

#include <thread>

#include "common/sim_clock.h"
#include "crypto/random.h"
#include "host/container_host.h"
#include "http/client.h"
#include "http/server.h"
#include "net/inmemory.h"
#include "pki/ca.h"
#include "pki/truststore.h"
#include "tls/session.h"
#include "vnf/functions.h"
#include "vnf/vnf.h"

namespace vnfsgx::vnf {
namespace {

using crypto::DeterministicRandom;

sgx::PlatformOptions fast_sgx() {
  sgx::PlatformOptions o;
  o.crossing_cost = std::chrono::nanoseconds(0);
  return o;
}

class VnfFixture : public ::testing::Test {
 protected:
  VnfFixture()
      : rng_(41),
        clock_(1'700'000'000),
        vendor_(crypto::ed25519_generate(rng_)),
        ca_(pki::DistinguishedName{"vm-ca", ""}, rng_, clock_),
        host_("host-1", rng_, fast_sgx()) {
    host_.boot();
  }

  Vnf make_vnf(const std::string& name) {
    return Vnf(name, host_, vendor_.seed,
               std::make_unique<MonitorFunction>());
  }

  DeterministicRandom rng_;
  SimClock clock_;
  crypto::Ed25519KeyPair vendor_;
  pki::CertificateAuthority ca_;
  host::ContainerHost host_;
};

TEST_F(VnfFixture, DeploymentRunsContainerAndEnclave) {
  Vnf vnf = make_vnf("vnf-1");
  EXPECT_EQ(vnf.container()->state(), host::ContainerState::kRunning);
  EXPECT_EQ(vnf.enclave()->mr_enclave(), credential_enclave_measurement());
}

TEST_F(VnfFixture, KeyGenerationIsIdempotentAndConfined) {
  Vnf vnf = make_vnf("vnf-1");
  const auto pub1 = vnf.credentials().generate_key();
  const auto pub2 = vnf.credentials().generate_key();
  EXPECT_EQ(pub1, pub2);
  // The private key only ever manifests as signatures.
  const auto sig = vnf.credentials().sign(to_bytes("hello"));
  EXPECT_TRUE(crypto::ed25519_verify(pub1, to_bytes("hello"),
                                     ByteView(sig.data(), sig.size())));
}

TEST_F(VnfFixture, SignRequiresKey) {
  Vnf vnf = make_vnf("vnf-1");
  EXPECT_THROW(vnf.credentials().sign(to_bytes("x")), Error);
  EXPECT_THROW(vnf.credentials().certificate(), Error);
  const std::array<std::uint8_t, 32> nonce{};
  EXPECT_THROW(vnf.credentials().create_report(
                   nonce, host_.sgx().quoting_enclave().target_info()),
               Error);
}

TEST_F(VnfFixture, CertificateMustMatchEnclaveKey) {
  Vnf vnf = make_vnf("vnf-1");
  const auto pub = vnf.credentials().generate_key();

  // Correct certificate installs fine and reads back.
  const auto good = ca_.issue(
      {"vnf-1", ""}, pub, static_cast<std::uint8_t>(pki::KeyUsage::kClientAuth));
  vnf.credentials().install_certificate(good);
  EXPECT_EQ(vnf.credentials().certificate().serial, good.serial);

  // A certificate for a *different* key is refused by the enclave.
  const auto other = crypto::ed25519_generate(rng_);
  const auto bad = ca_.issue(
      {"vnf-1", ""}, other.public_key,
      static_cast<std::uint8_t>(pki::KeyUsage::kClientAuth));
  EXPECT_THROW(vnf.credentials().install_certificate(bad), SecurityViolation);
}

TEST_F(VnfFixture, ReportBindsNonceAndKey) {
  Vnf vnf = make_vnf("vnf-1");
  const auto pub = vnf.credentials().generate_key();
  std::array<std::uint8_t, 32> nonce{};
  nonce[0] = 7;
  const sgx::TargetInfo qe = host_.sgx().quoting_enclave().target_info();
  const sgx::Report report = vnf.credentials().create_report(nonce, qe);
  EXPECT_EQ(report.body.report_data, credential_report_data(nonce, pub));
  EXPECT_NO_THROW(host_.sgx().quoting_enclave().quote(report));
}

TEST_F(VnfFixture, SealedStateRestoresAcrossEnclaveRestart) {
  Vnf vnf = make_vnf("vnf-1");
  const auto pub = vnf.credentials().generate_key();
  const auto cert = ca_.issue(
      {"vnf-1", ""}, pub, static_cast<std::uint8_t>(pki::KeyUsage::kClientAuth));
  vnf.credentials().install_certificate(cert);
  const Bytes sealed = vnf.credentials().seal_state();

  // "Restart": load a fresh credential enclave on the same platform and
  // restore the sealed state (same MRENCLAVE + same platform => allowed).
  const sgx::EnclaveImage image = credential_enclave_image();
  const sgx::SigStruct sig = sgx::sign_enclave(
      vendor_.seed, sgx::measure_image(image.code, image.attributes), 10, 1);
  auto fresh = host_.sgx().load_enclave(image, sig);
  CredentialClient restored(fresh);
  restored.restore_state(sealed);
  EXPECT_EQ(restored.generate_key(), pub);
  EXPECT_EQ(restored.certificate().serial, cert.serial);
}

TEST_F(VnfFixture, SealedStateRejectedOnOtherPlatform) {
  Vnf vnf = make_vnf("vnf-1");
  vnf.credentials().generate_key();
  const Bytes sealed = vnf.credentials().seal_state();

  host::ContainerHost other("host-2", rng_, fast_sgx());
  const sgx::EnclaveImage image = credential_enclave_image();
  const sgx::SigStruct sig = sgx::sign_enclave(
      vendor_.seed, sgx::measure_image(image.code, image.attributes), 10, 1);
  auto foreign = other.sgx().load_enclave(image, sig);
  CredentialClient client(foreign);
  EXPECT_THROW(client.restore_state(sealed), SecurityViolation);
}

TEST_F(VnfFixture, InEnclaveTlsTalksToServer) {
  // Server side: mutual-auth TLS endpoint validating against the CA.
  Vnf vnf = make_vnf("vnf-1");
  const auto pub = vnf.credentials().generate_key();
  vnf.credentials().install_certificate(ca_.issue(
      {"vnf-1", ""}, pub, static_cast<std::uint8_t>(pki::KeyUsage::kClientAuth)));

  const auto server_kp = crypto::ed25519_generate(rng_);
  const auto server_cert = ca_.issue(
      {"controller", ""}, server_kp.public_key,
      static_cast<std::uint8_t>(pki::KeyUsage::kServerAuth));

  pki::TrustStore server_trust;
  server_trust.add_root(ca_.root_certificate());

  auto [client_end, server_end] = net::make_pipe();
  std::thread server([&, s = std::move(server_end)]() mutable {
    tls::Config cfg;
    cfg.certificate = server_cert;
    cfg.signer = tls::Config::software_signer(server_kp.seed);
    cfg.require_client_certificate = true;
    cfg.truststore = &server_trust;
    cfg.clock = &clock_;
    cfg.rng = &rng_;
    auto session = tls::Session::accept(std::move(s), cfg);
    EXPECT_EQ(session->peer_certificate()->subject.common_name, "vnf-1");
    const Bytes got = session->read_exact(4);
    session->write(got);
    session->close();
  });

  vnf.credentials().tls_open(std::move(client_end), clock_.now(), "controller",
                             ca_.root_certificate());
  vnf.credentials().tls_send(to_bytes("ping"));
  EXPECT_EQ(to_string(vnf.credentials().tls_recv(16)), "ping");
  vnf.credentials().tls_close();
  server.join();
}

TEST_F(VnfFixture, TlsOpenRequiresCertificate) {
  Vnf vnf = make_vnf("vnf-1");
  vnf.credentials().generate_key();
  auto [client_end, server_end] = net::make_pipe();
  EXPECT_THROW(vnf.credentials().tls_open(std::move(client_end), clock_.now(), "c",
                                          ca_.root_certificate()),
               Error);
}

TEST_F(VnfFixture, TlsSendWithoutSessionThrows) {
  Vnf vnf = make_vnf("vnf-1");
  EXPECT_THROW(vnf.credentials().tls_send(to_bytes("x")), Error);
  EXPECT_THROW(vnf.credentials().tls_recv(4), Error);
}

// ---------------------------------------------------------------------------
// Network functions
// ---------------------------------------------------------------------------

TEST(FirewallFunctionTest, BlocksConfiguredTraffic) {
  FirewallFunction fw;
  fw.block_port(23);
  fw.block_source(dataplane::ipv4("192.0.2.66"));

  dataplane::Packet telnet;
  telnet.dst_port = 23;
  EXPECT_EQ(fw.process(telnet), Verdict::kDrop);

  dataplane::Packet from_bad;
  from_bad.src_ip = dataplane::ipv4("192.0.2.66");
  from_bad.dst_port = 80;
  EXPECT_EQ(fw.process(from_bad), Verdict::kDrop);

  dataplane::Packet ok;
  ok.dst_port = 443;
  EXPECT_EQ(fw.process(ok), Verdict::kAllow);
  EXPECT_EQ(fw.dropped(), 2u);
  EXPECT_EQ(fw.allowed(), 1u);
}

TEST(FirewallFunctionTest, DesiredFlowsCoverBlocklist) {
  FirewallFunction fw;
  fw.block_port(23);
  fw.block_port(445);
  fw.block_source(dataplane::ipv4("10.9.9.9"));
  const auto flows = fw.desired_flows(1);
  EXPECT_EQ(flows.size(), 3u);
  for (const auto& f : flows) {
    EXPECT_EQ(f.dpid, 1u);
    EXPECT_NE(f.json_body.find("\"drop\""), std::string::npos);
  }
}

TEST(LoadBalancerFunctionTest, DeterministicAndBalanced) {
  LoadBalancerFunction lb(dataplane::ipv4("10.0.0.100"), 80);
  lb.add_backend({dataplane::ipv4("10.0.1.1"), 1});
  lb.add_backend({dataplane::ipv4("10.0.1.2"), 2});
  lb.add_backend({dataplane::ipv4("10.0.1.3"), 3});

  dataplane::Packet p;
  p.dst_ip = dataplane::ipv4("10.0.0.100");
  p.dst_port = 80;
  for (std::uint16_t src_port = 1000; src_port < 1300; ++src_port) {
    p.src_port = src_port;
    p.src_ip = dataplane::ipv4("10.0.2.7");
    // Same 5-tuple always lands on the same backend.
    const auto& first = lb.pick(p);
    const auto& second = lb.pick(p);
    EXPECT_EQ(first.ip, second.ip);
    lb.process(p);
  }
  // All backends get a share (loose bound: >10% each of 300 flows).
  ASSERT_EQ(lb.per_backend_counts().size(), 3u);
  for (const auto& [ip, count] : lb.per_backend_counts()) {
    EXPECT_GT(count, 30u);
  }
}

TEST(LoadBalancerFunctionTest, IgnoresNonServiceTraffic) {
  LoadBalancerFunction lb(dataplane::ipv4("10.0.0.100"), 80);
  lb.add_backend({dataplane::ipv4("10.0.1.1"), 1});
  dataplane::Packet p;
  p.dst_ip = dataplane::ipv4("10.0.0.99");
  p.dst_port = 80;
  EXPECT_EQ(lb.process(p), Verdict::kAllow);
  EXPECT_TRUE(lb.per_backend_counts().empty());
}

TEST(LoadBalancerFunctionTest, NoBackendsThrows) {
  LoadBalancerFunction lb(1, 80);
  dataplane::Packet p;
  EXPECT_THROW(lb.pick(p), Error);
}

TEST(LoadBalancerFunctionTest, DesiredFlowsPerBackend) {
  LoadBalancerFunction lb(dataplane::ipv4("10.0.0.100"), 80);
  lb.add_backend({dataplane::ipv4("10.0.1.1"), 4});
  lb.add_backend({dataplane::ipv4("10.0.1.2"), 5});
  const auto flows = lb.desired_flows(2);
  ASSERT_EQ(flows.size(), 2u);
  EXPECT_NE(flows[0].json_body.find("output=4"), std::string::npos);
  EXPECT_NE(flows[1].json_body.find("output=5"), std::string::npos);
}

TEST(MonitorFunctionTest, CountsAndTopTalker) {
  MonitorFunction mon;
  dataplane::Packet a;
  a.src_ip = dataplane::ipv4("10.0.0.1");
  a.payload = Bytes(100);
  dataplane::Packet b;
  b.src_ip = dataplane::ipv4("10.0.0.2");
  b.payload = Bytes(5000);
  mon.process(a);
  mon.process(a);
  mon.process(b);
  EXPECT_EQ(mon.per_source().at(a.src_ip).packets, 2u);
  EXPECT_EQ(mon.per_source().at(a.src_ip).bytes, 200u);
  EXPECT_EQ(mon.top_talker(), b.src_ip);
}

}  // namespace
}  // namespace vnfsgx::vnf
