// Compromise detection and response: a host passes attestation, gets a VNF
// enrolled, is then compromised (tampered docker daemon). Re-attestation
// fails, the Verification Manager distrusts the platform and revokes its
// credentials, and the controller locks the revoked VNF out.
//
// Run: build/examples/compromise_detection
#include "common/logging.h"
#include "http/client.h"
#include "testbed/testbed.h"
#include "vnf/functions.h"

using namespace vnfsgx;
using namespace vnfsgx::testbed;

int main() {
  set_log_level(LogLevel::kWarn);
  Testbed bed;

  banner("Compromise detection scenario");

  dataplane::Fabric fabric;
  fabric.add_switch(1);
  bed.start_controller(fabric, controller::SecurityMode::kTrustedHttps);

  SimHost& host = bed.add_host("host-1");
  vnf::Vnf monitor("mon-1", *host.machine, bed.vendor.seed,
                   std::make_unique<vnf::MonitorFunction>());
  host.agent->register_vnf(monitor);
  bed.learn_golden(host);

  // Healthy enrollment.
  banner("Phase 1: healthy host enrolls a VNF");
  auto ch = bed.agent_channel(host);
  const auto host_result = bed.vm.attest_host(*ch);
  step("host attestation: " + host_result.reason);
  const auto vnf_result = bed.vm.attest_vnf(*ch, "mon-1");
  step("VNF attestation: " + vnf_result.reason);
  const auto cert = bed.vm.enroll_vnf(*ch, "mon-1", "mon-1");
  step("credential serial " + std::to_string(cert->serial) + " provisioned");

  // The VNF can reach the controller.
  {
    auto transport = bed.net.connect(kControllerAddress);
    monitor.credentials().tls_open(std::move(transport), bed.clock.now(), "controller",
                                   bed.vm.ca_certificate());
    vnf::EnclaveTlsStream tunnel(monitor.credentials());
    http::Connection conn(tunnel);
    http::Request req;
    req.target = "/wm/core/controller/summary/json";
    conn.write(req);
    const auto res = conn.read_response();
    step("VNF -> controller: HTTP " + std::to_string(res ? res->status : 0));
    monitor.credentials().tls_close();
  }

  // Compromise.
  banner("Phase 2: attacker tampers /usr/bin/dockerd");
  host.machine->compromise_file("/usr/bin/dockerd");
  step("file modified; IMA measured the new digest on next execution");
  step("IML now has " + std::to_string(host.machine->ima().list().size()) +
       " entries; aggregate changed");

  // Re-attestation detects it.
  banner("Phase 3: periodic re-attestation");
  auto ch2 = bed.agent_channel(host);
  const auto recheck = bed.vm.attest_host(*ch2);
  step("host attestation: " + recheck.reason);
  for (const auto& path : recheck.appraisal.offending_paths) {
    step("offending file: " + path);
  }
  if (recheck.trustworthy) {
    std::printf("ERROR: compromise went undetected!\n");
    return 1;
  }

  // Response: distrust platform, revoke credentials, push CRL.
  banner("Phase 4: response — revoke the platform's credentials");
  const pki::RevocationList crl =
      bed.vm.revoke_platform(host.machine->sgx().platform_id());
  step("CRL now lists " + std::to_string(crl.revoked_serials.size()) +
       " serial(s)");
  bed.controller->update_crl(crl);
  step("CRL pushed to the controller");

  // The revoked VNF is locked out.
  banner("Phase 5: revoked VNF can no longer enroll sessions");
  auto transport = bed.net.connect(kControllerAddress);
  bool locked_out = false;
  try {
    // TLS-1.3 semantics: the server's certificate rejection can surface at
    // the handshake or on the first exchange — probe both.
    monitor.credentials().tls_open(std::move(transport), bed.clock.now(),
                                   "controller", bed.vm.ca_certificate());
    monitor.credentials().tls_send(to_bytes(
        "GET /wm/core/controller/summary/json HTTP/1.1\r\n\r\n"));
    if (monitor.credentials().tls_recv(16).empty()) {
      throw IoError("server closed without answering");
    }
  } catch (const Error& e) {
    locked_out = true;
    step(std::string("revoked credential refused: ") + e.what());
    monitor.credentials().tls_close();
  }
  if (!locked_out) {
    std::printf("ERROR: revoked credential still accepted!\n");
    return 1;
  }
  // And re-enrollment is refused too (platform distrusted).
  auto ch3 = bed.agent_channel(host);
  const auto again = bed.vm.attest_vnf(*ch3, "mon-1");
  step("re-attestation attempt: " + again.reason);

  std::printf(
      "\ncompromise_detection complete: tamper detected, platform "
      "distrusted, credentials revoked, controller enforced the CRL.\n");
  return 0;
}
