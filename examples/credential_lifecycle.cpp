// Credential lifecycle: enrollment, sealed persistence across an enclave
// restart, certificate expiry, and re-enrollment with a fresh certificate.
//
// Run: build/examples/credential_lifecycle
#include "common/logging.h"
#include "http/client.h"
#include "testbed/testbed.h"
#include "vnf/functions.h"

using namespace vnfsgx;
using namespace vnfsgx::testbed;

int main() {
  set_log_level(LogLevel::kWarn);
  Testbed bed;

  banner("Credential lifecycle");

  dataplane::Fabric fabric;
  fabric.add_switch(1);
  bed.start_controller(fabric, controller::SecurityMode::kTrustedHttps);

  SimHost& host = bed.add_host("host-1");
  auto vnf = std::make_unique<vnf::Vnf>("vnf-1", *host.machine,
                                        bed.vendor.seed,
                                        std::make_unique<vnf::MonitorFunction>());
  host.agent->register_vnf(*vnf);
  bed.learn_golden(host);

  // Enrollment.
  banner("Phase 1: enrollment (24h certificate)");
  auto ch = bed.agent_channel(host);
  if (!bed.vm.attest_host(*ch).trustworthy) return 1;
  if (!bed.vm.attest_vnf(*ch, "vnf-1").trustworthy) return 1;
  const auto cert = bed.vm.enroll_vnf(*ch, "vnf-1", "vnf-1");
  step("serial " + std::to_string(cert->serial) + " valid " +
       std::to_string((cert->not_after - cert->not_before) / 3600) + "h");
  const auto original_key = vnf->credentials().generate_key();

  // Sealed persistence.
  banner("Phase 2: enclave restart with sealed state");
  const Bytes sealed = vnf->credentials().seal_state();
  step("state sealed: " + std::to_string(sealed.size()) +
       " bytes (MRENCLAVE policy, platform-bound)");

  // Tear down the enclave ("container restart") and load a fresh one.
  const sgx::EnclaveImage image = vnf::credential_enclave_image();
  const sgx::SigStruct sig = sgx::sign_enclave(
      bed.vendor.seed, sgx::measure_image(image.code, image.attributes), 10, 1);
  vnf->replace_enclave(host.machine->sgx().load_enclave(image, sig));
  vnf::CredentialClient& restored = vnf->credentials();
  restored.restore_state(sealed);
  step("fresh enclave restored sealed state");
  if (restored.generate_key() != original_key) {
    std::printf("ERROR: restored key differs!\n");
    return 1;
  }
  step("same key + certificate (serial " +
       std::to_string(restored.certificate().serial) + ") after restart");

  // Expiry.
  banner("Phase 3: certificate expiry");
  bed.clock.advance(25 * 3600);  // past 24h validity
  step("clock advanced 25h; certificate now expired");
  auto transport = bed.net.connect(kControllerAddress);
  try {
    restored.tls_open(std::move(transport), bed.clock.now(), "controller",
                      bed.vm.ca_certificate());
    restored.tls_send(to_bytes("GET / HTTP/1.1\r\n\r\n"));
    if (restored.tls_recv(16).empty()) {
      throw IoError("server closed without answering");
    }
    std::printf("ERROR: expired certificate accepted!\n");
    return 1;
  } catch (const Error& e) {
    step(std::string("controller refused expired certificate: ") + e.what());
    restored.tls_close();
  }

  // Re-enrollment.
  banner("Phase 4: re-enrollment");
  auto ch2 = bed.agent_channel(host);
  if (!bed.vm.attest_host(*ch2).trustworthy) return 1;
  if (!bed.vm.attest_vnf(*ch2, "vnf-1").trustworthy) return 1;
  const auto fresh_cert = bed.vm.enroll_vnf(*ch2, "vnf-1", "vnf-1");
  step("fresh certificate serial " + std::to_string(fresh_cert->serial));

  auto transport2 = bed.net.connect(kControllerAddress);
  vnf->credentials().tls_open(std::move(transport2), bed.clock.now(), "controller",
                              bed.vm.ca_certificate());
  step("controller accepts the renewed credential");
  vnf->credentials().tls_close();

  // Targeted revocation.
  banner("Phase 5: targeted revocation of one credential");
  bed.controller->update_crl(bed.vm.revoke_certificate(fresh_cert->serial));
  auto transport3 = bed.net.connect(kControllerAddress);
  try {
    vnf->credentials().tls_open(std::move(transport3), bed.clock.now(),
                                "controller", bed.vm.ca_certificate());
    vnf->credentials().tls_send(to_bytes("GET / HTTP/1.1\r\n\r\n"));
    if (vnf->credentials().tls_recv(16).empty()) {
      throw IoError("server closed without answering");
    }
    std::printf("ERROR: revoked certificate accepted!\n");
    return 1;
  } catch (const Error&) {
    step("controller refused the revoked certificate");
    vnf->credentials().tls_close();
  }

  // Everything above is one-and-a-half Figure-1 runs; the whole history is
  // scrapeable from the VM's REST API in Prometheus text format.
  banner("Phase 6: observability scrape");
  bed.serve_vm_api();
  http::Client scrape(bed.net.connect(kVmAddress));
  const auto metrics = scrape.get("/vm/metrics");
  scrape.close();
  step("GET /vm/metrics: HTTP " + std::to_string(metrics.status) + ", " +
       std::to_string(metrics.body.size()) + " bytes of Prometheus text");
  const std::string text = vnfsgx::to_string(metrics.body);
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    for (const char* prefix :
         {"vnfsgx_attestations_total", "vnfsgx_credentials_provisioned_total",
          "vnfsgx_ca_revocations_total", "vnfsgx_enclave_tls_sessions_total"}) {
      if (line.rfind(prefix, 0) == 0) step(line);
    }
  }

  print_metrics_summary();

  std::printf("\ncredential_lifecycle complete.\n");
  return 0;
}
