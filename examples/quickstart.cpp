// Quickstart: the complete Figure-1 workflow on one host, one VNF.
//
//   1. Verification Manager attests the container host (steps 1-2),
//   2. attests the VNF's credential enclave (steps 3-4),
//   3. generates + provisions a CA-signed client certificate (step 5),
//   4. the VNF talks to the controller over in-enclave TLS (step 6).
//
// Run: build/examples/quickstart
#include "common/logging.h"
#include "http/client.h"
#include "testbed/testbed.h"
#include "vnf/functions.h"

using namespace vnfsgx;
using namespace vnfsgx::testbed;

int main() {
  set_log_level(LogLevel::kWarn);
  Testbed bed;

  banner("Figure 1 workflow: quickstart");

  // --- Deployment ---------------------------------------------------------
  SimHost& host = bed.add_host("host-1");
  step("container host 'host-1' booted; IML entries: " +
       std::to_string(host.machine->ima().list().size()));

  vnf::Vnf firewall("fw-1", *host.machine, bed.vendor.seed,
                    std::make_unique<vnf::FirewallFunction>());
  host.agent->register_vnf(firewall);
  step("VNF 'fw-1' deployed in container '" + firewall.container()->id() +
       "', credential enclave loaded (mrenclave " +
       sgx::to_hex_string(firewall.enclave()->mr_enclave()).substr(0, 16) +
       "...)");
  bed.learn_golden(host);

  dataplane::Fabric fabric;
  fabric.add_switch(1);
  bed.start_controller(fabric, controller::SecurityMode::kTrustedHttps);
  step("controller up in TRUSTED_HTTPS mode, trusting the VM's CA");

  // --- Steps 1-2: host attestation ----------------------------------------
  banner("Steps 1-2: host remote attestation");
  auto channel = bed.agent_channel(host);
  const core::HostAttestation host_result = bed.vm.attest_host(*channel);
  step("quote status: " + ias::to_string(host_result.quote_status));
  step("appraisal: " + host_result.appraisal.reason + " (" +
       std::to_string(host_result.iml_entries) + " IML entries)");
  if (!host_result.trustworthy) {
    std::printf("host not trustworthy: %s\n", host_result.reason.c_str());
    return 1;
  }

  // --- Steps 3-4: VNF enclave attestation ---------------------------------
  banner("Steps 3-4: VNF enclave attestation");
  const core::VnfAttestation vnf_result = bed.vm.attest_vnf(*channel, "fw-1");
  step("quote status: " + ias::to_string(vnf_result.quote_status));
  step(vnf_result.reason);
  if (!vnf_result.trustworthy) return 1;

  // --- Step 5: credential provisioning ------------------------------------
  banner("Step 5: credential generation + provisioning");
  const auto cert = bed.vm.enroll_vnf(*channel, "fw-1", "fw-1.tenant-a");
  if (!cert) return 1;
  step("certificate serial " + std::to_string(cert->serial) + " for " +
       cert->subject.to_string() + ", signed by " + cert->issuer.to_string());
  step("private key never left the enclave; only the certificate traveled");

  // --- Step 6: VNF -> controller over in-enclave TLS ----------------------
  banner("Step 6: VNF talks to the controller from inside the enclave");
  auto transport = bed.net.connect(kControllerAddress);
  firewall.credentials().tls_open(std::move(transport), bed.clock.now(), "controller",
                                  bed.vm.ca_certificate());
  step("mutually-authenticated TLS session established (keys in-enclave)");

  vnf::EnclaveTlsStream tunnel(firewall.credentials());
  http::Connection conn(tunnel);
  http::Request push;
  push.method = "POST";
  push.target = "/wm/staticflowpusher/json";
  push.body = to_bytes(
      R"({"name":"block-telnet","switch":1,"priority":200,"tcp_dst":23,)"
      R"("actions":"drop"})");
  conn.write(push);
  const auto response = conn.read_response();
  step("pushed flow 'block-telnet': HTTP " +
       std::to_string(response ? response->status : 0));
  firewall.credentials().tls_close();

  // --- Verify the flow is live in the forwarding plane --------------------
  banner("Result");
  dataplane::Packet telnet;
  telnet.dst_port = 23;
  telnet.proto = dataplane::IpProto::kTcp;
  const auto verdict = fabric.find_switch(1)->process(telnet, 1);
  step(std::string("telnet packet through switch 1: ") +
       (verdict.kind == dataplane::ForwardingResult::Kind::kDropped
            ? "DROPPED (flow installed by the attested VNF)"
            : "not dropped?!"));

  const auto log = bed.controller->audit_log();
  step("controller audit: " + log.back().method + " " + log.back().path +
       " by authenticated client '" + log.back().identity + "'");

  print_metrics_summary();

  std::printf("\nquickstart complete: VNF enrolled and operating.\n");
  return 0;
}
