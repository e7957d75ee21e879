// The paper's §4 future work, implemented: anchoring the IMA measurement
// list in a TPM so a root attacker cannot sanitize it.
//
// Base design: the integrity attestation enclave binds whatever IML bytes
// the (untrusted, root-controlled) host agent hands it. A root attacker who
// compromised a binary can simply omit its IML entry — the quote is valid
// and the appraisal passes. With the TPM extension, the Verification
// Manager additionally demands an AIK-signed PCR-10 quote bound to the same
// nonce, and the sanitized list's aggregate can no longer match.
//
// Run: build/examples/tpm_hardening
#include "common/logging.h"
#include "testbed/testbed.h"

using namespace vnfsgx;
using namespace vnfsgx::testbed;

namespace {

/// A root attacker's agent: compromises dockerd, then reports a sanitized
/// IML with the incriminating entry removed.
void serve_rootkit_agent(Testbed& bed, SimHost& host) {
  bed.serve_agent("rootkit:7000", [&host](ByteView request) {
    const core::AttestHostRequest req =
        core::decode_attest_host_request(request);
    ima::MeasurementList sanitized;
    for (const auto& e : host.machine->ima().list().entries()) {
      if (e.file_path != "/usr/bin/dockerd") {
        sanitized.add_measurement(e.file_digest, e.file_path);
      }
    }
    const Bytes iml = sanitized.encode();
    const auto qe = host.machine->sgx().quoting_enclave().target_info();
    const Bytes report = host.machine->attestation_enclave()->call(
        host::kOpCreateImlReport,
        host::encode_iml_report_request(req.nonce, iml, qe));
    core::AttestHostResponse response;
    response.quote = host.machine->sgx()
                         .quoting_enclave()
                         .quote(sgx::Report::decode(report))
                         .encode();
    response.iml = iml;
    // The attacker cannot forge the TPM; it quotes the true PCR and
    // hopes the verifier doesn't check.
    response.tpm_quote =
        host.machine->tpm().quote(ima::kImaPcrIndex, req.nonce).encode();
    return core::encode(response);
  });
}

}  // namespace

int main() {
  set_log_level(LogLevel::kWarn);
  Testbed bed;

  banner("TPM hardening (the paper's §4 future work)");
  SimHost& host = bed.add_host("host-1");
  bed.learn_golden(host);

  // The attack: compromise dockerd, then sanitize the reported IML.
  host.machine->compromise_file("/usr/bin/dockerd");
  serve_rootkit_agent(bed, host);
  step("attacker compromised /usr/bin/dockerd and sanitizes the IML it reports");

  banner("Base design (no hardware root of trust)");
  {
    auto ch = bed.net.connect("rootkit:7000");
    const auto result = bed.vm.attest_host(*ch);
    step(std::string("attestation verdict: ") +
         (result.trustworthy ? "TRUSTWORTHY" : "untrustworthy") + " — " +
         result.reason);
    if (result.trustworthy) {
      step("the sanitization went UNDETECTED: the enclave faithfully bound "
           "the doctored bytes (the §4 gap)");
    } else {
      std::printf("unexpected: base design detected the attack\n");
      return 1;
    }
  }

  banner("Hardened design: AIK enrolled, PCR-10 cross-check required");
  bed.vm.enroll_platform_aik(host.machine->sgx().platform_id(),
                             host.machine->tpm().aik_public_key());
  {
    auto ch = bed.net.connect("rootkit:7000");
    const auto result = bed.vm.attest_host(*ch);
    step(std::string("attestation verdict: ") +
         (result.trustworthy ? "TRUSTWORTHY?!" : "untrustworthy") + " — " +
         result.reason);
    if (result.trustworthy) {
      std::printf("ERROR: sanitized IML passed the TPM check!\n");
      return 1;
    }
  }

  banner("Honest host still passes with the TPM check");
  {
    // Note the measurement log is append-only (both IML and PCR-10): a
    // once-compromised host cannot "clean up" without a reboot/re-image —
    // so the clean path is demonstrated on a freshly provisioned host.
    SimHost& fresh = bed.add_host("host-2");
    bed.learn_golden(fresh);
    bed.vm.enroll_platform_aik(fresh.machine->sgx().platform_id(),
                               fresh.machine->tpm().aik_public_key());
    auto ch = bed.agent_channel(fresh);
    const auto result = bed.vm.attest_host(*ch);
    step(std::string("honest host-2, verdict: ") + result.reason +
         (result.tpm_verified ? " (TPM verified)" : ""));
    if (!result.trustworthy || !result.tpm_verified) return 1;
  }

  std::printf(
      "\ntpm_hardening complete: the §4 extension detects IML sanitization "
      "the base design misses.\n");
  return 0;
}
