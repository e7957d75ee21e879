#include "host/attestation_enclave.h"

#include "crypto/sha256.h"
#include "pki/tlv.h"

namespace vnfsgx::host {

namespace {

enum : std::uint8_t {
  kTagNonce = 0x01,
  kTagIml = 0x02,
  kTagTargetInfo = 0x03,
};

/// The bytes standing for the enclave binary. Changing them (a tampered
/// enclave) changes MRENCLAVE and fails appraisal.
Bytes attestation_enclave_code() {
  return to_bytes(
      "vnfsgx integrity attestation enclave v1.0\n"
      "role: bind IMA measurement list into SGX report data\n");
}

class AttestationEnclaveLogic final : public sgx::TrustedLogic {
 public:
  Bytes handle_call(std::uint32_t opcode, ByteView input,
                    sgx::EnclaveServices& services) override {
    if (opcode != kOpCreateImlReport) {
      throw Error("attestation enclave: unknown opcode " +
                  std::to_string(opcode));
    }
    pki::TlvReader r(input);
    const auto nonce = r.expect_array<32>(kTagNonce);
    const ByteView iml = r.expect(kTagIml);
    const sgx::TargetInfo target =
        sgx::TargetInfo::decode(r.expect(kTagTargetInfo));

    const sgx::Report report =
        services.create_report(target, iml_report_data(nonce, iml));
    return report.encode();
  }
};

}  // namespace

Bytes encode_iml_report_request(const std::array<std::uint8_t, 32>& nonce,
                                ByteView iml_bytes,
                                const sgx::TargetInfo& target) {
  const Bytes target_bytes = target.encode();
  pki::TlvWriter w;
  w.reserve(pki::TlvWriter::element_size(nonce.size()) +
            pki::TlvWriter::element_size(iml_bytes.size()) +
            pki::TlvWriter::element_size(target_bytes.size()));
  w.add_bytes(kTagNonce, nonce);
  w.add_bytes(kTagIml, iml_bytes);
  w.add_bytes(kTagTargetInfo, target_bytes);
  return w.take();
}

sgx::ReportData iml_report_data(const std::array<std::uint8_t, 32>& nonce,
                                ByteView iml_bytes) {
  crypto::Sha256 h;
  h.update(nonce);
  h.update(iml_bytes);
  const auto digest = h.finish();
  sgx::ReportData data{};
  std::copy(digest.begin(), digest.end(), data.begin());
  return data;
}

sgx::EnclaveImage attestation_enclave_image() {
  sgx::EnclaveImage image;
  image.name = "integrity-attestation-enclave";
  image.code = attestation_enclave_code();
  image.attributes = 0;
  image.factory = [] { return std::make_unique<AttestationEnclaveLogic>(); };
  return image;
}

sgx::Measurement attestation_enclave_measurement() {
  return sgx::measure_image(attestation_enclave_code(), 0);
}

}  // namespace vnfsgx::host
