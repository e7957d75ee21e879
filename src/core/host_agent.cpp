#include "core/host_agent.h"

#include <array>

#include "obs/metrics.h"

namespace vnfsgx::core {

namespace {

/// The per-type request counters, registered together at the first
/// request and cached, so a request looks nothing up in the registry.
obs::Counter& request_counter(MessageType type) {
  static const std::array<obs::Counter*, 4> counters = [] {
    std::array<obs::Counter*, 4> c{};
    const char* labels[] = {"attest_host", "attest_vnf", "provision",
                            "unknown"};
    for (std::size_t i = 0; i < c.size(); ++i) {
      c[i] = &obs::registry().counter(
          "vnfsgx_host_agent_requests_total", {{"type", labels[i]}},
          "Attestation-protocol requests served by the host agent");
    }
    return c;
  }();
  switch (type) {
    case MessageType::kAttestHostRequest:
      return *counters[0];
    case MessageType::kAttestVnfRequest:
      return *counters[1];
    case MessageType::kProvisionRequest:
      return *counters[2];
    default:
      return *counters[3];
  }
}

}  // namespace

void HostAgent::register_vnf(vnf::Vnf& vnf) {
  const std::lock_guard<std::mutex> lock(mutex_);
  vnfs_[vnf.name()] = &vnf;
}

Bytes HostAgent::serve_frame(ByteView request) {
  try {
    return handle(request);
  } catch (const std::exception& e) {
    static obs::Counter& errors = obs::registry().counter(
        "vnfsgx_host_agent_errors_total", {},
        "Host-agent requests answered with an error message");
    errors.add();
    return encode(ErrorMessage{e.what()});
  }
}

Bytes HostAgent::handle(ByteView request) {
  request_counter(peek_type(request)).add();
  switch (peek_type(request)) {
    case MessageType::kAttestHostRequest:
      return handle_attest_host(decode_attest_host_request(request));
    case MessageType::kAttestVnfRequest:
      return handle_attest_vnf(decode_attest_vnf_request(request));
    case MessageType::kProvisionRequest:
      return handle_provision(decode_provision_request(request));
    default:
      throw ProtocolError("host agent: unexpected message type");
  }
}

Bytes HostAgent::handle_attest_host(const AttestHostRequest& request) {
  auto enclave = host_.attestation_enclave();
  if (!enclave) {
    throw Error("host agent: attestation enclave not loaded");
  }
  // Snapshot the IML, have the enclave bind it to the nonce, and convert
  // the report into a quote via the Quoting Enclave.
  Bytes iml = host_.ima().list().encode();
  const sgx::TargetInfo qe_target =
      host_.sgx().quoting_enclave().target_info();
  const Bytes report_bytes = enclave->call(
      host::kOpCreateImlReport,
      host::encode_iml_report_request(request.nonce, iml, qe_target));
  const sgx::Report report = sgx::Report::decode(report_bytes);
  const sgx::Quote quote = host_.sgx().quoting_enclave().quote(report);

  AttestHostResponse response;
  response.quote = quote.encode();
  response.iml = std::move(iml);
  // §4 extension: ship an authenticated PCR-10 quote bound to the same
  // nonce, so the verifier can cross-check the IML against the TPM.
  response.tpm_quote =
      host_.tpm().quote(ima::kImaPcrIndex, request.nonce).encode();
  return encode(response);
}

Bytes HostAgent::handle_attest_vnf(const AttestVnfRequest& request) {
  vnf::Vnf* vnf = nullptr;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = vnfs_.find(request.vnf_name);
    if (it != vnfs_.end()) vnf = it->second;
  }
  if (!vnf) throw Error("host agent: unknown VNF '" + request.vnf_name + "'");

  const crypto::Ed25519PublicKey public_key = vnf->credentials().generate_key();
  const sgx::TargetInfo qe_target =
      host_.sgx().quoting_enclave().target_info();
  const sgx::Report report =
      vnf->credentials().create_report(request.nonce, qe_target);
  const sgx::Quote quote = host_.sgx().quoting_enclave().quote(report);

  AttestVnfResponse response;
  response.quote = quote.encode();
  response.public_key = public_key;
  return encode(response);
}

Bytes HostAgent::handle_provision(const ProvisionRequest& request) {
  vnf::Vnf* vnf = nullptr;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = vnfs_.find(request.vnf_name);
    if (it != vnfs_.end()) vnf = it->second;
  }
  ProvisionResponse response;
  if (!vnf) {
    response.ok = false;
    response.detail = "unknown VNF";
    return encode(response);
  }
  try {
    vnf->credentials().install_certificate(
        pki::Certificate::decode(request.certificate));
    response.ok = true;
    response.detail = "credential installed in enclave";
  } catch (const std::exception& e) {
    response.ok = false;
    response.detail = e.what();
  }
  return encode(response);
}

}  // namespace vnfsgx::core
