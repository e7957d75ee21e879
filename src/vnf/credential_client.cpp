#include "vnf/credential_client.h"

#include <cstring>

#include "obs/metrics.h"
#include "obs/span.h"
#include "pki/tlv.h"
#include "vnf/ocall.h"

namespace vnfsgx::vnf {

crypto::Ed25519PublicKey CredentialClient::generate_key() {
  const Bytes out = enclave_->call(kOpGenerateKey, {});
  if (out.size() != crypto::kEd25519PublicKeySize) {
    throw ProtocolError("credential client: bad public key size");
  }
  crypto::Ed25519PublicKey key;
  std::copy(out.begin(), out.end(), key.begin());
  return key;
}

crypto::Ed25519PublicKey CredentialClient::rotate_key() {
  const Bytes out = enclave_->call(kOpRotateKey, {});
  if (out.size() != crypto::kEd25519PublicKeySize) {
    throw ProtocolError("credential client: bad public key size");
  }
  crypto::Ed25519PublicKey key;
  std::copy(out.begin(), out.end(), key.begin());
  return key;
}

sgx::Report CredentialClient::create_report(
    const std::array<std::uint8_t, 32>& nonce, const sgx::TargetInfo& target) {
  const Bytes out =
      enclave_->call(kOpCreateReport, encode_report_request(nonce, target));
  return sgx::Report::decode(out);
}

pki::Certificate CredentialClient::issue_ratls_certificate(
    sgx::QuotingEnclave& qe, const crypto::Sha256Digest& iml_digest,
    const crypto::Ed25519PublicKey& vendor_key, std::uint64_t serial,
    const pki::DistinguishedName& subject, UnixTime not_before,
    UnixTime not_after) {
  static obs::Histogram& duration = obs::registry().histogram(
      "vnfsgx_ratls_issue_duration_us", {}, {},
      "RA-TLS certificate issuance: report ECALL + QE quote + issue ECALL");
  obs::Span span =
      obs::tracer().start_span("ratls_issue", obs::kStepQuoteVerification);
  span.annotate("subject", subject.common_name);
  const Bytes report_bytes = enclave_->call(
      kOpRatlsReport, encode_ratls_report_request(qe.target_info()));
  const sgx::Quote quote = qe.quote(sgx::Report::decode(report_bytes));
  const Bytes cert_bytes = enclave_->call(
      kOpRatlsIssue,
      encode_ratls_issue(quote.encode(), iml_digest, vendor_key, serial,
                         subject, not_before, not_after));
  span.end();
  duration.observe(span.elapsed_us());
  return pki::Certificate::decode(cert_bytes);
}

void CredentialClient::install_certificate(const pki::Certificate& cert) {
  enclave_->call(kOpInstallCertificate, cert.encode());
}

pki::Certificate CredentialClient::certificate() {
  return pki::Certificate::decode(enclave_->call(kOpGetCertificate, {}));
}

crypto::Ed25519Signature CredentialClient::sign(ByteView message) {
  const Bytes out = enclave_->call(kOpSign, message);
  if (out.size() != crypto::kEd25519SignatureSize) {
    throw ProtocolError("credential client: bad signature size");
  }
  crypto::Ed25519Signature sig;
  std::copy(out.begin(), out.end(), sig.begin());
  return sig;
}

Bytes CredentialClient::seal_state() { return enclave_->call(kOpSealState, {}); }

void CredentialClient::restore_state(ByteView blob) {
  enclave_->call(kOpRestoreState, blob);
}

namespace {

obs::Counter& enclave_sessions_total(const char* result) {
  return obs::registry().counter(
      "vnfsgx_enclave_tls_sessions_total", {{"result", result}},
      "Enclave-terminated TLS sessions opened via ECALL");
}

}  // namespace

void CredentialClient::tls_open(net::StreamPtr transport, UnixTime now,
                                const std::string& expected_server_name,
                                const pki::Certificate& ca_root) {
  // The enclave-terminated handshake is the §2 future-work overhead
  // question; measured separately from host-side tls_handshake spans.
  static obs::Histogram& duration = obs::registry().histogram(
      "vnfsgx_enclave_tls_open_duration_us", {}, {},
      "ECALL round-trip to open the enclave-terminated TLS session");
  obs::Span span =
      obs::tracer().start_span("enclave_tls_open", obs::kStepSecureChannel);
  span.annotate("server", expected_server_name);
  stream_token_ = OcallStreamRegistry::add(std::move(transport));
  try {
    enclave_->call(kOpTlsOpen, encode_tls_open(stream_token_, now,
                                               expected_server_name, ca_root));
  } catch (...) {
    OcallStreamRegistry::remove(stream_token_);
    stream_token_ = 0;
    span.annotate("result", "fail");
    static obs::Counter& failed = enclave_sessions_total("fail");
    failed.add();
    throw;
  }
  span.annotate("result", "ok");
  span.end();
  duration.observe(span.elapsed_us());
  static obs::Counter& opened = enclave_sessions_total("ok");
  opened.add();
}

void CredentialClient::tls_send(ByteView data) {
  static obs::Counter& bytes_out = obs::registry().counter(
      "vnfsgx_enclave_tls_bytes_total", {{"direction", "out"}},
      "Application bytes crossing the enclave TLS ECALL boundary");
  enclave_->call(kOpTlsSend, data);
  bytes_out.add(data.size());
}

Bytes CredentialClient::tls_recv(std::size_t max) {
  static obs::Counter& bytes_in = obs::registry().counter(
      "vnfsgx_enclave_tls_bytes_total", {{"direction", "in"}},
      "Application bytes crossing the enclave TLS ECALL boundary");
  pki::TlvWriter w;
  w.add_u32(0x07, static_cast<std::uint32_t>(max));  // kTagMax
  Bytes chunk = enclave_->call(kOpTlsRecv, w.bytes());
  bytes_in.add(chunk.size());
  return chunk;
}

void CredentialClient::tls_close() {
  enclave_->call(kOpTlsClose, {});
  if (stream_token_ != 0) {
    OcallStreamRegistry::remove(stream_token_);
    stream_token_ = 0;
  }
}

std::size_t EnclaveTlsStream::read(std::span<std::uint8_t> out) {
  const Bytes chunk = client_.tls_recv(out.size());
  std::memcpy(out.data(), chunk.data(), chunk.size());
  return chunk.size();
}

}  // namespace vnfsgx::vnf
