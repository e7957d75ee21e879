#include "core/protocol.h"

#include "common/error.h"
#include "pki/tlv.h"

namespace vnfsgx::core {

namespace {

enum : std::uint8_t {
  kTagNonce = 0x01,
  kTagQuote = 0x02,
  kTagIml = 0x03,
  kTagVnfName = 0x04,
  kTagPublicKey = 0x05,
  kTagCertificate = 0x06,
  kTagOk = 0x07,
  kTagDetail = 0x08,
  kTagWhat = 0x09,
  kTagTpmQuote = 0x0a,
};

/// A writer whose output starts with the message type byte, so the TLV
/// body is written in place after it. `body_size` pre-sizes the buffer.
pki::TlvWriter typed_writer(MessageType type, std::size_t body_size = 0) {
  pki::TlvWriter w;
  w.reserve(1 + body_size);
  const std::uint8_t type_byte = static_cast<std::uint8_t>(type);
  w.append_encoded(ByteView(&type_byte, 1));
  return w;
}

pki::TlvReader body_reader(ByteView message, MessageType expected) {
  if (message.empty()) throw ParseError("protocol: empty message");
  if (static_cast<MessageType>(message[0]) != expected) {
    throw ProtocolError("protocol: unexpected message type " +
                        std::to_string(message[0]));
  }
  return pki::TlvReader(message.subspan(1));
}

}  // namespace

MessageType peek_type(ByteView message) {
  if (message.empty()) throw ParseError("protocol: empty message");
  return static_cast<MessageType>(message[0]);
}

Bytes encode(const AttestHostRequest& m) {
  pki::TlvWriter w = typed_writer(MessageType::kAttestHostRequest);
  w.add_bytes(kTagNonce, m.nonce);
  return w.take();
}

Bytes encode(const AttestHostResponse& m) {
  using W = pki::TlvWriter;
  pki::TlvWriter w = typed_writer(
      MessageType::kAttestHostResponse,
      W::element_size(m.quote.size()) + W::element_size(m.iml.size()) +
          (m.tpm_quote.empty() ? 0 : W::element_size(m.tpm_quote.size())));
  w.add_bytes(kTagQuote, m.quote);
  w.add_bytes(kTagIml, m.iml);
  if (!m.tpm_quote.empty()) w.add_bytes(kTagTpmQuote, m.tpm_quote);
  return w.take();
}

Bytes encode(const AttestVnfRequest& m) {
  pki::TlvWriter w = typed_writer(MessageType::kAttestVnfRequest);
  w.add_string(kTagVnfName, m.vnf_name);
  w.add_bytes(kTagNonce, m.nonce);
  return w.take();
}

Bytes encode(const AttestVnfResponse& m) {
  pki::TlvWriter w = typed_writer(MessageType::kAttestVnfResponse);
  w.add_bytes(kTagQuote, m.quote);
  w.add_bytes(kTagPublicKey, m.public_key);
  return w.take();
}

Bytes encode(const ProvisionRequest& m) {
  pki::TlvWriter w = typed_writer(MessageType::kProvisionRequest);
  w.add_string(kTagVnfName, m.vnf_name);
  w.add_bytes(kTagCertificate, m.certificate);
  return w.take();
}

Bytes encode(const ProvisionResponse& m) {
  pki::TlvWriter w = typed_writer(MessageType::kProvisionResponse);
  w.add_u8(kTagOk, m.ok ? 1 : 0);
  w.add_string(kTagDetail, m.detail);
  return w.take();
}

Bytes encode(const ErrorMessage& m) {
  pki::TlvWriter w = typed_writer(MessageType::kError);
  w.add_string(kTagWhat, m.what);
  return w.take();
}

AttestHostRequest decode_attest_host_request(ByteView message) {
  auto r = body_reader(message, MessageType::kAttestHostRequest);
  AttestHostRequest m;
  m.nonce = r.expect_array<32>(kTagNonce);
  return m;
}

AttestHostResponse decode_attest_host_response(ByteView message) {
  auto r = body_reader(message, MessageType::kAttestHostResponse);
  AttestHostResponse m;
  m.quote = r.expect_bytes(kTagQuote);
  m.iml = r.expect_bytes(kTagIml);
  if (!r.done()) m.tpm_quote = r.expect_bytes(kTagTpmQuote);
  return m;
}

AttestVnfRequest decode_attest_vnf_request(ByteView message) {
  auto r = body_reader(message, MessageType::kAttestVnfRequest);
  AttestVnfRequest m;
  m.vnf_name = r.expect_string(kTagVnfName);
  m.nonce = r.expect_array<32>(kTagNonce);
  return m;
}

AttestVnfResponse decode_attest_vnf_response(ByteView message) {
  auto r = body_reader(message, MessageType::kAttestVnfResponse);
  AttestVnfResponse m;
  m.quote = r.expect_bytes(kTagQuote);
  m.public_key = r.expect_array<32>(kTagPublicKey);
  return m;
}

ProvisionRequest decode_provision_request(ByteView message) {
  auto r = body_reader(message, MessageType::kProvisionRequest);
  ProvisionRequest m;
  m.vnf_name = r.expect_string(kTagVnfName);
  m.certificate = r.expect_bytes(kTagCertificate);
  return m;
}

ProvisionResponse decode_provision_response(ByteView message) {
  auto r = body_reader(message, MessageType::kProvisionResponse);
  ProvisionResponse m;
  m.ok = r.expect_u8(kTagOk) != 0;
  m.detail = r.expect_string(kTagDetail);
  return m;
}

ErrorMessage decode_error(ByteView message) {
  auto r = body_reader(message, MessageType::kError);
  ErrorMessage m;
  m.what = r.expect_string(kTagWhat);
  return m;
}

}  // namespace vnfsgx::core
