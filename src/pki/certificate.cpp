#include "pki/certificate.h"

#include "common/hex.h"
#include "crypto/sha256.h"
#include "pki/tlv.h"

namespace vnfsgx::pki {

namespace {
// TLV tags for certificate fields.
enum : std::uint8_t {
  kTagSerial = 0x01,
  kTagSubjectCn = 0x02,
  kTagSubjectOrg = 0x03,
  kTagIssuerCn = 0x04,
  kTagIssuerOrg = 0x05,
  kTagNotBefore = 0x06,
  kTagNotAfter = 0x07,
  kTagPublicKey = 0x08,
  kTagIsCa = 0x09,
  kTagKeyUsage = 0x0a,
  kTagSignature = 0x0b,
  kTagTbs = 0x0c,
  kTagExtension = 0x0d,
};

// Tags inside a kTagExtension value.
enum : std::uint8_t {
  kTagExtensionId = 0x01,
  kTagExtensionValue = 0x02,
};
}  // namespace

Bytes Certificate::tbs() const {
  TlvWriter w;
  w.add_u64(kTagSerial, serial);
  w.add_string(kTagSubjectCn, subject.common_name);
  w.add_string(kTagSubjectOrg, subject.organization);
  w.add_string(kTagIssuerCn, issuer.common_name);
  w.add_string(kTagIssuerOrg, issuer.organization);
  w.add_u64(kTagNotBefore, static_cast<std::uint64_t>(not_before));
  w.add_u64(kTagNotAfter, static_cast<std::uint64_t>(not_after));
  w.add_bytes(kTagPublicKey, public_key);
  w.add_u8(kTagIsCa, is_ca ? 1 : 0);
  w.add_u8(kTagKeyUsage, key_usage);
  for (const CertificateExtension& ext : extensions) {
    TlvWriter e;
    e.add_u32(kTagExtensionId, ext.id);
    e.add_bytes(kTagExtensionValue, ext.value);
    w.add_bytes(kTagExtension, e.bytes());
  }
  return w.take();
}

Bytes Certificate::encode() const {
  TlvWriter w;
  w.add_bytes(kTagTbs, tbs());
  w.add_bytes(kTagSignature, signature);
  return w.take();
}

Certificate Certificate::decode(ByteView data) {
  TlvReader outer(data);
  const Bytes tbs_bytes = outer.expect_bytes(kTagTbs);
  Certificate cert;
  cert.signature = outer.expect_array<crypto::kEd25519SignatureSize>(kTagSignature);
  if (!outer.done()) throw ParseError("certificate: trailing data");

  TlvReader r(tbs_bytes);
  cert.serial = r.expect_u64(kTagSerial);
  cert.subject.common_name = r.expect_string(kTagSubjectCn);
  cert.subject.organization = r.expect_string(kTagSubjectOrg);
  cert.issuer.common_name = r.expect_string(kTagIssuerCn);
  cert.issuer.organization = r.expect_string(kTagIssuerOrg);
  cert.not_before = static_cast<UnixTime>(r.expect_u64(kTagNotBefore));
  cert.not_after = static_cast<UnixTime>(r.expect_u64(kTagNotAfter));
  cert.public_key = r.expect_array<crypto::kEd25519PublicKeySize>(kTagPublicKey);
  cert.is_ca = r.expect_u8(kTagIsCa) != 0;
  cert.key_usage = r.expect_u8(kTagKeyUsage);
  // Extensions: order and raw value bytes are preserved, so re-encoding a
  // parsed certificate reproduces the signed bytes exactly even when the
  // extension ids mean nothing to this validator (ignore-unknown).
  while (!r.done() && r.peek_tag() == kTagExtension) {
    TlvReader e(r.expect(kTagExtension));
    CertificateExtension ext;
    ext.id = e.expect_u32(kTagExtensionId);
    ext.value = e.expect_bytes(kTagExtensionValue);
    if (!e.done()) throw ParseError("certificate: trailing extension data");
    cert.extensions.push_back(std::move(ext));
  }
  if (!r.done()) throw ParseError("certificate: trailing tbs data");
  return cert;
}

const CertificateExtension* Certificate::find_extension(
    std::uint32_t id) const {
  for (const CertificateExtension& ext : extensions) {
    if (ext.id == id) return &ext;
  }
  return nullptr;
}

bool Certificate::verify_signature(
    const crypto::Ed25519PublicKey& issuer_key) const {
  return crypto::ed25519_verify(issuer_key, tbs(),
                                ByteView(signature.data(), signature.size()));
}

bool Certificate::verify_signature(
    const crypto::Ed25519VerifyKey& issuer_key) const {
  return issuer_key.verify(tbs(), ByteView(signature.data(), signature.size()));
}

std::string Certificate::fingerprint() const {
  return to_hex(crypto::sha256(encode()));
}

}  // namespace vnfsgx::pki
