#include "pki/crl.h"

#include <algorithm>

#include "pki/tlv.h"

namespace vnfsgx::pki {

namespace {
enum : std::uint8_t {
  kTagIssuerCn = 0x01,
  kTagIssuerOrg = 0x02,
  kTagThisUpdate = 0x03,
  kTagSerial = 0x04,
  kTagSignature = 0x05,
  kTagTbs = 0x06,
};
}  // namespace

Bytes encode_crl_serials(std::span<const std::uint64_t> serials) {
  TlvWriter w;
  for (const std::uint64_t serial : serials) {
    w.add_u64(kTagSerial, serial);
  }
  return w.take();
}

Bytes crl_tbs(const DistinguishedName& issuer, UnixTime this_update,
              ByteView serial_block) {
  TlvWriter w;
  w.add_string(kTagIssuerCn, issuer.common_name);
  w.add_string(kTagIssuerOrg, issuer.organization);
  w.add_u64(kTagThisUpdate, static_cast<std::uint64_t>(this_update));
  w.append_encoded(serial_block);
  return w.take();
}

Bytes RevocationList::tbs() const {
  return crl_tbs(issuer, this_update, encode_crl_serials(revoked_serials));
}

Bytes RevocationList::encode() const {
  TlvWriter w;
  w.add_bytes(kTagTbs, tbs());
  w.add_bytes(kTagSignature, signature);
  return w.take();
}

RevocationList RevocationList::decode(ByteView data) {
  TlvReader outer(data);
  const Bytes tbs_bytes = outer.expect_bytes(kTagTbs);
  RevocationList crl;
  crl.signature = outer.expect_array<crypto::kEd25519SignatureSize>(kTagSignature);
  if (!outer.done()) throw ParseError("crl: trailing data");

  TlvReader r(tbs_bytes);
  crl.issuer.common_name = r.expect_string(kTagIssuerCn);
  crl.issuer.organization = r.expect_string(kTagIssuerOrg);
  crl.this_update = static_cast<UnixTime>(r.expect_u64(kTagThisUpdate));
  while (!r.done()) {
    crl.revoked_serials.push_back(r.expect_u64(kTagSerial));
  }
  crl.serials_sorted =
      std::is_sorted(crl.revoked_serials.begin(), crl.revoked_serials.end());
  return crl;
}

bool RevocationList::verify_signature(
    const crypto::Ed25519VerifyKey& issuer_key) const {
  return issuer_key.verify(tbs(), ByteView(signature.data(), signature.size()));
}

bool RevocationList::is_revoked(std::uint64_t serial) const {
  if (serials_sorted) {
    return std::binary_search(revoked_serials.begin(), revoked_serials.end(),
                              serial);
  }
  return std::find(revoked_serials.begin(), revoked_serials.end(), serial) !=
         revoked_serials.end();
}

}  // namespace vnfsgx::pki
