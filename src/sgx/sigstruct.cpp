#include "sgx/sigstruct.h"

#include "crypto/sha256.h"
#include "pki/tlv.h"

namespace vnfsgx::sgx {

namespace {
enum : std::uint8_t {
  kTagVendorKey = 0x01,
  kTagMeasurement = 0x02,
  kTagProdId = 0x03,
  kTagSvn = 0x04,
  kTagSignature = 0x05,
  kTagTbs = 0x06,
};
}  // namespace

Bytes SigStruct::tbs() const {
  pki::TlvWriter w;
  w.add_bytes(kTagVendorKey, vendor_public_key);
  w.add_bytes(kTagMeasurement, enclave_measurement);
  w.add_u32(kTagProdId, isv_prod_id);
  w.add_u32(kTagSvn, isv_svn);
  return w.take();
}

Bytes SigStruct::encode() const {
  pki::TlvWriter w;
  w.add_bytes(kTagTbs, tbs());
  w.add_bytes(kTagSignature, signature);
  return w.take();
}

SigStruct SigStruct::decode(ByteView data) {
  pki::TlvReader outer(data);
  const Bytes tbs_bytes = outer.expect_bytes(kTagTbs);
  SigStruct s;
  s.signature = outer.expect_array<64>(kTagSignature);
  if (!outer.done()) throw ParseError("sigstruct: trailing data");

  pki::TlvReader r(tbs_bytes);
  s.vendor_public_key = r.expect_array<32>(kTagVendorKey);
  s.enclave_measurement = r.expect_array<32>(kTagMeasurement);
  s.isv_prod_id = static_cast<std::uint16_t>(r.expect_u32(kTagProdId));
  s.isv_svn = static_cast<std::uint16_t>(r.expect_u32(kTagSvn));
  if (!r.done()) throw ParseError("sigstruct: trailing tbs data");
  return s;
}

bool SigStruct::verify() const {
  return crypto::ed25519_verify(vendor_public_key, tbs(),
                                ByteView(signature.data(), signature.size()));
}

Measurement SigStruct::mr_signer() const {
  return crypto::Sha256::hash(vendor_public_key);
}

SigStruct sign_enclave(const crypto::Ed25519Seed& vendor_seed,
                       const Measurement& measurement,
                       std::uint16_t isv_prod_id, std::uint16_t isv_svn) {
  const crypto::Ed25519SigningKey vendor_key =
      crypto::ed25519_expand_key(vendor_seed);
  SigStruct s;
  s.vendor_public_key = vendor_key.public_key;
  s.enclave_measurement = measurement;
  s.isv_prod_id = isv_prod_id;
  s.isv_svn = isv_svn;
  s.signature = crypto::ed25519_sign(vendor_key, s.tbs());
  return s;
}

}  // namespace vnfsgx::sgx
