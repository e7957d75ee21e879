#include "ima/tpm.h"

#include "common/error.h"
#include "crypto/sha256.h"
#include "pki/tlv.h"

namespace vnfsgx::ima {

namespace {
enum : std::uint8_t {
  kTagPcrIndex = 0x01,
  kTagPcrValue = 0x02,
  kTagNonce = 0x03,
  kTagSignature = 0x04,
  kTagTbs = 0x05,
};
}  // namespace

Bytes TpmQuote::tbs() const {
  pki::TlvWriter w;
  w.add_u32(kTagPcrIndex, pcr_index);
  w.add_bytes(kTagPcrValue, pcr_value);
  w.add_bytes(kTagNonce, nonce);
  return w.take();
}

Bytes TpmQuote::encode() const {
  pki::TlvWriter w;
  w.add_bytes(kTagTbs, tbs());
  w.add_bytes(kTagSignature, signature);
  return w.take();
}

TpmQuote TpmQuote::decode(ByteView data) {
  pki::TlvReader outer(data);
  const Bytes tbs_bytes = outer.expect_bytes(kTagTbs);
  TpmQuote q;
  q.signature = outer.expect_array<64>(kTagSignature);
  if (!outer.done()) throw ParseError("tpm quote: trailing data");

  pki::TlvReader r(tbs_bytes);
  q.pcr_index = r.expect_u32(kTagPcrIndex);
  q.pcr_value = r.expect_array<32>(kTagPcrValue);
  q.nonce = r.expect_array<32>(kTagNonce);
  if (!r.done()) throw ParseError("tpm quote: trailing tbs data");
  return q;
}

bool TpmQuote::verify(const crypto::Ed25519VerifyKey& aik) const {
  return aik.verify(tbs(), ByteView(signature.data(), signature.size()));
}

Tpm::Tpm(crypto::RandomSource& rng)
    : aik_(crypto::ed25519_expand_key(crypto::ed25519_generate(rng).seed)) {}

void Tpm::extend(std::uint32_t pcr_index, ByteView digest) {
  if (pcr_index >= kTpmPcrCount) throw Error("tpm: PCR index out of range");
  const std::lock_guard<std::mutex> lock(mutex_);
  crypto::Sha256 h;
  h.update(pcrs_[pcr_index]);
  h.update(digest);
  pcrs_[pcr_index] = h.finish();
}

Pcr Tpm::read(std::uint32_t pcr_index) const {
  if (pcr_index >= kTpmPcrCount) throw Error("tpm: PCR index out of range");
  const std::lock_guard<std::mutex> lock(mutex_);
  return pcrs_[pcr_index];
}

TpmQuote Tpm::quote(std::uint32_t pcr_index,
                    const std::array<std::uint8_t, 32>& nonce) const {
  TpmQuote q;
  q.pcr_index = pcr_index;
  q.pcr_value = read(pcr_index);
  q.nonce = nonce;
  q.signature = crypto::ed25519_sign(aik_, q.tbs());
  return q;
}

}  // namespace vnfsgx::ima
