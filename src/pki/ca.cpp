#include "pki/ca.h"

#include <algorithm>

#include "obs/metrics.h"

namespace vnfsgx::pki {

namespace {

obs::Counter& issued_counter(const char* kind) {
  return obs::registry().counter("vnfsgx_ca_certificates_issued_total",
                                 {{"kind", kind}},
                                 "Certificates signed by the CA");
}

obs::Counter& revocation_counter() {
  return obs::registry().counter("vnfsgx_ca_revocations_total", {},
                                 "Serials added to the CRL");
}

}  // namespace

CertificateAuthority::CertificateAuthority(DistinguishedName name,
                                           crypto::RandomSource& rng,
                                           const Clock& clock,
                                           std::int64_t root_validity_seconds)
    : name_(std::move(name)),
      clock_(clock),
      key_(crypto::ed25519_expand_key(crypto::ed25519_generate(rng).seed)) {
  root_cert_.serial = 1;
  root_cert_.subject = name_;
  root_cert_.issuer = name_;
  root_cert_.not_before = clock_.now();
  root_cert_.not_after = clock_.now() + root_validity_seconds;
  root_cert_.public_key = key_.public_key;
  root_cert_.is_ca = true;
  root_cert_.key_usage = static_cast<std::uint8_t>(KeyUsage::kCertSign);
  root_cert_.signature = crypto::ed25519_sign(key_, root_cert_.tbs());
}

std::unique_ptr<CertificateAuthority> CertificateAuthority::subordinate(
    DistinguishedName name, CertificateAuthority& parent,
    crypto::RandomSource& rng, const Clock& clock,
    std::int64_t validity_seconds) {
  auto sub = std::make_unique<CertificateAuthority>(name, rng, clock,
                                                    validity_seconds);
  // Replace the self-signed certificate with one issued by the parent.
  sub->root_cert_ =
      parent.issue_intermediate(name, sub->key_.public_key, validity_seconds);
  return sub;
}

Certificate CertificateAuthority::issue_intermediate(
    const DistinguishedName& subject,
    const crypto::Ed25519PublicKey& subject_key,
    std::int64_t validity_seconds) {
  Certificate cert;
  cert.serial = next_serial_.fetch_add(1, std::memory_order_relaxed);
  cert.subject = subject;
  cert.issuer = name_;
  cert.not_before = clock_.now();
  cert.not_after = clock_.now() + validity_seconds;
  cert.public_key = subject_key;
  cert.is_ca = true;
  cert.key_usage = static_cast<std::uint8_t>(KeyUsage::kCertSign);
  cert.signature = crypto::ed25519_sign(key_, cert.tbs());
  issued_.fetch_add(1, std::memory_order_relaxed);
  issued_counter("intermediate").add();
  return cert;
}

Certificate CertificateAuthority::issue(
    const DistinguishedName& subject,
    const crypto::Ed25519PublicKey& subject_public_key,
    std::uint8_t key_usage, std::int64_t validity_seconds) {
  // Lock-free: the Ed25519 signing dominates issuance cost, and under the
  // old whole-method mutex it serialized every enrolling shard.
  Certificate cert;
  cert.serial = next_serial_.fetch_add(1, std::memory_order_relaxed);
  cert.subject = subject;
  cert.issuer = name_;
  cert.not_before = clock_.now();
  cert.not_after = clock_.now() + validity_seconds;
  cert.public_key = subject_public_key;
  cert.is_ca = false;
  cert.key_usage = key_usage;
  cert.signature = crypto::ed25519_sign(key_, cert.tbs());
  issued_.fetch_add(1, std::memory_order_relaxed);
  issued_counter("leaf").add();
  return cert;
}

RevocationList CertificateAuthority::revoke(std::uint64_t serial) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto pos = std::upper_bound(revoked_.begin(), revoked_.end(), serial);
  if (pos == revoked_.end()) {
    // Common case (serials revoke in roughly issue order): extend the
    // cached TLV block instead of re-encoding the whole set.
    revoked_.push_back(serial);
    const Bytes one = encode_crl_serials({&serial, 1});
    serial_block_.insert(serial_block_.end(), one.begin(), one.end());
  } else {
    revoked_.insert(pos, serial);
    serial_block_ = encode_crl_serials(revoked_);
  }
  revocation_counter().add();
  return build_crl_locked();
}

RevocationList CertificateAuthority::current_crl() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return build_crl_locked();
}

std::uint64_t CertificateAuthority::issued_count() const {
  return issued_.load(std::memory_order_relaxed);
}

RevocationList CertificateAuthority::build_crl_locked() const {
  RevocationList crl;
  crl.issuer = name_;
  crl.this_update = clock_.now();
  crl.revoked_serials = revoked_;
  crl.serials_sorted = true;
  // crl_tbs over the cached block is byte-identical to crl.tbs(), so the
  // signature verifies against a fresh re-encoding on the receiver side.
  crl.signature = crypto::ed25519_sign(
      key_, crl_tbs(name_, crl.this_update, serial_block_));
  return crl;
}

}  // namespace vnfsgx::pki
