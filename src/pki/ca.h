// Certificate authority.
//
// The Verification Manager embeds one of these: it self-signs a root
// certificate at startup, issues short-lived client certificates for
// attested VNF enclaves and a server certificate for the controller, and
// maintains the revocation list.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/sim_clock.h"
#include "crypto/random.h"
#include "pki/certificate.h"
#include "pki/crl.h"

namespace vnfsgx::pki {

class CertificateAuthority {
 public:
  /// Creates the CA keypair and self-signed root certificate.
  CertificateAuthority(DistinguishedName name, crypto::RandomSource& rng,
                       const Clock& clock, std::int64_t root_validity_seconds =
                                               10 * 365 * 24 * 3600);

  /// Create a subordinate CA: its certificate is issued (and signed) by
  /// `parent` instead of self-signed. Used for per-tenant issuance
  /// delegation; verifiers accept its leaves via chain verification.
  /// (unique_ptr: the CA is not movable — it owns a mutex.)
  static std::unique_ptr<CertificateAuthority> subordinate(
      DistinguishedName name, CertificateAuthority& parent,
      crypto::RandomSource& rng, const Clock& clock,
      std::int64_t validity_seconds = 365 * 24 * 3600);

  const Certificate& root_certificate() const { return root_cert_; }
  /// True when this CA's own certificate is self-signed.
  bool is_root() const { return root_cert_.subject == root_cert_.issuer; }

  /// Issue an intermediate-CA certificate for an externally held key.
  Certificate issue_intermediate(const DistinguishedName& subject,
                                 const crypto::Ed25519PublicKey& subject_key,
                                 std::int64_t validity_seconds = 365 * 24 *
                                                                 3600);

  /// Issue a certificate for `subject_public_key`. The CA never sees the
  /// subject's private key (the enclave generates it internally and sends
  /// only the public half — or the VM generates in provisioning mode).
  Certificate issue(const DistinguishedName& subject,
                    const crypto::Ed25519PublicKey& subject_public_key,
                    std::uint8_t key_usage,
                    std::int64_t validity_seconds = 24 * 3600);

  /// Add a serial to the revocation set and return the re-signed CRL.
  RevocationList revoke(std::uint64_t serial);

  /// Current signed CRL.
  RevocationList current_crl() const;

  /// Number of certificates issued so far.
  std::uint64_t issued_count() const;

 private:
  RevocationList build_crl_locked() const;

  // issue()/issue_intermediate() are lock-free: name_/key_ are immutable
  // after construction (subordinate() rewrites root_cert_ before any
  // concurrent use), the clock is thread-safe (SimClock is atomic), and
  // a serial is one atomic increment. mutex_ only guards the revocation
  // state.
  mutable std::mutex mutex_;
  DistinguishedName name_;
  const Clock& clock_;
  crypto::Ed25519SigningKey key_;  // expanded once at construction
  Certificate root_cert_;
  std::atomic<std::uint64_t> next_serial_{2};  // 1 is the root
  std::atomic<std::uint64_t> issued_{0};
  std::vector<std::uint64_t> revoked_;  // kept ascending (CRL binary search)
  // Cached encode_crl_serials(revoked_): serials revoke in roughly issue
  // order, so each re-sign appends one TLV element instead of re-encoding
  // the whole (possibly 10k-entry) set.
  Bytes serial_block_;
};

}  // namespace vnfsgx::pki
