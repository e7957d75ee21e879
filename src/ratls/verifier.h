// Handshake-time RA-TLS appraisal: the pki::AttestedCertVerifier
// implementation TLS truststores delegate to when a peer certificate
// carries the RA-TLS extension.
//
// Appraisal checks (all must pass for kOk; the cheap structural checks run
// before any signature work):
//   1. extension parses (stale/garbage evidence bytes fail here),
//   2. certificate self-signature — proof of key possession,
//   3. report-data <-> public-key binding — the quote speaks for THIS key,
//   4. quote signature under the platform's registered attestation key,
//   5. SIGSTRUCT identity: MRSIGNER == SHA-256(vendor key), ISV prod/SVN
//      consistent between evidence and quote body,
//   6. measurement (MRENCLAVE) allowed by the appraisal policy.
// Any failure maps to VerifyStatus::kAttestationFailed, which the TLS
// layer escalates to a SecurityViolation.
#pragma once

#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "pki/truststore.h"
#include "ratls/evidence.h"
#include "sgx/measurement.h"

namespace vnfsgx::ratls {

/// Trust-anchor callbacks. Function-typed so this module needs no core/ias
/// dependency (core sits above vnf, which links ratls): deployments bind
/// these to IasService platform registrations and the Verification
/// Manager's AppraisalDatabase.
struct VerifierPolicy {
  /// Attestation public key for a platform, from IAS provisioning state;
  /// nullopt for unknown or revoked platforms. Required.
  std::function<std::optional<crypto::Ed25519PublicKey>(
      const sgx::PlatformId&)>
      attestation_key;
  /// Enclave-measurement whitelist (AppraisalDatabase::enclave_allowed).
  /// Required.
  std::function<bool(const sgx::Measurement&)> enclave_allowed;
  /// Appraisal-policy generation backing the truststore cache key
  /// (AppraisalDatabase::generation). Optional; constant 0 when unset.
  std::function<std::uint64_t()> policy_generation;
};

class Verifier final : public pki::AttestedCertVerifier {
 public:
  explicit Verifier(VerifierPolicy policy);

  bool recognizes(const pki::Certificate& leaf) const override;
  pki::VerifyStatus appraise(const pki::Certificate& leaf) const override;
  /// One Ed25519 batch covers every leaf's self-signature and quote
  /// signature (2 items per leaf) — the PR-5 batching reused in-handshake.
  std::vector<pki::VerifyStatus> appraise_batch(
      std::span<const pki::Certificate* const> leaves) const override;
  std::uint64_t policy_generation() const override;

 private:
  /// The checks before any signature work; returns the failure label
  /// ("malformed", "key_binding", ...) or nullptr, plus parsed evidence.
  const char* pre_check(const pki::Certificate& leaf,
                        std::optional<Evidence>& evidence) const;
  /// The checks after the signatures verified; label or nullptr.
  const char* post_check(const Evidence& evidence) const;
  /// The verification key of an attestation key the policy vouched for.
  crypto::Ed25519VerifyKey verify_key_for(
      const crypto::Ed25519PublicKey& attestation_key) const;

  VerifierPolicy policy_;
  /// Verification keys of the attestation keys seen so far, so that each
  /// platform's quotes are checked against its fixed-base table. Keyed by
  /// key bytes: the policy is still asked on every appraisal, so revoking a
  /// platform takes effect at once. Bounded by kMaxAttestationKeys.
  mutable std::mutex keys_mutex_;
  mutable std::map<crypto::Ed25519PublicKey, crypto::Ed25519VerifyKey>
      attestation_keys_;
};

}  // namespace vnfsgx::ratls
