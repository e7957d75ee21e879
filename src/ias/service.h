// Intel Attestation Service simulator.
//
// Reproduces the IAS contract the paper's Verification Manager depends on
// (steps 2 and 4 of Figure 1): platforms join an attestation group during
// provisioning (EPID join, modelled as registering the platform's
// attestation public key), verifiers submit quotes, and the service
// answers with a *signed* Attestation Verification Report whose status
// reflects signature validity and the signature revocation list.
#pragma once

#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "common/sim_clock.h"
#include "crypto/ed25519.h"
#include "crypto/random.h"
#include "json/json.h"
#include "sgx/structs.h"

namespace vnfsgx::ias {

enum class QuoteStatus {
  kOk,
  kSignatureInvalid,
  kGroupRevoked,
  kUnknownPlatform,
  kMalformed,
};

std::string to_string(QuoteStatus status);

/// What a verifier checks in a report, from one parse of its body.
struct ReportFields {
  QuoteStatus status = QuoteStatus::kMalformed;
  /// The echoed quote; nullopt when its bytes do not decode (the service
  /// echoes a malformed quote as it was submitted).
  std::optional<sgx::Quote> quote;
};

/// Signed attestation verification report (the IAS response: a JSON body
/// plus a detached signature, like the X-IASReport-Signature header).
struct VerificationReport {
  std::string body_json;
  crypto::Ed25519Signature signature{};

  /// status(), quoted_enclave() and platform_id() from one parse.
  ReportFields fields() const;

  /// Parsed accessors over body_json; each parses it again.
  QuoteStatus status() const;
  std::string report_id() const;
  UnixTime timestamp() const;
  /// The quote body IAS verified, echoed base64-encoded in the report.
  sgx::ReportBody quoted_enclave() const;
  sgx::PlatformId platform_id() const;

  /// Verify the report signature against the pinned IAS signing key.
  bool verify(const crypto::Ed25519VerifyKey& ias_key) const;
};

class IasService {
 public:
  IasService(crypto::RandomSource& rng, const Clock& clock);

  /// EPID join: performed once per platform during provisioning.
  void register_platform(const sgx::PlatformId& id,
                         const crypto::Ed25519PublicKey& attestation_key);

  /// Add the platform to the signature revocation list.
  void revoke_platform(const sgx::PlatformId& id);
  bool is_revoked(const sgx::PlatformId& id) const;

  /// The attestation key registered for a platform, or nullopt when the
  /// platform is unknown or revoked. This is the trust-anchor lookup RA-TLS
  /// verifiers bind into their policy: quote appraisal happens at the
  /// relying party instead of a verify_quote round trip to the service.
  std::optional<crypto::Ed25519PublicKey> attestation_key(
      const sgx::PlatformId& id) const;

  /// Verify an encoded quote; always returns a signed report (errors are
  /// reported in the status field, as the real service does).
  VerificationReport verify_quote(ByteView quote_bytes);

  /// The report-signing public key (stand-in for the IAS report-signing
  /// certificate verifiers pin).
  const crypto::Ed25519PublicKey& report_signing_key() const {
    return signing_key_.public_key;
  }

  std::uint64_t reports_issued() const;

 private:
  VerificationReport sign_report(QuoteStatus status, ByteView quote_bytes,
                                 const sgx::Quote* quote);

  mutable std::mutex mutex_;
  crypto::RandomSource& rng_;
  const Clock& clock_;
  crypto::Ed25519SigningKey signing_key_;  // expanded once at construction
  // Registered attestation keys: trust anchors of every quote check.
  std::map<sgx::PlatformId, crypto::Ed25519VerifyKey> platforms_;
  std::map<sgx::PlatformId, bool> revoked_;
  std::uint64_t next_report_id_ = 1;
};

}  // namespace vnfsgx::ias
