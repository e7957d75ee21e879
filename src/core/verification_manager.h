// The Verification Manager — the paper's central component.
//
// Responsibilities (§2):
//  * initiate remote attestation of container hosts (Fig. 1 step 1) and
//    verify quotes with the IAS (step 2), appraising the IMA measurement
//    list against the expected-measurement database;
//  * remotely attest VNF credential enclaves (step 3) and verify their
//    quotes with the IAS (step 4), continuing only on trustworthy hosts;
//  * act as certificate authority: generate client certificates for
//    attested enclaves and provision them (step 5) — the private key is
//    generated inside the enclave, so only the certificate travels;
//  * revoke credentials when a platform stops being trustworthy.
#pragma once

#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "core/appraisal.h"
#include "core/protocol.h"
#include "host/attestation_enclave.h"
#include "ias/http_api.h"
#include "net/stream.h"
#include "obs/span.h"
#include "pki/ca.h"
#include "vnf/credential_enclave.h"

namespace vnfsgx::core {

struct VmOptions {
  pki::DistinguishedName ca_name{"verification-manager", "vnfsgx"};
  std::int64_t credential_validity_seconds = 24 * 3600;
};

struct HostAttestation {
  bool trustworthy = false;
  std::string reason;
  sgx::PlatformId platform_id{};
  ias::QuoteStatus quote_status = ias::QuoteStatus::kMalformed;
  AppraisalResult appraisal;
  std::size_t iml_entries = 0;
  /// §4 extension: true when the IML was cross-checked against an
  /// authenticated TPM PCR-10 quote (only when an AIK is enrolled).
  bool tpm_verified = false;
};

struct VnfAttestation {
  bool trustworthy = false;
  std::string reason;
  crypto::Ed25519PublicKey public_key{};
  sgx::PlatformId platform_id{};
  ias::QuoteStatus quote_status = ias::QuoteStatus::kMalformed;
};

/// One member of a fleet attestation: an open agent channel plus the VNF to
/// attest over it.
struct FleetTarget {
  net::Stream* channel = nullptr;
  std::string vnf_name;
};

class VerificationManager {
 public:
  VerificationManager(crypto::RandomSource& rng, const Clock& clock,
                      ias::IasClient ias, VmOptions options = {});

  pki::CertificateAuthority& ca() { return ca_; }
  const pki::Certificate& ca_certificate() const {
    return ca_.root_certificate();
  }
  AppraisalDatabase& appraisal() { return appraisal_; }

  /// Steps 1-2: host remote attestation over a connected channel to the
  /// host agent. On success the platform is marked trusted.
  HostAttestation attest_host(net::Stream& channel);

  /// §4 extension: enroll the platform's TPM attestation identity key.
  /// Once enrolled, attest_host additionally requires an authenticated
  /// PCR-10 quote whose value matches the delivered IML's aggregate —
  /// closing the "root rewrites the IML before the enclave binds it" gap
  /// the paper's base design leaves open.
  void enroll_platform_aik(const sgx::PlatformId& platform_id,
                           const crypto::Ed25519PublicKey& aik);

  /// Steps 3-4: attest the named VNF's credential enclave. Requires the
  /// hosting platform to have passed attest_host.
  VnfAttestation attest_vnf(net::Stream& channel, const std::string& vnf_name);

  /// Fleet-scale steps 3-4: attest N independent VNF enclaves at once.
  ///
  /// The serial path pays (RPC + IAS round-trip + Ed25519 verify) × N back to
  /// back. Here independent attestations run on a bounded worker set (the
  /// calling thread included; IAS traffic rides the keep-alive pool), each
  /// worker checking its own AVR signature with the pinned IAS key while
  /// the other round trips are in flight. Verdicts are identical to calling
  /// attest_vnf N times; a failure (forged report, transport error) is
  /// reported for its own target only.
  ///
  /// Nonces are drawn serially before workers start (the RandomSource is not
  /// required to be thread-safe). Results are index-aligned with `targets`.
  std::vector<VnfAttestation> attest_fleet(std::span<const FleetTarget> targets,
                                           std::size_t max_workers = 8);

  /// Step 5: generate + sign + provision the client certificate for a
  /// previously attested VNF. Returns nullopt (with reason logged) if the
  /// VNF was not attested or provisioning fails.
  std::optional<pki::Certificate> enroll_vnf(net::Stream& channel,
                                             const std::string& vnf_name,
                                             const std::string& common_name);

  /// Revoke one credential; returns the updated CRL to distribute.
  pki::RevocationList revoke_certificate(std::uint64_t serial);

  /// Host compromise response: distrust the platform and revoke every
  /// credential issued to VNFs on it.
  pki::RevocationList revoke_platform(const sgx::PlatformId& platform_id);

  bool platform_trusted(const sgx::PlatformId& platform_id) const;
  std::vector<sgx::PlatformId> trusted_platforms() const;
  std::vector<std::string> attested_vnf_names() const;

  // Telemetry for tests/benches/examples.
  const ias::IasClient& ias_client() const { return ias_; }
  std::uint64_t hosts_attested() const { return hosts_attested_; }
  std::uint64_t vnfs_attested() const { return vnfs_attested_; }
  std::uint64_t credentials_issued() const { return credentials_issued_; }

 private:
  Bytes rpc(net::Stream& channel, const Bytes& request);
  Nonce fresh_nonce();

  // Protocol bodies; the public wrappers add the Figure-1 span + metrics.
  HostAttestation attest_host_impl(net::Stream& channel, obs::Span& span);
  // Steps 3-4 for one challenge whose nonce the caller drew; attest_vnf and
  // every attest_fleet worker share it, so their verdicts are identical.
  // `span` (null on the fleet path) parents the quote-verification span.
  VnfAttestation attest_vnf_impl(net::Stream& channel,
                                 const AttestVnfRequest& request,
                                 obs::Span* span);
  std::optional<pki::Certificate> enroll_vnf_impl(net::Stream& channel,
                                                  const std::string& vnf_name,
                                                  const std::string& common_name);

  crypto::RandomSource& rng_;
  const Clock& clock_;
  ias::IasClient ias_;
  VmOptions options_;
  pki::CertificateAuthority ca_;
  AppraisalDatabase appraisal_;

  // Reader/writer split: enrollment-plane hot paths (per-connection AIK /
  // attested-VNF / platform-trust lookups) take shared locks and run
  // concurrently across runtime shards; attestation/revocation state
  // changes take the exclusive side.
  mutable std::shared_mutex mutex_;
  std::set<sgx::PlatformId> trusted_platforms_;
  std::map<sgx::PlatformId, crypto::Ed25519VerifyKey> platform_aiks_;
  struct AttestedVnf {
    crypto::Ed25519PublicKey public_key{};
    sgx::PlatformId platform_id{};
  };
  std::map<std::string, AttestedVnf> attested_vnfs_;
  std::map<std::uint64_t, sgx::PlatformId> issued_;  // serial -> platform

  std::uint64_t hosts_attested_ = 0;
  std::uint64_t vnfs_attested_ = 0;
  std::uint64_t credentials_issued_ = 0;
};

}  // namespace vnfsgx::core
