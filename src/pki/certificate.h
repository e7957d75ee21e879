// X.509-lite certificates with Ed25519 signatures.
//
// Models exactly what the paper's workflow needs: the Verification Manager
// acts as a certificate authority, issues client certificates to attested
// VNF enclaves, and the controller validates the CA signature instead of
// maintaining a per-client keystore (§3 of the paper).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/sim_clock.h"
#include "crypto/ed25519.h"

namespace vnfsgx::pki {

struct DistinguishedName {
  std::string common_name;
  std::string organization;

  bool operator==(const DistinguishedName&) const = default;
  std::string to_string() const {
    return "CN=" + common_name + (organization.empty() ? "" : ",O=" + organization);
  }
};

enum class KeyUsage : std::uint8_t {
  kClientAuth = 1,
  kServerAuth = 2,
  kCertSign = 4,
};

/// An opaque X.509-style extension: a numeric id plus raw value bytes.
/// Extensions are part of the signed (TBS) portion. Validators ignore
/// extensions they do not recognize, and decode preserves order and raw
/// bytes, so a certificate carrying an unknown extension round-trips
/// parse -> re-encode byte-identically (old peers can forward RA-TLS
/// certificates without understanding them).
struct CertificateExtension {
  std::uint32_t id = 0;
  Bytes value;

  bool operator==(const CertificateExtension&) const = default;
};

struct Certificate {
  std::uint64_t serial = 0;
  DistinguishedName subject;
  DistinguishedName issuer;
  UnixTime not_before = 0;
  UnixTime not_after = 0;
  crypto::Ed25519PublicKey public_key{};
  bool is_ca = false;
  std::uint8_t key_usage = 0;  // OR of KeyUsage bits
  /// Signed extensions, in encoding order (empty for most certificates;
  /// certificates without extensions encode exactly as before they existed).
  std::vector<CertificateExtension> extensions;
  crypto::Ed25519Signature signature{};

  /// The to-be-signed portion (everything except the signature).
  Bytes tbs() const;
  /// Full wire encoding.
  Bytes encode() const;
  static Certificate decode(ByteView data);

  /// Check this certificate's signature against an issuer public key.
  bool verify_signature(const crypto::Ed25519PublicKey& issuer_key) const;
  /// The same check against a trust anchor's verification key.
  bool verify_signature(const crypto::Ed25519VerifyKey& issuer_key) const;

  /// Validity window test.
  bool valid_at(UnixTime now) const {
    return now >= not_before && now <= not_after;
  }

  bool allows(KeyUsage usage) const {
    return (key_usage & static_cast<std::uint8_t>(usage)) != 0;
  }

  /// First extension with the given id, or nullptr.
  const CertificateExtension* find_extension(std::uint32_t id) const;

  /// Stable identifier: hex SHA-256 of the encoding (like a cert fingerprint).
  std::string fingerprint() const;

  bool operator==(const Certificate&) const = default;
};

}  // namespace vnfsgx::pki
