// Certificate revocation list, signed by the issuing CA.
//
// The Verification Manager revokes a VNF's client certificate when the
// platform it runs on stops being trustworthy; the controller consults the
// CRL during trusted-HTTPS client authentication.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/sim_clock.h"
#include "pki/certificate.h"

namespace vnfsgx::pki {

struct RevocationList {
  DistinguishedName issuer;
  UnixTime this_update = 0;
  std::vector<std::uint64_t> revoked_serials;
  crypto::Ed25519Signature signature{};
  /// True when revoked_serials is ascending. The issuing CA keeps its
  /// revocation set sorted and decode() detects sortedness, so is_revoked
  /// binary-searches instead of scanning — the lookup that used to be O(n)
  /// per TLS handshake at 10k revocations.
  bool serials_sorted = false;

  Bytes tbs() const;
  Bytes encode() const;
  static RevocationList decode(ByteView data);

  /// Check the signature against the issuing root's verification key.
  bool verify_signature(const crypto::Ed25519VerifyKey& issuer_key) const;
  bool is_revoked(std::uint64_t serial) const;
};

/// TLV encoding of a serial list as consecutive serial elements — the
/// suffix of a CRL's tbs. Exposed so the CA can cache the block and extend
/// it incrementally across re-signs instead of re-encoding 10k serials on
/// every revocation.
Bytes encode_crl_serials(std::span<const std::uint64_t> serials);

/// Assemble a CRL tbs from header fields plus an already-encoded serial
/// block (byte-identical to RevocationList::tbs()).
Bytes crl_tbs(const DistinguishedName& issuer, UnixTime this_update,
              ByteView serial_block);

}  // namespace vnfsgx::pki
