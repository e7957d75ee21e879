// REST front-end for the IAS simulator, mirroring the shape of the real
// service's /attestation/v4/report endpoint, plus a typed client.
//
// The Verification Manager talks to IAS through this API over the network
// substrate, so the attestation benchmarks include a realistic IAS
// round-trip.
#pragma once

#include <memory>

#include "http/client.h"
#include "http/server.h"
#include "ias/service.h"

namespace vnfsgx::ias {

/// Routes:
///   POST /attestation/v4/report  {"isvEnclaveQuote": "<base64>"}
///     -> 200, AVR JSON body, X-IASReport-Signature header (base64)
///   GET  /attestation/v4/sigrl/<hex platform id> -> revocation flag
http::Router make_ias_router(IasService& service);

/// IasClient::verify_quote's error for a report whose signature does not
/// verify against the pinned key (a forged report or a rogue service).
class ReportSignatureError : public ProtocolError {
 public:
  static constexpr const char* kReason =
      "ias: report signature verification failed";
  ReportSignatureError() : ProtocolError(kReason) {}
};

/// Client wrapper used by the Verification Manager.
///
/// Requests run over a keep-alive connection pool: a fleet attestation's
/// IAS round-trips reuse (and overlap on) up to `max_connections` pooled
/// connections instead of paying a fresh connect per quote. The client is
/// thread-safe; concurrent verifications are bounded by the pool window
/// and surfaced on the vnfsgx_ias_inflight gauge.
class IasClient {
 public:
  /// `connect` opens a stream to the IAS endpoint (invoked only when the
  /// pool has no idle keep-alive connection to reuse).
  using Connect = std::function<net::StreamPtr()>;

  IasClient(Connect connect, crypto::Ed25519PublicKey report_signing_key,
            std::size_t max_connections = 8);

  /// Submit a quote; verifies the AVR signature against the pinned key
  /// before returning. Throws ProtocolError on transport/HTTP errors and
  /// ReportSignatureError on a bad signature.
  VerificationReport verify_quote(ByteView quote_bytes);

  /// Total IAS connections dialed (reconnect meter for tests/benches).
  std::uint64_t connections_dialed() const { return pool_->connects(); }

 private:
  std::shared_ptr<http::ClientPool> pool_;
  crypto::Ed25519VerifyKey report_key_;  // the pinned trust anchor
};

}  // namespace vnfsgx::ias
