#include "tls/session.h"

#include <cstring>

#include "common/error.h"
#include "common/logging.h"
#include "crypto/ct.h"
#include "crypto/gcm.h"
#include "crypto/hmac.h"
#include "crypto/x25519.h"
#include "net/buffer_pool.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "pki/tlv.h"

namespace vnfsgx::tls {

namespace {

enum class HsType : std::uint8_t {
  kClientHello = 1,
  kServerHello = 2,
  kNewSessionTicket = 4,
  kCertificateRequest = 13,
  kCertificate = 11,
  kCertificateVerify = 15,
  kFinished = 20,
};

enum class AlertCode : std::uint8_t {
  kCloseNotify = 0,
  kHandshakeFailure = 40,
  kBadCertificate = 42,
  kCertificateRevoked = 44,
  kCertificateExpired = 45,
  kCertificateUnknown = 46,
  kDecryptError = 51,
  kCertificateRequired = 116,
};

Bytes hs_message(HsType type, ByteView body) {
  Bytes msg;
  append_u8(msg, static_cast<std::uint8_t>(type));
  append_u24(msg, static_cast<std::uint32_t>(body.size()));
  append(msg, body);
  return msg;
}

/// Signature context for CertificateVerify (RFC 8446 §4.4.3 shape).
Bytes certificate_verify_content(bool server, ByteView transcript_hash) {
  Bytes content;
  content.reserve(64 + 40 + 1 + transcript_hash.size());
  content.assign(64, 0x20);
  const std::string_view label = server
                                     ? "TLS 1.3, server CertificateVerify"
                                     : "TLS 1.3, client CertificateVerify";
  append(content, label);
  append_u8(content, 0);
  append(content, transcript_hash);
  return content;
}

AlertCode alert_for(pki::VerifyStatus status) {
  switch (status) {
    case pki::VerifyStatus::kExpired:
    case pki::VerifyStatus::kNotYetValid:
      return AlertCode::kCertificateExpired;
    case pki::VerifyStatus::kRevoked:
      return AlertCode::kCertificateRevoked;
    case pki::VerifyStatus::kUnknownIssuer:
      return AlertCode::kCertificateUnknown;
    case pki::VerifyStatus::kAttestationFailed:
    default:
      return AlertCode::kBadCertificate;
  }
}

// ---------------------------------------------------------------------------
// Session tickets: server-encrypted resumption state.
// ---------------------------------------------------------------------------

enum : std::uint8_t {
  kTagResumptionSecret = 0x01,
  kTagIdentity = 0x02,
  kTagSerial = 0x03,
  kTagExpiry = 0x04,
  kTagAttested = 0x05,
};

struct TicketPlaintext {
  SecureBytes resumption_secret;
  std::string identity;        // authenticated client CN ("" = anonymous)
  std::uint64_t serial = 0;    // client certificate serial (0 = none)
  UnixTime expiry = 0;
  bool attested = false;       // original handshake verified RA-TLS evidence
};

Bytes seal_ticket(const TicketKey& key, const TicketPlaintext& plain,
                  crypto::RandomSource& rng) {
  pki::TlvWriter w;
  w.add_bytes(kTagResumptionSecret, plain.resumption_secret);
  w.add_string(kTagIdentity, plain.identity);
  w.add_u64(kTagSerial, plain.serial);
  w.add_u64(kTagExpiry, static_cast<std::uint64_t>(plain.expiry));
  w.add_u8(kTagAttested, plain.attested ? 1 : 0);

  Bytes nonce(12);
  rng.fill(nonce);
  const crypto::AesGcm aead(key.key);
  Bytes out = nonce;
  const Bytes sealed = aead.seal(nonce, w.bytes(), to_bytes("session-ticket"));
  append(out, sealed);
  return out;
}

std::optional<TicketPlaintext> open_ticket(const TicketKey& key,
                                           ByteView ticket) {
  if (ticket.size() < 12 + crypto::kGcmTagSize) return std::nullopt;
  const crypto::AesGcm aead(key.key);
  const auto plain = aead.open(ticket.subspan(0, 12), ticket.subspan(12),
                               to_bytes("session-ticket"));
  if (!plain) return std::nullopt;
  try {
    pki::TlvReader r(*plain);
    TicketPlaintext t;
    t.resumption_secret = r.expect_bytes(kTagResumptionSecret);
    t.identity = r.expect_string(kTagIdentity);
    t.serial = r.expect_u64(kTagSerial);
    t.expiry = static_cast<UnixTime>(r.expect_u64(kTagExpiry));
    t.attested = r.expect_u8(kTagAttested) != 0;
    return t;
  } catch (const ParseError&) {
    return std::nullopt;
  }
}

/// Binder proves PSK possession over the offer contents.
Bytes compute_binder(const KeySchedule& schedule, ByteView random,
                     const crypto::X25519Key& share, ByteView ticket) {
  Bytes data;
  append(data, random);
  append(data, ByteView(share.data(), share.size()));
  append(data, ticket);
  return crypto::hmac_sha256(schedule.binder_key(), data);
}

}  // namespace

// ---------------------------------------------------------------------------
// Handshake driver shared by both sides.
// ---------------------------------------------------------------------------

struct Session::Handshaker {
  net::Stream& stream;
  const Config& config;
  Transcript transcript;
  KeySchedule schedule;

  std::optional<RecordProtection> read_protection;
  std::optional<RecordProtection> write_protection;
  Bytes pending_handshake;  // coalesced handshake bytes not yet consumed
  Bytes wire_scratch;       // reused wire-record buffer for protect_into
  std::size_t pending_pos = 0;

  explicit Handshaker(net::Stream& s, const Config& c) : stream(s), config(c) {
    if (!c.clock || !c.rng) {
      throw Error("tls: config requires clock and rng");
    }
  }

  [[noreturn]] void fail(AlertCode code, const std::string& why) {
    try {
      Record alert;
      alert.type = ContentType::kAlert;
      append_u8(alert.payload, 2);  // fatal
      append_u8(alert.payload, static_cast<std::uint8_t>(code));
      if (write_protection) {
        write_protection->protect_into(alert.type, alert.payload, wire_scratch);
        stream.write(wire_scratch);
      } else {
        write_record(stream, alert);
      }
    } catch (...) {
      // Best effort; the transport may already be gone.
    }
    throw ProtocolError("tls: " + why);
  }

  /// Attestation-policy failures alert like fail() but throw
  /// SecurityViolation: a rejected quote or a downgrade attempt is an
  /// attack signal, not a protocol hiccup.
  [[noreturn]] void fail_security(AlertCode code, const std::string& why) {
    try {
      fail(code, why);
    } catch (const ProtocolError&) {
      throw SecurityViolation("tls: " + why);
    }
  }

  void send_handshake(HsType type, ByteView body) {
    const Bytes msg = hs_message(type, body);
    transcript.add(msg);
    if (write_protection) {
      write_protection->protect_into(ContentType::kHandshake, msg, wire_scratch);
      stream.write(wire_scratch);
    } else {
      write_record(stream, Record{ContentType::kHandshake, msg});
    }
  }

  std::pair<HsType, Bytes> next_handshake() {
    while (pending_handshake.size() - pending_pos < 4) {
      refill();
    }
    const std::uint8_t type = pending_handshake[pending_pos];
    const std::uint32_t len = read_u24(pending_handshake, pending_pos + 1);
    while (pending_handshake.size() - pending_pos < 4 + len) {
      refill();
    }
    const ByteView full(pending_handshake.data() + pending_pos, 4 + len);
    transcript.add(full);
    Bytes body(pending_handshake.begin() +
                   static_cast<std::ptrdiff_t>(pending_pos + 4),
               pending_handshake.begin() +
                   static_cast<std::ptrdiff_t>(pending_pos + 4 + len));
    pending_pos += 4 + len;
    if (pending_pos == pending_handshake.size()) {
      pending_handshake.clear();
      pending_pos = 0;
    }
    return {static_cast<HsType>(type), std::move(body)};
  }

  void refill() {
    auto record = read_record(stream);
    if (!record) fail(AlertCode::kHandshakeFailure, "peer closed mid-handshake");
    if (read_protection) {
      record->type =
          read_protection->unprotect_in_place(record->type, record->payload);
    }
    if (record->type == ContentType::kAlert) {
      throw ProtocolError("tls: peer sent alert during handshake");
    }
    if (record->type != ContentType::kHandshake) {
      fail(AlertCode::kHandshakeFailure, "unexpected record during handshake");
    }
    append(pending_handshake, record->payload);
  }

  Bytes expect(HsType want) {
    auto [type, body] = next_handshake();
    if (type != want) {
      fail(AlertCode::kHandshakeFailure,
           "unexpected handshake message type " +
               std::to_string(static_cast<int>(type)));
    }
    return std::move(body);
  }

  // -- message bodies -------------------------------------------------------

  /// ClientHello: random(32) || share(32) || u16 ticket_len ||
  ///              [ticket bytes || binder(32)]
  static Bytes client_hello_body(ByteView random, const crypto::X25519Key& share,
                                 ByteView ticket, ByteView binder) {
    Bytes body;
    append(body, random);
    append(body, ByteView(share.data(), share.size()));
    append_u16(body, static_cast<std::uint16_t>(ticket.size()));
    if (!ticket.empty()) {
      append(body, ticket);
      append(body, binder);
    }
    return body;
  }

  struct ClientHello {
    crypto::X25519Key share{};
    Bytes random;
    Bytes ticket;
    Bytes binder;
  };

  static ClientHello parse_client_hello(ByteView body) {
    if (body.size() < 66) throw ParseError("tls: short ClientHello");
    ClientHello ch;
    ch.random = Bytes(body.begin(), body.begin() + 32);
    std::copy(body.begin() + 32, body.begin() + 64, ch.share.begin());
    const std::uint16_t ticket_len = read_u16(body, 64);
    if (ticket_len > 0) {
      if (body.size() != 66u + ticket_len + 32u) {
        throw ParseError("tls: bad ClientHello PSK offer");
      }
      ch.ticket = Bytes(body.begin() + 66,
                        body.begin() + 66 + ticket_len);
      ch.binder = Bytes(body.begin() + 66 + ticket_len, body.end());
    } else if (body.size() != 66) {
      throw ParseError("tls: trailing ClientHello data");
    }
    return ch;
  }

  /// ServerHello: random(32) || share(32) || u8 resumed.
  static Bytes server_hello_body(ByteView random,
                                 const crypto::X25519Key& share, bool resumed) {
    Bytes body;
    append(body, random);
    append(body, ByteView(share.data(), share.size()));
    append_u8(body, resumed ? 1 : 0);
    return body;
  }

  struct ServerHello {
    crypto::X25519Key share{};
    bool resumed = false;
  };

  static ServerHello parse_server_hello(ByteView body) {
    if (body.size() != 65) throw ParseError("tls: bad ServerHello");
    ServerHello sh;
    std::copy(body.begin() + 32, body.begin() + 64, sh.share.begin());
    sh.resumed = body[64] != 0;
    return sh;
  }

  void send_certificate() {
    if (!config.certificate || !config.signer) {
      fail(AlertCode::kHandshakeFailure, "no local certificate configured");
    }
    send_handshake(HsType::kCertificate, config.certificate->encode());
  }

  void send_certificate_verify(bool server) {
    const Bytes content =
        certificate_verify_content(server, transcript.digest());
    const auto sig = config.signer(content);
    send_handshake(HsType::kCertificateVerify, ByteView(sig.data(), sig.size()));
  }

  struct VerifiedCert {
    pki::Certificate cert;
    bool attested = false;
  };

  VerifiedCert receive_certificate(pki::KeyUsage usage) {
    const Bytes body = expect(HsType::kCertificate);
    pki::Certificate cert;
    try {
      cert = pki::Certificate::decode(body);
    } catch (const ParseError&) {
      fail(AlertCode::kBadCertificate, "undecodable certificate");
    }
    if (!config.truststore) {
      fail(AlertCode::kCertificateUnknown, "no truststore configured");
    }
    const auto result = config.truststore->verify(cert, usage,
                                                  config.clock->now());
    if (result.status == pki::VerifyStatus::kAttestationFailed) {
      fail_security(alert_for(result.status),
                    "peer attestation evidence rejected");
    }
    if (!result.ok()) {
      fail(alert_for(result.status),
           "peer certificate rejected: " + pki::to_string(result.status));
    }
    if (config.require_attested_peer && !result.attested) {
      // Downgrade attempt: a valid but unattested certificate where policy
      // demands in-handshake attestation.
      fail_security(AlertCode::kBadCertificate,
                    "peer presented an unattested certificate where policy "
                    "requires attestation");
    }
    return {std::move(cert), result.attested};
  }

  void receive_certificate_verify(bool peer_is_server,
                                  const pki::Certificate& peer_cert,
                                  ByteView transcript_before) {
    const Bytes sig = expect(HsType::kCertificateVerify);
    const Bytes content =
        certificate_verify_content(peer_is_server, transcript_before);
    if (!crypto::ed25519_verify(peer_cert.public_key, content, sig)) {
      fail(AlertCode::kDecryptError, "CertificateVerify signature invalid");
    }
  }

  void send_finished(ByteView traffic_secret) {
    const Bytes mac =
        KeySchedule::finished_mac(traffic_secret, transcript.digest());
    send_handshake(HsType::kFinished, mac);
  }

  void receive_finished(ByteView traffic_secret) {
    const Bytes expected_mac =
        KeySchedule::finished_mac(traffic_secret, transcript.digest());
    const Bytes mac = expect(HsType::kFinished);
    if (!crypto::ct_equal(expected_mac, mac)) {
      fail(AlertCode::kDecryptError, "Finished verification failed");
    }
  }
};

// ---------------------------------------------------------------------------
// Handshake instrumentation.
// ---------------------------------------------------------------------------

namespace {

using HandshakeFn = std::unique_ptr<Session> (*)(net::StreamPtr,
                                                 const Config&);

/// One role's handshake instruments, registered at its first handshake and
/// cached: a handshake looks nothing up in the metrics registry.
struct HandshakeMeters {
  explicit HandshakeMeters(const char* role)
      : duration(obs::registry().histogram(
            "vnfsgx_tls_handshake_duration_us", {{"role", role}}, {},
            "TLS handshake wall time (Figure-1 step 6)")),
        full(outcome(role, "full", "ok")),
        resumed(outcome(role, "resumed", "ok")),
        failed(outcome(role, "unknown", "fail")) {}

  static obs::Counter& outcome(const char* role, const char* kind,
                               const char* result) {
    return obs::registry().counter(
        "vnfsgx_tls_handshakes_total",
        {{"role", role}, {"kind", kind}, {"result", result}},
        "TLS handshake outcomes");
  }

  obs::Histogram& duration;
  obs::Counter& full;
  obs::Counter& resumed;
  obs::Counter& failed;
};

/// Step-6 span + handshake counters/latency. Only the handshake pays for
/// observability here — the record path (Session::write/read) adds nothing
/// beyond cached relaxed counter adds, keeping hot-path overhead flat.
std::unique_ptr<Session> handshake_instrumented(const char* role,
                                                HandshakeMeters& meters,
                                                net::StreamPtr transport,
                                                const Config& config,
                                                HandshakeFn fn) {
  obs::Span span =
      obs::tracer().start_span("tls_handshake", obs::kStepSecureChannel);
  span.annotate("role", role);
  try {
    std::unique_ptr<Session> session = fn(std::move(transport), config);
    const bool resumed = session->resumed();
    span.annotate("kind", resumed ? "resumed" : "full");
    span.end();
    meters.duration.observe(span.elapsed_us());
    (resumed ? meters.resumed : meters.full).add();
    return session;
  } catch (...) {
    span.annotate("result", "fail");
    meters.failed.add();
    throw;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Client handshake.
// ---------------------------------------------------------------------------

std::unique_ptr<Session> Session::connect(net::StreamPtr transport,
                                          const Config& config) {
  static HandshakeMeters meters("client");
  return handshake_instrumented("client", meters, std::move(transport), config,
                                &Session::connect_impl);
}

std::unique_ptr<Session> Session::connect_impl(net::StreamPtr transport,
                                               const Config& config) {
  Handshaker hs(*transport, config);
  if (!config.truststore) {
    throw Error("tls: client requires a truststore");
  }

  // PSK offer? Never when attestation is required: resumption would skip
  // the certificate exchange and with it the evidence re-appraisal.
  const bool offering = config.resumption && config.resumption->valid() &&
                        !config.require_attested_peer;
  if (offering) {
    hs.schedule = KeySchedule(config.resumption->resumption_secret);
  }

  // ClientHello.
  const auto kex = crypto::x25519_generate(*config.rng);
  const Bytes client_random = config.rng->bytes(32);
  Bytes binder;
  if (offering) {
    binder = compute_binder(hs.schedule, client_random, kex.public_key,
                            config.resumption->ticket);
  }
  hs.send_handshake(
      HsType::kClientHello,
      Handshaker::client_hello_body(
          client_random, kex.public_key,
          offering ? ByteView(config.resumption->ticket) : ByteView{}, binder));

  // ServerHello.
  const Bytes sh_body = hs.expect(HsType::kServerHello);
  Handshaker::ServerHello sh;
  try {
    sh = Handshaker::parse_server_hello(sh_body);
  } catch (const ParseError&) {
    hs.fail(AlertCode::kHandshakeFailure, "malformed ServerHello");
  }
  if (sh.resumed && !offering) {
    hs.fail(AlertCode::kHandshakeFailure, "server resumed unoffered PSK");
  }
  if (!sh.resumed && offering) {
    // Fallback to a full handshake: discard the PSK early secret.
    hs.schedule = KeySchedule();
  }
  const bool resumed = sh.resumed;

  const SecureBytes shared = crypto::x25519_shared(kex.private_key, sh.share);
  hs.schedule.set_handshake_secret(shared);
  const Bytes th_hello = hs.transcript.digest();
  const SecureBytes client_hs = hs.schedule.client_handshake_traffic(th_hello);
  const SecureBytes server_hs = hs.schedule.server_handshake_traffic(th_hello);
  const auto server_keys = KeySchedule::traffic_keys(server_hs);
  const auto client_keys = KeySchedule::traffic_keys(client_hs);
  hs.read_protection.emplace(server_keys.key, server_keys.iv);
  hs.write_protection.emplace(client_keys.key, client_keys.iv);

  // Server's encrypted flight.
  std::optional<pki::Certificate> server_cert;
  bool server_attested = false;
  bool client_cert_requested = false;
  if (!resumed) {
    // Peek: next message may be CertificateRequest.
    while (hs.pending_handshake.size() - hs.pending_pos < 1) hs.refill();
    if (static_cast<HsType>(hs.pending_handshake[hs.pending_pos]) ==
        HsType::kCertificateRequest) {
      hs.expect(HsType::kCertificateRequest);
      client_cert_requested = true;
    }

    auto verified = hs.receive_certificate(pki::KeyUsage::kServerAuth);
    server_cert = std::move(verified.cert);
    server_attested = verified.attested;
    if (!config.expected_server_name.empty() &&
        server_cert->subject.common_name != config.expected_server_name) {
      hs.fail(AlertCode::kBadCertificate,
              "server name mismatch: got " + server_cert->subject.common_name);
    }
    const Bytes th_before_cv = hs.transcript.digest();
    hs.receive_certificate_verify(/*peer_is_server=*/true, *server_cert,
                                  th_before_cv);
  }
  hs.receive_finished(server_hs);

  // Application secrets derive from the transcript through server Finished.
  hs.schedule.set_master_secret();
  const Bytes th_server_finished = hs.transcript.digest();
  const SecureBytes client_app =
      hs.schedule.client_application_traffic(th_server_finished);
  const SecureBytes server_app =
      hs.schedule.server_application_traffic(th_server_finished);

  // Client's flight (still under handshake keys).
  if (client_cert_requested) {
    if (!config.certificate || !config.signer) {
      hs.fail(AlertCode::kCertificateRequired,
              "server requires a client certificate");
    }
    hs.send_certificate();
    hs.send_certificate_verify(/*server=*/false);
  }
  hs.send_finished(client_hs);

  // The PSK for the next session (the ticket itself arrives post-handshake
  // as a NewSessionTicket; see Session::read).
  const SecureBytes resumption_secret =
      hs.schedule.resumption_secret(hs.transcript.digest());

  std::string peer_identity =
      server_cert ? server_cert->subject.common_name
                  : (config.resumption ? config.resumption->server_name : "");

  const auto app_server_keys = KeySchedule::traffic_keys(server_app);
  const auto app_client_keys = KeySchedule::traffic_keys(client_app);
  auto session = std::unique_ptr<Session>(new Session(
      std::move(transport),
      RecordProtection(app_server_keys.key, app_server_keys.iv),
      RecordProtection(app_client_keys.key, app_client_keys.iv),
      std::move(server_cert), std::move(peer_identity), resumed,
      std::nullopt));
  session->peer_attested_ = server_attested;
  session->resumption_secret_pending_ = resumption_secret;
  session->server_name_ = config.expected_server_name.empty()
                              ? session->peer_identity_
                              : config.expected_server_name;
  return session;
}

// ---------------------------------------------------------------------------
// Server handshake.
// ---------------------------------------------------------------------------

std::unique_ptr<Session> Session::accept(net::StreamPtr transport,
                                         const Config& config) {
  static HandshakeMeters meters("server");
  return handshake_instrumented("server", meters, std::move(transport), config,
                                &Session::accept_impl);
}

std::unique_ptr<Session> Session::accept_impl(net::StreamPtr transport,
                                              const Config& config) {
  Handshaker hs(*transport, config);
  if (!config.certificate || !config.signer) {
    throw Error("tls: server requires certificate and signer");
  }
  if (config.require_client_certificate && !config.truststore) {
    throw Error("tls: mutual auth requires a truststore");
  }
  if (config.require_attested_peer && !config.require_client_certificate) {
    throw Error(
        "tls: require_attested_peer needs require_client_certificate");
  }

  // ClientHello.
  const Bytes ch_body = hs.expect(HsType::kClientHello);
  Handshaker::ClientHello ch;
  try {
    ch = Handshaker::parse_client_hello(ch_body);
  } catch (const ParseError&) {
    hs.fail(AlertCode::kHandshakeFailure, "malformed ClientHello");
  }

  // Resumption decision.
  bool resumed = false;
  TicketPlaintext resumed_state;
  if (!ch.ticket.empty() && config.ticket_key) {
    auto opened = open_ticket(*config.ticket_key, ch.ticket);
    if (opened && opened->expiry >= config.clock->now()) {
      // Re-check revocation: a revoked credential must not resume.
      const bool revoked = config.truststore && opened->serial != 0 &&
                           config.truststore->serial_revoked(opened->serial);
      if (!revoked) {
        const KeySchedule psk_schedule{opened->resumption_secret};
        const Bytes expected_binder = [&] {
          Bytes data;
          append(data, ch.random);
          append(data, ByteView(ch.share.data(), ch.share.size()));
          append(data, ch.ticket);
          return crypto::hmac_sha256(psk_schedule.binder_key(), data);
        }();
        if (crypto::ct_equal(expected_binder, ch.binder)) {
          resumed = true;
          resumed_state = std::move(*opened);
          hs.schedule = KeySchedule(resumed_state.resumption_secret);
        }
      }
    }
    // Any failure falls back silently to a full handshake (RFC behavior).
  }

  // ServerHello.
  const auto kex = crypto::x25519_generate(*config.rng);
  const Bytes server_random = config.rng->bytes(32);
  hs.send_handshake(
      HsType::kServerHello,
      Handshaker::server_hello_body(server_random, kex.public_key, resumed));

  const SecureBytes shared = crypto::x25519_shared(kex.private_key, ch.share);
  hs.schedule.set_handshake_secret(shared);
  const Bytes th_hello = hs.transcript.digest();
  const SecureBytes client_hs = hs.schedule.client_handshake_traffic(th_hello);
  const SecureBytes server_hs = hs.schedule.server_handshake_traffic(th_hello);
  const auto server_keys = KeySchedule::traffic_keys(server_hs);
  const auto client_keys = KeySchedule::traffic_keys(client_hs);
  hs.read_protection.emplace(client_keys.key, client_keys.iv);
  hs.write_protection.emplace(server_keys.key, server_keys.iv);

  // Encrypted server flight.
  if (!resumed) {
    if (config.require_client_certificate) {
      hs.send_handshake(HsType::kCertificateRequest, {});
    }
    hs.send_certificate();
    hs.send_certificate_verify(/*server=*/true);
  }
  hs.send_finished(server_hs);

  hs.schedule.set_master_secret();
  const Bytes th_server_finished = hs.transcript.digest();
  const SecureBytes client_app =
      hs.schedule.client_application_traffic(th_server_finished);
  const SecureBytes server_app =
      hs.schedule.server_application_traffic(th_server_finished);

  // Client flight.
  std::optional<pki::Certificate> client_cert;
  bool client_attested = false;
  if (!resumed && config.require_client_certificate) {
    auto verified = hs.receive_certificate(pki::KeyUsage::kClientAuth);
    client_cert = std::move(verified.cert);
    client_attested = verified.attested;
    const Bytes th_before_cv = hs.transcript.digest();
    hs.receive_certificate_verify(/*peer_is_server=*/false, *client_cert,
                                  th_before_cv);
  } else if (resumed && config.require_client_certificate &&
             resumed_state.identity.empty()) {
    // The original session was anonymous; resumption cannot mint identity.
    hs.fail(AlertCode::kCertificateRequired,
            "resumed session lacks client identity");
  } else if (resumed && config.require_attested_peer &&
             !resumed_state.attested) {
    // A ticket from an unattested handshake must not satisfy an
    // attestation requirement introduced (or enforced) since.
    hs.fail_security(AlertCode::kBadCertificate,
                     "resumed session lacks peer attestation");
  }
  if (resumed) client_attested = resumed_state.attested;
  hs.receive_finished(client_hs);

  std::string peer_identity = client_cert
                                  ? client_cert->subject.common_name
                                  : (resumed ? resumed_state.identity : "");

  RecordProtection app_read(KeySchedule::traffic_keys(client_app).key,
                            KeySchedule::traffic_keys(client_app).iv);
  RecordProtection app_write(KeySchedule::traffic_keys(server_app).key,
                             KeySchedule::traffic_keys(server_app).iv);

  // Post-handshake: issue a session ticket on full handshakes (under the
  // application keys, so the client reads it in its normal record stream).
  if (!resumed && config.ticket_key) {
    TicketPlaintext plain;
    plain.resumption_secret =
        hs.schedule.resumption_secret(hs.transcript.digest());
    plain.identity = peer_identity;
    plain.serial = client_cert ? client_cert->serial : 0;
    plain.attested = client_attested;
    plain.expiry = config.clock->now() + config.ticket_lifetime_seconds;
    const Bytes ticket = seal_ticket(*config.ticket_key, plain, *config.rng);
    const Bytes msg = hs_message(HsType::kNewSessionTicket, ticket);
    app_write.protect_into(ContentType::kHandshake, msg, hs.wire_scratch);
    transport->write(hs.wire_scratch);
  }

  auto session = std::unique_ptr<Session>(new Session(
      std::move(transport), std::move(app_read), std::move(app_write),
      std::move(client_cert), std::move(peer_identity), resumed,
      std::nullopt));
  session->peer_attested_ = client_attested;
  return session;
}

// ---------------------------------------------------------------------------
// Application data.
// ---------------------------------------------------------------------------

Session::Session(net::StreamPtr transport, RecordProtection read_protection,
                 RecordProtection write_protection,
                 std::optional<pki::Certificate> peer_certificate,
                 std::string peer_identity, bool resumed,
                 std::optional<SessionTicket> session_ticket)
    : transport_(std::move(transport)),
      read_protection_(std::move(read_protection)),
      write_protection_(std::move(write_protection)),
      peer_certificate_(std::move(peer_certificate)),
      peer_identity_(std::move(peer_identity)),
      resumed_(resumed),
      session_ticket_(std::move(session_ticket)) {}

Session::~Session() {
  try {
    close();
  } catch (...) {
    // Destructors must not throw; the transport is going away regardless.
  }
  if (parked_) {
    parked_ = false;
    parked_sessions_gauge().add(-1);
  }
}

obs::Gauge& Session::parked_sessions_gauge() {
  static obs::Gauge& gauge = obs::registry().gauge(
      "vnfsgx_tls_parked_sessions", {},
      "TLS sessions currently parked on the connection diet (record "
      "scratch and expanded cipher state released)");
  return gauge;
}

std::size_t Session::park_buffers(net::BufferPool* pool) {
  if (closed_) return 0;
  buffer_pool_ = pool;
  std::size_t released = 0;
  // Never discard decrypted bytes the reader has not consumed yet; only a
  // fully-drained read buffer goes back to the pool.
  if (read_pos_ >= read_buffer_.size() && read_buffer_.capacity() > 0) {
    released += read_buffer_.capacity();
    if (pool) {
      pool->release(std::move(read_buffer_));
    } else {
      Bytes().swap(read_buffer_);
    }
    read_buffer_.clear();
    read_pos_ = 0;
  }
  if (write_wire_.capacity() > 0) {
    released += write_wire_.capacity();
    if (pool) {
      pool->release(std::move(write_wire_));
    } else {
      Bytes().swap(write_wire_);
    }
    write_wire_.clear();
  }
  if (!read_protection_.parked()) {
    released += RecordProtection::expanded_state_size();
    read_protection_.park();
  }
  if (!write_protection_.parked()) {
    released += RecordProtection::expanded_state_size();
    write_protection_.park();
  }
  released += transport_->park_buffers(pool);
  if (!parked_) {
    parked_ = true;
    parked_sessions_gauge().add(1);
  }
  return released;
}

void Session::unpark() {
  if (!parked_) return;
  parked_ = false;
  parked_sessions_gauge().add(-1);
  // Write scratch is the one buffer protect_into reuses; pull a pooled one
  // so the first record after an idle interval skips the allocation. The
  // read buffer needs nothing: each record's decrypted payload is moved in.
  if (buffer_pool_ != nullptr && write_wire_.capacity() == 0) {
    write_wire_ = buffer_pool_->acquire();
  }
}

void Session::release_handshake_state() { peer_certificate_.reset(); }

void Session::write(ByteView data) {
  // Cached references: registration cost is paid once per process; the
  // per-record cost is two relaxed adds on a thread-striped shard.
  static obs::Counter& bytes_out = obs::registry().counter(
      "vnfsgx_tls_bytes_total", {{"direction", "out"}},
      "Application bytes through the TLS record layer");
  static obs::Counter& records_out = obs::registry().counter(
      "vnfsgx_tls_records_total", {{"direction", "out"}},
      "TLS application-data records processed");
  if (closed_) throw IoError("tls: session closed");
  unpark();
  std::size_t off = 0;
  while (off < data.size()) {
    const std::size_t take = std::min<std::size_t>(16384, data.size() - off);
    write_protection_.protect_into(ContentType::kApplicationData,
                                   data.subspan(off, take), write_wire_);
    transport_->write(write_wire_);
    off += take;
    records_out.add();
  }
  bytes_out.add(data.size());
}

std::size_t Session::read(std::span<std::uint8_t> out) {
  unpark();
  while (read_pos_ == read_buffer_.size()) {
    if (peer_closed_) return 0;
    std::optional<Record> record = read_record(*transport_);
    if (!record) {
      peer_closed_ = true;
      return 0;
    }
    // Decrypt in place: record->payload becomes the inner plaintext.
    Record plain = std::move(*record);
    plain.type = read_protection_.unprotect_in_place(plain.type, plain.payload);
    if (plain.type == ContentType::kAlert) {
      // close_notify or fatal alert: either way the stream ends.
      peer_closed_ = true;
      return 0;
    }
    if (plain.type == ContentType::kHandshake) {
      // Post-handshake message: NewSessionTicket.
      if (plain.payload.size() >= 4 &&
          static_cast<HsType>(plain.payload[0]) == HsType::kNewSessionTicket) {
        const std::uint32_t len = read_u24(plain.payload, 1);
        if (plain.payload.size() == 4u + len) {
          SessionTicket ticket;
          ticket.ticket = Bytes(plain.payload.begin() + 4, plain.payload.end());
          ticket.resumption_secret = resumption_secret_pending_;
          ticket.server_name = server_name_;
          session_ticket_ = std::move(ticket);
          continue;
        }
      }
      throw ProtocolError("tls: unexpected post-handshake message");
    }
    if (plain.type != ContentType::kApplicationData) {
      throw ProtocolError("tls: unexpected record type after handshake");
    }
    static obs::Counter& bytes_in = obs::registry().counter(
        "vnfsgx_tls_bytes_total", {{"direction", "in"}},
        "Application bytes through the TLS record layer");
    static obs::Counter& records_in = obs::registry().counter(
        "vnfsgx_tls_records_total", {{"direction", "in"}},
        "TLS application-data records processed");
    records_in.add();
    bytes_in.add(plain.payload.size());
    read_buffer_ = std::move(plain.payload);
    read_pos_ = 0;
  }
  const std::size_t take = std::min(out.size(), read_buffer_.size() - read_pos_);
  std::memcpy(out.data(), read_buffer_.data() + read_pos_, take);
  read_pos_ += take;
  return take;
}

void Session::close() {
  if (closed_) return;
  unpark();
  closed_ = true;
  try {
    Record alert{ContentType::kAlert, {}};
    append_u8(alert.payload, 1);  // warning
    append_u8(alert.payload, static_cast<std::uint8_t>(AlertCode::kCloseNotify));
    write_protection_.protect_into(alert.type, alert.payload, write_wire_);
    transport_->write(write_wire_);
  } catch (...) {
    // Peer may already be gone.
  }
  transport_->close();
}

}  // namespace vnfsgx::tls
