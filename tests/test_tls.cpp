// TLS secure-channel tests: handshake modes, data transfer, and an
// adversarial suite (tampering, wrong CA, expiry, revocation, downgrade).
#include <gtest/gtest.h>

#include <future>
#include <thread>

#include "common/sim_clock.h"
#include "crypto/random.h"
#include "http/client.h"
#include "http/runtime.h"
#include "http/server.h"
#include "net/buffer_pool.h"
#include "net/inmemory.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "pki/ca.h"
#include "tls/record.h"
#include "tls/session.h"

namespace vnfsgx::tls {
namespace {

using crypto::DeterministicRandom;

struct Identity {
  pki::Certificate cert;
  crypto::Ed25519Seed seed;
};

class TlsFixture : public ::testing::Test {
 protected:
  TlsFixture()
      : rng_(7),
        clock_(1'700'000'000),
        ca_(pki::DistinguishedName{"vm-ca", "RISE"}, rng_, clock_) {
    truststore_.add_root(ca_.root_certificate());
  }

  Identity make_identity(const std::string& cn, pki::KeyUsage usage) {
    const auto kp = crypto::ed25519_generate(rng_);
    return Identity{
        ca_.issue({cn, ""}, kp.public_key, static_cast<std::uint8_t>(usage)),
        kp.seed};
  }

  Config server_config(const Identity& id, bool mutual) {
    Config c;
    c.certificate = id.cert;
    c.signer = Config::software_signer(id.seed);
    c.require_client_certificate = mutual;
    if (mutual) c.truststore = &truststore_;
    c.clock = &clock_;
    c.rng = &rng_;
    return c;
  }

  Config client_config(const Identity* id = nullptr,
                       const std::string& expected_name = "") {
    Config c;
    if (id) {
      c.certificate = id->cert;
      c.signer = Config::software_signer(id->seed);
    }
    c.truststore = &truststore_;
    c.expected_server_name = expected_name;
    c.clock = &clock_;
    c.rng = &rng_;
    return c;
  }

  /// Run a full handshake over a pipe; returns (client, server) sessions.
  std::pair<std::unique_ptr<Session>, std::unique_ptr<Session>> handshake(
      const Config& client_cfg, const Config& server_cfg) {
    auto [client_end, server_end] = net::make_pipe();
    auto server_future = std::async(
        std::launch::async, [&server_cfg, s = std::move(server_end)]() mutable {
          return Session::accept(std::move(s), server_cfg);
        });
    auto client = Session::connect(std::move(client_end), client_cfg);
    return {std::move(client), server_future.get()};
  }

  DeterministicRandom rng_;
  SimClock clock_;
  pki::CertificateAuthority ca_;
  pki::TrustStore truststore_;
};

TEST_F(TlsFixture, ServerAuthHandshakeAndEcho) {
  const Identity server_id = make_identity("controller", pki::KeyUsage::kServerAuth);
  auto [client, server] = handshake(client_config(), server_config(server_id, false));

  client->write(to_bytes("hello over tls"));
  EXPECT_EQ(to_string(server->read_exact(14)), "hello over tls");
  server->write(to_bytes("pong"));
  EXPECT_EQ(to_string(client->read_exact(4)), "pong");

  ASSERT_TRUE(client->peer_certificate().has_value());
  EXPECT_EQ(client->peer_certificate()->subject.common_name, "controller");
  EXPECT_FALSE(server->peer_certificate().has_value());
}

TEST_F(TlsFixture, MutualAuthExposesClientIdentity) {
  const Identity server_id = make_identity("controller", pki::KeyUsage::kServerAuth);
  const Identity client_id = make_identity("vnf-1", pki::KeyUsage::kClientAuth);
  auto [client, server] =
      handshake(client_config(&client_id), server_config(server_id, true));
  ASSERT_TRUE(server->peer_certificate().has_value());
  EXPECT_EQ(server->peer_certificate()->subject.common_name, "vnf-1");
}

TEST_F(TlsFixture, LargePayloadSpansRecords) {
  const Identity server_id = make_identity("controller", pki::KeyUsage::kServerAuth);
  auto [client, server] = handshake(client_config(), server_config(server_id, false));
  Bytes big(100'000);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 13);
  }
  std::thread writer([&client, &big] { client->write(big); });
  const Bytes got = server->read_exact(big.size());
  writer.join();
  EXPECT_EQ(got, big);
}

TEST_F(TlsFixture, ExpectedServerNameMismatchFails) {
  const Identity server_id = make_identity("controller", pki::KeyUsage::kServerAuth);
  auto [client_end, server_end] = net::make_pipe();
  auto server_future = std::async(
      std::launch::async,
      [cfg = server_config(server_id, false), s = std::move(server_end)]() mutable {
        return Session::accept(std::move(s), cfg);
      });
  EXPECT_THROW(Session::connect(std::move(client_end),
                                client_config(nullptr, "other-controller")),
               ProtocolError);
  // Server sees the client abort (alert or close) and fails too.
  EXPECT_THROW(server_future.get(), Error);
}

TEST_F(TlsFixture, UnknownCaRejected) {
  DeterministicRandom rng2(99);
  pki::CertificateAuthority rogue(pki::DistinguishedName{"rogue", ""}, rng2, clock_);
  const auto kp = crypto::ed25519_generate(rng2);
  Identity rogue_server{
      rogue.issue({"controller", ""}, kp.public_key,
                  static_cast<std::uint8_t>(pki::KeyUsage::kServerAuth)),
      kp.seed};

  auto [client_end, server_end] = net::make_pipe();
  auto server_future = std::async(
      std::launch::async,
      [cfg = server_config(rogue_server, false), s = std::move(server_end)]() mutable {
        return Session::accept(std::move(s), cfg);
      });
  EXPECT_THROW(Session::connect(std::move(client_end), client_config()),
               ProtocolError);
  EXPECT_THROW(server_future.get(), Error);
}

TEST_F(TlsFixture, ExpiredServerCertificateRejected) {
  const Identity server_id = make_identity("controller", pki::KeyUsage::kServerAuth);
  clock_.advance(10 * 24 * 3600);  // past the 24h default validity
  auto [client_end, server_end] = net::make_pipe();
  auto server_future = std::async(
      std::launch::async,
      [cfg = server_config(server_id, false), s = std::move(server_end)]() mutable {
        return Session::accept(std::move(s), cfg);
      });
  EXPECT_THROW(Session::connect(std::move(client_end), client_config()),
               ProtocolError);
  EXPECT_THROW(server_future.get(), Error);
}

TEST_F(TlsFixture, RevokedClientCertificateRejected) {
  const Identity server_id = make_identity("controller", pki::KeyUsage::kServerAuth);
  const Identity client_id = make_identity("vnf-1", pki::KeyUsage::kClientAuth);
  truststore_.set_crl(ca_.revoke(client_id.cert.serial));

  auto [client_end, server_end] = net::make_pipe();
  auto server_future = std::async(
      std::launch::async,
      [cfg = server_config(server_id, true), s = std::move(server_end)]() mutable {
        return Session::accept(std::move(s), cfg);
      });
  // Client finishes its side before the server validates; either endpoint
  // may surface the failure first, but the server MUST reject.
  try {
    auto client = Session::connect(std::move(client_end), client_config(&client_id));
    (void)client;
  } catch (const Error&) {
    // acceptable: server alert arrived during connect
  }
  EXPECT_THROW(server_future.get(), ProtocolError);
}

TEST_F(TlsFixture, ClientWithoutCertRejectedInMutualMode) {
  const Identity server_id = make_identity("controller", pki::KeyUsage::kServerAuth);
  auto [client_end, server_end] = net::make_pipe();
  auto server_future = std::async(
      std::launch::async,
      [cfg = server_config(server_id, true), s = std::move(server_end)]() mutable {
        return Session::accept(std::move(s), cfg);
      });
  EXPECT_THROW(Session::connect(std::move(client_end), client_config()),
               ProtocolError);
  EXPECT_THROW(server_future.get(), Error);
}

TEST_F(TlsFixture, WrongUsageCertificateRejected) {
  // Client certificate presented as a server certificate.
  const Identity bad_server = make_identity("controller", pki::KeyUsage::kClientAuth);
  auto [client_end, server_end] = net::make_pipe();
  auto server_future = std::async(
      std::launch::async,
      [cfg = server_config(bad_server, false), s = std::move(server_end)]() mutable {
        return Session::accept(std::move(s), cfg);
      });
  EXPECT_THROW(Session::connect(std::move(client_end), client_config()),
               ProtocolError);
  EXPECT_THROW(server_future.get(), Error);
}

TEST_F(TlsFixture, TamperedRecordDetected) {
  const Identity server_id = make_identity("controller", pki::KeyUsage::kServerAuth);
  // Man-in-the-middle pipes: client <-> mitm <-> server.
  auto [client_end, mitm_a] = net::make_pipe();
  auto [mitm_b, server_end] = net::make_pipe();

  auto server_future = std::async(
      std::launch::async,
      [cfg = server_config(server_id, false), s = std::move(server_end)]() mutable {
        auto session = Session::accept(std::move(s), cfg);
        return to_string(session->read_exact(6));
      });

  // Relay every record; in server-auth mode the client emits exactly
  // ClientHello (plaintext), Finished (protected), then application data —
  // so client->server record #3 is the first application record. Flip one
  // bit in it.
  std::thread relay([&mitm_a = mitm_a, &mitm_b = mitm_b] {
    int count = 0;
    try {
      while (true) {
        auto record = read_record(*mitm_a);
        if (!record) break;
        if (++count == 3) record->payload[0] ^= 0x01;
        write_record(*mitm_b, *record);
      }
    } catch (const Error&) {
    }
    mitm_b->close();
  });
  std::thread relay_back([&mitm_a = mitm_a, &mitm_b = mitm_b] {
    try {
      while (true) {
        auto record = read_record(*mitm_b);
        if (!record) break;
        write_record(*mitm_a, *record);
      }
    } catch (const Error&) {
    }
    mitm_a->close();
  });

  auto client = Session::connect(std::move(client_end), client_config());
  client->write(to_bytes("secret"));
  // The server must reject the tampered record, never deliver bad plaintext.
  EXPECT_THROW(server_future.get(), ProtocolError);
  client->close();
  relay.join();
  relay_back.join();
}

TEST_F(TlsFixture, HttpOverTls) {
  const Identity server_id = make_identity("controller", pki::KeyUsage::kServerAuth);
  const Identity client_id = make_identity("vnf-9", pki::KeyUsage::kClientAuth);

  http::Router router;
  router.add("GET", "/whoami", [](const http::Request&, const http::RequestContext& ctx) {
    return http::Response::text(200, ctx.client_identity);
  });

  // The TLS accept runs as the HTTP driver's session wrap on the
  // connection's first burst, as the controller's trusted-HTTPS mode does.
  net::ServerRuntime runtime({.workers = 2,
                              .burst_read_timeout = std::chrono::seconds(5),
                              .name = "test-tls"});
  auto [client_end, server_end] = net::make_pipe();
  runtime.adopt(
      std::move(server_end),
      http::make_http_driver_factory(
          router, [this, &server_id](net::StreamPtr s,
                                     http::RequestContext& ctx) {
            auto session =
                Session::accept(std::move(s), server_config(server_id, true));
            ctx.client_identity =
                session->peer_certificate()->subject.common_name;
            return session;
          }));

  auto session = Session::connect(std::move(client_end), client_config(&client_id));
  http::Client client(std::move(session));
  EXPECT_EQ(to_string(client.get("/whoami").body), "vnf-9");
  client.close();
}

TEST_F(TlsFixture, ParkReleasesBuffersAndUnparksOnUse) {
  const Identity server_id =
      make_identity("controller", pki::KeyUsage::kServerAuth);
  auto [client, server] = handshake(client_config(), server_config(server_id, false));
  client->write(to_bytes("warm-up"));
  EXPECT_EQ(to_string(server->read_exact(7)), "warm-up");
  server->write(to_bytes("ack"));
  EXPECT_EQ(to_string(client->read_exact(3)), "ack");

  auto& parked_gauge = obs::registry().gauge(
      "vnfsgx_tls_parked_sessions", {},
      "TLS sessions currently parked (scratch + AEAD state released)");
  const std::int64_t parked_before = parked_gauge.value();

  // Park both ends: wire scratch moves into the pool, the expanded AEAD
  // key schedules are dropped (raw keys kept), and the gauge counts both.
  net::BufferPool pool;
  const std::size_t client_released = client->park_buffers(&pool);
  const std::size_t server_released = server->park_buffers(&pool);
  EXPECT_GT(client_released, 2 * RecordProtection::expanded_state_size());
  EXPECT_GT(server_released, 2 * RecordProtection::expanded_state_size());
  EXPECT_GT(pool.pooled(), 0u);
  EXPECT_EQ(parked_gauge.value(), parked_before + 2);

  // Parking again while already parked releases nothing new.
  EXPECT_EQ(client->park_buffers(&pool), 0u);
  EXPECT_EQ(parked_gauge.value(), parked_before + 2);

  // Using the session unparks transparently: keys re-expand, scratch is
  // reacquired from the pool, and record sequence numbers continue where
  // they left off (a reset would break AEAD nonce continuity).
  client->write(to_bytes("after-park"));
  EXPECT_EQ(to_string(server->read_exact(10)), "after-park");
  server->write(to_bytes("still-alive"));
  EXPECT_EQ(to_string(client->read_exact(11)), "still-alive");
  EXPECT_EQ(parked_gauge.value(), parked_before);

  // A second park/unpark cycle works too (the steady-state of an idle
  // connection on the 100k-resident server).
  EXPECT_GT(client->park_buffers(&pool), 0u);
  client->write(to_bytes("x"));
  EXPECT_EQ(to_string(server->read_exact(1)), "x");
  EXPECT_EQ(parked_gauge.value(), parked_before);
}

TEST_F(TlsFixture, ReleaseHandshakeStateKeepsIdentity) {
  const Identity server_id =
      make_identity("controller", pki::KeyUsage::kServerAuth);
  const Identity client_id = make_identity("vnf-3", pki::KeyUsage::kClientAuth);
  auto [client, server] =
      handshake(client_config(&client_id), server_config(server_id, true));

  ASSERT_TRUE(server->peer_certificate().has_value());
  server->release_handshake_state();
  // The parsed certificate is gone but the authenticated identity —
  // what dispatch decisions key on — survives.
  EXPECT_FALSE(server->peer_certificate().has_value());
  EXPECT_EQ(server->peer_identity(), "vnf-3");

  server->write(to_bytes("post-release"));
  EXPECT_EQ(to_string(client->read_exact(12)), "post-release");
}

TEST_F(TlsFixture, CloseNotifyYieldsCleanEof) {
  const Identity server_id = make_identity("controller", pki::KeyUsage::kServerAuth);
  auto [client, server] = handshake(client_config(), server_config(server_id, false));
  client->write(to_bytes("bye"));
  EXPECT_EQ(to_string(server->read_exact(3)), "bye");
  client->close();
  std::uint8_t buf[4];
  EXPECT_EQ(server->read(std::span<std::uint8_t>(buf, 4)), 0u);
}

TEST_F(TlsFixture, MissingConfigPiecesThrow) {
  Config empty;
  auto [a, b] = net::make_pipe();
  EXPECT_THROW(Session::connect(std::move(a), empty), Error);
  Config no_cert;
  no_cert.clock = &clock_;
  no_cert.rng = &rng_;
  EXPECT_THROW(Session::accept(std::move(b), no_cert), Error);
}

// Sweep: payload sizes across the record-size boundary survive round trips.
class TlsPayloadSweep : public TlsFixture,
                        public ::testing::WithParamInterface<std::size_t> {};

TEST_P(TlsPayloadSweep, RoundTrip) {
  const Identity server_id = make_identity("controller", pki::KeyUsage::kServerAuth);
  auto [client, server] = handshake(client_config(), server_config(server_id, false));
  Bytes payload(GetParam());
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 31);
  }
  std::thread writer([&client, &payload] {
    client->write(payload);
    client->close();
  });
  if (!payload.empty()) {
    EXPECT_EQ(server->read_exact(payload.size()), payload);
  }
  std::uint8_t buf[1];
  EXPECT_EQ(server->read(std::span<std::uint8_t>(buf, 1)), 0u);
  writer.join();
}

INSTANTIATE_TEST_SUITE_P(Sizes, TlsPayloadSweep,
                         ::testing::Values(1, 100, 16383, 16384, 16385, 40000));

}  // namespace
}  // namespace vnfsgx::tls

// ---------------------------------------------------------------------------
// Session resumption (PSK tickets) — the "alternative implementation"
// performance path: returning clients skip both certificate exchanges while
// keeping forward secrecy (ECDHE still runs) and revocation enforcement.
// ---------------------------------------------------------------------------

namespace vnfsgx::tls {
namespace {

class ResumptionFixture : public TlsFixture {
 protected:
  ResumptionFixture()
      : ticket_key_(TicketKey::generate(rng_)),
        server_id_(make_identity("controller", pki::KeyUsage::kServerAuth)),
        client_id_(make_identity("vnf-1", pki::KeyUsage::kClientAuth)) {}

  Config ticket_server_config(bool mutual) {
    Config c = server_config(server_id_, mutual);
    c.ticket_key = &ticket_key_;
    return c;
  }

  /// Full handshake that ends with one echo round trip (so the client has
  /// processed the NewSessionTicket); returns the harvested ticket.
  SessionTicket full_handshake_and_get_ticket(bool mutual) {
    auto [client_end, server_end] = net::make_pipe();
    auto server_future = std::async(
        std::launch::async,
        [cfg = ticket_server_config(mutual), s = std::move(server_end)]() mutable {
          auto session = Session::accept(std::move(s), cfg);
          const Bytes data = session->read_exact(4);
          session->write(data);
          return session->resumed();
        });
    auto session = Session::connect(
        std::move(client_end),
        client_config(mutual ? &client_id_ : nullptr, "controller"));
    session->write(to_bytes("ping"));
    EXPECT_EQ(to_string(session->read_exact(4)), "ping");
    EXPECT_FALSE(server_future.get());
    EXPECT_TRUE(session->session_ticket().has_value());
    return *session->session_ticket();
  }

  /// Run a handshake offering `ticket`; returns {client_resumed,
  /// server_identity_seen}.
  std::pair<bool, std::string> resume_with(const SessionTicket& ticket,
                                           bool mutual,
                                           UnixTime expiry_advance = 0) {
    clock_.advance(expiry_advance);
    auto [client_end, server_end] = net::make_pipe();
    auto server_future = std::async(
        std::launch::async,
        [cfg = ticket_server_config(mutual), s = std::move(server_end)]() mutable {
          auto session = Session::accept(std::move(s), cfg);
          const Bytes data = session->read_exact(2);
          session->write(data);
          return std::make_pair(session->resumed(), session->peer_identity());
        });
    Config ccfg = client_config(mutual ? &client_id_ : nullptr, "controller");
    ccfg.resumption = &ticket;
    auto session = Session::connect(std::move(client_end), ccfg);
    session->write(to_bytes("hi"));
    EXPECT_EQ(to_string(session->read_exact(2)), "hi");
    const auto [server_resumed, identity] = server_future.get();
    EXPECT_EQ(session->resumed(), server_resumed);
    return {session->resumed(), identity};
  }

  TicketKey ticket_key_;
  Identity server_id_;
  Identity client_id_;
};

TEST_F(ResumptionFixture, TicketIssuedAfterFullHandshake) {
  const SessionTicket ticket = full_handshake_and_get_ticket(true);
  EXPECT_TRUE(ticket.valid());
  EXPECT_FALSE(ticket.resumption_secret.empty());
  EXPECT_EQ(ticket.server_name, "controller");
}

TEST_F(ResumptionFixture, NoTicketWithoutServerSupport) {
  auto [client_end, server_end] = net::make_pipe();
  auto server_future = std::async(
      std::launch::async,
      [cfg = server_config(server_id_, false), s = std::move(server_end)]() mutable {
        auto session = Session::accept(std::move(s), cfg);
        const Bytes data = session->read_exact(1);
        session->write(data);
      });
  auto session = Session::connect(std::move(client_end), client_config());
  session->write(to_bytes("x"));
  session->read_exact(1);
  server_future.get();
  EXPECT_FALSE(session->session_ticket().has_value());
}

TEST_F(ResumptionFixture, ResumedSessionCarriesIdentity) {
  const SessionTicket ticket = full_handshake_and_get_ticket(true);
  const auto [resumed, identity] = resume_with(ticket, true);
  EXPECT_TRUE(resumed);
  EXPECT_EQ(identity, "vnf-1");
}

TEST_F(ResumptionFixture, ResumedServerHasNoCertificateButIdentity) {
  const SessionTicket ticket = full_handshake_and_get_ticket(true);
  auto [client_end, server_end] = net::make_pipe();
  auto server_future = std::async(
      std::launch::async,
      [cfg = ticket_server_config(true), s = std::move(server_end)]() mutable {
        auto session = Session::accept(std::move(s), cfg);
        EXPECT_TRUE(session->resumed());
        EXPECT_FALSE(session->peer_certificate().has_value());
        EXPECT_EQ(session->peer_identity(), "vnf-1");
        session->write(to_bytes("k"));
      });
  Config ccfg = client_config(&client_id_, "controller");
  ccfg.resumption = &ticket;
  auto session = Session::connect(std::move(client_end), ccfg);
  EXPECT_TRUE(session->resumed());
  EXPECT_EQ(to_string(session->read_exact(1)), "k");
  server_future.get();
}

TEST_F(ResumptionFixture, ExpiredTicketFallsBackToFullHandshake) {
  const SessionTicket ticket = full_handshake_and_get_ticket(true);
  // Default ticket lifetime is 600s; jump past it.
  const auto [resumed, identity] = resume_with(ticket, true, /*advance=*/3600);
  EXPECT_FALSE(resumed);
  EXPECT_EQ(identity, "vnf-1");  // via the fresh certificate exchange
}

TEST_F(ResumptionFixture, TamperedTicketFallsBackToFullHandshake) {
  SessionTicket ticket = full_handshake_and_get_ticket(true);
  ticket.ticket[ticket.ticket.size() / 2] ^= 1;
  const auto [resumed, identity] = resume_with(ticket, true);
  EXPECT_FALSE(resumed);
  EXPECT_EQ(identity, "vnf-1");
}

TEST_F(ResumptionFixture, WrongPskFallsBackAndFails) {
  // A stolen ticket without the matching resumption secret: the binder
  // check fails, the server falls back to a full handshake, and the thief
  // (who has no acceptable certificate) cannot authenticate.
  SessionTicket stolen = full_handshake_and_get_ticket(true);
  stolen.resumption_secret = Bytes(32, 0x42);  // wrong PSK
  auto [client_end, server_end] = net::make_pipe();
  auto server_future = std::async(
      std::launch::async,
      [cfg = ticket_server_config(true), s = std::move(server_end)]() mutable {
        return Session::accept(std::move(s), cfg);
      });
  Config ccfg = client_config(nullptr, "controller");  // no certificate
  ccfg.resumption = &stolen;
  EXPECT_THROW(Session::connect(std::move(client_end), ccfg), Error);
  EXPECT_THROW(server_future.get(), Error);
}

TEST_F(ResumptionFixture, RevokedCredentialCannotResume) {
  const SessionTicket ticket = full_handshake_and_get_ticket(true);
  truststore_.set_crl(ca_.revoke(client_id_.cert.serial));
  // Resumption refused (serial on the CRL) -> full handshake -> the
  // revoked certificate is rejected there too. Either side may surface it.
  auto [client_end, server_end] = net::make_pipe();
  auto server_future = std::async(
      std::launch::async,
      [cfg = ticket_server_config(true), s = std::move(server_end)]() mutable {
        return Session::accept(std::move(s), cfg);
      });
  Config ccfg = client_config(&client_id_, "controller");
  ccfg.resumption = &ticket;
  bool client_failed = false;
  try {
    auto session = Session::connect(std::move(client_end), ccfg);
    session->write(to_bytes("x"));
    std::uint8_t buf[1];
    if (session->read(std::span<std::uint8_t>(buf, 1)) == 0) {
      client_failed = true;
    }
  } catch (const Error&) {
    client_failed = true;
  }
  EXPECT_TRUE(client_failed);
  EXPECT_THROW(server_future.get(), Error);
}

TEST_F(ResumptionFixture, ResumptionIsChainable) {
  // A resumed session... does not get a new ticket in this implementation
  // (tickets are issued on full handshakes only); the original ticket can
  // be reused until it expires.
  const SessionTicket ticket = full_handshake_and_get_ticket(true);
  for (int i = 0; i < 3; ++i) {
    const auto [resumed, identity] = resume_with(ticket, true);
    EXPECT_TRUE(resumed) << "round " << i;
    EXPECT_EQ(identity, "vnf-1");
  }
}

TEST_F(ResumptionFixture, ServerAuthOnlyTicketResumes) {
  const SessionTicket ticket = full_handshake_and_get_ticket(false);
  const auto [resumed, identity] = resume_with(ticket, false);
  EXPECT_TRUE(resumed);
  EXPECT_EQ(identity, "");  // anonymous then, anonymous now
}

TEST_F(ResumptionFixture, AnonymousTicketCannotEnterMutualMode) {
  // Ticket minted on a server-auth-only session must not satisfy a server
  // that now demands client authentication.
  const SessionTicket ticket = full_handshake_and_get_ticket(false);
  auto [client_end, server_end] = net::make_pipe();
  auto server_future = std::async(
      std::launch::async,
      [cfg = ticket_server_config(true), s = std::move(server_end)]() mutable {
        return Session::accept(std::move(s), cfg);
      });
  Config ccfg = client_config(nullptr, "controller");
  ccfg.resumption = &ticket;
  EXPECT_THROW(
      {
        auto session = Session::connect(std::move(client_end), ccfg);
        session->write(to_bytes("x"));
        std::uint8_t buf[1];
        if (session->read(std::span<std::uint8_t>(buf, 1)) == 0) {
          throw IoError("rejected");
        }
      },
      Error);
  EXPECT_THROW(server_future.get(), Error);
}

}  // namespace
}  // namespace vnfsgx::tls

// ---------------------------------------------------------------------------
// Key schedule and record-layer unit tests.
// ---------------------------------------------------------------------------

namespace vnfsgx::tls {
namespace {

TEST(KeyScheduleTest, DeterministicAndDirectionSeparated) {
  KeySchedule a, b;
  const Bytes shared(32, 0x42);
  a.set_handshake_secret(shared);
  b.set_handshake_secret(shared);
  const Bytes th = crypto::sha256(to_bytes("transcript"));
  EXPECT_EQ(a.client_handshake_traffic(th), b.client_handshake_traffic(th));
  EXPECT_NE(a.client_handshake_traffic(th), a.server_handshake_traffic(th));

  a.set_master_secret();
  EXPECT_NE(a.client_application_traffic(th), a.server_application_traffic(th));
  EXPECT_NE(a.client_application_traffic(th), a.client_handshake_traffic(th));
}

TEST(KeyScheduleTest, PskChangesEverySecret) {
  KeySchedule no_psk;
  KeySchedule with_psk{Bytes(32, 0x11)};
  const Bytes shared(32, 0x42);
  no_psk.set_handshake_secret(shared);
  with_psk.set_handshake_secret(shared);
  const Bytes th = crypto::sha256(to_bytes("t"));
  EXPECT_NE(no_psk.client_handshake_traffic(th),
            with_psk.client_handshake_traffic(th));
  EXPECT_NE(no_psk.binder_key(), with_psk.binder_key());
}

TEST(KeyScheduleTest, TranscriptBindsSecrets) {
  KeySchedule ks;
  ks.set_handshake_secret(Bytes(32, 1));
  const Bytes th1 = crypto::sha256(to_bytes("one"));
  const Bytes th2 = crypto::sha256(to_bytes("two"));
  EXPECT_NE(ks.client_handshake_traffic(th1), ks.client_handshake_traffic(th2));
}

TEST(KeyScheduleTest, TrafficKeysSized) {
  const Bytes secret(32, 9);
  const TrafficKeys keys = KeySchedule::traffic_keys(secret);
  EXPECT_EQ(keys.key.size(), 16u);
  EXPECT_EQ(keys.iv.size(), 12u);
  EXPECT_NE(keys.key, Bytes(16, 0));
}

TEST(RecordProtectionTest, SequenceNumbersPreventReplay) {
  const Bytes key(16, 0x01);
  const Bytes iv(12, 0x02);
  RecordProtection sender(key, iv);
  RecordProtection receiver(key, iv);

  const Record wire1 = sender.protect({ContentType::kApplicationData,
                                       to_bytes("first")});
  const Record wire2 = sender.protect({ContentType::kApplicationData,
                                       to_bytes("second")});
  EXPECT_EQ(to_string(receiver.unprotect(wire1).payload), "first");
  // Replaying wire1 must fail: the receiver's nonce has advanced.
  EXPECT_THROW(receiver.unprotect(wire1), ProtocolError);
  // A failed decrypt does not consume a sequence number, so the next
  // legitimate record still decrypts at this layer; the *session* layer
  // terminates the connection on the first failure (see
  // TlsFixture.TamperedRecordDetected).
  EXPECT_EQ(to_string(receiver.unprotect(wire2).payload), "second");
}

TEST(RecordProtectionTest, ReorderedRecordsRejected) {
  const Bytes key(16, 0x01);
  const Bytes iv(12, 0x02);
  RecordProtection sender(key, iv);
  RecordProtection receiver(key, iv);
  const Record w1 = sender.protect({ContentType::kApplicationData, to_bytes("a")});
  const Record w2 = sender.protect({ContentType::kApplicationData, to_bytes("b")});
  EXPECT_THROW(receiver.unprotect(w2), ProtocolError);  // w2 before w1
  (void)w1;
}

TEST(RecordProtectionTest, InnerContentTypeRoundTrips) {
  const Bytes key(16, 0x03);
  const Bytes iv(12, 0x04);
  RecordProtection sender(key, iv);
  RecordProtection receiver(key, iv);
  const Record wire = sender.protect({ContentType::kAlert, Bytes{1, 0}});
  EXPECT_EQ(wire.type, ContentType::kApplicationData);  // outer type masked
  const Record plain = receiver.unprotect(wire);
  EXPECT_EQ(plain.type, ContentType::kAlert);
  EXPECT_EQ(plain.payload, (Bytes{1, 0}));
}

TEST(RecordTest, OversizedRecordRejected) {
  auto [a, b] = net::make_pipe();
  Bytes header;
  append_u8(header, 23);
  append_u16(header, 0xffff);  // > kMaxRecordPayload
  a->write(header);
  EXPECT_THROW(read_record(*b), ProtocolError);
}

TEST(RecordTest, CleanEofAtBoundary) {
  auto [a, b] = net::make_pipe();
  a->close();
  EXPECT_FALSE(read_record(*b).has_value());
}

TEST(RecordTest, TruncatedHeaderThrows) {
  auto [a, b] = net::make_pipe();
  a->write(Bytes{23});  // 1 of 3 header bytes
  a->close();
  EXPECT_THROW(read_record(*b), IoError);
}

}  // namespace
}  // namespace vnfsgx::tls
