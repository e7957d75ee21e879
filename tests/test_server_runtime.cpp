// ServerRuntime tests: the epoll/pipe reactor + bounded worker pool that
// serves every listening surface.
//
//  * Stress: >= 512 concurrent keep-alive clients against the controller in
//    all three §3 security modes — zero dropped requests, worker count
//    bounded, no per-connection threads.
//  * Slow-client: a stalled mid-request peer is dropped by the burst read
//    deadline and cannot starve the pool; a silent idle connection parks
//    for free and still works later.
//  * Pipelining: requests buffered in userspace (invisible to the
//    readiness source) are re-dispatched, not forgotten.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/sim_clock.h"
#include "controller/controller.h"
#include "crypto/random.h"
#include "http/client.h"
#include "http/runtime.h"
#include "http/wire.h"
#include "net/framing.h"
#include "net/inmemory.h"
#include "net/server.h"
#include "net/tcp.h"
#include "pki/ca.h"

namespace vnfsgx::net {
namespace {

using controller::Controller;
using controller::ControllerConfig;
using controller::SecurityMode;

/// DeterministicRandom is not thread-safe; concurrent TLS handshakes on
/// both ends share a crypto::LockedRandom view of it.
using crypto::LockedRandom;

class ServerRuntimeFixture : public ::testing::Test {
 protected:
  ServerRuntimeFixture()
      : rng_(41),
        locked_rng_(rng_),
        clock_(1'700'000'000),
        ca_(pki::DistinguishedName{"vm-ca", "vnfsgx"}, rng_, clock_) {
    fabric_.add_switch(1);
    truststore_.add_root(ca_.root_certificate());
    const auto client_kp = crypto::ed25519_generate(rng_);
    client_cert_ = ca_.issue(
        {"vnf-client", ""}, client_kp.public_key,
        static_cast<std::uint8_t>(pki::KeyUsage::kClientAuth));
    client_seed_ = client_kp.seed;
  }

  ControllerConfig config(SecurityMode mode) {
    ControllerConfig c;
    c.mode = mode;
    if (mode != SecurityMode::kHttp) {
      const auto kp = crypto::ed25519_generate(rng_);
      c.certificate = ca_.issue(
          {"controller", ""}, kp.public_key,
          static_cast<std::uint8_t>(pki::KeyUsage::kServerAuth));
      c.signer = tls::Config::software_signer(kp.seed);
    }
    c.clock = &clock_;
    c.rng = &locked_rng_;
    return c;
  }

  /// Open one client connection to `address` honoring the security mode.
  http::Client connect(InMemoryNetwork& net, const std::string& address,
                       SecurityMode mode, bool with_client_cert) {
    auto stream = net.connect(address);
    if (mode == SecurityMode::kHttp) return http::Client(std::move(stream));
    tls::Config tls_config;
    tls_config.truststore = &truststore_;
    tls_config.expected_server_name = "controller";
    tls_config.clock = &clock_;
    tls_config.rng = &locked_rng_;
    if (with_client_cert) {
      tls_config.certificate = client_cert_;
      tls_config.signer = tls::Config::software_signer(client_seed_);
    }
    return http::Client(tls::Session::connect(std::move(stream), tls_config));
  }

  crypto::DeterministicRandom rng_;
  LockedRandom locked_rng_;
  SimClock clock_;
  pki::CertificateAuthority ca_;
  pki::TrustStore truststore_;
  dataplane::Fabric fabric_;
  std::optional<pki::Certificate> client_cert_;
  crypto::Ed25519Seed client_seed_{};
};

// ---------------------------------------------------------------------------
// Stress: 512 concurrent keep-alive clients, all three security modes.
// ---------------------------------------------------------------------------

constexpr int kClientThreads = 16;
constexpr int kConnsPerThread = 32;
constexpr int kConnections = kClientThreads * kConnsPerThread;  // 512

TEST_F(ServerRuntimeFixture, StressKeepAliveClientsAllModes) {
  for (const auto mode : {SecurityMode::kHttp, SecurityMode::kHttps,
                          SecurityMode::kTrustedHttps}) {
    SCOPED_TRACE(controller::to_string(mode));
    InMemoryNetwork net;
    ServerRuntime runtime({.workers = 0,
                           .burst_read_timeout = std::chrono::seconds(10),
                           .name = "test-stress"});
    Controller controller(config(mode), fabric_);
    if (mode == SecurityMode::kTrustedHttps) {
      controller.trust_ca(ca_.root_certificate());
    }
    runtime.listen_inmemory(net, "controller:8443",
                            controller.driver_factory());

    const bool with_cert = mode == SecurityMode::kTrustedHttps;
    std::atomic<int> ok_requests{0};
    std::atomic<int> failures{0};
    std::mutex phase_mutex;
    std::condition_variable phase_cv;
    int holding = 0;    // threads that opened all conns and did round one
    bool resume = false;  // set once the main thread checked the invariants

    std::vector<std::thread> threads;
    threads.reserve(kClientThreads);
    for (int t = 0; t < kClientThreads; ++t) {
      threads.emplace_back([&] {
        std::vector<http::Client> conns;
        conns.reserve(kConnsPerThread);
        try {
          // Round one: open every connection and prove it serves.
          for (int i = 0; i < kConnsPerThread; ++i) {
            conns.push_back(
                connect(net, "controller:8443", mode, with_cert));
            if (conns.back().get("/wm/core/controller/summary/json").status ==
                200) {
              ++ok_requests;
            } else {
              ++failures;
            }
          }
        } catch (const Error&) {
          ++failures;
        }
        // Hold all connections open (parked, idle) until the main thread
        // has observed the steady state.
        {
          std::unique_lock<std::mutex> lock(phase_mutex);
          ++holding;
          phase_cv.notify_all();
          phase_cv.wait(lock, [&] { return resume; });
        }
        // Round two: every parked connection must still serve.
        try {
          for (auto& conn : conns) {
            if (conn.get("/wm/core/controller/summary/json").status == 200) {
              ++ok_requests;
            } else {
              ++failures;
            }
          }
          for (auto& conn : conns) conn.close();
        } catch (const Error&) {
          ++failures;
        }
      });
    }

    {
      // Steady state: all 512 connections open and idle.
      std::unique_lock<std::mutex> lock(phase_mutex);
      phase_cv.wait(lock, [&] { return holding == kClientThreads; });
    }
    EXPECT_EQ(runtime.active_connections(), kConnections);
    // The whole fleet is served by the bounded pool, never with more
    // workers busy than the pool owns.
    const std::size_t pool_bound = std::max<std::size_t>(
        2, 2 * std::thread::hardware_concurrency());
    EXPECT_LE(runtime.worker_count(), pool_bound);
    EXPECT_LE(runtime.peak_busy_workers(), runtime.worker_count());
    {
      const std::lock_guard<std::mutex> lock(phase_mutex);
      resume = true;
    }
    phase_cv.notify_all();
    for (auto& t : threads) t.join();

    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(ok_requests.load(), 2 * kConnections);  // zero dropped
    EXPECT_EQ(controller.rejected_connections(), 0u);
  }
}

// ---------------------------------------------------------------------------
// Slow clients: the burst read deadline protects the pool.
// ---------------------------------------------------------------------------

TEST_F(ServerRuntimeFixture, StalledMidRequestPeerCannotStarvePool) {
  InMemoryNetwork net;
  // Two workers, short burst deadline: both workers stalled would mean a
  // dead server; the deadline must free them.
  ServerRuntime runtime({.workers = 2,
                         .burst_read_timeout = std::chrono::milliseconds(100),
                         .name = "test-slow"});
  Controller controller(config(SecurityMode::kHttp), fabric_);
  runtime.listen_inmemory(net, "controller:8443", controller.driver_factory());

  // Two slow-loris peers: send a partial request line, then stall. Each
  // pins a worker only until the 100ms deadline fires.
  auto loris1 = net.connect("controller:8443");
  auto loris2 = net.connect("controller:8443");
  loris1->write(to_bytes("GET /wm/core/contr"));
  loris2->write(to_bytes("GET /wm/core/contr"));

  // Fast clients keep completing while the stalled peers occupy (and then
  // forfeit) workers.
  std::atomic<int> ok{0};
  std::vector<std::thread> fast;
  for (int t = 0; t < 4; ++t) {
    fast.emplace_back([&] {
      for (int i = 0; i < 8; ++i) {
        http::Client client(net.connect("controller:8443"));
        if (client.get("/wm/core/controller/summary/json").status == 200) ++ok;
        client.close();
      }
    });
  }
  for (auto& t : fast) t.join();
  EXPECT_EQ(ok.load(), 32);

  // The stalled connections were dropped: their next read sees EOF.
  const auto expect_dropped = [](net::Stream& s) {
    std::uint8_t byte = 0;
    try {
      EXPECT_EQ(s.read(std::span<std::uint8_t>(&byte, 1)), 0u);
    } catch (const IoError&) {
      // Also acceptable: the write side raced the teardown.
    }
  };
  expect_dropped(*loris1);
  expect_dropped(*loris2);
}

TEST_F(ServerRuntimeFixture, IdleConnectionParksFreeAndServesLater) {
  InMemoryNetwork net;
  ServerRuntime runtime({.workers = 2,
                         .burst_read_timeout = std::chrono::milliseconds(100),
                         .name = "test-idle"});
  Controller controller(config(SecurityMode::kHttp), fabric_);
  runtime.listen_inmemory(net, "controller:8443", controller.driver_factory());

  // A connection that stays silent is parked — the burst deadline only
  // applies once it starts a request, so it outlives many deadlines.
  http::Client idle(net.connect("controller:8443"));
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  EXPECT_EQ(runtime.active_connections(), 1u);
  EXPECT_EQ(idle.get("/wm/core/controller/summary/json").status, 200);
  idle.close();
}

// ---------------------------------------------------------------------------
// Pipelining: userspace-buffered bytes trigger a re-dispatch.
// ---------------------------------------------------------------------------

TEST_F(ServerRuntimeFixture, PipelinedRequestsAllAnswered) {
  InMemoryNetwork net;
  ServerRuntime runtime({.workers = 2,
                         .burst_read_timeout = std::chrono::seconds(5),
                         .name = "test-pipeline"});
  Controller controller(config(SecurityMode::kHttp), fabric_);
  runtime.listen_inmemory(net, "controller:8443", controller.driver_factory());

  auto stream = net.connect("controller:8443");
  // Three requests in a single write: the reactor sees one readiness edge;
  // requests two and three sit in the server's HTTP buffer and must be
  // served via BurstResult::kMoreData re-dispatch.
  http::Request req;
  req.method = "GET";
  req.target = "/wm/core/controller/summary/json";
  Bytes burst;
  for (int i = 0; i < 3; ++i) {
    const Bytes one = http::encode_request(req);
    burst.insert(burst.end(), one.begin(), one.end());
  }
  stream->write(burst);

  http::Connection conn(*stream);
  for (int i = 0; i < 3; ++i) {
    const auto res = conn.read_response();
    ASSERT_TRUE(res.has_value());
    EXPECT_EQ(res->status, 200);
  }
  stream->close();
}

// ---------------------------------------------------------------------------
// Lifecycle: shutdown with parked connections, adopt() contract.
// ---------------------------------------------------------------------------

TEST_F(ServerRuntimeFixture, ShutdownClosesParkedConnections) {
  InMemoryNetwork net;
  auto runtime = std::make_unique<ServerRuntime>(
      ServerOptions{.workers = 2,
                    .burst_read_timeout = std::chrono::seconds(5),
                    .name = "test-shutdown"});
  Controller controller(config(SecurityMode::kHttp), fabric_);
  runtime->listen_inmemory(net, "controller:8443",
                           controller.driver_factory());

  http::Client client(net.connect("controller:8443"));
  EXPECT_EQ(client.get("/wm/core/controller/summary/json").status, 200);
  runtime->shutdown();
  EXPECT_EQ(runtime->active_connections(), 0u);
  // The server end is gone; the client observes EOF (or a closed pipe).
  EXPECT_THROW(client.get("/wm/core/controller/summary/json"), Error);
  runtime.reset();
}

// ---------------------------------------------------------------------------
// Frame driver: framed channels park between frames instead of pinning a
// worker for the connection's lifetime.
// ---------------------------------------------------------------------------

TEST_F(ServerRuntimeFixture, FrameChannelsHeldOpenDoNotPinWorkers) {
  InMemoryNetwork net;
  ServerRuntime runtime({.workers = 2,
                         .burst_read_timeout = std::chrono::seconds(1),
                         .name = "test-frame"});
  runtime.listen_inmemory(net, "agent:7000",
                          frame_driver([](ByteView request) {
                            return Bytes(request.begin(), request.end());
                          }));

  // Three times as many live channels as workers. A driver that held its
  // conversation would pin a worker per channel from its first byte and
  // deadlock on the third channel's first round trip; framed channels
  // release the worker after every frame.
  std::vector<StreamPtr> channels;
  for (int i = 0; i < 6; ++i) channels.push_back(net.connect("agent:7000"));
  for (int round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < channels.size(); ++i) {
      const Bytes request = to_bytes("ping-" + std::to_string(i));
      write_frame(*channels[i], request);
      EXPECT_EQ(read_frame(*channels[i]), request);
    }
  }
  EXPECT_EQ(runtime.active_connections(), channels.size());
  EXPECT_EQ(runtime.worker_count(), 2u);
  for (auto& channel : channels) channel->close();
}

// ---------------------------------------------------------------------------
// A failed TLS accept destroys the transport mid-burst; the runtime's
// teardown must not touch the dead stream, and the surface must keep
// serving authorized clients.
// ---------------------------------------------------------------------------

TEST_F(ServerRuntimeFixture, FailedTlsAcceptDoesNotPoisonRuntime) {
  InMemoryNetwork net;
  ServerRuntime runtime({.workers = 0,
                         .burst_read_timeout = std::chrono::seconds(1),
                         .name = "test-reject"});
  Controller controller(config(SecurityMode::kTrustedHttps), fabric_);
  controller.trust_ca(ca_.root_certificate());
  runtime.listen_inmemory(net, "controller:8443", controller.driver_factory());

  // Anonymous clients are rejected during the handshake: the server-side
  // TLS accept consumes and destroys the transport while throwing.
  for (int i = 0; i < 4; ++i) {
    EXPECT_THROW(connect(net, "controller:8443", SecurityMode::kTrustedHttps,
                         /*with_client_cert=*/false),
                 Error);
  }
  // The rejected connections are reaped (the reject burst may still be
  // finishing when the client's handshake failure surfaces).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (runtime.active_connections() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(runtime.active_connections(), 0u);

  auto authorized = connect(net, "controller:8443",
                            SecurityMode::kTrustedHttps,
                            /*with_client_cert=*/true);
  EXPECT_EQ(authorized.get("/wm/core/controller/summary/json").status, 200);
  authorized.close();
}

// ---------------------------------------------------------------------------
// Sharding: multiple reactors split the connection population; idle
// connections put their scratch into the per-shard pools and still serve.
// ---------------------------------------------------------------------------

TEST_F(ServerRuntimeFixture, ShardedRuntimeBalancesAndParksConnections) {
  InMemoryNetwork net;
  // Shards are explicit: on a single-core CI box the default would
  // collapse to one shard and test nothing.
  ServerRuntime runtime({.workers = 4,
                         .shards = 2,
                         .burst_read_timeout = std::chrono::seconds(10),
                         .name = "test-sharded"});
  ASSERT_EQ(runtime.shard_count(), 2u);
  Controller controller(config(SecurityMode::kHttp), fabric_);
  runtime.listen_inmemory(net, "controller:8443", controller.driver_factory());

  constexpr int kConns = 32;
  std::vector<http::Client> conns;
  conns.reserve(kConns);
  for (int i = 0; i < kConns; ++i) {
    conns.emplace_back(net.connect("controller:8443"));
    EXPECT_EQ(conns.back().get("/wm/core/controller/summary/json").status, 200);
  }
  EXPECT_EQ(runtime.active_connections(), static_cast<std::size_t>(kConns));
  // 32 connections, and still only the pool's 4 workers ever ran bursts.
  EXPECT_EQ(runtime.worker_count(), 4u);
  EXPECT_LE(runtime.peak_busy_workers(), runtime.worker_count());

  // Round-robin shard assignment: an even split, not a hot shard.
  const auto per_shard = runtime.connections_per_shard();
  ASSERT_EQ(per_shard.size(), 2u);
  EXPECT_EQ(per_shard[0] + per_shard[1], static_cast<std::size_t>(kConns));
  EXPECT_EQ(per_shard[0], per_shard[1]);

  // All connections are idle; their parked HTTP scratch lands in the shard
  // pools (poll: the last bursts may still be finishing).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (runtime.pooled_buffers() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GT(runtime.pooled_buffers(), 0u);
  EXPECT_LE(runtime.pooled_buffers(), 2 * 64u);

  // Parked connections reacquire scratch transparently.
  for (auto& conn : conns) {
    EXPECT_EQ(conn.get("/wm/core/controller/summary/json").status, 200);
  }
  for (auto& conn : conns) conn.close();
}

TEST_F(ServerRuntimeFixture, ShardedTcpListenersShareOnePort) {
  // listen_tcp with shards > 1 binds one SO_REUSEPORT listener per shard
  // (or falls back to accept round-robin); either way every client that
  // dials the single advertised port is served.
  ServerRuntime runtime({.workers = 4,
                         .shards = 2,
                         .burst_read_timeout = std::chrono::seconds(10),
                         .name = "test-sharded-tcp"});
  Controller controller(config(SecurityMode::kHttp), fabric_);
  auto& listener = runtime.listen_tcp(0, controller.driver_factory());
  const std::uint16_t port = listener.port();
  ASSERT_NE(port, 0);

  constexpr int kConns = 16;
  std::vector<http::Client> conns;
  conns.reserve(kConns);
  for (int i = 0; i < kConns; ++i) {
    conns.emplace_back(TcpStream::connect("127.0.0.1", port));
    EXPECT_EQ(conns.back().get("/wm/core/controller/summary/json").status, 200);
  }
  EXPECT_EQ(runtime.active_connections(), static_cast<std::size_t>(kConns));
  // Kernel REUSEPORT hashing decides the split; the invariant is that the
  // shards jointly own the whole population.
  const auto per_shard = runtime.connections_per_shard();
  ASSERT_EQ(per_shard.size(), 2u);
  EXPECT_EQ(per_shard[0] + per_shard[1], static_cast<std::size_t>(kConns));

  // Second round on the (parked) connections, then teardown.
  for (auto& conn : conns) {
    EXPECT_EQ(conn.get("/wm/core/controller/summary/json").status, 200);
  }
  for (auto& conn : conns) conn.close();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (runtime.active_connections() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(runtime.active_connections(), 0u);
}

}  // namespace
}  // namespace vnfsgx::net
