// Soak: the 100k-resident-channel contract at test scale.
//
// Ten thousand keep-alive HTTP connections against a sharded runtime on the
// in-memory network (ctest label `soak`):
//  * every connection serves a request, goes idle (parks: scratch buffers
//    released to the per-shard pools), then serves again after reacquiring
//    its buffers — zero drops across both rounds;
//  * pooled memory stays bounded by shards x pool cap, not by the
//    connection count;
//  * round-robin listener sharding balances connections evenly;
//  * no per-connection threads exist at any point.
//
// Sanitizer builds run a reduced population (instrumentation multiplies
// memory and context-switch cost); the dispatch contract exercised is
// identical. VNFSGX_SOAK_CONNS overrides the population for manual runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "http/client.h"
#include "http/runtime.h"
#include "http/server.h"
#include "net/inmemory.h"
#include "net/server.h"

namespace vnfsgx::net {
namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr int kDefaultConns = 1000;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr int kDefaultConns = 1000;
#else
constexpr int kDefaultConns = 10'000;
#endif
#else
constexpr int kDefaultConns = 10'000;
#endif

int soak_connections() {
  if (const char* env = std::getenv("VNFSGX_SOAK_CONNS")) {
    const int parsed = std::atoi(env);
    if (parsed > 0) return parsed;
  }
  return kDefaultConns;
}

constexpr int kClientThreads = 8;
constexpr std::size_t kShards = 4;

TEST(ServerSoak, TenThousandChannelsParkReacquireServe) {
  const int conns = soak_connections();

  http::Router router;
  router.add("GET", "/ping",
             [](const http::Request&, const http::RequestContext&) {
               return http::Response::text(200, "pong");
             });

  InMemoryNetwork net;
  ServerRuntime runtime({.workers = 4,
                         .shards = kShards,
                         .burst_read_timeout = std::chrono::seconds(10),
                         .name = "soak"});
  ASSERT_EQ(runtime.shard_count(), kShards);
  runtime.listen_inmemory(net, "soak:80", http::make_http_driver_factory(router));

  // Round 1: open every connection and serve one request. Clients are
  // partitioned over a few threads; each client object holds its
  // keep-alive connection open for the later rounds.
  std::vector<std::vector<http::Client>> clients(kClientThreads);
  std::atomic<int> ok{0};
  const auto run_round = [&](const auto& per_client) {
    std::vector<std::thread> threads;
    for (int t = 0; t < kClientThreads; ++t) {
      threads.emplace_back([&, t] {
        for (auto& client : clients[t]) {
          if (per_client(client)) ++ok;
        }
      });
    }
    for (auto& thread : threads) thread.join();
  };

  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kClientThreads; ++t) {
      const int share = conns / kClientThreads + (t < conns % kClientThreads);
      threads.emplace_back([&, t, share] {
        clients[t].reserve(share);
        for (int i = 0; i < share; ++i) {
          clients[t].emplace_back(net.connect("soak:80"));
          if (clients[t].back().get("/ping").status == 200) ++ok;
        }
      });
    }
    for (auto& thread : threads) thread.join();
  }
  EXPECT_EQ(ok.load(), conns) << "round 1 dropped requests";
  EXPECT_EQ(runtime.active_connections(), static_cast<std::size_t>(conns));
  // Every connection is served by the pool's 4 workers, none by its own.
  EXPECT_EQ(runtime.worker_count(), 4u);
  EXPECT_LE(runtime.peak_busy_workers(), runtime.worker_count());

  // Round-robin sharding: the population splits evenly.
  const auto per_shard = runtime.connections_per_shard();
  ASSERT_EQ(per_shard.size(), kShards);
  const auto [min_it, max_it] =
      std::minmax_element(per_shard.begin(), per_shard.end());
  EXPECT_LE(*max_it - *min_it, 1u) << "shard imbalance";

  // Every connection is now idle and parked: its HTTP scratch went back to
  // the per-shard pools, which stay bounded by shards x pool cap no matter
  // how many connections parked into them.
  const std::size_t pooled = runtime.pooled_buffers();
  EXPECT_GT(pooled, 0u) << "idle connections did not release scratch";
  EXPECT_LE(pooled, kShards * 64u) << "pool bound violated";

  // Round 2: the same (parked) connections serve again — reacquiring
  // scratch must be invisible to the protocol.
  ok = 0;
  run_round([](http::Client& client) {
    return client.get("/ping").status == 200;
  });
  EXPECT_EQ(ok.load(), conns) << "round 2 (reacquire) dropped requests";
  EXPECT_EQ(runtime.active_connections(), static_cast<std::size_t>(conns));
  EXPECT_LE(runtime.pooled_buffers(), kShards * 64u);

  // Teardown: closing every client EOFs the server ends; the runtime reaps
  // all of them without leaking connections.
  for (auto& bucket : clients) {
    for (auto& client : bucket) client.close();
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (runtime.active_connections() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(runtime.active_connections(), 0u);
  runtime.shutdown();
}

TEST(ServerSoak, IdleEvictionReclaimsSilentConnections) {
  // A population of connections that never sends a byte is evicted by the
  // per-shard timer wheels once the idle timeout passes — the resident-set
  // backstop against clients that connect and vanish.
  http::Router router;
  router.add("GET", "/ping",
             [](const http::Request&, const http::RequestContext&) {
               return http::Response::text(200, "pong");
             });

  InMemoryNetwork net;
  ServerRuntime runtime({.workers = 2,
                         .shards = 2,
                         .burst_read_timeout = std::chrono::seconds(5),
                         .idle_timeout = std::chrono::milliseconds(200),
                         .name = "soak-evict"});
  runtime.listen_inmemory(net, "soak:80", http::make_http_driver_factory(router));

  constexpr int kSilent = 64;
  std::vector<StreamPtr> silent;
  for (int i = 0; i < kSilent; ++i) silent.push_back(net.connect("soak:80"));
  EXPECT_EQ(runtime.active_connections(), static_cast<std::size_t>(kSilent));

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (runtime.active_connections() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(runtime.active_connections(), 0u);
  EXPECT_GE(runtime.idle_evictions(), static_cast<std::uint64_t>(kSilent));

  // The surface keeps serving fresh, talkative connections.
  http::Client live(net.connect("soak:80"));
  EXPECT_EQ(live.get("/ping").status, 200);
  live.close();
  runtime.shutdown();
}

}  // namespace
}  // namespace vnfsgx::net
