// ServerRuntime: shared scalable server scaffolding for every listening
// surface (controller REST, VM operator API, IAS HTTP API, examples).
//
// Idle keep-alive connections park in an epoll reactor (or behind a pipe
// readiness callback for the in-memory transport) costing zero threads.
// When a connection becomes readable it is queued to a bounded worker pool;
// the worker runs the protocol's blocking code for exactly one
// request/response burst, then re-arms the connection (EPOLLONESHOT).
// Thread count is therefore bounded by *active* requests, not open
// connections.
//
// The runtime is sharded N ways: each shard owns a reactor, a hierarchical
// timer wheel (burst-read deadlines + idle-connection eviction), a scratch
// buffer pool, and a dispatch queue. Accepted fds have shard affinity —
// SO_REUSEPORT listeners (one per shard) when the kernel allows it, else
// accept-fd round-robin from a single listener — so readiness, timers, and
// teardown for one connection always run against one shard's state.
// Workers pull from their home shard's queue first and steal from other
// shards when idle, so a bursty shard borrows the whole pool.
//
// Between bursts the runtime puts connections on a diet: the driver's
// on_park hook releases per-connection scratch (TLS record buffers, HTTP
// read buffers) into the shard's buffer pool, to be lazily reacquired on
// the next readiness burst. A per-burst read deadline
// (Stream::set_read_timeout, backstopped by the wheel) stops a stalled
// mid-request peer from pinning a worker; an optional idle timeout evicts
// connections that stay silent too long.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/buffer_pool.h"
#include "net/inmemory.h"
#include "net/reactor.h"
#include "net/stream.h"
#include "net/tcp.h"
#include "net/timer_wheel.h"

namespace vnfsgx::net {

/// What a worker reports after one readiness burst.
enum class BurstResult {
  kKeepAlive,  // park; dispatch again on the next readiness event
  kMoreData,   // bytes already buffered in userspace — re-queue immediately
  kClose,      // tear the connection down
};

/// Per-connection protocol state owned by the runtime. Created when a
/// connection is accepted; on_readable() runs on a worker thread once per
/// readiness burst and must consume at most one request/response exchange
/// before returning. Every read in the burst is bounded by the runtime's
/// burst read deadline.
class ConnectionDriver {
 public:
  virtual ~ConnectionDriver() = default;
  virtual BurstResult on_readable() = 0;

  /// False once the driver has destroyed its transport ahead of its own
  /// destruction (e.g. a TLS accept that consumed the stream and threw).
  /// The runtime checks this before touching the transport's fd or its
  /// borrowed stream pointer during teardown; kKeepAlive/kMoreData results
  /// promise the transport is still alive.
  virtual bool transport_alive() const { return true; }

  /// Connection diet hook: the runtime calls this when parking the
  /// connection after a kKeepAlive burst. Implementations release scratch
  /// buffers into `pool` (may be null: just free) and compact any state
  /// that can be rebuilt lazily; they must preserve bytes already buffered
  /// for the reader. Returns an estimate of bytes released.
  virtual std::size_t on_park(BufferPool* /*pool*/) { return 0; }
};

/// Builds the driver for a freshly accepted transport stream. The runtime
/// has already applied its burst read deadline to the stream; factories
/// for trusted multi-round-trip protocols may override it (set 0).
using DriverFactory =
    std::function<std::unique_ptr<ConnectionDriver>(StreamPtr)>;

/// Driver for length-prefixed framed request/response protocols (framing.h,
/// e.g. the attestation RPC): each readiness burst reads exactly one frame,
/// passes it to `handler`, writes the returned frame back, then parks. The
/// connection holds no worker between frames, so callers may keep channels
/// open across long pauses (IAS round trips, operator think time) without
/// starving the pool. EOF at a frame boundary closes cleanly; a peer that
/// stalls mid-frame is dropped by the burst read deadline.
DriverFactory frame_driver(std::function<Bytes(ByteView)> handler);

struct ServerOptions {
  /// Worker pool size; 0 = max(2, 2 x hardware concurrency).
  std::size_t workers = 0;
  /// Reactor shards; 0 = max(1, hardware concurrency / 2). Each shard owns
  /// a reactor thread, a timer wheel, a buffer pool and a dispatch queue.
  std::size_t shards = 0;
  /// Per-burst read deadline applied to accepted transports (0 = none).
  /// Enforced by SO_RCVTIMEO on the transport and backstopped by the
  /// shard's timer wheel (which forcibly shuts the read side down if a
  /// burst overruns the deadline with margin).
  std::chrono::milliseconds burst_read_timeout{1000};
  /// Evict connections that stay parked (no readiness) this long
  /// (0 = keep idle connections forever, the historical behaviour).
  std::chrono::milliseconds idle_timeout{0};
  /// Prefer one SO_REUSEPORT listener per shard (kernel-balanced accept
  /// affinity); falls back to a single listener with accept-fd round-robin
  /// when the bind fails or there is only one shard.
  bool reuse_port = true;
  /// Metrics label value for this runtime's vnfsgx_server_* instruments.
  std::string name = "server";
};

class ServerRuntime {
 public:
  explicit ServerRuntime(ServerOptions options = {});
  ~ServerRuntime();

  ServerRuntime(const ServerRuntime&) = delete;
  ServerRuntime& operator=(const ServerRuntime&) = delete;

  /// Bind a TCP listener on 127.0.0.1:`port` (0 = ephemeral) and serve
  /// accepted connections through the pool. With multiple shards this
  /// binds one SO_REUSEPORT listener per shard (same port); the returned
  /// reference is the first of the group (callers read the bound port).
  TcpListener& listen_tcp(std::uint16_t port, DriverFactory factory,
                          int backlog = TcpListener::kDefaultBacklog);

  /// Register `address` on the in-memory network; connections dispatch
  /// through the same per-shard queues + worker pool as TCP ones. Connects
  /// spread round-robin across shards (the in-memory SO_REUSEPORT
  /// analogue); no per-connection thread is ever spawned.
  void listen_inmemory(InMemoryNetwork& network, const std::string& address,
                       DriverFactory factory);

  /// Adopt an already-connected stream (pipe or TCP) into the pool; the
  /// connection is assigned to a shard round-robin.
  void adopt(StreamPtr stream, const DriverFactory& factory);

  /// Stop accepting, drain workers, and close every connection. Called by
  /// the destructor; idempotent.
  void shutdown();

  std::size_t worker_count() const { return workers_.size(); }
  std::size_t shard_count() const { return shards_.size(); }
  std::size_t active_connections() const;
  /// Per-shard open-connection counts (for balance assertions).
  std::vector<std::size_t> connections_per_shard() const;
  /// Scratch buffers currently held across all shard pools (bounded by
  /// shards x pool cap regardless of connection count).
  std::size_t pooled_buffers() const;
  /// High-water mark of concurrently busy workers (for bounds assertions).
  std::size_t peak_busy_workers() const;
  /// Bursts claimed by a worker from a non-home shard's queue.
  std::uint64_t steal_count() const {
    return steals_.load(std::memory_order_relaxed);
  }
  /// Connections evicted by the idle timeout.
  std::uint64_t idle_evictions() const {
    return idle_evictions_.load(std::memory_order_relaxed);
  }

 private:
  struct Connection;
  struct Listener;
  struct Shard;

  void reactor_loop(Shard& shard);
  void worker_loop(std::size_t worker_index);
  void notify(Shard& shard, std::uint64_t id);
  void enqueue_locked(Shard& shard, Connection& conn);
  void poke_idle_shard(std::size_t except);
  Connection* try_claim_locked(Shard& shard, bool stolen);
  void finish_burst(Shard& shard, Connection* conn, BurstResult result);
  void destroy_connection(Shard& shard, std::unique_ptr<Connection> conn);
  void handle_expired_timers(Shard& shard,
                             const std::vector<std::uint64_t>& tokens,
                             std::vector<std::unique_ptr<Connection>>& dead);
  std::uint64_t register_connection(Shard& shard, StreamPtr stream,
                                    const DriverFactory& factory, int fd);
  Shard& next_shard();

  ServerOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::size_t> round_robin_{0};
  std::atomic<bool> stopping_{false};
  std::atomic<std::size_t> busy_workers_{0};
  std::atomic<std::size_t> peak_busy_workers_{0};
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> idle_evictions_{0};

  std::vector<std::thread> workers_;
};

}  // namespace vnfsgx::net
