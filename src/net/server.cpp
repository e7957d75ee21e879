#include "net/server.h"

#include <sys/socket.h>

#include <algorithm>
#include <array>
#include <chrono>

#include "common/logging.h"
#include "net/framing.h"
#include "obs/metrics.h"

namespace vnfsgx::net {

namespace {

using SteadyClock = std::chrono::steady_clock;

/// Reactor tokens at or above this are listener slots; below are
/// connection ids (the global id counter never gets near 2^62).
constexpr std::uint64_t kListenerTokenBase = 1ULL << 62;

/// Margin added to the burst deadline before the timer wheel forcibly
/// shuts a connection's read side down. SO_RCVTIMEO is the precise
/// first-line deadline; the wheel is the backstop for bursts stuck
/// somewhere other than a transport read.
constexpr std::chrono::milliseconds kBurstDeadlineGrace{250};

double us_since(SteadyClock::time_point start) {
  return std::chrono::duration<double, std::micro>(SteadyClock::now() - start)
      .count();
}

class FrameDriver final : public ConnectionDriver {
 public:
  FrameDriver(StreamPtr stream, std::function<Bytes(ByteView)> handler)
      : stream_(std::move(stream)), handler_(std::move(handler)) {}

  BurstResult on_readable() override {
    Bytes request;
    try {
      request = read_frame(*stream_);
    } catch (const TimeoutError&) {
      throw;  // stalled mid-frame: metered + dropped by the runtime
    } catch (const IoError&) {
      return BurstResult::kClose;  // EOF at a frame boundary
    }
    write_frame(*stream_, handler_(request));
    return BurstResult::kKeepAlive;
  }

  std::size_t on_park(BufferPool* pool) override {
    return stream_->park_buffers(pool);
  }

 private:
  StreamPtr stream_;
  std::function<Bytes(ByteView)> handler_;
};

}  // namespace

DriverFactory frame_driver(std::function<Bytes(ByteView)> handler) {
  return [handler = std::move(handler)](StreamPtr stream) {
    return std::make_unique<FrameDriver>(std::move(stream), handler);
  };
}

struct ServerRuntime::Connection {
  std::uint64_t id = 0;
  int fd = -1;           // -1: readiness comes from the pipe callback
  // Borrowed transport pointer for the level probe at burst end. Only valid
  // while the driver reports transport_alive() — kClose bursts may have
  // destroyed the stream already, so teardown never dereferences it.
  Stream* raw = nullptr;
  std::unique_ptr<ConnectionDriver> driver;
  enum class State { kParked, kQueued, kRunning } state = State::kParked;
  /// Pipe readiness observed while kRunning. Cleared when the burst ends,
  /// then consulted after the level probe — closing the window between
  /// "probe said empty" and "parked" where a send would otherwise vanish.
  bool pending = false;
  /// Set by the shard's timer wheel when the burst-deadline backstop shut
  /// the read side down mid-burst; the worker meters it as a timeout.
  std::atomic<bool> deadline_fired{false};
  std::uint64_t idle_timer = 0;   // wheel id; 0 = none armed
  std::uint64_t burst_timer = 0;  // wheel id; 0 = none armed
  SteadyClock::time_point enqueued_at;
};

struct ServerRuntime::Listener {
  std::unique_ptr<TcpListener> listener;
  DriverFactory factory;
  /// Fallback affinity mode: this shard accepts for the whole group and
  /// spreads accepted fds round-robin (no SO_REUSEPORT available).
  bool spread = false;
};

/// One runtime shard: a reactor thread plus everything whose ownership
/// follows fd affinity — the timer wheel, the scratch pool, the dispatch
/// queue, and the connection table. All mutable shard state is guarded by
/// `mutex`; lock order is pipe lock -> shard mutex (never the reverse),
/// and no path holds two shard mutexes at once.
struct ServerRuntime::Shard {
  explicit Shard(std::size_t i) : index(i), wheel(SteadyClock::now()) {}

  const std::size_t index;
  Reactor reactor;
  TimerWheel wheel;
  BufferPool pool;
  mutable std::mutex mutex;
  std::condition_variable cv;
  std::deque<std::uint64_t> queue;
  std::map<std::uint64_t, std::unique_ptr<Connection>> connections;
  std::vector<std::unique_ptr<Listener>> listeners;
  /// Workers blocked on `cv` (home-shard idle). Read without the mutex by
  /// other shards deciding where to send a steal hint.
  std::atomic<std::size_t> waiting_workers{0};
  /// Another shard has queued work and found no waiting worker of its own;
  /// wakes one of ours to go stealing. Checked in the cv predicate.
  std::atomic<bool> steal_hint{false};
  obs::Gauge* conns_gauge = nullptr;
  obs::Gauge* queue_gauge = nullptr;
  std::thread reactor_thread;
};

namespace {

struct RuntimeMetrics {
  obs::Gauge& workers;
  obs::Gauge& busy;
  obs::Gauge& queue_depth;
  obs::Gauge& active;
  obs::Counter& dispatches;
  obs::Counter& timeouts;
  obs::Counter& driver_errors;
  obs::Counter& steals;
  obs::Counter& idle_evictions;
  obs::Counter& parked_bytes;
  obs::Histogram& queue_wait_us;
  obs::Histogram& burst_us;
};

RuntimeMetrics make_metrics(const std::string& name) {
  const obs::Labels labels{{"runtime", name}};
  auto& reg = obs::registry();
  return RuntimeMetrics{
      reg.gauge("vnfsgx_server_workers", labels,
                "Worker pool size (bounded; independent of open connections)"),
      reg.gauge("vnfsgx_server_busy_workers", labels,
                "Workers currently running a request/response burst"),
      reg.gauge("vnfsgx_server_queue_depth", labels,
                "Ready connections waiting for a free worker"),
      reg.gauge("vnfsgx_server_active_connections", labels,
                "Open connections owned by the runtime (parked + busy)"),
      reg.counter("vnfsgx_server_dispatches_total", labels,
                  "Readiness bursts handed to the worker pool"),
      reg.counter("vnfsgx_server_burst_timeouts_total", labels,
                  "Connections dropped because a burst read deadline "
                  "expired (stalled mid-request peer)"),
      reg.counter("vnfsgx_server_driver_errors_total", labels,
                  "Bursts terminated by an unexpected driver exception"),
      reg.counter("vnfsgx_server_steals_total", labels,
                  "Bursts claimed by a worker from a non-home shard"),
      reg.counter("vnfsgx_server_idle_evictions_total", labels,
                  "Parked connections evicted by the idle timeout"),
      reg.counter("vnfsgx_server_parked_bytes_total", labels,
                  "Scratch bytes released by parking idle connections"),
      reg.histogram("vnfsgx_server_queue_wait_us", labels,
                    obs::Histogram::latency_bounds_us(),
                    "Delay between readiness and a worker picking it up"),
      reg.histogram("vnfsgx_server_burst_duration_us", labels,
                    obs::Histogram::latency_bounds_us(),
                    "Time a worker spent on one request/response burst"),
  };
}

RuntimeMetrics& metrics_for(const std::string& name) {
  // Instruments live for the registry's lifetime; one cached bundle per
  // runtime name (runtimes with the same name share instruments).
  static std::mutex mutex;
  static std::map<std::string, std::unique_ptr<RuntimeMetrics>> cache;
  const std::lock_guard<std::mutex> lock(mutex);
  auto& slot = cache[name];
  if (!slot) slot = std::make_unique<RuntimeMetrics>(make_metrics(name));
  return *slot;
}

}  // namespace

ServerRuntime::ServerRuntime(ServerOptions options)
    : options_(std::move(options)) {
  if (options_.workers == 0) {
    options_.workers =
        std::max<std::size_t>(2, 2 * std::thread::hardware_concurrency());
  }
  if (options_.shards == 0) {
    options_.shards =
        std::max<std::size_t>(1, std::thread::hardware_concurrency() / 2);
  }
  auto& m = metrics_for(options_.name);
  m.workers.add(static_cast<std::int64_t>(options_.workers));
  shards_.reserve(options_.shards);
  for (std::size_t i = 0; i < options_.shards; ++i) {
    auto shard = std::make_unique<Shard>(i);
    const obs::Labels labels{{"runtime", options_.name},
                             {"shard", std::to_string(i)}};
    shard->conns_gauge = &obs::registry().gauge(
        "vnfsgx_server_shard_conns", labels,
        "Open connections owned by this runtime shard");
    shard->queue_gauge = &obs::registry().gauge(
        "vnfsgx_server_shard_queue_depth", labels,
        "Ready connections waiting in this shard's dispatch queue");
    shards_.push_back(std::move(shard));
  }
  for (auto& shard : shards_) {
    shard->reactor_thread =
        std::thread([this, s = shard.get()] { reactor_loop(*s); });
  }
  workers_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ServerRuntime::~ServerRuntime() { shutdown(); }

ServerRuntime::Shard& ServerRuntime::next_shard() {
  return *shards_[round_robin_.fetch_add(1, std::memory_order_relaxed) %
                  shards_.size()];
}

TcpListener& ServerRuntime::listen_tcp(std::uint16_t port,
                                       DriverFactory factory, int backlog) {
  const auto attach = [this](Shard& shard, std::unique_ptr<TcpListener> tcp,
                             DriverFactory f, bool spread) -> TcpListener& {
    tcp->set_nonblocking();
    TcpListener& ref = *tcp;
    const std::lock_guard<std::mutex> lock(shard.mutex);
    if (stopping_.load(std::memory_order_acquire)) {
      throw Error("server runtime: already shut down");
    }
    const std::uint64_t token = kListenerTokenBase + shard.listeners.size();
    shard.reactor.add(ref.native_handle(), token, /*oneshot=*/false);
    shard.listeners.push_back(std::make_unique<Listener>(
        Listener{std::move(tcp), std::move(f), spread}));
    return ref;
  };

  if (shards_.size() > 1 && options_.reuse_port) {
    try {
      // One SO_REUSEPORT listener per shard: the kernel spreads accepts,
      // and each connection's readiness/timers/teardown stay shard-local.
      std::vector<std::unique_ptr<TcpListener>> group;
      group.push_back(
          std::make_unique<TcpListener>(port, backlog, /*reuse_port=*/true));
      const std::uint16_t bound = group.front()->port();
      for (std::size_t i = 1; i < shards_.size(); ++i) {
        group.push_back(std::make_unique<TcpListener>(bound, backlog, true));
      }
      TcpListener* first = nullptr;
      DriverFactory shared = std::move(factory);
      for (std::size_t i = 0; i < group.size(); ++i) {
        TcpListener& ref = attach(*shards_[i], std::move(group[i]), shared,
                                  /*spread=*/false);
        if (i == 0) first = &ref;
      }
      return *first;
    } catch (const Error& e) {
      VNFSGX_LOG_WARN("server", options_.name,
                      ": SO_REUSEPORT group unavailable, falling back to "
                      "accept round-robin: ",
                      e.what());
    }
  }
  // Single listener on shard 0; with multiple shards its accepted fds are
  // spread round-robin so the other shards still share the load.
  auto listener = std::make_unique<TcpListener>(port, backlog);
  return attach(*shards_[0], std::move(listener), std::move(factory),
                /*spread=*/shards_.size() > 1);
}

void ServerRuntime::listen_inmemory(InMemoryNetwork& network,
                                    const std::string& address,
                                    DriverFactory factory) {
  // In-memory analogue of the SO_REUSEPORT group: one accept handler per
  // shard, connects spread round-robin by the network.
  std::vector<InMemoryNetwork::AcceptHandler> handlers;
  handlers.reserve(shards_.size());
  for (auto& shard : shards_) {
    handlers.push_back([this, s = shard.get(), factory](StreamPtr stream) {
      register_connection(*s, std::move(stream), factory, -1);
    });
  }
  network.serve_sharded(address, std::move(handlers));
}

void ServerRuntime::adopt(StreamPtr stream, const DriverFactory& factory) {
  int fd = -1;
  if (auto* tcp = dynamic_cast<TcpStream*>(stream.get())) {
    fd = tcp->native_handle();
  } else if (!set_pipe_readable_callback(*stream, nullptr)) {
    // Probe: non-TCP streams must be pipes, or there is no way to learn
    // about readiness while parked.
    throw Error("server runtime: adopted stream has no readiness source");
  }
  register_connection(next_shard(), std::move(stream), factory, fd);
}

std::uint64_t ServerRuntime::register_connection(Shard& shard,
                                                 StreamPtr stream,
                                                 const DriverFactory& factory,
                                                 int fd) {
  stream->set_read_timeout(options_.burst_read_timeout);
  Stream* raw = stream.get();
  auto driver = factory(std::move(stream));
  if (!driver) return 0;  // factory rejected the connection

  auto conn = std::make_unique<Connection>();
  conn->fd = fd;
  conn->raw = raw;
  conn->driver = std::move(driver);
  std::uint64_t id = 0;
  {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    if (stopping_.load(std::memory_order_acquire)) {
      return 0;  // conn destructs; driver closes the stream
    }
    id = next_id_.fetch_add(1, std::memory_order_relaxed);
    conn->id = id;
    Connection& ref = *conn;
    shard.connections.emplace(id, std::move(conn));
    metrics_for(options_.name).active.add(1);
    shard.conns_gauge->add(1);
    if (options_.idle_timeout.count() > 0) {
      const bool was_empty = shard.wheel.armed() == 0;
      ref.idle_timer = shard.wheel.schedule(options_.idle_timeout, id << 1);
      if (was_empty) shard.reactor.wake();
    }
    // Level-triggered + ONESHOT: if bytes already arrived, the event fires
    // immediately after this add.
    if (fd >= 0) shard.reactor.add(fd, id, /*oneshot=*/true);
  }
  if (fd < 0) {
    // Install the pipe readiness hook outside the shard mutex (the hook
    // runs under the pipe's lock and itself takes the shard mutex — keep
    // the order one-way).
    set_pipe_readable_callback(*raw,
                               [this, s = &shard, id] { notify(*s, id); });
    // Level-triggered catch-up: dispatch only if bytes or EOF raced ahead
    // of the hook installation. An idle accepted connection stays parked —
    // an unconditional dispatch would pin a worker until the burst
    // deadline and then wrongly drop the idle peer.
    if (pipe_readable(*raw)) notify(shard, id);
  }
  return id;
}

void ServerRuntime::notify(Shard& shard, std::uint64_t id) {
  const std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.connections.find(id);
  if (it == shard.connections.end()) return;
  Connection& conn = *it->second;
  switch (conn.state) {
    case Connection::State::kParked:
      enqueue_locked(shard, conn);
      break;
    case Connection::State::kRunning:
      // The in-flight burst may or may not consume the data this event
      // announces. finish_burst clears this flag and then level-probes the
      // pipe, so a stale event costs nothing while a fresh one (arriving
      // after the probe) still schedules a dispatch.
      conn.pending = true;
      break;
    case Connection::State::kQueued:
      break;
  }
}

void ServerRuntime::enqueue_locked(Shard& shard, Connection& conn) {
  if (conn.idle_timer != 0) {
    shard.wheel.cancel(conn.idle_timer);
    conn.idle_timer = 0;
  }
  conn.state = Connection::State::kQueued;
  conn.enqueued_at = SteadyClock::now();
  shard.queue.push_back(conn.id);
  auto& m = metrics_for(options_.name);
  m.queue_depth.add(1);
  shard.queue_gauge->add(1);
  m.dispatches.add();
  if (shard.waiting_workers.load(std::memory_order_relaxed) > 0) {
    shard.cv.notify_one();
  } else {
    poke_idle_shard(shard.index);
  }
}

void ServerRuntime::poke_idle_shard(std::size_t except) {
  // Find a shard with a parked worker and hint it to come stealing. The
  // hint is atomic and the notify is mutex-free, so this never nests shard
  // mutexes; a missed wakeup only costs the worker's wait_for backstop.
  for (std::size_t k = 1; k < shards_.size(); ++k) {
    Shard& other = *shards_[(except + k) % shards_.size()];
    if (other.waiting_workers.load(std::memory_order_relaxed) > 0) {
      other.steal_hint.store(true, std::memory_order_relaxed);
      other.cv.notify_one();
      return;
    }
  }
}

ServerRuntime::Connection* ServerRuntime::try_claim_locked(Shard& shard,
                                                           bool stolen) {
  auto& m = metrics_for(options_.name);
  while (!shard.queue.empty()) {
    if (stopping_.load(std::memory_order_acquire)) return nullptr;
    const std::uint64_t id = shard.queue.front();
    shard.queue.pop_front();
    m.queue_depth.add(-1);
    shard.queue_gauge->add(-1);
    const auto it = shard.connections.find(id);
    if (it == shard.connections.end()) continue;
    Connection& conn = *it->second;
    conn.state = Connection::State::kRunning;
    conn.pending = false;
    conn.deadline_fired.store(false, std::memory_order_relaxed);
    if (conn.fd >= 0 && options_.burst_read_timeout.count() > 0) {
      const bool was_empty = shard.wheel.armed() == 0;
      conn.burst_timer = shard.wheel.schedule(
          options_.burst_read_timeout + kBurstDeadlineGrace, (id << 1) | 1);
      if (was_empty) shard.reactor.wake();
    }
    const std::size_t busy =
        busy_workers_.fetch_add(1, std::memory_order_relaxed) + 1;
    std::size_t peak = peak_busy_workers_.load(std::memory_order_relaxed);
    while (busy > peak &&
           !peak_busy_workers_.compare_exchange_weak(
               peak, busy, std::memory_order_relaxed)) {
    }
    m.busy.add(1);
    m.queue_wait_us.observe(us_since(conn.enqueued_at));
    if (stolen) {
      steals_.fetch_add(1, std::memory_order_relaxed);
      m.steals.add();
    }
    return &conn;
  }
  return nullptr;
}

void ServerRuntime::reactor_loop(Shard& shard) {
  std::array<Reactor::Event, 64> events;
  std::vector<std::uint64_t> expired;
  std::vector<std::unique_ptr<Connection>> dead;
  while (true) {
    int timeout_ms = -1;
    {
      const std::lock_guard<std::mutex> lock(shard.mutex);
      const auto next = shard.wheel.next_expiry(SteadyClock::now());
      if (next.count() >= 0) {
        timeout_ms = static_cast<int>(
            std::clamp<std::int64_t>(next.count(), 1, 100));
      }
    }
    std::size_t n = 0;
    try {
      n = shard.reactor.wait(events, timeout_ms);
    } catch (const Error& e) {
      VNFSGX_LOG_WARN("server", options_.name, ": reactor wait: ", e.what());
      return;
    }
    if (stopping_.load(std::memory_order_acquire)) return;
    expired.clear();
    dead.clear();
    {
      const std::lock_guard<std::mutex> lock(shard.mutex);
      shard.wheel.advance(SteadyClock::now(), expired);
      if (!expired.empty()) handle_expired_timers(shard, expired, dead);
    }
    for (auto& conn : dead) destroy_connection(shard, std::move(conn));
    for (std::size_t i = 0; i < n; ++i) {
      const Reactor::Event& event = events[i];
      if (event.wake) continue;
      if (event.token >= kListenerTokenBase) {
        Listener* listener = nullptr;
        {
          const std::lock_guard<std::mutex> lock(shard.mutex);
          const std::size_t index =
              static_cast<std::size_t>(event.token - kListenerTokenBase);
          if (index < shard.listeners.size()) {
            listener = shard.listeners[index].get();
          }
        }
        if (listener == nullptr) continue;
        // Drain the accept queue. Listeners are only destroyed after this
        // thread is joined, so the borrowed pointer stays valid.
        while (auto accepted = listener->listener->try_accept()) {
          const int fd = accepted->native_handle();
          // SO_REUSEPORT listeners keep the fd here; the fallback single
          // listener spreads accepted fds across the shard group.
          Shard& target = listener->spread ? next_shard() : shard;
          try {
            register_connection(target, std::move(accepted),
                                listener->factory, fd);
          } catch (const Error& e) {
            VNFSGX_LOG_WARN("server", options_.name,
                            ": rejected connection: ", e.what());
          }
        }
        continue;
      }
      // Connection readiness (readable and/or hangup — either way a worker
      // must run the driver so it can observe data or EOF).
      notify(shard, event.token);
    }
  }
}

void ServerRuntime::handle_expired_timers(
    Shard& shard, const std::vector<std::uint64_t>& tokens,
    std::vector<std::unique_ptr<Connection>>& dead) {
  // Caller holds shard.mutex. Token = (connection id << 1) | kind.
  auto& m = metrics_for(options_.name);
  for (const std::uint64_t token : tokens) {
    const std::uint64_t id = token >> 1;
    const bool burst_kind = (token & 1) != 0;
    const auto it = shard.connections.find(id);
    if (it == shard.connections.end()) continue;  // already torn down
    Connection& conn = *it->second;
    if (burst_kind) {
      if (conn.state != Connection::State::kRunning) continue;  // stale
      // Burst overran its deadline past the transport timeout's grace:
      // force the blocked read to observe EOF. The worker sees the flag
      // and meters/teardowns the connection as a timeout.
      conn.deadline_fired.store(true, std::memory_order_release);
      conn.burst_timer = 0;
      if (conn.fd >= 0) ::shutdown(conn.fd, SHUT_RD);
    } else {
      conn.idle_timer = 0;
      if (conn.state != Connection::State::kParked) continue;  // stale
      dead.push_back(std::move(it->second));
      shard.connections.erase(it);
      m.active.add(-1);
      shard.conns_gauge->add(-1);
      idle_evictions_.fetch_add(1, std::memory_order_relaxed);
      m.idle_evictions.add();
    }
  }
}

void ServerRuntime::worker_loop(std::size_t worker_index) {
  auto& m = metrics_for(options_.name);
  const std::size_t nshards = shards_.size();
  const std::size_t home_index = worker_index % nshards;
  Shard& home = *shards_[home_index];
  while (!stopping_.load(std::memory_order_acquire)) {
    Shard* shard = nullptr;
    Connection* conn = nullptr;
    // Home queue first; an empty home queue sends the worker stealing
    // through the other shards in ring order.
    for (std::size_t k = 0; k < nshards && conn == nullptr; ++k) {
      Shard& candidate = *shards_[(home_index + k) % nshards];
      const std::lock_guard<std::mutex> lock(candidate.mutex);
      conn = try_claim_locked(candidate, /*stolen=*/k != 0);
      if (conn != nullptr) shard = &candidate;
    }
    if (conn == nullptr) {
      std::unique_lock<std::mutex> lock(home.mutex);
      if (home.queue.empty() && !stopping_.load(std::memory_order_acquire)) {
        home.waiting_workers.fetch_add(1, std::memory_order_relaxed);
        // The wait_for backstop covers steal hints posted without the
        // mutex (a racing hint may miss the cv but not the deadline).
        home.cv.wait_for(lock, std::chrono::milliseconds{50}, [this, &home] {
          return stopping_.load(std::memory_order_acquire) ||
                 !home.queue.empty() ||
                 home.steal_hint.load(std::memory_order_relaxed);
        });
        home.steal_hint.store(false, std::memory_order_relaxed);
        home.waiting_workers.fetch_sub(1, std::memory_order_relaxed);
      }
      continue;
    }
    const auto burst_start = SteadyClock::now();
    BurstResult result = BurstResult::kClose;
    try {
      result = conn->driver->on_readable();
    } catch (const TimeoutError&) {
      m.timeouts.add();
    } catch (const std::exception& e) {
      if (conn->deadline_fired.load(std::memory_order_acquire)) {
        // The wheel's backstop shut the read side down; the resulting read
        // error is a deadline, not a driver bug.
        m.timeouts.add();
      } else {
        m.driver_errors.add();
        VNFSGX_LOG_DEBUG("server", options_.name, ": burst error: ",
                         e.what());
      }
    }
    m.burst_us.observe(us_since(burst_start));
    finish_burst(*shard, conn, result);
  }
}

void ServerRuntime::finish_burst(Shard& shard, Connection* conn,
                                 BurstResult result) {
  auto& m = metrics_for(options_.name);
  const std::uint64_t id = conn->id;
  if (result == BurstResult::kKeepAlive &&
      !stopping_.load(std::memory_order_acquire) &&
      !conn->deadline_fired.load(std::memory_order_acquire)) {
    // Connection diet: release scratch into the shard pool before parking.
    // The connection is still kRunning, so the driver is exclusively ours;
    // a readiness event racing this park just re-queues afterwards and the
    // buffers are reacquired lazily.
    try {
      const std::size_t released = conn->driver->on_park(&shard.pool);
      if (released > 0) {
        m.parked_bytes.add(static_cast<std::int64_t>(released));
      }
    } catch (const std::exception& e) {
      VNFSGX_LOG_DEBUG("server", options_.name, ": park error: ", e.what());
    }
  }
  std::unique_ptr<Connection> dead;
  bool probe = false;
  Stream* raw = nullptr;
  {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    busy_workers_.fetch_sub(1, std::memory_order_relaxed);
    m.busy.add(-1);
    if (conn->burst_timer != 0) {
      shard.wheel.cancel(conn->burst_timer);
      conn->burst_timer = 0;
    }
    const auto it = shard.connections.find(id);
    if (it == shard.connections.end()) return;
    if (stopping_.load(std::memory_order_acquire)) {
      conn->state = Connection::State::kParked;  // shutdown() reaps it
      return;
    }
    if (conn->deadline_fired.load(std::memory_order_acquire) &&
        result != BurstResult::kClose) {
      // The backstop fired but the driver still returned cleanly (the
      // race landed on the burst's last read). Deadline semantics win.
      m.timeouts.add();
      result = BurstResult::kClose;
    }
    if (result == BurstResult::kClose) {
      dead = std::move(it->second);
      shard.connections.erase(it);
      m.active.add(-1);
      shard.conns_gauge->add(-1);
    } else if (result == BurstResult::kMoreData) {
      enqueue_locked(shard, *conn);
    } else if (conn->fd >= 0) {
      conn->state = Connection::State::kParked;
      if (options_.idle_timeout.count() > 0) {
        const bool was_empty = shard.wheel.armed() == 0;
        conn->idle_timer = shard.wheel.schedule(options_.idle_timeout,
                                                id << 1);
        if (was_empty) shard.reactor.wake();
      }
      // Level-triggered ONESHOT re-arm: fires immediately if bytes arrived
      // during the burst.
      try {
        shard.reactor.rearm(conn->fd, id);
      } catch (const Error& e) {
        VNFSGX_LOG_WARN("server", options_.name, ": rearm: ", e.what());
        dead = std::move(it->second);
        shard.connections.erase(it);
        m.active.add(-1);
        shard.conns_gauge->add(-1);
      }
    } else {
      // Pipe analogue of the re-arm. The probe takes the pipe's lock, so
      // it must run outside the shard mutex (lock order: pipe -> shard);
      // keeping the state kRunning meanwhile means no other worker can
      // claim (or destroy) the connection, and any send landing after this
      // clear is recorded in `pending`.
      conn->pending = false;
      probe = true;
      raw = conn->raw;
    }
  }
  if (probe) {
    const bool readable = raw != nullptr && pipe_readable(*raw);
    const std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.connections.find(id);
    if (it != shard.connections.end()) {
      Connection& parked = *it->second;
      if (!stopping_.load(std::memory_order_acquire) &&
          (readable || parked.pending)) {
        enqueue_locked(shard, parked);
      } else {
        parked.state = Connection::State::kParked;
        if (options_.idle_timeout.count() > 0) {
          const bool was_empty = shard.wheel.armed() == 0;
          parked.idle_timer =
              shard.wheel.schedule(options_.idle_timeout, id << 1);
          if (was_empty) shard.reactor.wake();
        }
      }
    }
  }
  if (dead) destroy_connection(shard, std::move(dead));
}

void ServerRuntime::destroy_connection(Shard& shard,
                                       std::unique_ptr<Connection> conn) {
  // Outside the shard mutex (driver teardown may close sockets and takes
  // the pipe lock). Never touch conn->raw here: if the driver destroyed
  // its transport mid-burst (failed TLS accept), the pointer is dangling —
  // and a closed fd may already be reused by a newer connection, so the
  // epoll removal must be skipped too (the kernel deregistered it on
  // close). Pipe readiness hooks are cleared by the pipe stream's own
  // destructor.
  if (conn->fd >= 0 && conn->driver && conn->driver->transport_alive()) {
    shard.reactor.remove(conn->fd);
  }
  conn->driver.reset();
}

std::size_t ServerRuntime::active_connections() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->connections.size();
  }
  return total;
}

std::vector<std::size_t> ServerRuntime::connections_per_shard() const {
  std::vector<std::size_t> counts;
  counts.reserve(shards_.size());
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    counts.push_back(shard->connections.size());
  }
  return counts;
}

std::size_t ServerRuntime::pooled_buffers() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->pool.pooled();
  return total;
}

std::size_t ServerRuntime::peak_busy_workers() const {
  return peak_busy_workers_.load(std::memory_order_relaxed);
}

void ServerRuntime::shutdown() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true,
                                         std::memory_order_acq_rel)) {
    return;
  }
  for (auto& shard : shards_) {
    shard->reactor.wake();
    shard->cv.notify_all();
  }
  for (auto& shard : shards_) {
    if (shard->reactor_thread.joinable()) shard->reactor_thread.join();
  }
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  // Single-threaded from here on.
  auto& m = metrics_for(options_.name);
  for (auto& shard : shards_) {
    for (auto& listener : shard->listeners) {
      listener->listener->close();
    }
    shard->listeners.clear();
    std::map<std::uint64_t, std::unique_ptr<Connection>> connections;
    connections.swap(shard->connections);
    for (auto& [id, conn] : connections) {
      m.active.add(-1);
      shard->conns_gauge->add(-1);
      destroy_connection(*shard, std::move(conn));
    }
    m.queue_depth.add(-static_cast<std::int64_t>(shard->queue.size()));
    shard->queue_gauge->add(
        -static_cast<std::int64_t>(shard->queue.size()));
    shard->queue.clear();
  }
  m.workers.add(-static_cast<std::int64_t>(options_.workers));
}

}  // namespace vnfsgx::net
