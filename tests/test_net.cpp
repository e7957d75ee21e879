// Transport tests: in-memory pipes, the named network, framing, TCP.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <thread>

#include <array>

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include "common/logging.h"
#include "net/framing.h"
#include "net/inmemory.h"
#include "net/reactor.h"
#include "net/tcp.h"
#include "net/timer_wheel.h"
#include "obs/metrics.h"

namespace vnfsgx::net {
namespace {

TEST(Pipe, RoundTrip) {
  auto [a, b] = make_pipe();
  a->write(to_bytes("hello"));
  Bytes got = b->read_exact(5);
  EXPECT_EQ(to_string(got), "hello");
  b->write(to_bytes("world"));
  EXPECT_EQ(to_string(a->read_exact(5)), "world");
}

TEST(Pipe, ReadReturnsAvailablePrefix) {
  auto [a, b] = make_pipe();
  a->write(to_bytes("abc"));
  std::uint8_t buf[16];
  const std::size_t n = b->read(std::span<std::uint8_t>(buf, 16));
  EXPECT_EQ(n, 3u);
}

TEST(Pipe, EofAfterCloseDrainsBufferedData) {
  auto [a, b] = make_pipe();
  a->write(to_bytes("tail"));
  a->close();
  EXPECT_EQ(to_string(b->read_exact(4)), "tail");
  std::uint8_t buf[4];
  EXPECT_EQ(b->read(std::span<std::uint8_t>(buf, 4)), 0u);
}

TEST(Pipe, WriteAfterPeerCloseThrows) {
  auto [a, b] = make_pipe();
  b->close();
  EXPECT_THROW(a->write(to_bytes("x")), IoError);
}

TEST(Pipe, CrossThreadBlockingRead) {
  auto [a, b] = make_pipe();
  std::thread writer([&a = a]() {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    a->write(to_bytes("delayed"));
  });
  EXPECT_EQ(to_string(b->read_exact(7)), "delayed");
  writer.join();
}

TEST(Pipe, LatencyDelaysDelivery) {
  LinkOptions options;
  options.latency = std::chrono::microseconds(30'000);
  auto [a, b] = make_pipe(options);
  const auto start = std::chrono::steady_clock::now();
  a->write(to_bytes("x"));
  b->read_exact(1);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(elapsed, std::chrono::microseconds(25'000));
}

TEST(Pipe, LargeTransfer) {
  auto [a, b] = make_pipe();
  Bytes big(1 << 20);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i);
  }
  std::thread writer([&a = a, &big]() { a->write(big); });
  const Bytes got = b->read_exact(big.size());
  writer.join();
  EXPECT_EQ(got, big);
}

TEST(InMemoryNetworkTest, ConnectAndEcho) {
  InMemoryNetwork net;
  StreamPtr server;
  net.serve("echo:1", [&server](StreamPtr s) { server = std::move(s); });
  auto client = net.connect("echo:1");
  ASSERT_NE(server, nullptr);
  client->write(to_bytes("ping"));
  server->write(server->read_exact(4));
  EXPECT_EQ(to_string(client->read_exact(4)), "ping");
}

TEST(InMemoryNetworkTest, ConnectionRefused) {
  InMemoryNetwork net;
  EXPECT_THROW(net.connect("nobody:9"), IoError);
}

TEST(InMemoryNetworkTest, DuplicateAddressRejected) {
  InMemoryNetwork net;
  net.serve("svc:1", [](StreamPtr) {});
  EXPECT_THROW(net.serve("svc:1", [](StreamPtr) {}), Error);
}

TEST(InMemoryNetworkTest, StopServingRefusesNewConnections) {
  InMemoryNetwork net;
  net.serve("svc:1", [](StreamPtr s) { s->close(); });
  net.stop_serving("svc:1");
  EXPECT_THROW(net.connect("svc:1"), IoError);
}

TEST(InMemoryNetworkTest, ConcurrentClients) {
  InMemoryNetwork net;
  std::mutex mutex;
  std::vector<StreamPtr> accepted;
  net.serve("ctr:1", [&](StreamPtr s) {
    const std::lock_guard<std::mutex> lock(mutex);
    accepted.push_back(std::move(s));
  });
  std::vector<StreamPtr> connected(16);
  std::vector<std::thread> clients;
  for (int i = 0; i < 16; ++i) {
    clients.emplace_back([&net, &connected, i] {
      connected[i] = net.connect("ctr:1");
      const std::uint8_t byte = static_cast<std::uint8_t>(i);
      connected[i]->write(ByteView(&byte, 1));
    });
  }
  for (auto& t : clients) t.join();
  // Every connect got its own pipe: the 16 server ends hold the 16 bytes.
  ASSERT_EQ(accepted.size(), 16u);
  std::set<std::uint8_t> bytes;
  for (auto& s : accepted) bytes.insert(s->read_exact(1)[0]);
  EXPECT_EQ(bytes.size(), 16u);
}

TEST(Framing, RoundTrip) {
  auto [a, b] = make_pipe();
  write_frame(*a, to_bytes("payload"));
  write_frame(*a, {});
  EXPECT_EQ(to_string(read_frame(*b)), "payload");
  EXPECT_TRUE(read_frame(*b).empty());
}

TEST(Framing, OversizedFrameRejected) {
  auto [a, b] = make_pipe();
  Bytes header;
  append_u32(header, 1u << 30);
  a->write(header);
  EXPECT_THROW(read_frame(*b), ParseError);
}

TEST(Framing, TruncatedFrameThrows) {
  auto [a, b] = make_pipe();
  Bytes header;
  append_u32(header, 10);
  a->write(header);
  a->write(to_bytes("abc"));  // only 3 of 10
  a->close();
  EXPECT_THROW(read_frame(*b), IoError);
}

TEST(Tcp, LoopbackRoundTrip) {
  TcpListener listener(0);
  ASSERT_GT(listener.port(), 0);
  std::thread server([&listener] {
    auto s = listener.accept();
    Bytes data = s->read_exact(5);
    s->write(data);
  });
  auto client = TcpStream::connect("127.0.0.1", listener.port());
  client->write(to_bytes("tcp!!"));
  EXPECT_EQ(to_string(client->read_exact(5)), "tcp!!");
  server.join();
}

TEST(Tcp, ConnectRefusedThrows) {
  // Bind+close to get a port that is (very likely) not listening.
  std::uint16_t port;
  {
    TcpListener probe(0);
    port = probe.port();
  }
  EXPECT_THROW(TcpStream::connect("127.0.0.1", port), IoError);
}

TEST(Tcp, EofOnPeerClose) {
  TcpListener listener(0);
  std::thread server([&listener] {
    auto s = listener.accept();
    s->close();
  });
  auto client = TcpStream::connect("localhost", listener.port());
  std::uint8_t buf[8];
  EXPECT_EQ(client->read(std::span<std::uint8_t>(buf, 8)), 0u);
  server.join();
}

TEST(Tcp, InvalidAddressThrows) {
  EXPECT_THROW(TcpStream::connect("not-an-ip", 80), IoError);
}

TEST(Tcp, ListenerAcceptsConfigurableBacklog) {
  TcpListener listener(0, /*backlog=*/2048);
  ASSERT_GT(listener.port(), 0);
  std::thread server([&listener] {
    auto s = listener.accept();
    s->write(to_bytes("k"));
  });
  auto client = TcpStream::connect("127.0.0.1", listener.port());
  EXPECT_EQ(to_string(client->read_exact(1)), "k");
  server.join();
}

TEST(Tcp, TryAcceptReturnsNullWhenNoPending) {
  TcpListener listener(0);
  listener.set_nonblocking();
  EXPECT_EQ(listener.try_accept(), nullptr);
  auto client = TcpStream::connect("127.0.0.1", listener.port());
  // The connection completes asynchronously; poll briefly.
  std::unique_ptr<TcpStream> accepted;
  for (int i = 0; i < 200 && !accepted; ++i) {
    accepted = listener.try_accept();
    if (!accepted) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_NE(accepted, nullptr);
  EXPECT_EQ(listener.try_accept(), nullptr);
}

TEST(Tcp, ReadDeadlineThrowsTimeout) {
  TcpListener listener(0);
  std::thread server([&listener] {
    auto s = listener.accept();
    // Hold the connection open without sending anything.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    s->close();
  });
  auto client = TcpStream::connect("127.0.0.1", listener.port());
  client->set_read_timeout(std::chrono::milliseconds(50));
  std::uint8_t buf[1];
  EXPECT_THROW(client->read(std::span<std::uint8_t>(buf, 1)), TimeoutError);
  // Clearing the deadline restores blocking reads (EOF after peer close).
  client->set_read_timeout(std::chrono::milliseconds(0));
  EXPECT_EQ(client->read(std::span<std::uint8_t>(buf, 1)), 0u);
  server.join();
}

TEST(Pipe, ReadDeadlineThrowsTimeout) {
  auto [a, b] = make_pipe();
  b->set_read_timeout(std::chrono::milliseconds(50));
  std::uint8_t buf[1];
  EXPECT_THROW(b->read(std::span<std::uint8_t>(buf, 1)), TimeoutError);
  // Data beats the deadline on a later read.
  a->write(to_bytes("x"));
  EXPECT_EQ(b->read(std::span<std::uint8_t>(buf, 1)), 1u);
}

TEST(Pipe, ReadableCallbackFiresOnDataAndEof) {
  auto [a, b] = make_pipe();
  std::atomic<int> fired{0};
  ASSERT_TRUE(set_pipe_readable_callback(*b, [&fired] { ++fired; }));
  a->write(to_bytes("x"));
  EXPECT_GE(fired.load(), 1);
  const int after_write = fired.load();
  a->close();
  EXPECT_GT(fired.load(), after_write);  // EOF is a readiness event too
  ASSERT_TRUE(set_pipe_readable_callback(*b, nullptr));
}

// ---------------------------------------------------------------------------
// Accept contract: handlers run inline on the connecting thread.
// ---------------------------------------------------------------------------

TEST(InMemoryNetworkTest, AcceptHandlerRunsOnConnectingThread) {
  InMemoryNetwork net;
  std::vector<std::thread::id> ran_on;
  net.serve("svc:1", [&ran_on](StreamPtr) {
    ran_on.push_back(std::this_thread::get_id());
  });
  // connect returns only after the handler has run, on the caller's thread.
  auto c = net.connect("svc:1");
  ASSERT_EQ(ran_on.size(), 1u);
  EXPECT_EQ(ran_on[0], std::this_thread::get_id());

  std::thread::id other_id;
  std::thread other([&] {
    other_id = std::this_thread::get_id();
    net.connect("svc:1");
  });
  other.join();
  ASSERT_EQ(ran_on.size(), 2u);
  EXPECT_EQ(ran_on[1], other_id);
}

// ---------------------------------------------------------------------------
// Reactor: epoll readiness with oneshot re-arm and wakeups.
// ---------------------------------------------------------------------------

TEST(ReactorTest, OneshotDeliversOncePerArm) {
  TcpListener listener(0);
  std::thread server([&listener] {
    auto s = listener.accept();
    s->write(to_bytes("a"));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    s->write(to_bytes("b"));
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  });
  auto client = TcpStream::connect("127.0.0.1", listener.port());
  const int client_fd = static_cast<TcpStream&>(*client).native_handle();

  Reactor reactor;
  reactor.add(client_fd, 42, /*oneshot=*/true);
  std::array<Reactor::Event, 8> events;

  ASSERT_EQ(reactor.wait(events, 1000), 1u);
  EXPECT_EQ(events[0].token, 42u);
  EXPECT_TRUE(events[0].readable);

  // Oneshot: no further events until re-armed, even though "b" arrives.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(reactor.wait(events, 50), 0u);

  // Level-triggered re-arm fires immediately: bytes are still unread.
  reactor.rearm(client_fd, 42);
  ASSERT_EQ(reactor.wait(events, 1000), 1u);
  EXPECT_EQ(events[0].token, 42u);

  reactor.remove(client_fd);
  server.join();
}

TEST(ReactorTest, WakeInterruptsWait) {
  Reactor reactor;
  std::array<Reactor::Event, 8> events;
  std::thread waker([&reactor] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    reactor.wake();
  });
  const std::size_t n = reactor.wait(events, 5000);
  ASSERT_EQ(n, 1u);
  EXPECT_TRUE(events[0].wake);
  waker.join();
}

TEST(ReactorTest, HangupReported) {
  TcpListener listener(0);
  std::thread server([&listener] { listener.accept()->close(); });
  auto client = TcpStream::connect("127.0.0.1", listener.port());
  const int client_fd = static_cast<TcpStream&>(*client).native_handle();
  Reactor reactor;
  reactor.add(client_fd, 7, /*oneshot=*/true);
  std::array<Reactor::Event, 8> events;
  ASSERT_EQ(reactor.wait(events, 2000), 1u);
  EXPECT_EQ(events[0].token, 7u);
  EXPECT_TRUE(events[0].hangup);
  reactor.remove(client_fd);
  server.join();
}

// ---------------------------------------------------------------------------
// Timer wheel: the per-shard deadline structure behind burst timeouts and
// idle eviction. All tests drive simulated time through advance() — the
// wheel never reads a real clock.
// ---------------------------------------------------------------------------

using WheelClock = std::chrono::steady_clock;
using std::chrono::milliseconds;

TEST(TimerWheelTest, FiresAtDeadlineExactlyOnce) {
  const auto t0 = WheelClock::now();
  TimerWheel wheel(t0);
  wheel.schedule(milliseconds(50), /*token=*/11);

  std::vector<TimerWheel::Token> expired;
  wheel.advance(t0 + milliseconds(40), expired);
  EXPECT_TRUE(expired.empty());
  wheel.advance(t0 + milliseconds(50), expired);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0], 11u);
  // Already fired: turning the wheel further must not re-deliver.
  expired.clear();
  wheel.advance(t0 + milliseconds(5000), expired);
  EXPECT_TRUE(expired.empty());
  EXPECT_EQ(wheel.armed(), 0u);
}

TEST(TimerWheelTest, ZeroDelayFiresOnNextTick) {
  const auto t0 = WheelClock::now();
  TimerWheel wheel(t0);
  wheel.schedule(milliseconds(0), 1);
  std::vector<TimerWheel::Token> expired;
  wheel.advance(t0 + TimerWheel::kDefaultTick, expired);
  EXPECT_EQ(expired.size(), 1u);
}

TEST(TimerWheelTest, CascadeAcrossLevelBoundaryFiresOnTime) {
  // 64 slots x 10 ms = 640 ms per level-0 revolution: a 1 s timer lives in
  // level 1 and must cascade down as the wheel turns. Walking time forward
  // in coarse steps must deliver it in the step containing the deadline —
  // neither early (before the cascade) nor lost (cascade dropped it).
  const auto t0 = WheelClock::now();
  TimerWheel wheel(t0);
  wheel.schedule(milliseconds(1000), 42);

  std::vector<TimerWheel::Token> expired;
  wheel.advance(t0 + milliseconds(990), expired);
  EXPECT_TRUE(expired.empty()) << "cascaded timer fired early";
  wheel.advance(t0 + milliseconds(1000), expired);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0], 42u);

  // Far horizon: two levels up (64^2 ticks = ~41 s), advanced in one jump.
  wheel.schedule(milliseconds(50'000), 43);
  expired.clear();
  wheel.advance(t0 + milliseconds(60'000), expired);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0], 43u);
}

TEST(TimerWheelTest, CancelDisarmsAndDetectsFiredRace) {
  const auto t0 = WheelClock::now();
  TimerWheel wheel(t0);
  const auto armed = wheel.schedule(milliseconds(100), 1);
  const auto fired = wheel.schedule(milliseconds(20), 2);

  EXPECT_TRUE(wheel.cancel(armed));   // live timer: disarmed
  EXPECT_FALSE(wheel.cancel(armed));  // double cancel: already gone

  std::vector<TimerWheel::Token> expired;
  wheel.advance(t0 + milliseconds(200), expired);
  ASSERT_EQ(expired.size(), 1u);  // only the un-cancelled timer
  EXPECT_EQ(expired[0], 2u);
  // cancel() after the deadline reports the fire/cancel race: the runtime
  // uses this to learn the expiry handler already claimed the connection.
  EXPECT_FALSE(wheel.cancel(fired));
}

TEST(TimerWheelTest, ExpiredIdCannotStealLaterTimer) {
  // A fired timer's id must stay dead even after another timer is armed
  // with the same token: cancelling the stale id may not disarm (steal)
  // the new one. Guards the runtime's token reuse across park cycles.
  const auto t0 = WheelClock::now();
  TimerWheel wheel(t0);
  const auto first = wheel.schedule(milliseconds(10), 7);
  std::vector<TimerWheel::Token> expired;
  wheel.advance(t0 + milliseconds(20), expired);
  ASSERT_EQ(expired.size(), 1u);

  const auto second = wheel.schedule(milliseconds(500), 7);
  EXPECT_FALSE(wheel.cancel(first));  // stale id: no effect
  EXPECT_EQ(wheel.armed(), 1u);       // the re-armed timer survived
  expired.clear();
  wheel.advance(t0 + milliseconds(520), expired);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0], 7u);
  EXPECT_FALSE(wheel.cancel(second));
}

TEST(TimerWheelTest, NextExpiryIsConservativeBound) {
  const auto t0 = WheelClock::now();
  TimerWheel wheel(t0);
  EXPECT_LT(wheel.next_expiry(t0).count(), 0);  // nothing armed

  wheel.schedule(milliseconds(1000), 9);
  // The bound may be tighter than the real deadline (cascade boundaries)
  // but never later: sleeping for the returned duration can't miss a fire.
  auto now = t0;
  std::vector<TimerWheel::Token> expired;
  int rounds = 0;
  while (expired.empty() && ++rounds < 1000) {
    auto bound = wheel.next_expiry(now);
    ASSERT_GE(bound.count(), 0);
    ASSERT_LE((now + bound) - t0, milliseconds(1000));
    now += std::max<milliseconds>(bound, TimerWheel::kDefaultTick);
    wheel.advance(now, expired);
  }
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_GE(now - t0, milliseconds(1000));
}

// ---------------------------------------------------------------------------
// EMFILE shed: fd exhaustion must not livelock the accept path.
// ---------------------------------------------------------------------------

namespace {

/// Lowers RLIMIT_NOFILE for the test body and restores it on destruction.
struct FdLimitGuard {
  explicit FdLimitGuard(rlim_t soft) {
    getrlimit(RLIMIT_NOFILE, &saved_);
    rlimit lowered = saved_;
    lowered.rlim_cur = soft;
    setrlimit(RLIMIT_NOFILE, &lowered);
  }
  ~FdLimitGuard() { setrlimit(RLIMIT_NOFILE, &saved_); }
  rlimit saved_{};
};

}  // namespace

TEST(Tcp, AcceptShedsOnEmfileAndRecovers) {
  auto& shed_total = obs::registry().counter(
      "vnfsgx_server_accept_emfile_total", {},
      "Connections shed by the EMFILE close-and-retry accept path");
  const std::uint64_t shed_before = shed_total.value();

  TcpListener listener(0);
  listener.set_nonblocking();
  // Establish a connection while fds are still available: it sits in the
  // kernel's accept queue, so the accept side needs no new client fd later.
  auto doomed = TcpStream::connect("127.0.0.1", listener.port());
  // A no-op virtual call (0 = no deadline, the default) made while fds are
  // still free: UBSan's vptr check caches the stream's type here, because
  // it cannot look it up (it opens /proc/self/maps) once fds are exhausted.
  doomed->set_read_timeout(std::chrono::milliseconds(0));

  {
    // The shed path logs a warning; UBSan's vptr check cannot verify an
    // ostringstream's vtable while fds are exhausted (it needs to open
    // /proc/self/maps) and reports a false positive, so mute the logger
    // for the exhaustion window.
    const LogLevel saved_level = log_level();
    set_log_level(LogLevel::kOff);
    FdLimitGuard limit(128);
    std::vector<int> hog;
    for (int fd = ::open("/dev/null", O_RDONLY); fd >= 0;
         fd = ::open("/dev/null", O_RDONLY)) {
      hog.push_back(fd);
    }
    ASSERT_EQ(errno, EMFILE);

    // accept(2) now fails EMFILE. The listener sheds: closes its reserved
    // spare fd, accepts into the freed slot, closes the connection, and
    // re-opens the spare. The pending connection is consumed (not left to
    // retrigger readiness forever) and the failure is metered.
    EXPECT_EQ(listener.try_accept(), nullptr);
    EXPECT_GT(shed_total.value(), shed_before);

    // The shed client observes the close.
    std::uint8_t byte = 0;
    try {
      EXPECT_EQ(doomed->read(std::span<std::uint8_t>(&byte, 1)), 0u);
    } catch (const IoError&) {
      // RST instead of FIN is also acceptable.
    }
    for (const int fd : hog) ::close(fd);
    set_log_level(saved_level);
  }

  // With fds available again the same listener accepts normally.
  auto client = TcpStream::connect("127.0.0.1", listener.port());
  std::unique_ptr<TcpStream> served;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!served && std::chrono::steady_clock::now() < deadline) {
    served = listener.try_accept();
    if (!served) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_NE(served, nullptr);
  client->write(to_bytes("ok"));
  EXPECT_EQ(to_string(served->read_exact(2)), "ok");
}

// ---------------------------------------------------------------------------
// Sharded in-memory listeners: the SO_REUSEPORT analogue.
// ---------------------------------------------------------------------------

TEST(InMemoryNetworkTest, ShardedServeSpreadsConnectsRoundRobin) {
  InMemoryNetwork net;
  std::vector<StreamPtr> accepted[2];
  net.serve_sharded("svc:1", {[&](StreamPtr s) { accepted[0].push_back(std::move(s)); },
                              [&](StreamPtr s) { accepted[1].push_back(std::move(s)); }});

  std::vector<StreamPtr> clients;
  for (int i = 0; i < 6; ++i) clients.push_back(net.connect("svc:1"));
  EXPECT_EQ(accepted[0].size(), 3u);
  EXPECT_EQ(accepted[1].size(), 3u);

  // The pipes are live in both directions.
  clients[0]->write(to_bytes("x"));
  EXPECT_EQ(to_string(accepted[0][0]->read_exact(1)), "x");
  accepted[0][0]->write(to_bytes("y"));
  EXPECT_EQ(to_string(clients[0]->read_exact(1)), "y");
}

TEST(InMemoryNetworkTest, ShardedServeRejectsEmptyAndDuplicate) {
  InMemoryNetwork net;
  EXPECT_THROW(net.serve_sharded("svc:1", {}), Error);
  net.serve_sharded("svc:1", {[](StreamPtr) {}});
  EXPECT_THROW(net.serve_sharded("svc:1", {[](StreamPtr) {}}), Error);
  EXPECT_THROW(net.serve("svc:1", [](StreamPtr) {}), Error);
}

}  // namespace
}  // namespace vnfsgx::net
