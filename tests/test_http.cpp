// HTTP message/wire/router/client-server tests over in-memory pipes.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "http/client.h"
#include "http/runtime.h"
#include "http/server.h"
#include "net/inmemory.h"
#include "net/server.h"

namespace vnfsgx::http {
namespace {

TEST(HeadersTest, CaseInsensitiveLookup) {
  Headers h;
  h.set("Content-Type", "application/json");
  EXPECT_EQ(h.get("content-type").value(), "application/json");
  EXPECT_EQ(h.get("CONTENT-TYPE").value(), "application/json");
  EXPECT_FALSE(h.get("content-length").has_value());
}

TEST(HeadersTest, SetReplacesAddAppends) {
  Headers h;
  h.set("X-K", "1");
  h.set("x-k", "2");
  EXPECT_EQ(h.entries().size(), 1u);
  EXPECT_EQ(h.get("X-K").value(), "2");
  h.add("X-K", "3");
  EXPECT_EQ(h.entries().size(), 2u);
  EXPECT_EQ(h.get("X-K").value(), "2");  // first match wins
}

TEST(RequestTest, PathAndQuery) {
  Request r;
  r.target = "/wm/core/switch/all?detail=full&sort=asc";
  EXPECT_EQ(r.path(), "/wm/core/switch/all");
  EXPECT_EQ(r.query_param("detail").value(), "full");
  EXPECT_EQ(r.query_param("sort").value(), "asc");
  EXPECT_FALSE(r.query_param("missing").has_value());
}

TEST(RequestTest, NoQuery) {
  Request r;
  r.target = "/plain";
  EXPECT_EQ(r.path(), "/plain");
  EXPECT_FALSE(r.query_param("a").has_value());
}

TEST(Wire, RequestRoundTrip) {
  auto [a, b] = net::make_pipe();
  Request req;
  req.method = "POST";
  req.target = "/wm/staticflowpusher/json";
  req.headers.set("Content-Type", "application/json");
  req.body = to_bytes(R"({"name":"flow1"})");
  a->write(encode_request(req));

  Connection conn(*b);
  const auto got = conn.read_request();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->method, "POST");
  EXPECT_EQ(got->target, "/wm/staticflowpusher/json");
  EXPECT_EQ(got->headers.get("content-type").value(), "application/json");
  EXPECT_EQ(to_string(got->body), R"({"name":"flow1"})");
}

TEST(Wire, ResponseRoundTrip) {
  auto [a, b] = net::make_pipe();
  a->write(encode_response(Response::json(200, R"({"ok":true})")));
  Connection conn(*b);
  const auto got = conn.read_response();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->status, 200);
  EXPECT_EQ(to_string(got->body), R"({"ok":true})");
}

TEST(Wire, PipelinedRequests) {
  auto [a, b] = net::make_pipe();
  Request r1, r2;
  r1.target = "/one";
  r2.target = "/two";
  Bytes wire = encode_request(r1);
  append(wire, encode_request(r2));
  a->write(wire);
  Connection conn(*b);
  EXPECT_EQ(conn.read_request()->target, "/one");
  EXPECT_EQ(conn.read_request()->target, "/two");
}

TEST(Wire, CleanEofReturnsNullopt) {
  auto [a, b] = net::make_pipe();
  a->close();
  Connection conn(*b);
  EXPECT_FALSE(conn.read_request().has_value());
}

TEST(Wire, EofMidHeadersThrows) {
  auto [a, b] = net::make_pipe();
  a->write(to_bytes("GET / HTTP/1.1\r\nHost: x"));
  a->close();
  Connection conn(*b);
  EXPECT_THROW(conn.read_request(), IoError);
}

TEST(Wire, EofMidBodyThrows) {
  auto [a, b] = net::make_pipe();
  a->write(to_bytes("GET / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"));
  a->close();
  Connection conn(*b);
  EXPECT_THROW(conn.read_request(), IoError);
}

TEST(Wire, MalformedRequestLineThrows) {
  auto [a, b] = net::make_pipe();
  a->write(to_bytes("NONSENSE\r\n\r\n"));
  Connection conn(*b);
  EXPECT_THROW(conn.read_request(), ParseError);
}

TEST(Wire, UnsupportedVersionThrows) {
  auto [a, b] = net::make_pipe();
  a->write(to_bytes("GET / HTTP/2.0\r\n\r\n"));
  Connection conn(*b);
  EXPECT_THROW(conn.read_request(), ParseError);
}

TEST(Wire, ChunkedRejected) {
  auto [a, b] = net::make_pipe();
  a->write(to_bytes(
      "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n"));
  Connection conn(*b);
  EXPECT_THROW(conn.read_request(), ParseError);
}

TEST(Wire, InvalidContentLengthThrows) {
  auto [a, b] = net::make_pipe();
  a->write(to_bytes("GET / HTTP/1.1\r\nContent-Length: banana\r\n\r\n"));
  Connection conn(*b);
  EXPECT_THROW(conn.read_request(), ParseError);
}

TEST(RouterTest, ExactAndWildcardDispatch) {
  Router router;
  router.add("GET", "/a", [](const Request&, const RequestContext&) {
    return Response::text(200, "exact-a");
  });
  router.add("GET", "/a/*", [](const Request&, const RequestContext&) {
    return Response::text(200, "wild-a");
  });
  router.add("POST", "/a", [](const Request&, const RequestContext&) {
    return Response::text(200, "post-a");
  });

  Request req;
  RequestContext ctx;
  req.method = "GET";
  req.target = "/a";
  EXPECT_EQ(to_string(router.dispatch(req, ctx).body), "exact-a");
  req.target = "/a/deep/path";
  EXPECT_EQ(to_string(router.dispatch(req, ctx).body), "wild-a");
  req.method = "POST";
  req.target = "/a";
  EXPECT_EQ(to_string(router.dispatch(req, ctx).body), "post-a");
}

TEST(RouterTest, NotFoundAndMethodNotAllowed) {
  Router router;
  router.add("GET", "/only-get", [](const Request&, const RequestContext&) {
    return Response::text(200, "ok");
  });
  Request req;
  RequestContext ctx;
  req.method = "GET";
  req.target = "/nowhere";
  EXPECT_EQ(router.dispatch(req, ctx).status, 404);
  req.method = "DELETE";
  req.target = "/only-get";
  EXPECT_EQ(router.dispatch(req, ctx).status, 405);
}

TEST(RouterTest, LongestPrefixWins) {
  Router router;
  router.add("GET", "/api/*", [](const Request&, const RequestContext&) {
    return Response::text(200, "api");
  });
  router.add("GET", "/api/v2/*", [](const Request&, const RequestContext&) {
    return Response::text(200, "v2");
  });
  Request req;
  RequestContext ctx;
  req.target = "/api/v2/things";
  EXPECT_EQ(to_string(router.dispatch(req, ctx).body), "v2");
  req.target = "/api/v1/things";
  EXPECT_EQ(to_string(router.dispatch(req, ctx).body), "api");
}

/// Serves a router through a ServerRuntime running the HTTP driver, the
/// path every shipped HTTP surface takes.
class ClientServer : public ::testing::Test {
 protected:
  /// A client pipe whose server end the runtime adopted; `wrap` runs on
  /// the connection's first burst (it may set the request context).
  net::StreamPtr connect(SessionWrap wrap = {}) {
    auto [client_end, server_end] = net::make_pipe();
    runtime_.adopt(std::move(server_end),
                   make_http_driver_factory(router_, std::move(wrap)));
    return std::move(client_end);
  }

  /// Poll until the runtime holds no connection (it closed its side).
  bool runtime_drained() {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (runtime_.active_connections() != 0) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  }

  Router router_;
  net::ServerRuntime runtime_{{.workers = 2,
                               .burst_read_timeout = std::chrono::seconds(5),
                               .name = "test-http"}};
};

TEST_F(ClientServer, KeepAliveExchanges) {
  std::atomic<int> hits{0};
  router_.add("GET", "/count", [&hits](const Request&, const RequestContext&) {
    return Response::text(200, std::to_string(++hits));
  });
  Client client(connect());
  EXPECT_EQ(to_string(client.get("/count").body), "1");
  EXPECT_EQ(to_string(client.get("/count").body), "2");
  EXPECT_EQ(to_string(client.get("/count").body), "3");
  // One connection carried all three exchanges.
  EXPECT_EQ(runtime_.active_connections(), 1u);
  client.close();
  EXPECT_TRUE(runtime_drained());
}

TEST_F(ClientServer, PostBodyEcho) {
  router_.add("POST", "/echo", [](const Request& req, const RequestContext&) {
    return Response::json(200, to_string(req.body));
  });
  Client client(connect());
  const auto res = client.post("/echo", R"({"x":1})");
  EXPECT_EQ(res.status, 200);
  EXPECT_EQ(to_string(res.body), R"({"x":1})");
  client.close();
}

TEST_F(ClientServer, HandlerExceptionBecomes500) {
  router_.add("GET", "/boom", [](const Request&, const RequestContext&) -> Response {
    throw std::runtime_error("kaboom");
  });
  Client client(connect());
  EXPECT_EQ(client.get("/boom").status, 500);
  // The connection survives a handler failure.
  EXPECT_EQ(client.get("/boom").status, 500);
  client.close();
}

TEST_F(ClientServer, MalformedRequestGets400) {
  auto client_end = connect();
  client_end->write(to_bytes("BAD\r\n\r\n"));
  Connection conn(*client_end);
  const auto res = conn.read_response();
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(res->status, 400);
  // A parse error closes the connection.
  EXPECT_TRUE(runtime_drained());
  client_end->close();
}

TEST_F(ClientServer, ConnectionCloseHonored) {
  router_.add("GET", "/x", [](const Request&, const RequestContext&) {
    return Response::text(200, "bye");
  });
  Request req;
  req.target = "/x";
  req.headers.set("Connection", "close");
  Client client(connect());
  const auto res = client.request(req);
  EXPECT_EQ(res.status, 200);
  EXPECT_EQ(res.headers.get("Connection").value_or(""), "close");
  // The runtime closes its side, and the client then reads EOF.
  EXPECT_TRUE(runtime_drained());
  std::uint8_t byte = 0;
  EXPECT_EQ(client.stream().read(std::span<std::uint8_t>(&byte, 1)), 0u);
  client.close();
}

TEST_F(ClientServer, ContextIdentityVisibleToHandler) {
  router_.add("GET", "/whoami", [](const Request&, const RequestContext& ctx) {
    return Response::text(200, ctx.client_identity);
  });
  Client client(connect([](net::StreamPtr stream, RequestContext& ctx) {
    ctx.client_identity = "CN=vnf-1";
    return stream;
  }));
  EXPECT_EQ(to_string(client.get("/whoami").body), "CN=vnf-1");
  client.close();
}

}  // namespace
}  // namespace vnfsgx::http

// ---------------------------------------------------------------------------
// ClientPool: keep-alive reuse, bounded window, stale-connection retry.
// ---------------------------------------------------------------------------
namespace vnfsgx::http {
namespace {

class PoolFixture : public ::testing::Test {
 protected:
  PoolFixture() {
    router_.add("GET", "/count",
                [this](const Request&, const RequestContext&) {
                  return Response::text(200, std::to_string(++hits_));
                });
    runtime_.listen_inmemory(net_, "origin:80",
                             make_http_driver_factory(router_));
  }

  ClientPool::Connect connect() {
    return [this] { return net_.connect("origin:80"); };
  }

  Router router_;
  std::atomic<int> hits_{0};
  net::InMemoryNetwork net_;
  net::ServerRuntime runtime_{{.workers = 4,
                               .burst_read_timeout = std::chrono::seconds(5),
                               .name = "test-pool"}};
};

TEST_F(PoolFixture, SequentialRequestsReuseOneConnection) {
  ClientPool pool(connect());
  Request req;
  req.method = "GET";
  req.target = "/count";
  for (int i = 1; i <= 10; ++i) {
    EXPECT_EQ(to_string(pool.request(req).body), std::to_string(i));
  }
  // The reconnect meter: ten requests, one dial.
  EXPECT_EQ(pool.connects(), 1u);
  EXPECT_EQ(pool.in_flight(), 0u);
}

TEST_F(PoolFixture, ConcurrentRequestsBoundedByWindow) {
  ClientPool pool(connect(), {.max_connections = 4, .name = "test"});
  Request req;
  req.method = "GET";
  req.target = "/count";
  std::vector<std::thread> clients;
  std::atomic<int> done{0};
  for (int t = 0; t < 16; ++t) {
    clients.emplace_back([&] {
      for (int i = 0; i < 8; ++i) {
        if (pool.request(req).status == 200) done.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(done.load(), 16 * 8);
  EXPECT_EQ(hits_.load(), 16 * 8);
  // At most `max_connections` dials ever happen: the burst multiplexes
  // over the window instead of reconnecting per request.
  EXPECT_LE(pool.connects(), 4u);
  EXPECT_GE(pool.connects(), 1u);
  EXPECT_EQ(pool.in_flight(), 0u);
}

TEST_F(PoolFixture, StaleKeepAliveConnectionRetriedOnce) {
  // First exchange parks an idle connection; the server then closes it.
  // The next request must transparently re-dial instead of failing.
  std::atomic<bool> close_after{true};
  router_.add("GET", "/x", [](const Request&, const RequestContext&) {
    return Response::text(200, "ok");
  });
  // Answers exactly one request, then drops the connection.
  struct OneShotDriver final : net::ConnectionDriver {
    explicit OneShotDriver(net::StreamPtr s) : stream(std::move(s)) {}
    net::BurstResult on_readable() override {
      Connection conn(*stream);
      (void)conn.read_request();
      conn.write(Response::text(200, "ok"));
      return net::BurstResult::kClose;
    }
    net::StreamPtr stream;
  };
  const net::DriverFactory keep_alive = make_http_driver_factory(router_);
  runtime_.listen_inmemory(
      net_, "flaky:80",
      [&close_after, keep_alive](
          net::StreamPtr s) -> std::unique_ptr<net::ConnectionDriver> {
        if (close_after.load()) {
          return std::make_unique<OneShotDriver>(std::move(s));
        }
        return keep_alive(std::move(s));
      });

  ClientPool pool([this] { return net_.connect("flaky:80"); });
  Request req;
  req.method = "GET";
  req.target = "/x";
  EXPECT_EQ(pool.request(req).status, 200);
  close_after.store(false);
  EXPECT_EQ(pool.request(req).status, 200);  // stale lease retried
  EXPECT_EQ(pool.connects(), 2u);
}

TEST_F(PoolFixture, LeaseDiscardDropsConnection) {
  ClientPool pool(connect());
  {
    ClientPool::Lease lease = pool.acquire();
    EXPECT_TRUE(lease.fresh());
    lease.discard();
  }
  {
    ClientPool::Lease lease = pool.acquire();
    EXPECT_TRUE(lease.fresh());  // discarded connection was not reused
  }
  EXPECT_EQ(pool.connects(), 2u);
}

}  // namespace
}  // namespace vnfsgx::http
