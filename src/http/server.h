// HTTP server: router + one request/response exchange per call.
//
// Transport-agnostic: `serve_one` drives any buffered Connection (plain
// pipe, TCP socket, or a TLS session), which is how the controller offers
// the same REST API in all three Floodlight security modes. The
// ServerRuntime's HTTP driver (http/runtime.h) runs it once per readiness
// event.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "http/wire.h"
#include "net/stream.h"

namespace vnfsgx::http {

/// Context a handler receives beyond the request itself.
struct RequestContext {
  /// Authenticated TLS client identity (certificate subject), empty for
  /// plain HTTP or server-auth-only TLS. Set by the controller's TLS layer.
  std::string client_identity;
  /// True when the client authenticated with an RA-TLS certificate whose
  /// attestation evidence the handshake appraised (Session::peer_attested).
  bool client_attested = false;
};

using Handler = std::function<Response(const Request&, const RequestContext&)>;

/// Method+path router. Paths match exactly, or by prefix when registered
/// with a trailing "/*" wildcard (longest prefix wins; an exact route beats
/// a wildcard of the same length).
///
/// Dispatch is O(log n) over a method+path-sorted table for exact routes
/// plus a short longest-first scan of the (few) wildcard routes — no longer
/// a linear pass over every registration per request.
class Router {
 public:
  void add(const std::string& method, const std::string& path, Handler handler);

  /// Dispatch; 404 for unknown path, 405 for known path with wrong method.
  Response dispatch(const Request& request, const RequestContext& ctx) const;

 private:
  struct Route {
    std::string method;
    std::string prefix;  // without the "/*"
    Handler handler;
  };
  std::vector<Route> exact_;     // sorted by (prefix, method)
  std::vector<Route> wildcard_;  // sorted by prefix length, longest first
};

/// Outcome of one request/response exchange.
enum class ServeResult { kKeepAlive, kClose };

/// Serve exactly one request/response exchange on an established buffered
/// connection. Maps handler exceptions to 500, parse errors to 400+close,
/// and peer disappearance to kClose. TimeoutError (a stalled mid-request
/// peer on a deadline-bearing transport) propagates so the server runtime
/// can meter it.
ServeResult serve_one(Connection& conn, const Router& router,
                      const RequestContext& ctx = {});

}  // namespace vnfsgx::http
