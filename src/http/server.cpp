#include "http/server.h"

#include <algorithm>
#include <tuple>

#include "common/logging.h"

namespace vnfsgx::http {

void Router::add(const std::string& method, const std::string& path,
                 Handler handler) {
  Route route;
  route.method = method;
  const bool wildcard =
      path.size() >= 2 && path.compare(path.size() - 2, 2, "/*") == 0;
  route.prefix = wildcard ? path.substr(0, path.size() - 2) : path;
  route.handler = std::move(handler);
  if (wildcard) {
    wildcard_.push_back(std::move(route));
    // Longest prefix first; stable so same-length prefixes keep
    // registration order (first registered wins, as before).
    std::stable_sort(wildcard_.begin(), wildcard_.end(),
                     [](const Route& a, const Route& b) {
                       return a.prefix.size() > b.prefix.size();
                     });
  } else {
    exact_.push_back(std::move(route));
    std::sort(exact_.begin(), exact_.end(),
              [](const Route& a, const Route& b) {
                return std::tie(a.prefix, a.method) <
                       std::tie(b.prefix, b.method);
              });
  }
}

Response Router::dispatch(const Request& request,
                          const RequestContext& ctx) const {
  const std::string path = request.path();
  bool path_matched = false;

  // Exact table: binary search the (path, method) range. An exact match is
  // always at least as long as any wildcard prefix of the same path, and
  // exact beats wildcard on ties, so it can short-circuit.
  const auto lo = std::lower_bound(
      exact_.begin(), exact_.end(), path,
      [](const Route& r, const std::string& p) { return r.prefix < p; });
  for (auto it = lo; it != exact_.end() && it->prefix == path; ++it) {
    if (it->method == request.method) return it->handler(request, ctx);
    path_matched = true;
  }

  // Wildcards, longest prefix first: the first method match wins.
  for (const Route& route : wildcard_) {
    if (path.compare(0, route.prefix.size(), route.prefix) != 0) continue;
    if (route.method == request.method) return route.handler(request, ctx);
    path_matched = true;
  }

  if (path_matched) return Response::error(405, "method not allowed");
  return Response::error(404, "not found");
}

ServeResult serve_one(Connection& conn, const Router& router,
                      const RequestContext& ctx) {
  std::optional<Request> request;
  try {
    request = conn.read_request();
  } catch (const ParseError&) {
    try {
      conn.write(Response::error(400, "bad request"));
    } catch (const IoError&) {
    }
    return ServeResult::kClose;
  } catch (const TimeoutError&) {
    throw;  // the server runtime meters stalled peers
  } catch (const IoError&) {
    return ServeResult::kClose;  // peer went away mid-message
  }
  if (!request) return ServeResult::kClose;  // clean close

  Response response;
  try {
    response = router.dispatch(*request, ctx);
  } catch (const std::exception& e) {
    VNFSGX_LOG_WARN("http", "handler threw: ", e.what());
    response = Response::error(500, "internal error");
  }

  const bool close_requested =
      request->headers.get("Connection").value_or("") == "close";
  if (close_requested) response.headers.set("Connection", "close");
  try {
    conn.write(response);
  } catch (const IoError&) {
    return ServeResult::kClose;
  }
  return close_requested ? ServeResult::kClose : ServeResult::kKeepAlive;
}

}  // namespace vnfsgx::http
