#include "controller/controller.h"

#include "common/logging.h"
#include "json/json.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace vnfsgx::controller {

namespace {

/// Parse the staticflowpusher match/action fields shared by push & delete.
dataplane::FlowEntry flow_from_json(const json::Value& body) {
  dataplane::FlowEntry entry;
  entry.name = body.at("name").as_string();
  entry.priority = static_cast<int>(
      body.get_or("priority", json::Value(0)).as_number());
  if (body.contains("ipv4_src")) {
    entry.match.src_ip = dataplane::ipv4(body.at("ipv4_src").as_string());
  }
  if (body.contains("ipv4_dst")) {
    entry.match.dst_ip = dataplane::ipv4(body.at("ipv4_dst").as_string());
  }
  if (body.contains("tcp_dst")) {
    entry.match.dst_port =
        static_cast<std::uint16_t>(body.at("tcp_dst").as_number());
    entry.match.proto = dataplane::IpProto::kTcp;
  }
  if (body.contains("tcp_src")) {
    entry.match.src_port =
        static_cast<std::uint16_t>(body.at("tcp_src").as_number());
    entry.match.proto = dataplane::IpProto::kTcp;
  }
  if (body.contains("in_port")) {
    entry.match.in_port =
        static_cast<std::uint16_t>(body.at("in_port").as_number());
  }

  const std::string action =
      body.get_or("actions", json::Value("drop")).as_string();
  if (action.rfind("output=", 0) == 0) {
    entry.action = dataplane::Action::forward(
        static_cast<std::uint16_t>(std::stoul(action.substr(7))));
  } else if (action == "drop") {
    entry.action = dataplane::Action::drop();
  } else if (action == "controller") {
    entry.action = dataplane::Action::to_controller();
  } else {
    throw ParseError("staticflowpusher: unknown action '" + action + "'");
  }
  return entry;
}

std::uint64_t dpid_from_json(const json::Value& body) {
  return static_cast<std::uint64_t>(body.at("switch").as_number());
}

}  // namespace

std::string to_string(SecurityMode mode) {
  switch (mode) {
    case SecurityMode::kHttp:
      return "HTTP";
    case SecurityMode::kHttps:
      return "HTTPS";
    case SecurityMode::kTrustedHttps:
      return "TRUSTED_HTTPS";
  }
  return "?";
}

namespace {

// The methods the router serves, each with a cached request counter.
constexpr std::array<const char*, 4> kMethods = {"GET", "POST", "PUT",
                                                 "DELETE"};

obs::Counter& requests_total(SecurityMode mode, const std::string& method) {
  return obs::registry().counter(
      "vnfsgx_controller_requests_total",
      {{"mode", to_string(mode)}, {"method", method}},
      "REST requests served, by controller security mode");
}

obs::Counter& enrollments_total(const char* result) {
  return obs::registry().counter(
      "vnfsgx_ratls_enrollments_total", {{"result", result}},
      "First-contact RA-TLS enrollments at the controller");
}

}  // namespace

Controller::Controller(ControllerConfig config, dataplane::Fabric& fabric)
    : config_(std::move(config)), fabric_(fabric) {
  const std::string mode = to_string(config_.mode);
  request_duration_ = &obs::registry().histogram(
      "vnfsgx_controller_request_duration_us", {{"mode", mode}}, {},
      "Controller REST handler latency, by security mode");
  auth_failures_ = &obs::registry().counter(
      "vnfsgx_controller_auth_failures_total", {{"mode", mode}},
      "Write requests refused for missing client identity");
  enrollments_ok_ = &enrollments_total("ok");
  enrollments_rejected_ = &enrollments_total("rejected");
  for (std::size_t i = 0; i < kMethods.size(); ++i) {
    requests_by_method_[i] = &requests_total(config_.mode, kMethods[i]);
  }
  if (config_.mode != SecurityMode::kHttp) {
    if (!config_.certificate || !config_.signer || !config_.clock ||
        !config_.rng) {
      throw Error("controller: TLS modes require certificate/signer/clock/rng");
    }
    if (config_.enable_session_tickets) {
      ticket_key_ = tls::TicketKey::generate(*config_.rng);
    }
  }
  build_router();
}

void Controller::trust_ca(const pki::Certificate& ca_root) {
  truststore_.add_root(ca_root);
  ca_trusted_ = true;
  VNFSGX_LOG_INFO("controller", config_.name, ": trusting CA '",
                  ca_root.subject.common_name, "'");
}

void Controller::set_attested_verifier(
    const pki::AttestedCertVerifier* verifier) {
  truststore_.set_attested_verifier(verifier);
  attested_verifier_installed_ = verifier != nullptr;
  VNFSGX_LOG_INFO("controller", config_.name,
                  verifier ? ": RA-TLS attested verifier installed"
                           : ": RA-TLS attested verifier removed");
}

void Controller::update_crl(const pki::RevocationList& crl) {
  truststore_.set_crl(crl);
}

std::vector<pki::VerifyResult> Controller::prevalidate_certificates(
    std::span<const pki::Certificate> certs) {
  const UnixTime now = config_.clock ? config_.clock->now() : 0;
  return truststore_.verify_batch(certs, pki::KeyUsage::kClientAuth, now);
}

net::StreamPtr Controller::wrap_session(net::StreamPtr stream,
                                        http::RequestContext& ctx) {
  try {
    if (config_.mode == SecurityMode::kHttp) return stream;
    tls::Config tls_config;
    tls_config.certificate = config_.certificate;
    tls_config.signer = config_.signer;
    tls_config.clock = config_.clock;
    tls_config.rng = config_.rng;
    if (config_.enable_session_tickets) {
      tls_config.ticket_key = &ticket_key_;
      tls_config.ticket_lifetime_seconds = config_.ticket_lifetime_seconds;
    }
    if (config_.mode == SecurityMode::kTrustedHttps) {
      // An attested verifier replaces the CA as the client trust anchor:
      // with one installed the controller needs no pre-provisioned CA.
      if (!ca_trusted_ && !attested_verifier_installed_) {
        throw Error(
            "controller: trusted HTTPS mode requires trust_ca() or "
            "set_attested_verifier()");
      }
      tls_config.require_client_certificate = true;
      tls_config.truststore = &truststore_;
      tls_config.require_attested_peer = config_.require_attested_clients;
    }
    auto session = tls::Session::accept(std::move(stream), tls_config);
    ctx.client_identity = session->peer_identity();
    ctx.client_attested = session->peer_attested();
    // Identity + attestation verdict are recorded in the request context;
    // the parsed client certificate chain (~1 KB/connection) serves no
    // further purpose on a 100k-resident channel server.
    session->release_handshake_state();
    return session;
  } catch (const TimeoutError&) {
    throw;  // a stalled handshake is a burst timeout, not an auth failure
  } catch (const Error& e) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    obs::registry()
        .counter("vnfsgx_controller_rejected_connections_total",
                 {{"mode", to_string(config_.mode)}},
                 "Connections dropped before serving any request "
                 "(TLS or authentication failure)")
        .add();
    VNFSGX_LOG_WARN("controller", config_.name,
                    ": connection rejected: ", e.what());
    throw;
  }
}

net::DriverFactory Controller::driver_factory() {
  return http::make_http_driver_factory(
      router_, [this](net::StreamPtr stream, http::RequestContext& ctx) {
        return wrap_session(std::move(stream), ctx);
      });
}

bool Controller::authorize_write(const http::RequestContext& ctx) const {
  // In trusted-HTTPS mode write access requires an authenticated client;
  // the weaker modes accept anonymous writes — the exposure the paper's
  // threat model calls out.
  if (config_.mode != SecurityMode::kTrustedHttps) return true;
  return !ctx.client_identity.empty();
}

void Controller::audit(const http::RequestContext& ctx,
                       const http::Request& req, int status) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  request_counter(req.method).add();
  if (status == 403) auth_failures_->add();
  const std::lock_guard<std::mutex> lock(mutex_);
  audit_log_.push_back(AuditRecord{ctx.client_identity, req.method,
                                   req.path(), status});
}

obs::Counter& Controller::request_counter(const std::string& method) const {
  for (std::size_t i = 0; i < kMethods.size(); ++i) {
    if (method == kMethods[i]) return *requests_by_method_[i];
  }
  return requests_total(config_.mode, method);  // a method no route serves
}

std::vector<AuditRecord> Controller::audit_log() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return audit_log_;
}

std::vector<std::string> Controller::enrolled_identities() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return enrolled_;
}

void Controller::build_router() {
  // Every route goes through `traced`: a step-6 rest_request span plus a
  // per-mode latency histogram around the handler.
  const auto traced = [this](http::Handler h) -> http::Handler {
    return [this, h = std::move(h)](const http::Request& r,
                                    const http::RequestContext& c) {
      obs::Span span =
          obs::tracer().start_span("rest_request", obs::kStepSecureChannel);
      span.annotate("method", r.method);
      span.annotate("path", r.path());
      const http::Response res = h(r, c);
      span.annotate("status", std::to_string(res.status));
      span.end();
      request_duration_->observe(span.elapsed_us());
      return res;
    };
  };
  router_.add("GET", "/wm/core/controller/summary/json",
              traced([this](const http::Request& r,
                            const http::RequestContext& c) {
                return handle_summary(r, c);
              }));
  router_.add("GET", "/wm/core/controller/switches/json",
              traced([this](const http::Request& r,
                            const http::RequestContext& c) {
                return handle_switches(r, c);
              }));
  router_.add("GET", "/wm/topology/links/json",
              traced([this](const http::Request& r,
                            const http::RequestContext& c) {
                return handle_links(r, c);
              }));
  router_.add("POST", "/wm/staticflowpusher/json",
              traced([this](const http::Request& r,
                            const http::RequestContext& c) {
                return handle_push_flow(r, c);
              }));
  router_.add("DELETE", "/wm/staticflowpusher/json",
              traced([this](const http::Request& r,
                            const http::RequestContext& c) {
                return handle_delete_flow(r, c);
              }));
  router_.add("GET", "/wm/staticflowpusher/list/*",
              traced([this](const http::Request& r,
                            const http::RequestContext& c) {
                return handle_list_flows(r, c);
              }));
  router_.add("POST", "/wm/vnfsgx/enroll/json",
              traced([this](const http::Request& r,
                            const http::RequestContext& c) {
                return handle_enroll(r, c);
              }));
  // Observability endpoints (read-only; served in every security mode).
  router_.add("GET", "/metrics",
              [](const http::Request&, const http::RequestContext&) {
                return http::Response::text(200,
                                            obs::to_prometheus(obs::registry()));
              });
  router_.add("GET", "/metrics/json",
              [](const http::Request&, const http::RequestContext&) {
                return http::Response::json(
                    200, json::serialize(obs::snapshot_json(
                             obs::registry().collect(), obs::tracer().spans(),
                             "controller")));
              });
}

http::Response Controller::handle_summary(const http::Request& req,
                                          const http::RequestContext& ctx) {
  json::Object body;
  body["controller"] = config_.name;
  body["securityMode"] = to_string(config_.mode);
  {
    const std::lock_guard<std::mutex> lock(fabric_mutex_);
    body["numSwitches"] = fabric_.switches().size();
    body["numLinks"] = fabric_.links().size();
  }
  body["requestsServed"] = static_cast<std::uint64_t>(requests_.load());
  const http::Response res =
      http::Response::json(200, json::serialize(json::Value(std::move(body))));
  audit(ctx, req, res.status);
  return res;
}

http::Response Controller::handle_switches(const http::Request& req,
                                           const http::RequestContext& ctx) {
  json::Array switches;
  const std::lock_guard<std::mutex> lock(fabric_mutex_);
  for (const auto& [dpid, sw] : fabric_.switches()) {
    json::Object entry;
    entry["switchDPID"] = sw->dpid_string();
    entry["flowCount"] = sw->flows().size();
    switches.push_back(json::Value(std::move(entry)));
  }
  const http::Response res =
      http::Response::json(200, json::serialize(json::Value(std::move(switches))));
  audit(ctx, req, res.status);
  return res;
}

http::Response Controller::handle_links(const http::Request& req,
                                        const http::RequestContext& ctx) {
  json::Array links;
  const std::lock_guard<std::mutex> lock(fabric_mutex_);
  for (const auto& [a, b] : fabric_.links()) {
    json::Object entry;
    entry["src-switch"] = a.dpid;
    entry["src-port"] = a.port;
    entry["dst-switch"] = b.dpid;
    entry["dst-port"] = b.port;
    links.push_back(json::Value(std::move(entry)));
  }
  const http::Response res =
      http::Response::json(200, json::serialize(json::Value(std::move(links))));
  audit(ctx, req, res.status);
  return res;
}

http::Response Controller::handle_push_flow(const http::Request& req,
                                            const http::RequestContext& ctx) {
  if (!authorize_write(ctx)) {
    const auto res = http::Response::error(403, "client authentication required");
    audit(ctx, req, res.status);
    return res;
  }
  http::Response res;
  try {
    const json::Value body = json::parse(vnfsgx::to_string(req.body));
    const std::uint64_t dpid = dpid_from_json(body);
    const std::lock_guard<std::mutex> lock(fabric_mutex_);
    dataplane::Switch* sw = fabric_.find_switch(dpid);
    if (!sw) {
      res = http::Response::error(404, "unknown switch");
    } else {
      sw->add_flow(flow_from_json(body));
      res = http::Response::json(200, R"({"status":"Entry pushed"})");
    }
  } catch (const std::exception& e) {
    res = http::Response::error(400, "bad flow definition");
  }
  audit(ctx, req, res.status);
  return res;
}

http::Response Controller::handle_delete_flow(const http::Request& req,
                                              const http::RequestContext& ctx) {
  if (!authorize_write(ctx)) {
    const auto res = http::Response::error(403, "client authentication required");
    audit(ctx, req, res.status);
    return res;
  }
  http::Response res;
  try {
    const json::Value body = json::parse(vnfsgx::to_string(req.body));
    const std::lock_guard<std::mutex> lock(fabric_mutex_);
    dataplane::Switch* sw = fabric_.find_switch(dpid_from_json(body));
    if (!sw || !sw->remove_flow(body.at("name").as_string())) {
      res = http::Response::error(404, "no such flow");
    } else {
      res = http::Response::json(200, R"({"status":"Entry deleted"})");
    }
  } catch (const std::exception&) {
    res = http::Response::error(400, "bad request");
  }
  audit(ctx, req, res.status);
  return res;
}

http::Response Controller::handle_enroll(const http::Request& req,
                                         const http::RequestContext& ctx) {
  // First-contact enrollment: the RA-TLS handshake already attested AND
  // authenticated the caller, so the whole enrollment is this one request
  // on the same connection — no nonce/quote/certificate round trips.
  http::Response res;
  const bool accepted = ctx.client_attested && !ctx.client_identity.empty();
  if (accepted) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      enrolled_.push_back(ctx.client_identity);
    }
    json::Object body;
    body["status"] = "enrolled";
    body["identity"] = ctx.client_identity;
    res = http::Response::json(
        200, json::serialize(json::Value(std::move(body))));
  } else {
    res = http::Response::error(403, "attested client certificate required");
  }
  (accepted ? enrollments_ok_ : enrollments_rejected_)->add();
  audit(ctx, req, res.status);
  return res;
}

http::Response Controller::handle_list_flows(const http::Request& req,
                                             const http::RequestContext& ctx) {
  // Path: /wm/staticflowpusher/list/<dpid>/json
  const std::string path = req.path();
  const std::string prefix = "/wm/staticflowpusher/list/";
  http::Response res;
  try {
    std::string rest = path.substr(prefix.size());
    const auto slash = rest.find('/');
    const std::uint64_t dpid = std::stoull(rest.substr(0, slash));
    const std::lock_guard<std::mutex> lock(fabric_mutex_);
    dataplane::Switch* sw = fabric_.find_switch(dpid);
    if (!sw) {
      res = http::Response::error(404, "unknown switch");
    } else {
      json::Array flows;
      for (const auto& flow : sw->flows()) {
        json::Object entry;
        entry["name"] = flow.name;
        entry["priority"] = flow.priority;
        entry["packetCount"] = flow.packet_count;
        entry["byteCount"] = flow.byte_count;
        flows.push_back(json::Value(std::move(entry)));
      }
      res = http::Response::json(
          200, json::serialize(json::Value(std::move(flows))));
    }
  } catch (const std::exception&) {
    res = http::Response::error(400, "bad switch id");
  }
  audit(ctx, req, res.status);
  return res;
}

}  // namespace vnfsgx::controller
