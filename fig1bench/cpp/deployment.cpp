#include "deployment.h"

#include <string_view>

#include "http/runtime.h"
#include "ima/filesystem.h"
#include "net/tcp.h"
#include "obs/metrics.h"
#include "vnf/credential_enclave.h"
#include "vnf/functions.h"

namespace fig1 {

namespace {

constexpr std::uint64_t kClockStart = 1'700'000'000;

bool has_label(const vs::obs::MetricSample& s, std::string_view key,
               std::string_view value) {
  for (const auto& [k, v] : s.labels) {
    if (k == key) return v == value;
  }
  return false;
}

bool label_starts_with(const vs::obs::MetricSample& s, std::string_view key,
                       std::string_view prefix) {
  for (const auto& [k, v] : s.labels) {
    if (k == key) return std::string_view(v).substr(0, prefix.size()) == prefix;
  }
  return false;
}

}  // namespace

void grow_iml(vs::host::ContainerHost& host, int target) {
  int index = 0;
  while (static_cast<int>(host.ima().list().size()) < target) {
    const std::string path = "/usr/lib/vnf-tools/tool" + std::to_string(index);
    host.filesystem().write_file(
        path, vs::to_bytes("tool build " + std::to_string(index)),
        vs::ima::FileMeta{.uid = 0, .executable = true});
    host.ima().on_exec(path);
    ++index;
  }
}

vs::http::Request make_request(const std::string& method,
                               const std::string& target,
                               std::size_t ctx_index,
                               const std::string& json_body) {
  vs::http::Request req;
  req.method = method;
  req.target = target;
  req.headers.set(ledger::kThreadHeader, std::to_string(ctx_index));
  if (!json_body.empty()) {
    req.headers.set("Content-Type", "application/json");
    req.body = vs::to_bytes(json_body);
  }
  return req;
}

bool body_contains(const vs::http::Response& response, std::string_view text) {
  const std::string_view body(reinterpret_cast<const char*>(response.body.data()),
                              response.body.size());
  return body.find(text) != std::string_view::npos;
}

void close_quietly(vs::http::Client& client) {
  try {
    client.close();
  } catch (const std::exception&) {
  }
}

Deployment::Deployment(const DeploymentOptions& options)
    : base_rng(options.seed),
      rng(base_rng),
      clock(kClockStart),
      ias(rng, clock),
      ias_router(vs::ias::make_ias_router(ias)),
      vendor(vs::crypto::ed25519_generate(rng)),
      vm(rng, clock,
         vs::ias::IasClient([this] { return connect_ias(); },
                            ias.report_signing_key())),
      // One listener with accept round-robin instead of SO_REUSEPORT: the
      // kernel's port hash would spread the few generator connections over
      // the shards differently on every run.
      runtime(vs::net::ServerOptions{.reuse_port = false,
                                     .name = kRuntimeName}) {
  ias_one_way_ = options.ias_one_way;
  for (int h = 0; h < options.hosts; ++h) {
    add_host("host-" + std::to_string(h), options);
  }
  if (!options.controller) return;

  fabric.add_switch(1);
  fabric.add_switch(2);
  vs::controller::ControllerConfig cfg;
  cfg.mode = vs::controller::SecurityMode::kTrustedHttps;
  const auto kp = vs::crypto::ed25519_generate(rng);
  cfg.certificate = vm.ca().issue(
      {"controller", ""}, kp.public_key,
      static_cast<std::uint8_t>(vs::pki::KeyUsage::kServerAuth),
      /*validity_seconds=*/365 * 24 * 3600);
  cfg.signer = vs::tls::Config::software_signer(kp.seed);
  cfg.require_attested_clients = options.require_attested_clients;
  cfg.clock = &clock;
  cfg.rng = &rng;
  controller = std::make_unique<vs::controller::Controller>(cfg, fabric);
  if (options.require_attested_clients) {
    verifier = std::make_unique<vs::ratls::Verifier>(vs::ratls::VerifierPolicy{
        .attestation_key =
            [this](const vs::sgx::PlatformId& id) {
              return ias.attestation_key(id);
            },
        .enclave_allowed =
            [](const vs::sgx::Measurement& m) {
              return m == vs::vnf::credential_enclave_measurement();
            },
        .policy_generation = {}});
    timed_verifier = std::make_unique<TimedVerifier>(*verifier);
    controller->set_attested_verifier(timed_verifier.get());
  } else {
    controller->trust_ca(vm.ca_certificate());
  }
  controller_router = timed_router(controller->router());
}

Deployment::~Deployment() { shutdown(); }

void Deployment::shutdown() { runtime.shutdown(); }

void Deployment::add_host(const std::string& name,
                          const DeploymentOptions& options) {
  auto node = std::make_unique<HostNode>();
  node->machine = std::make_unique<vs::host::ContainerHost>(
      name, rng, vs::sgx::PlatformOptions{});  // default 2 us crossing cost
  vs::host::ContainerHost& machine = *node->machine;
  machine.boot();
  machine.load_attestation_enclave(vendor.seed);
  ias.register_platform(machine.sgx().platform_id(),
                        machine.sgx().quoting_enclave().attestation_public_key());
  for (int v = 0; v < options.vnfs_per_host; ++v) {
    node->vnfs.push_back(std::make_unique<vs::vnf::Vnf>(
        name + "-vnf-" + std::to_string(v), machine, vendor.seed,
        std::make_unique<vs::vnf::MonitorFunction>()));
    node->vnfs.back()->credentials().generate_key();
  }
  grow_iml(machine, options.iml_entries);
  if (options.serve_agents) {
    node->agent = std::make_unique<vs::core::HostAgent>(machine);
    for (auto& v : node->vnfs) node->agent->register_vnf(*v);
    vs::core::HostAgent* agent = node->agent.get();
    runtime.listen_inmemory(
        net, name + ":7000",
        vs::net::frame_driver(
            [agent](vs::ByteView request) { return agent->serve_frame(request); }));
  }
  // Golden-host enrollment: the healthy host's list is the expected one.
  vm.appraisal().learn(machine.ima().list());
  hosts.push_back(std::move(node));
}

vs::net::StreamPtr Deployment::connect_ias() {
  auto [client, server] =
      vs::net::make_pipe(vs::net::LinkOptions{.latency = ias_one_way_});
  runtime.adopt(std::move(server), vs::http::make_http_driver_factory(ias_router));
  return TimedStream::round_trip(std::move(client), ledger::ctx(0),
                                 "ias.roundtrip");
}

vs::net::StreamPtr Deployment::agent_channel(HostNode& host, OpCtx* ctx) {
  return TimedStream::round_trip(net.connect(host.machine->name() + ":7000"),
                                 ctx, "core.agent_rpc");
}

vs::net::DriverFactory Deployment::controller_factory(OpCtx* ctx) {
  return vs::http::make_http_driver_factory(
      controller_router,
      [this, ctx](vs::net::StreamPtr stream, vs::http::RequestContext& rc) {
        ServerScope scope(ctx);
        Span span(ctx, "tls.accept");
        return controller->wrap_session(std::move(stream), rc);
      });
}

vs::net::StreamPtr Deployment::controller_channel(std::size_t ctx_index) {
  auto [client, server] = vs::net::make_pipe();
  runtime.adopt(std::move(server), controller_factory(ledger::ctx(ctx_index)));
  return std::move(client);
}

std::uint16_t Deployment::listen_controller_tcp() {
  return runtime.listen_tcp(0, controller_factory(nullptr)).port();
}

std::unique_ptr<vs::http::Client> Deployment::open_enclave_client(
    vs::vnf::Vnf& vnf, vs::net::StreamPtr transport, OpCtx* ctx) {
  {
    Span span(ctx, "vnf.tls_open");
    vnf.credentials().tls_open(std::move(transport), clock.now(), "controller",
                               vm.ca_certificate());
  }
  return std::make_unique<vs::http::Client>(TimedStream::calls(
      std::make_unique<vs::vnf::EnclaveTlsStream>(vnf.credentials()), ctx,
      "vnf.tls_send", "vnf.tls_recv"));
}

bool Deployment::enroll_host(HostNode& host, OpCtx* ctx, std::string& why,
                             std::vector<vs::pki::Certificate>* certs) {
  auto channel = agent_channel(host, ctx);
  {
    Span span(ctx, "core.attest_host");
    const auto result = vm.attest_host(*channel);
    if (!result.trustworthy) {
      why = "attest_host " + host.machine->name() + ": " + result.reason;
      return false;
    }
  }
  std::vector<vs::crypto::Ed25519PublicKey> keys;
  for (auto& v : host.vnfs) {
    Span span(ctx, "vnf.rotate_key");
    keys.push_back(v->credentials().rotate_key());
  }
  std::vector<vs::net::StreamPtr> channels;
  std::vector<vs::core::FleetTarget> targets;
  for (auto& v : host.vnfs) {
    channels.push_back(agent_channel(host, ctx));
    targets.push_back({channels.back().get(), v->name()});
  }
  std::vector<vs::core::VnfAttestation> verdicts;
  {
    Span span(ctx, "core.attest_fleet");
    verdicts = vm.attest_fleet(targets, /*max_workers=*/4);
  }
  for (std::size_t i = 0; i < host.vnfs.size(); ++i) {
    if (!verdicts[i].trustworthy || verdicts[i].public_key != keys[i]) {
      why = "attest_fleet " + host.vnfs[i]->name() + ": " + verdicts[i].reason;
      return false;
    }
  }
  for (std::size_t i = 0; i < host.vnfs.size(); ++i) {
    const std::string& name = host.vnfs[i]->name();
    std::optional<vs::pki::Certificate> cert;
    {
      Span span(ctx, "core.enroll_vnf");
      cert = vm.enroll_vnf(*channel, name, name);
    }
    if (!cert || cert->subject.common_name != name ||
        cert->public_key != keys[i]) {
      why = "enroll_vnf " + name + ": no matching certificate";
      return false;
    }
    if (certs) certs->push_back(std::move(*cert));
  }
  return true;
}

Counters Deployment::counters() const {
  Counters c = registry_counters();
  c.rejected_connections =
      controller ? static_cast<double>(controller->rejected_connections()) : 0;
  c.steals = static_cast<double>(runtime.steal_count());
  c.peak_busy_workers = static_cast<double>(runtime.peak_busy_workers());
  for (const auto& h : hosts) {
    c.crossings += static_cast<double>(h->machine->sgx().total_crossings());
  }
  return c;
}

Counters registry_counters() {
  Counters c;
  for (const auto& s : vs::obs::registry().collect()) {
    if (s.name == "vnfsgx_http_client_connects_total" &&
        has_label(s, "pool", "ias")) {
      c.ias_connects += s.value;
    } else if (s.name == "vnfsgx_http_client_reuses_total" &&
               has_label(s, "pool", "ias")) {
      c.ias_reuses += s.value;
    } else if (s.name == "vnfsgx_cache_requests_total" &&
               has_label(s, "cache", "cert_validation")) {
      (has_label(s, "result", "hit") ? c.cert_hits : c.cert_misses) += s.value;
    } else if (s.name == "vnfsgx_tls_handshakes_total" &&
               has_label(s, "role", "server")) {
      c.tls_server_handshakes += s.value;
    } else if (s.name == "vnfsgx_server_dispatches_total" &&
               has_label(s, "runtime", kRuntimeName)) {
      c.dispatches += s.value;
    } else if (s.name == "vnfsgx_server_queue_wait_us" &&
               has_label(s, "runtime", kRuntimeName)) {
      c.queue_wait_bounds = s.bounds;
      c.queue_wait_buckets.assign(s.buckets.begin(), s.buckets.end());
    } else if (s.name == "vnfsgx_hostcall_submits_total" &&
               label_starts_with(s, "ring", "inspection/")) {
      c.ring_submits += s.value;
    } else if (s.name == "vnfsgx_hostcall_steals_total" &&
               label_starts_with(s, "ring", "inspection/")) {
      c.ring_steals += s.value;
    }
  }
  return c;
}

}  // namespace fig1
