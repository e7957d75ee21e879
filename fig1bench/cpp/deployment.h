// One Figure-1 deployment assembled from src/ public APIs: an IAS endpoint
// behind a WAN-modelled pipe, the Verification Manager, container hosts
// with agents and VNF credential enclaves, and a trusted-HTTPS controller,
// all served by one net::ServerRuntime.
#pragma once

#include <chrono>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bench.h"
#include "common/sim_clock.h"
#include "controller/controller.h"
#include "core/host_agent.h"
#include "core/verification_manager.h"
#include "crypto/random.h"
#include "dataplane/fabric.h"
#include "http/client.h"
#include "ias/http_api.h"
#include "ledger.h"
#include "net/server.h"
#include "ratls/verifier.h"
#include "vnf/vnf.h"

namespace fig1 {

namespace vs = vnfsgx;

struct HostNode {
  std::unique_ptr<vs::host::ContainerHost> machine;
  std::unique_ptr<vs::core::HostAgent> agent;  // null unless agents served
  std::vector<std::unique_ptr<vs::vnf::Vnf>> vnfs;
};

struct DeploymentOptions {
  std::uint64_t seed = 1;
  int hosts = 0;
  int vnfs_per_host = 0;
  /// Grow each host's IMA measurement list to about this many entries.
  int iml_entries = 0;
  /// Serve each host's agent at "<host>:7000" (framed RPC).
  bool serve_agents = false;
  /// One-way latency of every IAS pipe (the modelled WAN).
  std::chrono::microseconds ias_one_way{0};
  /// Start the trusted-HTTPS controller.
  bool controller = false;
  /// Controller accepts RA-TLS clients only (no CA trust anchor).
  bool require_attested_clients = false;
};

/// Metrics label of the deployment's ServerRuntime.
inline constexpr const char* kRuntimeName = "fig1";

class Deployment {
 public:
  explicit Deployment(const DeploymentOptions& options);
  ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// A fresh framed-RPC channel to a host agent, timed write->reply as
  /// "core.agent_rpc".
  vs::net::StreamPtr agent_channel(HostNode& host, OpCtx* ctx);

  /// A fresh in-memory connection to the controller whose server side is
  /// adopted into the runtime; its TLS accept is timed as "tls.accept" and
  /// attributed to generator context `ctx_index`.
  vs::net::StreamPtr controller_channel(std::size_t ctx_index);

  /// Bind a loopback TCP listener for the controller; returns the port.
  std::uint16_t listen_controller_tcp();

  /// Open a VNF's in-enclave TLS session over `transport` and return an
  /// HTTP client whose writes/reads are timed "vnf.tls_send"/"vnf.tls_recv".
  std::unique_ptr<vs::http::Client> open_enclave_client(
      vs::vnf::Vnf& vnf, vs::net::StreamPtr transport, OpCtx* ctx);

  /// Steps 1-5 through the Verification Manager for every VNF of `host`
  /// (host attestation, key rotation, fleet attestation, provisioning).
  /// Returns false with `why` set on any refusal; on success `certs` (if
  /// given) receives the provisioned certificates in VNF order.
  bool enroll_host(HostNode& host, OpCtx* ctx, std::string& why,
                   std::vector<vs::pki::Certificate>* certs = nullptr);

  /// Stop the runtime (idempotent); connections close, workers join.
  void shutdown();

  /// Counter readings shared by every workload.
  Counters counters() const;

  vs::crypto::DeterministicRandom base_rng;
  vs::crypto::LockedRandom rng;
  vs::SimClock clock;
  vs::net::InMemoryNetwork net;
  vs::ias::IasService ias;
  vs::http::Router ias_router;
  vs::crypto::Ed25519KeyPair vendor;
  vs::core::VerificationManager vm;
  std::vector<std::unique_ptr<HostNode>> hosts;
  vs::dataplane::Fabric fabric;
  std::unique_ptr<vs::ratls::Verifier> verifier;
  std::unique_ptr<TimedVerifier> timed_verifier;
  std::unique_ptr<vs::controller::Controller> controller;
  vs::http::Router controller_router;  // timed decorator over the controller's
  /// Declared last: shut down before everything it serves is destroyed.
  vs::net::ServerRuntime runtime;

 private:
  vs::net::StreamPtr connect_ias();
  void add_host(const std::string& name, const DeploymentOptions& options);
  vs::net::DriverFactory controller_factory(OpCtx* ctx);

  std::chrono::microseconds ias_one_way_{0};
};

/// The obs-registry readings of Counters (IAS pool, certificate cache,
/// TLS handshakes, runtime dispatches and queue wait, inspection rings).
Counters registry_counters();

/// Extra IMA measurements so a host's list reaches `target` entries.
void grow_iml(vs::host::ContainerHost& host, int target);

/// A REST request tagged with the generator-thread index (ledger header).
vs::http::Request make_request(const std::string& method,
                               const std::string& target,
                               std::size_t ctx_index,
                               const std::string& json_body = "");

bool body_contains(const vs::http::Response& response, std::string_view text);

/// Close an in-enclave client, swallowing errors (failure paths only).
void close_quietly(vs::http::Client& client);

}  // namespace fig1
