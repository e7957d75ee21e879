// One simulated Figure-1 deployment for tests, examples and benches: an IAS
// endpoint, the Verification Manager, container hosts with agents, the
// VM's operator API and (optionally) a Floodlight-style controller. Every
// surface is served over the in-memory network by one net::ServerRuntime.
//
// The configuration is fixed: one deterministic seed feeds the whole
// deployment, and every platform uses the default ECALL crossing cost.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/sim_clock.h"
#include "controller/controller.h"
#include "core/host_agent.h"
#include "core/verification_manager.h"
#include "crypto/random.h"
#include "http/server.h"
#include "ias/service.h"
#include "net/inmemory.h"
#include "net/server.h"

namespace vnfsgx::testbed {

inline constexpr const char* kIasAddress = "ias:443";
inline constexpr const char* kVmAddress = "vm:8080";
inline constexpr const char* kControllerAddress = "controller:8443";

/// One booted container host and its agent, served at "<name>:7000".
struct SimHost {
  std::unique_ptr<host::ContainerHost> machine;
  std::unique_ptr<core::HostAgent> agent;
};

class Testbed {
 public:
  Testbed();

  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  /// Create and boot a host, load its attestation enclave, register the
  /// platform with IAS (EPID join), and serve its agent.
  SimHost& add_host(const std::string& name);

  /// Golden-host enrollment: record a host's current IML as expected.
  void learn_golden(const SimHost& h);

  /// A fresh framed-RPC channel to a host's agent.
  net::StreamPtr agent_channel(const SimHost& h);

  /// Serve `handler` as a framed-RPC agent at `address`: one request frame
  /// in, one reply frame out, parked between frames.
  void serve_agent(const std::string& address,
                   std::function<Bytes(ByteView)> handler);

  /// Serve the VM's management REST API (including GET /vm/metrics and
  /// /vm/metrics/json) at kVmAddress.
  void serve_vm_api();

  /// Start a controller in `mode` at kControllerAddress; in the TLS modes
  /// its server certificate comes from the VM's CA, which trusted HTTPS
  /// also uses as its client trust anchor.
  vnfsgx::controller::Controller& start_controller(
      dataplane::Fabric& fabric, vnfsgx::controller::SecurityMode mode);

  /// The LockedRandom wrapper keeps the one deterministic source safe when
  /// pool workers drive enclave key generation concurrently.
  crypto::DeterministicRandom base_rng;
  crypto::LockedRandom rng;
  SimClock clock;
  net::InMemoryNetwork net;
  ias::IasService ias;
  http::Router ias_router;
  crypto::Ed25519KeyPair vendor;
  core::VerificationManager vm;
  std::vector<std::unique_ptr<SimHost>> hosts;
  std::unique_ptr<vnfsgx::controller::Controller> controller;
  http::Router vm_router;
  /// Declared last: shut down (and its workers joined) before the routers,
  /// controller and hosts it serves are destroyed.
  net::ServerRuntime runtime;
};

/// Narration helpers for the example programs.
void banner(const std::string& text);
void step(const std::string& text);
/// Human-readable metrics roll-up (request counts, handshake p50/p95, ...).
void print_metrics_summary();

}  // namespace vnfsgx::testbed
