#include "testbed/testbed.h"

#include <chrono>
#include <cstdio>

#include "core/vm_api.h"
#include "http/runtime.h"
#include "ias/http_api.h"
#include "obs/export.h"
#include "obs/metrics.h"

namespace vnfsgx::testbed {

namespace {

constexpr std::uint64_t kSeed = 1;
constexpr std::uint64_t kClockStart = 1'700'000'000;

}  // namespace

Testbed::Testbed()
    : base_rng(kSeed),
      rng(base_rng),
      clock(kClockStart),
      ias(rng, clock),
      ias_router(ias::make_ias_router(ias)),
      vendor(crypto::ed25519_generate(rng)),
      vm(rng, clock,
         ias::IasClient([this] { return net.connect(kIasAddress); },
                        ias.report_signing_key())),
      runtime({.burst_read_timeout = std::chrono::seconds(5),
               .name = "testbed"}) {
  runtime.listen_inmemory(net, kIasAddress,
                          http::make_http_driver_factory(ias_router));
}

SimHost& Testbed::add_host(const std::string& name) {
  auto machine =
      std::make_unique<host::ContainerHost>(name, rng, sgx::PlatformOptions{});
  machine->boot();
  machine->load_attestation_enclave(vendor.seed);
  ias.register_platform(
      machine->sgx().platform_id(),
      machine->sgx().quoting_enclave().attestation_public_key());
  auto agent = std::make_unique<core::HostAgent>(*machine);
  core::HostAgent* agent_ptr = agent.get();
  serve_agent(name + ":7000", [agent_ptr](ByteView request) {
    return agent_ptr->serve_frame(request);
  });
  // Heap-allocated elements: references returned from here must survive
  // later add_host calls.
  hosts.push_back(
      std::make_unique<SimHost>(SimHost{std::move(machine), std::move(agent)}));
  return *hosts.back();
}

void Testbed::learn_golden(const SimHost& h) {
  vm.appraisal().learn(h.machine->ima().list());
}

net::StreamPtr Testbed::agent_channel(const SimHost& h) {
  return net.connect(h.machine->name() + ":7000");
}

void Testbed::serve_agent(const std::string& address,
                          std::function<Bytes(ByteView)> handler) {
  runtime.listen_inmemory(net, address, net::frame_driver(std::move(handler)));
}

void Testbed::serve_vm_api() {
  vm_router = core::make_vm_router(vm);
  runtime.listen_inmemory(net, kVmAddress,
                          http::make_http_driver_factory(vm_router));
}

vnfsgx::controller::Controller& Testbed::start_controller(
    dataplane::Fabric& fabric, vnfsgx::controller::SecurityMode mode) {
  using vnfsgx::controller::SecurityMode;
  vnfsgx::controller::ControllerConfig cfg;
  cfg.mode = mode;
  if (mode != SecurityMode::kHttp) {
    const auto kp = crypto::ed25519_generate(rng);
    cfg.certificate = vm.ca().issue(
        {"controller", "vnfsgx"}, kp.public_key,
        static_cast<std::uint8_t>(pki::KeyUsage::kServerAuth),
        /*validity_seconds=*/365 * 24 * 3600);
    cfg.signer = tls::Config::software_signer(kp.seed);
  }
  cfg.clock = &clock;
  cfg.rng = &rng;
  controller = std::make_unique<vnfsgx::controller::Controller>(cfg, fabric);
  if (mode == SecurityMode::kTrustedHttps) {
    controller->trust_ca(vm.ca_certificate());
  }
  runtime.listen_inmemory(net, kControllerAddress,
                          controller->driver_factory());
  return *controller;
}

void banner(const std::string& text) {
  std::printf("\n=== %s ===\n", text.c_str());
}

void step(const std::string& text) { std::printf("  -> %s\n", text.c_str()); }

void print_metrics_summary() {
  std::printf("\n=== metrics summary ===\n%s",
              obs::summary_table(obs::registry()).c_str());
}

}  // namespace vnfsgx::testbed
