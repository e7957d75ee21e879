// Floodlight's three REST security modes over real loopback TCP:
// plain HTTP, HTTPS (server auth), and trusted HTTPS (mutual auth).
// Demonstrates §3 of the paper — what each mode permits — and reports a
// quick cold-connection latency comparison. The trusted-HTTPS control
// plane is measured end to end by fig1bench's `control` workload.
//
// Run: build/examples/security_modes
#include <chrono>

#include "common/logging.h"
#include "http/client.h"
#include "net/tcp.h"
#include "testbed/testbed.h"

using namespace vnfsgx;
using namespace vnfsgx::testbed;

namespace {

struct TcpController {
  std::unique_ptr<controller::Controller> controller;
  /// Epoll reactor + bounded worker pool — accepted connections park in
  /// the reactor, so no thread is spent per connection. Declared after the
  /// controller so it shuts down first.
  net::ServerRuntime runtime{{.workers = 0,
                              .burst_read_timeout = std::chrono::seconds(5),
                              .name = "security_modes"}};
  std::uint16_t port = 0;
};

std::unique_ptr<TcpController> start(Testbed& bed, dataplane::Fabric& fabric,
                                     controller::SecurityMode mode) {
  auto tc = std::make_unique<TcpController>();
  controller::ControllerConfig cfg;
  cfg.mode = mode;
  if (mode != controller::SecurityMode::kHttp) {
    const auto kp = crypto::ed25519_generate(bed.rng);
    cfg.certificate = bed.vm.ca().issue(
        {"controller", ""}, kp.public_key,
        static_cast<std::uint8_t>(pki::KeyUsage::kServerAuth));
    cfg.signer = tls::Config::software_signer(kp.seed);
  }
  cfg.clock = &bed.clock;
  cfg.rng = &bed.rng;
  tc->controller = std::make_unique<controller::Controller>(cfg, fabric);
  if (mode == controller::SecurityMode::kTrustedHttps) {
    tc->controller->trust_ca(bed.vm.ca_certificate());
  }
  tc->port =
      tc->runtime.listen_tcp(0, tc->controller->driver_factory()).port();
  return tc;
}

double measure_get(Testbed& bed, std::uint16_t port,
                   controller::SecurityMode mode, pki::TrustStore& trust,
                   const pki::Certificate* client_cert,
                   const crypto::Ed25519Seed* client_seed) {
  const auto start = std::chrono::steady_clock::now();
  auto tcp = net::TcpStream::connect("127.0.0.1", port);
  net::StreamPtr stream;
  if (mode == controller::SecurityMode::kHttp) {
    stream = std::move(tcp);
  } else {
    tls::Config cfg;
    cfg.truststore = &trust;
    cfg.expected_server_name = "controller";
    cfg.clock = &bed.clock;
    cfg.rng = &bed.rng;
    if (client_cert) {
      cfg.certificate = *client_cert;
      cfg.signer = tls::Config::software_signer(*client_seed);
    }
    stream = tls::Session::connect(std::move(tcp), cfg);
  }
  http::Client client(std::move(stream));
  const auto res = client.get("/wm/core/controller/summary/json");
  client.close();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  if (res.status != 200) throw Error("unexpected status");
  return std::chrono::duration<double, std::micro>(elapsed).count();
}

}  // namespace

int main() {
  set_log_level(LogLevel::kError);
  Testbed bed;
  dataplane::Fabric fabric;
  fabric.add_switch(1);

  pki::TrustStore trust;
  trust.add_root(bed.vm.ca_certificate());
  const auto client_kp = crypto::ed25519_generate(bed.rng);
  const auto client_cert = bed.vm.ca().issue(
      {"vnf-1", ""}, client_kp.public_key,
      static_cast<std::uint8_t>(pki::KeyUsage::kClientAuth));

  banner("Floodlight REST security modes over loopback TCP");

  for (const auto mode : {controller::SecurityMode::kHttp,
                          controller::SecurityMode::kHttps,
                          controller::SecurityMode::kTrustedHttps}) {
    auto tc = start(bed, fabric, mode);
    const std::uint16_t port = tc->port;
    const bool mutual = mode == controller::SecurityMode::kTrustedHttps;

    // Warm up, then measure a few cold connections (handshake included).
    double total = 0;
    const int runs = 20;
    for (int i = 0; i < runs + 2; ++i) {
      const double us = measure_get(bed, port, mode, trust,
                                    mutual ? &client_cert : nullptr,
                                    mutual ? &*client_kp.seed : nullptr);
      if (i >= 2) total += us;
    }
    std::printf("  %-14s GET summary (cold conn): %8.1f us avg over %d runs\n",
                controller::to_string(mode).c_str(), total / runs, runs);

    // Demonstrate the mode's access policy.
    if (mode == controller::SecurityMode::kHttp) {
      auto raw = net::TcpStream::connect("127.0.0.1", port);
      http::Client anon(std::move(raw));
      const auto res = anon.post(
          "/wm/staticflowpusher/json",
          R"({"name":"evil","switch":1,"actions":"drop"})");
      std::printf("    anonymous flow push: HTTP %d (anyone can program the "
                  "network!)\n",
                  res.status);
      anon.close();
      fabric.find_switch(1)->remove_flow("evil");
    }
    if (mode == controller::SecurityMode::kTrustedHttps) {
      bool rejected = false;
      try {
        measure_get(bed, port, mode, trust, nullptr, nullptr);  // no cert
      } catch (const Error&) {
        rejected = true;
      }
      std::printf("    client without certificate: %s\n",
                  rejected ? "REJECTED during handshake" : "accepted?!");
    }
  }

  print_metrics_summary();

  std::printf("\nsecurity_modes complete.\n");
  return 0;
}
