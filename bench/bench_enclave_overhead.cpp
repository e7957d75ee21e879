// S2-ENCL: "An investigation of alternative implementations (and their
// performance impact) is left for future work" — the paper keeps the whole
// TLS security context inside the enclave. This bench quantifies that
// choice against the alternative (TLS terminated outside, key via enclave
// signer only):
//
//   * in-enclave TLS: every send/recv is an ECALL (plaintext crosses, keys
//     never do) — per-record boundary crossings dominate small messages;
//   * outside TLS: handshake uses the enclave only for CertificateVerify
//     (one ECALL), then records are handled by untrusted code.
//
// Also sweeps the synthetic ECALL crossing cost to show how the gap scales
// with hardware transition latency (an ablation over the simulator's one
// tunable).
#include <benchmark/benchmark.h>

#include <thread>

#include "testbed/testbed.h"
#include "vnf/credential_client.h"
#include "vnf/credential_enclave.h"

namespace {

using namespace vnfsgx;

/// Echo server speaking mutual TLS.
std::thread start_echo_server(net::StreamPtr transport, tls::Config config) {
  return std::thread([transport = std::move(transport),
                      config]() mutable {
    try {
      auto session = tls::Session::accept(std::move(transport), config);
      while (true) {
        std::uint8_t len_buf[4];
        session->read_exact(std::span<std::uint8_t>(len_buf, 4));
        const std::uint32_t n = read_u32(ByteView(len_buf, 4), 0);
        const Bytes payload = session->read_exact(n);
        Bytes reply;
        append_u32(reply, n);
        append(reply, payload);
        session->write(reply);
      }
    } catch (const Error&) {
    }
  });
}

/// The echo server's identity, issued and anchored by the testbed VM's CA.
struct Endpoints {
  testbed::Testbed bed;
  pki::TrustStore trust;
  pki::Certificate server_cert;
  crypto::Ed25519Seed server_seed;

  Endpoints() {
    trust.add_root(bed.vm.ca_certificate());
    const auto kp = crypto::ed25519_generate(bed.rng);
    server_cert = bed.vm.ca().issue(
        {"controller", ""}, kp.public_key,
        static_cast<std::uint8_t>(pki::KeyUsage::kServerAuth), 365 * 24 * 3600);
    server_seed = kp.seed;
  }

  tls::Config server_config() {
    tls::Config c;
    c.certificate = server_cert;
    c.signer = tls::Config::software_signer(server_seed);
    c.require_client_certificate = true;
    c.truststore = &trust;
    c.clock = &bed.clock;
    c.rng = &bed.rng;
    return c;
  }
};

/// Build a credential enclave on a platform with the given crossing cost
/// (the sweep variable, so not a testbed host), provisioned with a
/// certificate from the testbed VM's CA.
struct EnclaveClient {
  std::unique_ptr<sgx::SgxPlatform> platform;
  std::shared_ptr<sgx::Enclave> enclave;
  std::unique_ptr<vnf::CredentialClient> client;
  crypto::Ed25519PublicKey public_key{};

  EnclaveClient(Endpoints& ep, std::chrono::nanoseconds crossing_cost) {
    sgx::PlatformOptions options;
    options.crossing_cost = crossing_cost;
    platform = std::make_unique<sgx::SgxPlatform>(ep.bed.rng, "bench", options);
    const sgx::EnclaveImage image = vnf::credential_enclave_image();
    const sgx::SigStruct sig = sgx::sign_enclave(
        ep.bed.vendor.seed, sgx::measure_image(image.code, image.attributes),
        10, 1);
    enclave = platform->load_enclave(image, sig);
    client = std::make_unique<vnf::CredentialClient>(enclave);
    public_key = client->generate_key();
    client->install_certificate(ep.bed.vm.ca().issue(
        {"vnf-1", ""}, public_key,
        static_cast<std::uint8_t>(pki::KeyUsage::kClientAuth), 365 * 24 * 3600));
  }
};

void run_echo(benchmark::State& state, Endpoints& ep, bool in_enclave,
              std::chrono::nanoseconds crossing_cost) {
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  EnclaveClient ec(ep, crossing_cost);

  auto [client_end, server_end] = net::make_pipe();
  std::thread server = start_echo_server(std::move(server_end),
                                         ep.server_config());

  crypto::DeterministicRandom rng(7);
  const Bytes payload = rng.bytes(size);
  std::uint64_t crossings_before = 0;

  if (in_enclave) {
    // Whole TLS context inside the enclave; I/O via the OCALL bridge.
    ec.client->tls_open(std::move(client_end), ep.bed.clock.now(),
                        "controller", ep.bed.vm.ca_certificate());
    crossings_before = ec.platform->total_crossings();
    for (auto _ : state) {
      Bytes message;
      append_u32(message, static_cast<std::uint32_t>(size));
      append(message, payload);
      ec.client->tls_send(message);
      vnf::EnclaveTlsStream tunnel(*ec.client);
      std::uint8_t len_buf[4];
      tunnel.read_exact(std::span<std::uint8_t>(len_buf, 4));
      const Bytes echoed = tunnel.read_exact(read_u32(ByteView(len_buf, 4), 0));
      benchmark::DoNotOptimize(echoed);
    }
    ec.client->tls_close();
  } else {
    // TLS outside; the enclave only signs CertificateVerify (1 ECALL).
    tls::Config cfg;
    cfg.certificate = ec.client->certificate();
    cfg.signer = [&ec](ByteView data) { return ec.client->sign(data); };
    cfg.truststore = &ep.trust;
    cfg.expected_server_name = "controller";
    cfg.clock = &ep.bed.clock;
    cfg.rng = &ep.bed.rng;
    auto session = tls::Session::connect(std::move(client_end), cfg);
    crossings_before = ec.platform->total_crossings();
    for (auto _ : state) {
      Bytes message;
      append_u32(message, static_cast<std::uint32_t>(size));
      append(message, payload);
      session->write(message);
      std::uint8_t len_buf[4];
      session->read_exact(std::span<std::uint8_t>(len_buf, 4));
      const Bytes echoed =
          session->read_exact(read_u32(ByteView(len_buf, 4), 0));
      benchmark::DoNotOptimize(echoed);
    }
    session->close();
  }
  server.join();
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size) * 2);
  state.counters["ecalls_per_op"] =
      static_cast<double>(ec.platform->total_crossings() - crossings_before) /
      static_cast<double>(state.iterations());
}

void BM_TlsInEnclave(benchmark::State& state) {
  Endpoints ep;
  run_echo(state, ep, /*in_enclave=*/true, std::chrono::microseconds(2));
  state.SetLabel("in-enclave TLS (2us crossings)");
}
BENCHMARK(BM_TlsInEnclave)
    ->Arg(64)
    ->Arg(1024)
    ->Arg(16384)
    ->Unit(benchmark::kMicrosecond);

void BM_TlsOutsideEnclave(benchmark::State& state) {
  Endpoints ep;
  run_echo(state, ep, /*in_enclave=*/false, std::chrono::microseconds(2));
  state.SetLabel("outside TLS, enclave-held key");
}
BENCHMARK(BM_TlsOutsideEnclave)
    ->Arg(64)
    ->Arg(1024)
    ->Arg(16384)
    ->Unit(benchmark::kMicrosecond);

void BM_TlsInEnclaveCrossingSweep(benchmark::State& state) {
  // Ablation: how the in-enclave penalty scales with transition cost
  // (0 us = idealized hardware, 8 us = pessimistic EPC-pressure regime).
  Endpoints ep;
  const auto cost = std::chrono::microseconds(state.range(1));
  const std::int64_t size = state.range(0);
  benchmark::State& s = state;
  (void)size;
  run_echo(s, ep, /*in_enclave=*/true, cost);
  state.SetLabel("crossing=" + std::to_string(state.range(1)) + "us");
}
BENCHMARK(BM_TlsInEnclaveCrossingSweep)
    ->Args({1024, 0})
    ->Args({1024, 2})
    ->Args({1024, 8})
    ->Unit(benchmark::kMicrosecond);

void BM_EcallNoop(benchmark::State& state) {
  // The raw boundary-crossing cost at the configured setting.
  Endpoints ep;
  EnclaveClient ec(ep, std::chrono::microseconds(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ec.client->generate_key());  // cached: ~no work
  }
  state.SetLabel("crossing=" + std::to_string(state.range(0)) + "us");
}
BENCHMARK(BM_EcallNoop)->Arg(0)->Arg(2)->Arg(8)->Unit(benchmark::kMicrosecond);

}  // namespace
