// ENCL-BOUNDARY: quantifies the two ECALL boundary disciplines
// (HotCalls / Snort-SGX motivation):
//
//   * sync       — one full crossing per inspected frame (Enclave::call);
//   * switchless — a RingGroup's resident workers, no per-job crossing.
//
// Each mode pushes bursts of frames through the in-enclave signature-match
// IDS at 64B/512B/1500B payloads with the simulator's default 2us crossing
// cost, reporting packets/sec (items) and crossings per frame (counter).
// BM_InspectOutsideEnclave runs the identical matcher + flow table in
// untrusted memory as the no-SGX baseline.
#include <benchmark/benchmark.h>

#include <map>
#include <vector>

#include "crypto/random.h"
#include "sgx/platform.h"
#include "vnf/inspection_enclave.h"

namespace {

using namespace vnfsgx;

constexpr int kBurst = 64;
constexpr int kFlows = 16;

vnf::RuleSet bench_rules() {
  vnf::RuleSet rules;
  auto add = [&rules](const char* name, const char* pattern,
                      vnf::RuleAction action) {
    vnf::InspectionRule rule;
    rule.name = name;
    rule.pattern = to_bytes(pattern);
    rule.action = action;
    rules.add(std::move(rule));
  };
  add("exploit-shell", "/bin/sh -c", vnf::RuleAction::kDrop);
  add("dns-tunnel", "\x07tunnel\x03", vnf::RuleAction::kDrop);
  add("telnet-probe", "admin admin", vnf::RuleAction::kAlert);
  add("beacon", "GET /gate.php", vnf::RuleAction::kAlert);
  return rules;
}

/// Clean frames cycling over kFlows distinct 5-tuples.
std::vector<dataplane::Packet> make_burst(std::size_t payload_size) {
  crypto::DeterministicRandom rng(41);
  std::vector<dataplane::Packet> burst;
  burst.reserve(kBurst);
  for (int i = 0; i < kBurst; ++i) {
    dataplane::Packet p;
    p.src_ip = 0x0a000000u + static_cast<std::uint32_t>(i % kFlows);
    p.dst_ip = 0x0a000064;
    p.src_port = static_cast<std::uint16_t>(30000 + i % kFlows);
    p.dst_port = 80;
    p.proto = dataplane::IpProto::kTcp;
    p.payload = rng.bytes(payload_size);
    // Keep payloads pattern-free so every frame takes the full-scan path.
    for (auto& b : p.payload) b &= 0x3f;
    burst.push_back(std::move(p));
  }
  return burst;
}

struct BoundaryBench {
  crypto::DeterministicRandom rng{23};
  std::unique_ptr<sgx::SgxPlatform> platform;
  std::shared_ptr<sgx::Enclave> enclave;
  std::unique_ptr<vnf::InspectionClient> client;

  explicit BoundaryBench(vnf::InspectionClient::Options client_options) {
    sgx::PlatformOptions options;  // default 2us crossing cost
    platform = std::make_unique<sgx::SgxPlatform>(rng, "bench", options);
    const auto vendor = crypto::ed25519_generate(rng);
    const sgx::EnclaveImage image = vnf::inspection_enclave_image();
    const sgx::SigStruct sig = sgx::sign_enclave(
        vendor.seed, sgx::measure_image(image.code, image.attributes), 11, 1);
    enclave = platform->load_enclave(image, sig);
    client = std::make_unique<vnf::InspectionClient>(enclave, client_options);
    client->load_rules(bench_rules());
  }
  explicit BoundaryBench(vnf::InspectionClient::Mode mode)
      : BoundaryBench(vnf::InspectionClient::Options{.mode = mode}) {}
};

void run_inspection_loop(benchmark::State& state, BoundaryBench& bench,
                         const std::string& label) {
  const auto burst = make_burst(static_cast<std::size_t>(state.range(0)));
  // Fenced snapshots (not raw ecall_count): the switchless worker thread
  // publishes its counts concurrently.
  const sgx::EcallStats before = bench.enclave->ecall_stats();
  std::int64_t frames = 0;
  for (auto _ : state) {
    const auto outcomes = bench.client->inspect_burst(burst, 1);
    benchmark::DoNotOptimize(outcomes.data());
    frames += static_cast<std::int64_t>(outcomes.size());
  }
  const sgx::EcallStats after = bench.enclave->ecall_stats();
  state.SetItemsProcessed(frames);
  state.SetBytesProcessed(frames * state.range(0));
  state.counters["crossings_per_frame"] =
      frames == 0 ? 0.0
                  : static_cast<double>(after.crossings - before.crossings) /
                        static_cast<double>(frames);
  state.counters["crossings_per_sec"] = benchmark::Counter(
      static_cast<double>(after.crossings - before.crossings),
      benchmark::Counter::kIsRate);
  state.SetLabel(label);
}

void run_inspection(benchmark::State& state, vnf::InspectionClient::Mode mode,
                    const char* label) {
  BoundaryBench bench(mode);
  run_inspection_loop(state, bench, label);
}

void BM_InspectSyncEcall(benchmark::State& state) {
  run_inspection(state, vnf::InspectionClient::Mode::kSync,
                 "one crossing per frame");
}
BENCHMARK(BM_InspectSyncEcall)
    ->Arg(64)
    ->Arg(512)
    ->Arg(1500)
    ->Unit(benchmark::kMicrosecond);

void BM_InspectSwitchless(benchmark::State& state) {
  run_inspection(state, vnf::InspectionClient::Mode::kSwitchless,
                 "hostcall ring, resident worker");
}
BENCHMARK(BM_InspectSwitchless)
    ->Arg(64)
    ->Arg(512)
    ->Arg(1500)
    ->Unit(benchmark::kMicrosecond);

void BM_InspectSwitchlessSweep(benchmark::State& state) {
  // Frame size x ring count. Each frame is steered to its flow's ring, and
  // the burst cycles over kFlows flows, so every ring gets work.
  vnf::InspectionClient::Options options;
  options.mode = vnf::InspectionClient::Mode::kSwitchless;
  options.rings = static_cast<std::size_t>(state.range(1));
  BoundaryBench bench(options);
  run_inspection_loop(state, bench, "rings=" + std::to_string(state.range(1)));
}
BENCHMARK(BM_InspectSwitchlessSweep)
    // Args: {frame bytes, rings}.
    ->Args({64, 1})
    ->Args({64, 2})
    ->Args({512, 1})
    ->Args({512, 2})
    ->Args({1500, 1})
    ->Args({1500, 2})
    ->Unit(benchmark::kMicrosecond);

void BM_InspectOutsideEnclave(benchmark::State& state) {
  // The no-SGX baseline: identical matcher + flow bookkeeping, but rules
  // and per-flow state sit in untrusted memory (what the paper forbids).
  const vnf::RuleSet rules = bench_rules();
  const vnf::RuleMatcher matcher(rules);
  const auto burst = make_burst(static_cast<std::size_t>(state.range(0)));
  struct Flow {
    std::uint64_t packets = 0;
    std::uint64_t bytes = 0;
    bool poisoned = false;
  };
  std::map<std::uint64_t, Flow> flows;
  std::int64_t frames = 0;
  for (auto _ : state) {
    for (const auto& p : burst) {
      const std::uint64_t key =
          (static_cast<std::uint64_t>(p.src_ip) << 32) ^ p.dst_ip ^
          (static_cast<std::uint64_t>(p.src_port) << 16) ^ p.dst_port;
      Flow& flow = flows[key];
      ++flow.packets;
      flow.bytes += p.payload.size();
      if (!flow.poisoned) {
        const auto hit = matcher.match(p.payload, p.dst_port,
                                       static_cast<std::uint8_t>(p.proto));
        if (hit) flow.poisoned = true;
        benchmark::DoNotOptimize(hit);
      }
      ++frames;
    }
  }
  state.SetItemsProcessed(frames);
  state.SetBytesProcessed(frames * state.range(0));
  state.counters["crossings_per_frame"] = 0.0;
  state.SetLabel("untrusted matcher, no enclave");
}
BENCHMARK(BM_InspectOutsideEnclave)
    ->Arg(64)
    ->Arg(512)
    ->Arg(1500)
    ->Unit(benchmark::kMicrosecond);

void BM_RawBoundaryEcho(benchmark::State& state) {
  // Strips the NF out: bare opcode dispatch through each discipline shows
  // the boundary cost itself (crossings/sec ceiling).
  const auto mode = static_cast<vnf::InspectionClient::Mode>(state.range(0));
  BoundaryBench bench(mode);
  const Bytes payload(64, 0x2a);
  const sgx::EcallStats before = bench.enclave->ecall_stats();
  std::int64_t calls = 0;
  for (auto _ : state) {
    // kOpFlowStats is the cheapest pure in-enclave op (no rule walk).
    switch (mode) {
      case vnf::InspectionClient::Mode::kSync:
        benchmark::DoNotOptimize(bench.enclave->call(vnf::kOpFlowStats, {}));
        ++calls;
        break;
      case vnf::InspectionClient::Mode::kSwitchless:
        benchmark::DoNotOptimize(bench.client->flow_stats().inspected);
        ++calls;
        break;
    }
  }
  const sgx::EcallStats after = bench.enclave->ecall_stats();
  state.SetItemsProcessed(calls);
  state.counters["crossings_per_op"] =
      calls == 0 ? 0.0
                 : static_cast<double>(after.crossings - before.crossings) /
                       static_cast<double>(calls);
  static const char* const kLabels[] = {"sync", "switchless"};
  state.SetLabel(kLabels[state.range(0)]);
}
BENCHMARK(BM_RawBoundaryEcho)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
