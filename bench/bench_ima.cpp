// SUB-IMA: substrate calibration — IMA measurement and appraisal scaling
// with the number of measured files, plus IML encode/decode (the bytes the
// attestation protocol ships).
#include <benchmark/benchmark.h>

#include "core/appraisal.h"
#include "ima/subsystem.h"

namespace {

using namespace vnfsgx;

void populate(ima::SimulatedFilesystem& fs, int n) {
  for (int i = 0; i < n; ++i) {
    fs.write_file("/opt/bin/tool" + std::to_string(i),
                  to_bytes("binary content #" + std::to_string(i)),
                  ima::FileMeta{.uid = 0, .executable = true});
  }
}

void BM_ImaMeasureFiles(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    ima::SimulatedFilesystem fs;
    populate(fs, n);
    ima::ImaSubsystem ima(fs, ima::ImaPolicy::tcb_default());
    state.ResumeTiming();
    for (int i = 0; i < n; ++i) {
      ima.on_exec("/opt/bin/tool" + std::to_string(i));
    }
    benchmark::DoNotOptimize(ima.aggregate());
  }
  state.counters["files"] = n;
}
BENCHMARK(BM_ImaMeasureFiles)
    ->Arg(10)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

void BM_ImaCacheHit(benchmark::State& state) {
  // Re-measuring unchanged files (the kernel's fast path).
  ima::SimulatedFilesystem fs;
  populate(fs, 100);
  ima::ImaSubsystem ima(fs, ima::ImaPolicy::tcb_default());
  for (int i = 0; i < 100; ++i) ima.on_exec("/opt/bin/tool" + std::to_string(i));
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ima.on_exec("/opt/bin/tool" + std::to_string(i++ % 100)));
  }
}
BENCHMARK(BM_ImaCacheHit)->Unit(benchmark::kNanosecond);

/// A populated IMA subsystem whose list has `n` measurement entries.
struct MeasuredHost {
  explicit MeasuredHost(int n) : ima(fs, ima::ImaPolicy::tcb_default()) {
    populate(fs, n);
    for (int i = 0; i < n; ++i) ima.on_exec("/opt/bin/tool" + std::to_string(i));
  }
  ima::SimulatedFilesystem fs;
  ima::ImaSubsystem ima;
};

void BM_ImlEncode(benchmark::State& state) {
  // The host agent's side of every attest_host.
  const MeasuredHost host(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(host.ima.list().encode());
  }
  state.counters["bytes"] = static_cast<double>(host.ima.list().encode().size());
}
BENCHMARK(BM_ImlEncode)
    ->Arg(10)
    ->Arg(100)
    ->Arg(1000)
    ->Unit(benchmark::kMicrosecond);

void BM_ImlDecode(benchmark::State& state) {
  // The Verification Manager's side of every attest_host.
  const MeasuredHost host(static_cast<int>(state.range(0)));
  const Bytes encoded = host.ima.list().encode();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ima::MeasurementList::decode(encoded));
  }
  state.counters["bytes"] = static_cast<double>(encoded.size());
}
BENCHMARK(BM_ImlDecode)
    ->Arg(10)
    ->Arg(100)
    ->Arg(1000)
    ->Unit(benchmark::kMicrosecond);

void BM_Appraisal(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const MeasuredHost host(n);
  core::AppraisalDatabase db;
  db.learn(host.ima.list());
  for (auto _ : state) {
    const auto result = db.appraise(host.ima.list());
    if (!result.trustworthy) state.SkipWithError("unexpected verdict");
  }
  state.counters["files"] = n;
}
BENCHMARK(BM_Appraisal)
    ->Arg(10)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

void BM_AppraisalDetectsTamper(benchmark::State& state) {
  // Worst case is identical to the clean case (full scan either way);
  // this documents that detection latency does not regress.
  MeasuredHost host(1000);
  core::AppraisalDatabase db;
  db.learn(host.ima.list());
  host.fs.tamper_file("/opt/bin/tool500");
  host.ima.on_exec("/opt/bin/tool500");

  for (auto _ : state) {
    const auto result = db.appraise(host.ima.list());
    if (result.trustworthy) state.SkipWithError("tamper missed");
  }
}
BENCHMARK(BM_AppraisalDetectsTamper)->Unit(benchmark::kMicrosecond);

}  // namespace
