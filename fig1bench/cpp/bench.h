// Shared types of the Figure-1 benchmark: run configuration, what one
// measurement phase yields, and the workload interface.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace fig1 {

/// Generator limits shared by every workload (the box has nproc = 4).
inline constexpr int kMaxGeneratorThreads = 4;
/// A measured phase is cut into this many windows for the robust
/// statistics (p99_ms, ops_per_s, cpu_us_per_op); at the 20-second run
/// length a closed-loop window is half a second.
inline constexpr int kWindows = 40;

/// Everything one measurement phase observed.
struct Phase {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t completed = 0;        // ops the throughput counts
  std::vector<double> latency_us;     // per op, from its due time
  std::vector<double> done_s;         // per op: completion, s after start
  std::vector<double> late_us;        // open loop: start minus due
  /// (s after start, process CPU s) marks a CpuSampler took; consecutive
  /// marks bound the windows the robust statistics are taken over.
  std::vector<std::pair<double, double>> cpu_marks;
  double wall_s = 0;                  // phase duration
  /// Workload-specific figures: end-to-end extras (e.g. "max_ops_s") and
  /// per-layer readings (e.g. "dataplane.punt_ratio").
  std::map<std::string, double> extra;
  /// End-to-end metrics the workload computes itself instead of from the
  /// fields above (control takes ops_per_s and cpu_us_per_op from its
  /// saturating rung).
  std::map<std::string, double> e2e_override;
  std::vector<std::string> errors;    // first few failure descriptions
};

/// Monotonic layer counters read around the traced phase.
struct Counters {
  double ias_connects = 0, ias_reuses = 0;
  double cert_hits = 0, cert_misses = 0;
  double tls_server_handshakes = 0;
  double rejected_connections = 0;
  double dispatches = 0, steals = 0;
  double peak_busy_workers = 0;
  double crossings = 0;
  double ring_submits = 0, ring_steals = 0;
  double inspected = 0, inspect_cache_hits = 0;
  std::vector<double> queue_wait_bounds;
  std::vector<double> queue_wait_buckets;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build the deployment from the seed and reach steady state.
  virtual void setup(std::uint64_t seed) = 0;
  /// Drive the workload for `seconds`, checking every output.
  virtual Phase run(double seconds) = 0;
  virtual Counters counters() = 0;
  /// Whole-run output checks after the last phase (audit log, enrolled
  /// identities, ...); failures are appended to `phase`.
  virtual void final_check(Phase& phase) = 0;
  /// Workload-specific run-context fields as JSON object members.
  virtual std::string context_json() const = 0;
  /// Stop every thread and connection the deployment owns.
  virtual void teardown() = 0;
};

std::unique_ptr<Workload> make_enroll();
std::unique_ptr<Workload> make_enroll_ratls();
std::unique_ptr<Workload> make_control();
std::unique_ptr<Workload> make_dataplane();

/// Process CPU time (user + system) in seconds.
double process_cpu_s();

/// Records (elapsed, process CPU) every `period` from `start` until
/// destroyed (plus a final mark then), on its own thread.
class CpuSampler {
 public:
  CpuSampler(std::chrono::steady_clock::time_point start, double period_s);
  ~CpuSampler() { stop(); }
  CpuSampler(const CpuSampler&) = delete;
  CpuSampler& operator=(const CpuSampler&) = delete;
  /// Stop sampling; returns the marks.
  std::vector<std::pair<double, double>> stop();

 private:
  std::chrono::steady_clock::time_point start_;
  std::atomic<bool> running_{true};
  std::mutex mutex_;
  std::vector<std::pair<double, double>> marks_;
  std::thread thread_;
};

/// Statistics over a phase's CpuSampler windows: the completion rate of the
/// fastest tenth of the windows, the median CPU per completed op, and the
/// median p99 latency of groups of windows holding at least 1,000 samples
/// each.
struct Windowed {
  double p99_us = 0;
  double ops_per_s = 0;
  double cpu_us_per_op = 0;
  std::size_t p99_groups = 0;
};
Windowed windowed(const Phase& phase);
/// Peak resident set of the process in MiB.
double peak_rss_mib();

/// Records a failed operation: counts it and keeps the first few reasons.
void note_failure(Phase& phase, const std::string& what);

/// Appends `part` (one thread's phase) into `total`.
void merge_phase(Phase& total, Phase&& part);

/// Closed loop: `threads` generator threads (ledger contexts 0..threads-1)
/// each run `op(thread, why)` back to back for `seconds`. An op returns
/// false (or throws) on any wrong output; latency is recorded for
/// successful ops only, from the op's start. `on_thread_start(thread)`
/// runs first on each generator thread (e.g. to pin it).
Phase run_closed_loop(int threads, double seconds,
                      const std::function<bool(int, std::string&)>& op,
                      const std::function<void(int)>& on_thread_start = {});

/// Restrict the calling thread to one CPU (modulo the CPU count); threads
/// it creates afterwards inherit the mask. False when not possible.
bool pin_current_thread(int cpu);
/// Undo pin_current_thread: allow every CPU again.
void unpin_current_thread();
/// Run-context member recording that the generator and server threads run
/// on vCPU `cpu` (modulo the CPU count), or null when pinning failed.
std::string pinning_json(bool pinned, int cpu);

/// Deterministic generator RNG (splitmix64) for workload inputs.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

}  // namespace fig1
