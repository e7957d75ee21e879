// Measurement helpers shared by the workloads: process CPU and memory
// readings, CPU pinning, the windowed statistics and the closed loop.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bench.h"
#include "ledger.h"

namespace fig1 {

namespace {

/// Samples that must lie beyond a reported p99 (so groups of >= 1,000).
constexpr std::size_t kTailSamples = 10;
/// ops_per_s is the rate of the fastest tenth of the windows. Other tenants
/// of the shared host only ever slow a window down, in bursts of a fraction
/// of a second, so the fast windows follow the program and the slow ones
/// the neighbours.
constexpr double kFastWindowQuantile = 0.9;

}  // namespace

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
             1e6;
}

double peak_rss_mib() {
  // VmHWM, not getrusage's ru_maxrss: the latter keeps the launching
  // process's peak across exec, so it would read the parent's footprint.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof line, f)) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::atof(line + 6);
  }
  std::fclose(f);
  return kib / 1024.0;
}

bool pin_current_thread(int cpu) {
  const int cpus = static_cast<int>(std::thread::hardware_concurrency());
  if (cpus < 1) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu % cpus, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof set, &set) == 0;
}

void unpin_current_thread() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int cpus = static_cast<int>(std::thread::hardware_concurrency());
  for (int c = 0; c < cpus; ++c) CPU_SET(c, &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

std::string pinning_json(bool pinned, int cpu) {
  const int cpus = static_cast<int>(std::thread::hardware_concurrency());
  if (!pinned || cpus < 1) return ",\"cpu_pinning\":null";
  return ",\"cpu_pinning\":\"generator and server threads on cpu " +
         std::to_string(cpu % cpus) + "\"";
}

void note_failure(Phase& phase, const std::string& what) {
  ++phase.failed;
  if (phase.errors.size() < 5) phase.errors.push_back(what);
}

CpuSampler::CpuSampler(std::chrono::steady_clock::time_point start,
                       double period_s)
    : start_(start) {
  thread_ = std::thread([this, period_s] {
    const auto period = std::chrono::duration_cast<
        std::chrono::steady_clock::duration>(
        std::chrono::duration<double>(period_s));
    auto next = start_;
    while (running_.load()) {
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        marks_.emplace_back(std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - start_)
                                .count(),
                            process_cpu_s());
      }
      next += period;
      while (running_.load() && std::chrono::steady_clock::now() < next) {
        std::this_thread::sleep_for(std::min<std::chrono::steady_clock::duration>(
            next - std::chrono::steady_clock::now(),
            std::chrono::milliseconds(20)));
      }
    }
  });
}

std::vector<std::pair<double, double>> CpuSampler::stop() {
  if (running_.exchange(false)) {
    thread_.join();
    marks_.emplace_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
            .count(),
        process_cpu_s());
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  return marks_;
}

Windowed windowed(const Phase& phase) {
  Windowed out;
  const auto& marks = phase.cpu_marks;
  if (marks.size() < 2) return out;
  const double period = marks.size() > 2 ? marks[1].first - marks[0].first
                                         : marks.back().first - marks[0].first;
  std::vector<std::vector<double>> latencies(marks.size() - 1);
  for (std::size_t i = 0; i < phase.done_s.size(); ++i) {
    const auto it = std::upper_bound(
        marks.begin(), marks.end(), phase.done_s[i],
        [](double t, const std::pair<double, double>& m) { return t < m.first; });
    if (it == marks.begin() || it == marks.end()) continue;
    latencies[static_cast<std::size_t>(it - marks.begin()) - 1].push_back(
        phase.latency_us[i]);
  }
  std::vector<double> rates, cpus;
  for (std::size_t w = 0; w + 1 < marks.size(); ++w) {
    const double length = marks[w + 1].first - marks[w].first;
    if (length < 0.5 * period) continue;  // the short tail window
    const auto n = static_cast<double>(latencies[w].size());
    rates.push_back(n / length);
    if (n > 0) cpus.push_back((marks[w + 1].second - marks[w].second) * 1e6 / n);
  }
  // p99 per group of consecutive windows, each group large enough that at
  // least kTailSamples samples lie beyond its p99; few samples make one
  // group (the whole phase).
  const std::size_t groups = std::clamp<std::size_t>(
      phase.latency_us.size() / (100 * kTailSamples), 1, latencies.size());
  const std::size_t per_group = (latencies.size() + groups - 1) / groups;
  std::vector<double> p99s;
  for (std::size_t g = 0; g < latencies.size(); g += per_group) {
    std::vector<double> merged;
    for (std::size_t w = g; w < std::min(g + per_group, latencies.size()); ++w) {
      merged.insert(merged.end(), latencies[w].begin(), latencies[w].end());
    }
    if (!merged.empty()) p99s.push_back(quantile(std::move(merged), 0.99));
  }
  out.p99_groups = p99s.size();
  out.p99_us = median(p99s);
  out.ops_per_s = quantile(rates, kFastWindowQuantile);
  out.cpu_us_per_op = median(cpus);
  return out;
}

void merge_phase(Phase& total, Phase&& part) {
  total.attempted += part.attempted;
  total.failed += part.failed;
  total.completed += part.completed;
  total.latency_us.insert(total.latency_us.end(), part.latency_us.begin(),
                          part.latency_us.end());
  total.done_s.insert(total.done_s.end(), part.done_s.begin(),
                      part.done_s.end());
  total.late_us.insert(total.late_us.end(), part.late_us.begin(),
                       part.late_us.end());
  for (auto& e : part.errors) {
    if (total.errors.size() < 5) total.errors.push_back(std::move(e));
  }
}

Phase run_closed_loop(int threads, double seconds,
                      const std::function<bool(int, std::string&)>& op,
                      const std::function<void(int)>& on_thread_start) {
  std::vector<Phase> parts(static_cast<std::size_t>(threads));
  const auto start = std::chrono::steady_clock::now();
  const auto deadline = start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                                    std::chrono::duration<double>(seconds));
  CpuSampler sampler(start, seconds / kWindows);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([t, start, deadline, &op, &on_thread_start, &parts] {
      if (on_thread_start) on_thread_start(t);
      Phase& p = parts[static_cast<std::size_t>(t)];
      OpCtx* ctx = ledger::ctx(static_cast<std::size_t>(t));
      ledger::bind_generator(ctx);
      while (std::chrono::steady_clock::now() < deadline) {
        const std::uint64_t t0 = now_ns();
        std::string why;
        bool ok = false;
        {
          OpSpan root(ctx, t0);
          try {
            ok = op(t, why);
          } catch (const std::exception& e) {
            why = e.what();
          }
        }
        ++p.attempted;
        if (ok) {
          ++p.completed;
          p.latency_us.push_back(static_cast<double>(now_ns() - t0) / 1000.0);
          p.done_s.push_back(std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - start)
                                 .count());
        } else {
          note_failure(p, why);
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  Phase total;
  total.cpu_marks = sampler.stop();
  for (auto& p : parts) merge_phase(total, std::move(p));
  total.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return total;
}

}  // namespace fig1
