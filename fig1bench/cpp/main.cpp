// fig1bench: the Figure-1 end-to-end benchmark.
//
//   fig1bench --workload <enroll|enroll-ratls|control|dataplane>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--commit <id>] [--spans <path>]
//
// Prints three JSON lines: the run context, the full report (every
// end-to-end metric with its unit, the traced ledger when --trace 1), and
// last the result object {"correct","attempted","failed","metrics"}.
// Exit status 0 only when every operation's output checked out.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "bench.h"
#include "common/logging.h"
#include "ledger.h"

#ifndef FIG1BENCH_BUILD_TYPE
#define FIG1BENCH_BUILD_TYPE "unknown"
#endif

namespace fig1 {

namespace {

constexpr int kSetupRepeats = 5;
constexpr double kCrossingCostUs = 2.0;  // sgx::PlatformOptions default
constexpr std::uint64_t kHeldOutSeed = 9173;
/// Ledger layers reported as self time per operation.
constexpr const char* kLedgerLayers[] = {
    "core", "ias", "vnf", "tls", "ratls", "controller", "dataplane",
    "unattributed"};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string commit = "unknown";
  std::string spans_path;
};

std::string fmt(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items;
  void add(const std::string& name, double value, const std::string& unit) {
    items.push_back({name, {value, unit}});
  }
  std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (i) out += ",";
      out += quote(items[i].first) + ":{\"value\":" +
             fmt(items[i].second.first) +
             ",\"unit\":" + quote(items[i].second.second) + "}";
    }
    return out + "}";
  }
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--commit") {
      args.commit = value;
    } else if (key == "--spans") {
      args.spans_path = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "enroll") return make_enroll();
  if (name == "enroll-ratls") return make_enroll_ratls();
  if (name == "control") return make_control();
  if (name == "dataplane") return make_dataplane();
  return nullptr;
}

/// histogram_quantile over per-bucket count deltas.
double bucket_quantile(const std::vector<double>& bounds,
                       const std::vector<double>& counts, double q) {
  double total = 0;
  for (const double c : counts) total += c;
  if (total <= 0 || bounds.empty()) return 0;
  const double rank = q * total;
  double cumulative = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (cumulative + counts[i] >= rank && counts[i] > 0) {
      if (i >= bounds.size()) return bounds.back();
      const double lo = i == 0 ? 0 : bounds[i - 1];
      return lo + (bounds[i] - lo) * (rank - cumulative) / counts[i];
    }
    cumulative += counts[i];
  }
  return bounds.back();
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

double p50_of(const LedgerSummary& s, const char* name) {
  const auto it = s.durations_us.find(name);
  return it == s.durations_us.end() ? 0 : median(it->second);
}
double p99_of(const LedgerSummary& s, const char* name) {
  const auto it = s.durations_us.find(name);
  return it == s.durations_us.end() ? 0 : quantile(it->second, 0.99);
}
double count_of(const LedgerSummary& s, const char* name) {
  const auto it = s.durations_us.find(name);
  return it == s.durations_us.end() ? 0 : static_cast<double>(it->second.size());
}

/// The BENCHMARK.json end-to-end metrics of one untraced phase (the report
/// line adds cpu_us_per_op, p99_ms, fail_ratio and the workload's extras).
/// `rss_mib` is the peak resident set once the deployment is at steady
/// state (after the set-up repeats): the load phases are left out because
/// the controller's audit log grows with every request served, which would
/// tie the figure to throughput.
Metrics end_to_end(const Phase& phase, double setup_s, double rss_mib) {
  Metrics m;
  m.add("setup_s", setup_s, "s");
  const Windowed w = windowed(phase);
  m.add("p50_ms", quantile(phase.latency_us, 0.5) / 1000.0, "ms");
  const auto over = phase.e2e_override.find("ops_per_s");
  m.add("ops_per_s", over != phase.e2e_override.end() ? over->second
                                                      : w.ops_per_s,
        "1/s");
  m.add("rss_mb", rss_mib, "MiB");
  return m;
}

/// Process CPU time per operation (the report line only: CPU time per op
/// follows the shared host's contention at least as closely as latency
/// does, so no bound holds across runs).
double cpu_us_per_op(const Phase& phase) {
  const auto cpu = phase.e2e_override.find("cpu_us_per_op");
  return cpu != phase.e2e_override.end() ? cpu->second
                                         : windowed(phase).cpu_us_per_op;
}

/// Every per-layer metric, from the traced phase's spans and counter deltas.
Metrics per_layer(const LedgerSummary& s, const Phase& traced,
                  const Phase& untraced, const Counters& a, const Counters& b) {
  Metrics m;
  const double ops = static_cast<double>(std::max<std::uint64_t>(traced.attempted, 1));
  const auto extra = [&traced](const char* key) {
    const auto it = traced.extra.find(key);
    return it == traced.extra.end() ? 0.0 : it->second;
  };
  m.add("core.attest_host_us.p50", p50_of(s, "core.attest_host"), "us");
  m.add("core.attest_fleet_us.p50", p50_of(s, "core.attest_fleet"), "us");
  m.add("core.enroll_vnf_us.p50", p50_of(s, "core.enroll_vnf"), "us");
  m.add("core.agent_rpc_us.p50", p50_of(s, "core.agent_rpc"), "us");
  m.add("ias.roundtrip_us.p50", p50_of(s, "ias.roundtrip"), "us");
  m.add("ias.requests_per_op", count_of(s, "ias.roundtrip") / ops, "1/op");
  const double reuses = b.ias_reuses - a.ias_reuses;
  m.add("ias.pool_reuse_ratio",
        ratio(reuses, reuses + b.ias_connects - a.ias_connects), "ratio");
  const double hits = b.cert_hits - a.cert_hits;
  m.add("pki.cert_cache_hit_ratio",
        ratio(hits, hits + b.cert_misses - a.cert_misses), "ratio");
  m.add("ratls.appraise_us.p50", p50_of(s, "ratls.appraise"), "us");
  m.add("ratls.appraisals_per_op", count_of(s, "ratls.appraise") / ops, "1/op");
  m.add("vnf.ratls_issue_us.p50", p50_of(s, "vnf.ratls_issue"), "us");
  m.add("vnf.tls_open_us.p50", p50_of(s, "vnf.tls_open"), "us");
  m.add("vnf.tls_send_us.p50", p50_of(s, "vnf.tls_send"), "us");
  m.add("vnf.tls_recv_us.p50", p50_of(s, "vnf.tls_recv"), "us");
  m.add("tls.accept_us.p50", p50_of(s, "tls.accept"), "us");
  m.add("tls.handshakes_per_op",
        (b.tls_server_handshakes - a.tls_server_handshakes) / ops, "1/op");
  m.add("controller.read_us.p50", p50_of(s, "controller.read"), "us");
  m.add("controller.write_us.p50", p50_of(s, "controller.write"), "us");
  m.add("controller.write_us.p99", p99_of(s, "controller.write"), "us");
  m.add("controller.rejected_connections",
        b.rejected_connections - a.rejected_connections, "count");
  std::vector<double> waits(b.queue_wait_buckets.size(), 0);
  for (std::size_t i = 0; i < waits.size(); ++i) {
    waits[i] = b.queue_wait_buckets[i] -
               (i < a.queue_wait_buckets.size() ? a.queue_wait_buckets[i] : 0);
  }
  m.add("net.queue_wait_us.p50", bucket_quantile(b.queue_wait_bounds, waits, 0.5), "us");
  m.add("net.queue_wait_us.p99", bucket_quantile(b.queue_wait_bounds, waits, 0.99), "us");
  m.add("net.dispatches_per_op", (b.dispatches - a.dispatches) / ops, "1/op");
  m.add("net.steals_per_kop", (b.steals - a.steals) * 1000.0 / ops, "1/kop");
  m.add("net.peak_busy_workers", b.peak_busy_workers, "count");
  const double ecalls = (b.crossings - a.crossings) / ops;
  m.add("sgx.ecalls_per_op", ecalls, "1/op");
  m.add("sgx.crossing_us_per_op", ecalls * kCrossingCostUs, "us");
  const double frames = extra("frames");
  m.add("sgx.ring_submits_per_frame",
        ratio(b.ring_submits - a.ring_submits, frames), "1/frame");
  m.add("sgx.ring_steals_per_kframe",
        ratio((b.ring_steals - a.ring_steals) * 1000.0, frames), "1/kframe");
  m.add("sgx.ring_occupancy.mean", extra("sgx.ring_occupancy.mean"), "slots");
  m.add("vnf.inspect_us.p50", p50_of(s, "vnf.inspect"), "us");
  m.add("vnf.inspect_us.p99", p99_of(s, "vnf.inspect"), "us");
  m.add("vnf.inspect_frames_per_burst", extra("vnf.inspect_frames_per_burst"),
        "frames");
  m.add("vnf.inspect_cache_hit_ratio",
        ratio(b.inspect_cache_hits - a.inspect_cache_hits,
              b.inspected - a.inspected),
        "ratio");
  m.add("dataplane.switch_self_us.p50", extra("dataplane.switch_self_us.p50"), "us");
  m.add("dataplane.punt_ratio", extra("dataplane.punt_ratio"), "ratio");
  m.add("dataplane.failclosed_drops", extra("dataplane.failclosed_drops"), "count");
  for (const char* layer : kLedgerLayers) {
    const auto it = s.self_us_per_op.find(layer);
    m.add(std::string("ledger.") + layer + ".self_us_per_op",
          it == s.self_us_per_op.end() ? 0 : it->second, "us");
  }
  m.add("ledger.coverage", s.coverage, "ratio");
  const double p50_untraced = quantile(untraced.latency_us, 0.5);
  const double p50_traced = quantile(traced.latency_us, 0.5);
  m.add("obs.trace_overhead_pct",
        p50_untraced > 0 ? (p50_traced / p50_untraced - 1) * 100 : 0, "%");
  m.add("gen.late_us.p99", quantile(untraced.late_us, 0.99), "us");
  return m;
}

std::string context_line(const Args& args, const Workload& w) {
  const std::string build_type = FIG1BENCH_BUILD_TYPE;
  return "{\"context\":{\"benchmark\":\"fig1bench\",\"workload\":" +
         quote(args.workload) + ",\"commit\":" + quote(args.commit) +
         ",\"build_type\":" + quote(build_type) +
         ",\"release_build\":" + (build_type == "Release" ? "true" : "false") +
         ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
         ",\"seed\":" + std::to_string(args.seed) +
         ",\"held_out_seed\":" + std::to_string(kHeldOutSeed) +
         ",\"seconds\":" + fmt(args.seconds) +
         ",\"trace\":" + (args.trace ? "true" : "false") +
         ",\"setup_repeats\":" + std::to_string(kSetupRepeats) +
         ",\"crossing_cost_us\":" + fmt(kCrossingCostUs) + "," +
         w.context_json() + "}}";
}

int run(const Args& args) {
  vnfsgx::set_log_level(vnfsgx::LogLevel::kOff);
  std::unique_ptr<Workload> w;
  std::vector<double> setup_times;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (w) w->teardown();
    w = make_workload(args.workload);
    if (!w) {
      std::fprintf(stderr, "fig1bench: unknown workload '%s'\n",
                   args.workload.c_str());
      return 2;
    }
    const auto t0 = std::chrono::steady_clock::now();
    w->setup(args.seed);
    setup_times.push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count());
  }
  const double setup_s = median(setup_times);
  const double rss_mib = peak_rss_mib();

  // Warm-up, then the measured phases. Failures anywhere count.
  Phase warm = w->run(std::min(1.0, args.seconds * 0.1));
  Phase untraced, traced;
  Counters before, after;
  LedgerSummary summary;
  if (!args.trace) {
    untraced = w->run(args.seconds);
  } else {
    untraced = w->run(args.seconds / 2);
    before = w->counters();
    ledger::clear();
    ledger::set_enabled(true);
    traced = w->run(args.seconds / 2);
    ledger::set_enabled(false);
    after = w->counters();
    const std::vector<SpanRec> spans = ledger::spans();
    summary = summarize(spans);
    if (!args.spans_path.empty() &&
        !write_spans(spans, args.spans_path, 200'000)) {
      std::fprintf(stderr, "fig1bench: cannot write %s\n",
                   args.spans_path.c_str());
    }
  }
  Phase checks;
  w->final_check(checks);
  const std::string context = context_line(args, *w);
  w->teardown();
  w.reset();

  const std::uint64_t attempted =
      warm.attempted + untraced.attempted + traced.attempted;
  const std::uint64_t failed =
      warm.failed + untraced.failed + traced.failed + checks.failed;
  std::vector<std::string> errors;
  for (const Phase* p : {&warm, &untraced, &traced, &checks}) {
    errors.insert(errors.end(), p->errors.begin(), p->errors.end());
  }

  Metrics e2e = end_to_end(untraced, setup_s, rss_mib);
  Metrics report = e2e;
  report.add("cpu_us_per_op", cpu_us_per_op(untraced), "us");
  report.add("p99_ms", windowed(untraced).p99_us / 1000.0, "ms");
  report.add("fail_ratio", ratio(static_cast<double>(failed),
                                 static_cast<double>(attempted)), "ratio");
  report.add("p99_samples", static_cast<double>(untraced.latency_us.size()),
             "count");
  report.add("p99_groups", static_cast<double>(windowed(untraced).p99_groups),
             "count");
  report.add("p99_all_ms", quantile(untraced.latency_us, 0.99) / 1000.0, "ms");
  for (const auto& [key, value] : untraced.extra) {
    if (key.find("_ms") != std::string::npos) report.add(key, value, "ms");
    if (key.find("ops_s") != std::string::npos) report.add(key, value, "1/s");
  }
  if (!untraced.late_us.empty()) {
    report.add("gen.late_us.p99", quantile(untraced.late_us, 0.99), "us");
  }
  Metrics layers;
  if (args.trace) layers = per_layer(summary, traced, untraced, before, after);

  std::string err_json = "[";
  for (std::size_t i = 0; i < errors.size() && i < 5; ++i) {
    err_json += (i ? "," : "") + quote(errors[i]);
  }
  err_json += "]";
  std::printf("%s\n", context.c_str());
  std::printf("{\"report\":{\"workload\":%s,\"end_to_end\":%s,\"per_layer\":%s,"
              "\"ledger_ops\":%zu,\"errors\":%s}}\n",
              quote(args.workload).c_str(), report.json().c_str(),
              layers.json().c_str(), summary.ops, err_json.c_str());
  const bool correct = failed == 0 && attempted > 0;
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":%s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              (args.trace ? layers : e2e).json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

}  // namespace fig1

int main(int argc, char** argv) {
  try {
    fig1::Args args;
    if (!fig1::parse_args(argc, argv, args)) {
      std::fprintf(stderr,
                   "usage: fig1bench --workload <name> --seed <n> --seconds <s> "
                   "--trace <0|1> [--commit <id>] [--spans <path>]\n");
      return 2;
    }
    return fig1::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fig1bench: %s\n", e.what());
    return 1;
  }
}
