// Checks of the benchmark's own arithmetic: the ledger's sweep-line self
// times and coverage, and the windowed statistics. Exit status 1 on the
// first failed check.
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "bench.h"
#include "ledger.h"

namespace {

using fig1::LedgerSummary;
using fig1::Phase;
using fig1::SpanRec;

void check(bool ok, const char* what) {
  if (ok) return;
  std::fprintf(stderr, "fig1bench_selftest: FAILED %s\n", what);
  std::exit(1);
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-6; }

/// A span from `start_us` to `end_us` (microseconds, stored as ns).
SpanRec span(std::uint64_t op, std::uint64_t id, std::uint64_t parent,
             const char* name, std::uint64_t start_us, std::uint64_t end_us) {
  return SpanRec{op, id, parent, name, start_us * 1000, end_us * 1000};
}

double self_of(const LedgerSummary& s, const char* layer) {
  const auto it = s.self_us_per_op.find(layer);
  return it == s.self_us_per_op.end() ? 0 : it->second;
}

void nested_spans_add_up_to_wall_time() {
  // op [0,100]: core.a [10,40]; vnf.b [40,90] holding tls.c [50,70].
  const LedgerSummary s = fig1::summarize({
      span(1, 1, 0, "op", 0, 100),
      span(1, 2, 1, "core.a", 10, 40),
      span(1, 3, 1, "vnf.b", 40, 90),
      span(1, 4, 3, "tls.c", 50, 70),
  });
  check(s.ops == 1, "one operation");
  check(near(self_of(s, "core"), 30), "core self time");
  check(near(self_of(s, "vnf"), 30), "vnf self time excludes its child");
  check(near(self_of(s, "tls"), 20), "tls self time");
  check(near(self_of(s, "unattributed"), 20), "time under the root alone");
  check(near(s.coverage, 0.8), "coverage is the attributed share");
  check(s.durations_us.at("vnf.b").front() == 50, "span duration kept");
}

void concurrent_spans_split_their_time() {
  // Two fleet-style legs run side by side under one parent span.
  const LedgerSummary s = fig1::summarize({
      span(7, 10, 0, "op", 0, 100),
      span(7, 11, 10, "core.fleet", 0, 100),
      span(7, 12, 11, "ias.leg", 0, 60),
      span(7, 13, 11, "core.leg", 20, 60),
  });
  // [0,20] ias alone; [20,60] split ias/core; [60,100] core.fleet.
  check(near(self_of(s, "ias"), 20 + 20), "ias gets its share");
  check(near(self_of(s, "core"), 20 + 40), "core gets its share");
  check(near(self_of(s, "ias") + self_of(s, "core"), 100),
        "rows add up to wall time");
  check(near(s.coverage, 1.0), "fully covered");
}

void orphan_spans_stay_out_of_the_rows() {
  const LedgerSummary s = fig1::summarize({
      span(3, 20, 0, "op", 0, 10),
      span(3, 21, 99, "controller.read", 2, 8),  // parent never recorded
  });
  check(near(self_of(s, "controller"), 0), "orphan not attributed");
  check(s.durations_us.count("controller.read") == 1, "orphan duration kept");
}

void windowed_statistics() {
  // Ten 1-second windows, 1,000 ops each at 10 us except window 3 (a stall
  // at 5 ms); 0.5 s of CPU per window.
  Phase p;
  for (int w = 0; w <= 10; ++w) p.cpu_marks.emplace_back(w, 0.5 * w);
  for (int w = 0; w < 10; ++w) {
    for (int i = 0; i < 1000; ++i) {
      p.done_s.push_back(w + (i + 0.5) / 1000.0);
      p.latency_us.push_back(w == 3 ? 5000 : 10);
    }
  }
  const fig1::Windowed stats = fig1::windowed(p);
  check(stats.p99_groups == 10, "one p99 group per 1,000 samples");
  check(near(stats.p99_us, 10), "a one-window stall does not move p99");
  check(near(stats.ops_per_s, 1000), "fast-window completion rate");
  check(near(stats.cpu_us_per_op, 500), "median CPU per op");

  // Few samples: one group over the whole phase, stall included.
  Phase small;
  for (int w = 0; w <= 10; ++w) small.cpu_marks.emplace_back(w, 0.0);
  for (int i = 0; i < 200; ++i) {
    small.done_s.push_back(i / 20.0 + 0.01);
    small.latency_us.push_back(i < 10 ? 5000 : 10);
  }
  const fig1::Windowed few = fig1::windowed(small);
  check(few.p99_groups == 1, "a single group below 1,000 samples");
  check(near(few.p99_us, 5000), "the stall is the whole-phase tail");

  // Window w completes 100 * (w + 1) ops: the rate is that of the fastest
  // tenth of the windows (interpolated between 900/s and 1,000/s).
  Phase ramp;
  for (int w = 0; w <= 10; ++w) ramp.cpu_marks.emplace_back(w, 0.0);
  for (int w = 0; w < 10; ++w) {
    for (int i = 0; i < 100 * (w + 1); ++i) {
      ramp.done_s.push_back(w + 0.5);
      ramp.latency_us.push_back(10);
    }
  }
  check(near(fig1::windowed(ramp).ops_per_s, 910), "rate of the fast windows");
}

}  // namespace

int main() {
  nested_spans_add_up_to_wall_time();
  concurrent_spans_split_their_time();
  orphan_spans_stay_out_of_the_rows();
  windowed_statistics();
  std::puts("fig1bench_selftest: all checks passed");
  return 0;
}
