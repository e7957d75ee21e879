// Workload `control`: Fig-1 step 6 at steady state. Four VNFs, each with a
// keep-alive in-enclave TLS session to the controller over loopback TCP
// (one session per generator thread), send an open-loop REST stream: 85%
// GETs (summary, switches, staticflowpusher list) and 15% staticflowpusher
// POST/DELETE over a bounded per-thread flow-name set. The offered rate
// steps through a fixed ladder; the nominal rung gives p50/p99 and a final
// saturating rung (no pacing) gives the throughput.
#include <array>
#include <map>
#include <thread>

#include "deployment.h"
#include "net/tcp.h"

namespace fig1 {

namespace {

constexpr int kThreads = kMaxGeneratorThreads;
constexpr int kFlowNames = 16;  // per thread: tables stay bounded
/// Offered-rate ladder in requests/s over all threads; 0 = saturating.
constexpr std::array<double, 4> kLadder = {10000, 20000, 40000, 0};
/// The nominal rung offers a quarter or less of the saturating rate, so a
/// stretch of host contention does not back the open loop up and swing
/// the due-time latency from run to run.
constexpr std::size_t kNominalRung = 0;
/// Share of the phase each paced rung runs for.
constexpr std::array<double, 4> kRungShare = {0.5, 0.25, 0.15, 0};
/// The saturating rung runs a fixed request count (per thread, per second
/// of the phase) rather than a fixed time, so every run serves the same
/// number of requests whatever the throughput: the controller's audit log,
/// and with it the process's resident set, then grows identically.
constexpr double kSaturatingOpsPerThreadSecond = 10000;
/// p99 latency limit a rung must meet to count towards max_ops_s.
constexpr double kLatencyLimitUs = 1000;
constexpr const char* kSummary = "/wm/core/controller/summary/json";
constexpr const char* kSwitches = "/wm/core/controller/switches/json";
constexpr const char* kPush = "/wm/staticflowpusher/json";

struct Session {
  std::unique_ptr<vs::http::Client> client;
  InputRng rng{0};
  std::array<bool, kFlowNames> present{};
  std::uint64_t served = 0;
  std::string identity;
};

std::string flow_name(int t, int k) {
  return "t" + std::to_string(t) + "-f" + std::to_string(k);
}
int flow_switch(int k) { return 1 + (k % 2); }

class ControlWorkload final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    DeploymentOptions options;
    options.seed = seed;
    options.hosts = 1;
    options.vnfs_per_host = kThreads;
    options.serve_agents = true;
    options.ias_one_way = std::chrono::microseconds(500);
    options.controller = true;
    d_ = std::make_unique<Deployment>(options);
    HostNode& host = *d_->hosts.front();
    std::string why;
    if (!d_->enroll_host(host, nullptr, why)) throw vs::Error("setup: " + why);
    const std::uint16_t port = d_->listen_controller_tcp();
    sessions_.clear();
    sessions_.resize(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      Session& s = sessions_[static_cast<std::size_t>(t)];
      vs::vnf::Vnf& vnf = *host.vnfs[static_cast<std::size_t>(t)];
      s.identity = vnf.name();
      s.rng = InputRng(seed * 7919 + static_cast<std::uint64_t>(t));
      s.client = d_->open_enclave_client(
          vnf, vs::net::TcpStream::connect("127.0.0.1", port),
          ledger::ctx(static_cast<std::size_t>(t)));
      std::string err;
      if (!request_once(t, err)) throw vs::Error("setup: " + err);
    }
  }

  Phase run(double seconds) override {
    Phase total;
    Phase nominal;
    double max_ok_rate = 0;
    for (std::size_t rung = 0; rung < kLadder.size(); ++rung) {
      const bool saturating = kLadder[rung] == 0;
      Phase p = saturating
                    ? run_rung(0, 3 * seconds,
                               static_cast<std::uint64_t>(
                                   kSaturatingOpsPerThreadSecond * seconds),
                               0.01 * seconds)
                    : run_rung(kLadder[rung], seconds * kRungShare[rung], 0,
                               seconds * kRungShare[rung] / kWindows);
      const Windowed w = windowed(p);
      const double achieved =
          saturating ? w.ops_per_s
                     : p.wall_s > 0 ? static_cast<double>(p.completed) / p.wall_s
                                    : 0;
      const double p99 = quantile(p.latency_us, 0.99);
      const std::string label =
          kLadder[rung] > 0 ? std::to_string(static_cast<int>(kLadder[rung]))
                            : std::string("saturating");
      total.extra["rung." + label + ".achieved_ops_s"] = achieved;
      total.extra["rung." + label + ".p99_ms"] = p99 / 1000.0;
      if (!saturating) {
        const double offered = kLadder[rung] * p.wall_s;
        const bool meets = p.failed == 0 && p99 <= kLatencyLimitUs &&
                           static_cast<double>(p.completed) >= 0.98 * offered;
        if (meets) max_ok_rate = std::max(max_ok_rate, kLadder[rung]);
      } else {
        // Capacity figures come from the saturating rung: at the paced
        // rungs CPU per request is mostly idle wake-ups, which swing with
        // the host's load rather than with the code.
        total.e2e_override["ops_per_s"] = achieved;
        total.e2e_override["cpu_us_per_op"] = w.cpu_us_per_op;
      }
      total.attempted += p.attempted;
      total.failed += p.failed;
      for (auto& e : p.errors) {
        if (total.errors.size() < 5) total.errors.push_back(std::move(e));
      }
      if (rung == kNominalRung) nominal = std::move(p);
    }
    // Latency, lateness and the op count come from the nominal rung.
    total.latency_us = std::move(nominal.latency_us);
    total.done_s = std::move(nominal.done_s);
    total.late_us = std::move(nominal.late_us);
    total.cpu_marks = std::move(nominal.cpu_marks);
    total.completed = nominal.completed;
    total.wall_s = nominal.wall_s;
    total.extra["max_ops_s"] = max_ok_rate;
    return total;
  }

  Counters counters() override { return d_->counters(); }

  void final_check(Phase& phase) override {
    std::map<std::string, std::uint64_t> logged;
    for (const auto& record : d_->controller->audit_log()) {
      if (record.status != 200) {
        note_failure(phase, "audit: status " + std::to_string(record.status) +
                                " for " + record.method + " " + record.path);
      }
      ++logged[record.identity];
    }
    for (int t = 0; t < kThreads; ++t) {
      const Session& s = sessions_[static_cast<std::size_t>(t)];
      if (logged[s.identity] != s.served) {
        note_failure(phase, "audit log misses requests of " + s.identity);
      }
      for (int k = 0; k < kFlowNames; ++k) {
        bool installed = false;
        for (const auto& f : d_->fabric.find_switch(flow_switch(k))->flows()) {
          installed |= f.name == flow_name(t, k);
        }
        if (installed != s.present[static_cast<std::size_t>(k)]) {
          note_failure(phase, "flow table disagrees on " + flow_name(t, k));
        }
      }
    }
  }

  std::string context_json() const override {
    std::string ladder;
    for (const double r : kLadder) {
      ladder += (ladder.empty() ? "" : ",") +
                (r > 0 ? std::to_string(static_cast<int>(r))
                       : std::string("\"saturating\""));
    }
    return "\"hosts\":1,\"vnfs\":" + std::to_string(kThreads) +
           ",\"generator_threads\":" + std::to_string(kThreads) +
           ",\"max_generator_connections\":" + std::to_string(kThreads) +
           ",\"loop\":\"open\",\"transport\":\"tcp-loopback\""
           ",\"ias_one_way_us\":500"
           ",\"offered_rate_ladder_ops_s\":[" + ladder + "]" +
           ",\"nominal_rate_ops_s\":" +
           std::to_string(static_cast<int>(kLadder[kNominalRung])) +
           ",\"latency_limit_ms\":" + std::to_string(kLatencyLimitUs / 1000.0) +
           ",\"saturating_requests\":\"" +
           std::to_string(static_cast<int>(kSaturatingOpsPerThreadSecond) *
                          kThreads) +
           " per second of the phase\",\"write_share\":0.15"
           ",\"flow_names_per_thread\":" +
           std::to_string(kFlowNames);
  }

  void teardown() override {
    for (Session& s : sessions_) {
      if (s.client) close_quietly(*s.client);
      s.client.reset();
    }
    if (d_) d_->shutdown();
    d_.reset();
  }

 private:
  /// One rung: every thread paces itself at rate/kThreads (rate 0: back
  /// to back), latency measured from each request's due time. A thread
  /// stops at the deadline or after `max_ops` requests (0 = no limit).
  Phase run_rung(double rate, double seconds, std::uint64_t max_ops,
                 double window_s) {
    std::vector<Phase> parts(kThreads);
    const auto start = std::chrono::steady_clock::now();
    CpuSampler sampler(start, window_s);
    const auto deadline = start + std::chrono::duration<double>(seconds);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([this, t, rate, start, deadline, max_ops, &parts] {
        Phase& p = parts[static_cast<std::size_t>(t)];
        OpCtx* ctx = ledger::ctx(static_cast<std::size_t>(t));
        ledger::bind_generator(ctx);
        const std::chrono::duration<double> interval(
            rate > 0 ? kThreads / rate : 0);
        for (std::uint64_t k = 0; max_ops == 0 || k < max_ops; ++k) {
          auto due = std::chrono::steady_clock::now();
          if (rate > 0) {
            due = start + std::chrono::duration_cast<
                              std::chrono::steady_clock::duration>(
                              interval * (static_cast<double>(k) +
                                          static_cast<double>(t) / kThreads));
            if (due >= deadline) break;
            std::this_thread::sleep_until(due);
          } else if (due >= deadline) {
            break;
          }
          const auto begin = std::chrono::steady_clock::now();
          std::string why;
          bool ok = false;
          {
            OpSpan root(ctx, now_ns());
            try {
              ok = request_once(t, why);
            } catch (const std::exception& e) {
              why = e.what();
            }
          }
          const auto end = std::chrono::steady_clock::now();
          ++p.attempted;
          if (!ok) {
            note_failure(p, why);
            continue;
          }
          ++p.completed;
          p.latency_us.push_back(
              std::chrono::duration<double, std::micro>(end - due).count());
          p.done_s.push_back(
              std::chrono::duration<double>(end - start).count());
          p.late_us.push_back(
              std::chrono::duration<double, std::micro>(begin - due).count());
        }
      });
    }
    for (auto& th : threads) th.join();
    Phase out;
    out.cpu_marks = sampler.stop();
    for (auto& p : parts) merge_phase(out, std::move(p));
    out.wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    return out;
  }

  /// One seeded request on thread t's session; checks status and body.
  bool request_once(int t, std::string& why) {
    Session& s = sessions_[static_cast<std::size_t>(t)];
    const std::size_t index = static_cast<std::size_t>(t);
    const double u = s.rng.unit();
    vs::http::Response res;
    bool ok = false;
    if (u < 0.85) {
      const std::uint64_t which = s.rng.below(3);
      if (which == 0) {
        res = s.client->request(make_request("GET", kSummary, index));
        ok = res.status == 200 &&
             body_contains(res, "\"securityMode\":\"TRUSTED_HTTPS\"") &&
             body_contains(res, "\"numSwitches\":2");
      } else if (which == 1) {
        res = s.client->request(make_request("GET", kSwitches, index));
        ok = res.status == 200 && body_contains(res, "00:00:000000000001") &&
             body_contains(res, "00:00:000000000002");
      } else {
        const int dpid = 1 + static_cast<int>(s.rng.below(2));
        res = s.client->request(make_request(
            "GET", "/wm/staticflowpusher/list/" + std::to_string(dpid) + "/json",
            index));
        ok = res.status == 200;
        for (int k = 0; ok && k < kFlowNames; ++k) {
          if (flow_switch(k) != dpid) continue;
          const bool listed =
              body_contains(res, "\"name\":\"" + flow_name(t, k) + "\"");
          ok = listed == s.present[static_cast<std::size_t>(k)];
        }
      }
    } else {
      const int k = static_cast<int>(s.rng.below(kFlowNames));
      bool& present = s.present[static_cast<std::size_t>(k)];
      const std::string name = flow_name(t, k);
      const std::string sw = std::to_string(flow_switch(k));
      if (present) {
        res = s.client->request(make_request(
            "DELETE", kPush, index,
            "{\"name\":\"" + name + "\",\"switch\":" + sw + "}"));
        ok = res.status == 200 && body_contains(res, "Entry deleted");
      } else {
        res = s.client->request(make_request(
            "POST", kPush, index,
            "{\"name\":\"" + name + "\",\"switch\":" + sw +
                ",\"priority\":100,\"tcp_dst\":" +
                std::to_string(1000 + 100 * t + k) +
                ",\"actions\":\"output=2\"}"));
        ok = res.status == 200 && body_contains(res, "Entry pushed");
      }
      if (ok) present = !present;
    }
    ++s.served;
    if (!ok) why = "control request: status " + std::to_string(res.status);
    return ok;
  }

  std::unique_ptr<Deployment> d_;
  std::vector<Session> sessions_;
};

}  // namespace

std::unique_ptr<Workload> make_control() {
  return std::make_unique<ControlWorkload>();
}

}  // namespace fig1
