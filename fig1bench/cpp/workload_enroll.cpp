// Workload `enroll`: the paper's own workflow as an operator sees it. One
// closed-loop operator thread brings one host online per operation (hosts
// round-robin): steps 1-2 over a ~1,000-entry IML, key rotation, steps 3-4
// as one fleet attestation over the host's 4 VNFs with the IAS 500 us away,
// step 5 per VNF, then each VNF's first in-enclave TLS session and
// summary request (step 6). Every thread of the deployment shares one vCPU.
#include <map>
#include <set>

#include "deployment.h"

namespace fig1 {

namespace {

constexpr int kHosts = 4;
constexpr int kVnfsPerHost = 4;
constexpr int kImlEntries = 1000;
constexpr std::chrono::microseconds kIasOneWay{500};
constexpr const char* kSummary = "/wm/core/controller/summary/json";
/// The vCPU the whole workload runs on (modulo the CPU count). The steps
/// hand off between the operator, fleet, agent and IAS threads dozens of
/// times per operation; across vCPUs each hand-off waits for the host to
/// wake the other vCPU, and that wait swings with the host's load.
constexpr int kCpu = 3;

class EnrollWorkload final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    DeploymentOptions options;
    options.seed = seed;
    options.hosts = kHosts;
    options.vnfs_per_host = kVnfsPerHost;
    options.iml_entries = kImlEntries;
    options.serve_agents = true;
    options.ias_one_way = kIasOneWay;
    options.controller = true;
    // The runtime's threads inherit the mask of the thread creating them.
    pinned_ = pin_current_thread(kCpu);
    d_ = std::make_unique<Deployment>(options);
    ctx_ = ledger::ctx(0);
    ledger::bind_generator(ctx_);

    // Steady state: every host enrolled once (IAS pool warm, CA and
    // validation caches populated).
    std::vector<vs::pki::Certificate> certs;
    for (auto& host : d_->hosts) {
      std::string why;
      certs.clear();
      if (!d_->enroll_host(*host, ctx_, why, &certs)) {
        throw vs::Error("setup: " + why);
      }
      for (auto& v : host->vnfs) step6(*v);
    }
    // `certs` holds the last host's credentials.
    probe_revoked(*d_->hosts.back()->vnfs.front(), certs.front().serial);
    if (pinned_) unpin_current_thread();
  }

  Phase run(double seconds) override {
    return run_closed_loop(
        1, seconds,
        [this](int, std::string& why) {
          HostNode& host = *d_->hosts[next_host_++ % d_->hosts.size()];
          bool ok = d_->enroll_host(host, ctx_, why);
          for (std::size_t i = 0; ok && i < host.vnfs.size(); ++i) {
            ok = step6(*host.vnfs[i], &why);
          }
          return ok;
        },
        [this](int) {
          if (pinned_) pin_current_thread(kCpu);
        });
  }

  Counters counters() override { return d_->counters(); }

  void final_check(Phase& phase) override {
    // Every successful step-6 request is in the audit log under the VNF's
    // authenticated identity, nothing else was served, and the revoked
    // credential was refused.
    std::map<std::string, std::uint64_t> logged;
    for (const auto& record : d_->controller->audit_log()) {
      if (record.status == 200 && record.path == kSummary) {
        ++logged[record.identity];
      } else {
        note_failure(phase, "unexpected audit record " + record.method + " " +
                                record.path + " for '" + record.identity + "'");
      }
    }
    if (logged != served_) {
      note_failure(phase, "audit log does not match the served requests");
    }
    if (d_->controller->rejected_connections() != probes_) {
      note_failure(phase, "controller rejected an enrolled VNF");
    }
  }

  std::string context_json() const override {
    return "\"hosts\":" + std::to_string(kHosts) +
           ",\"vnfs_per_host\":" + std::to_string(kVnfsPerHost) +
           ",\"iml_entries\":" + std::to_string(kImlEntries) +
           ",\"ias_one_way_us\":" + std::to_string(kIasOneWay.count()) +
           ",\"fleet_max_workers\":4,\"generator_threads\":1"
           ",\"max_generator_connections\":4,\"loop\":\"closed\""
           ",\"latency_limit_ms\":null" +
           pinning_json(pinned_, kCpu);
  }

  void teardown() override {
    if (d_) d_->shutdown();
    d_.reset();
  }

 private:
  /// First in-enclave TLS session + summary request for one VNF.
  bool step6(vs::vnf::Vnf& vnf, std::string* why = nullptr) {
    auto client =
        d_->open_enclave_client(vnf, d_->controller_channel(0), ctx_);
    const auto res = client->request(make_request("GET", kSummary, 0));
    const bool ok = res.status == 200 &&
                    body_contains(res, "\"securityMode\":\"TRUSTED_HTTPS\"");
    {
      Span span(ctx_, "vnf.tls_close");
      client->close();
    }
    if (!ok) {
      if (why) *why = "step 6 for " + vnf.name() + ": status " +
                      std::to_string(res.status);
      if (!why) throw vs::Error("setup: step 6 refused for " + vnf.name());
      return false;
    }
    ++served_[vnf.name()];
    return true;
  }

  /// A revoked credential must never be served: revoke one VNF's
  /// certificate and check the controller refuses its session.
  void probe_revoked(vs::vnf::Vnf& vnf, std::uint64_t serial) {
    d_->controller->update_crl(d_->vm.revoke_certificate(serial));
    ++probes_;
    bool served = false;
    std::unique_ptr<vs::http::Client> client;
    try {
      client = d_->open_enclave_client(vnf, d_->controller_channel(0), ctx_);
      served = client->request(make_request("GET", kSummary, 0)).status == 200;
    } catch (const std::exception&) {
      // expected: the handshake or the first exchange fails
    }
    if (client) {
      close_quietly(*client);
    } else {
      try {
        vnf.credentials().tls_close();
      } catch (const std::exception&) {
      }
    }
    if (served) throw vs::Error("setup: revoked credential was served");
  }

  std::unique_ptr<Deployment> d_;
  bool pinned_ = false;
  OpCtx* ctx_ = nullptr;
  std::uint64_t next_host_ = 0;
  std::uint64_t probes_ = 0;
  std::map<std::string, std::uint64_t> served_;
};

}  // namespace

std::unique_ptr<Workload> make_enroll() {
  return std::make_unique<EnrollWorkload>();
}

}  // namespace fig1
