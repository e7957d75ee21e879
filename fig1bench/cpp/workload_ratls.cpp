// Workload `enroll-ratls`: one VNF's first contact through RA-TLS. One
// closed-loop thread on one host; an operation rotates the VNF's in-enclave
// key, issues an attestation-bound certificate (report ECALL, QE quote,
// issue ECALL), opens the in-enclave TLS session to a controller that
// accepts attested clients only, enrolls with one POST, and closes.
#include <map>
#include <mutex>

#include "deployment.h"

namespace fig1 {

namespace {

/// One generator thread, and the deployment's server threads on the same
/// vCPU as it. An operation hands off between client and server threads
/// several times; across vCPUs each hand-off waits for the host to wake
/// the other vCPU, and that wait swings with the host's load.
constexpr int kThreads = 1;
/// The vCPU the workload runs on (modulo the CPU count).
constexpr int kCpu = 3;
constexpr int kVnfsPerHost = 4;
constexpr const char* kEnroll = "/wm/vnfsgx/enroll/json";

class RatlsWorkload final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    DeploymentOptions options;
    options.seed = seed;
    options.hosts = kThreads;
    options.vnfs_per_host = kVnfsPerHost;
    options.controller = true;
    options.require_attested_clients = true;
    // The runtime's threads inherit the mask of the thread creating them.
    pinned_ = pin_current_thread(kCpu);
    d_ = std::make_unique<Deployment>(options);
    counters_.assign(kThreads, 0);
    // Steady state: every VNF has enrolled once.
    for (int t = 0; t < kThreads; ++t) {
      ledger::bind_generator(ledger::ctx(t));
      for (int i = 0; i < kVnfsPerHost; ++i) {
        std::string why;
        if (!enroll_once(t, i, why)) throw vs::Error("setup: " + why);
      }
    }
    if (pinned_) unpin_current_thread();
  }

  Phase run(double seconds) override {
    return run_closed_loop(
        kThreads, seconds,
        [this](int t, std::string& why) {
          return enroll_once(t, static_cast<int>(counters_[t] % kVnfsPerHost),
                             why);
        },
        [this](int) {
          if (pinned_) pin_current_thread(kCpu);
        });
  }

  Counters counters() override { return d_->counters(); }

  void final_check(Phase& phase) override {
    std::map<std::string, std::uint64_t> enrolled;
    for (const auto& identity : d_->controller->enrolled_identities()) {
      ++enrolled[identity];
    }
    for (const auto& record : d_->controller->audit_log()) {
      if (record.status != 200 || record.path != kEnroll) {
        note_failure(phase, "unexpected audit record " + record.method + " " +
                                record.path + " for '" + record.identity + "'");
      }
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    if (enrolled != enrolled_) {
      note_failure(phase, "enrolled identities do not match the enrollments");
    }
    if (d_->controller->rejected_connections() != 0) {
      note_failure(phase, "controller rejected an attested VNF");
    }
  }

  std::string context_json() const override {
    return "\"hosts\":" + std::to_string(kThreads) +
           ",\"vnfs_per_host\":" + std::to_string(kVnfsPerHost) +
           ",\"generator_threads\":" + std::to_string(kThreads) +
           ",\"max_generator_connections\":" + std::to_string(kThreads) +
           ",\"loop\":\"closed\",\"require_attested_clients\":true"
           ",\"ias_one_way_us\":0,\"latency_limit_ms\":null" +
           pinning_json(pinned_, kCpu);
  }

  void teardown() override {
    if (d_) d_->shutdown();
    d_.reset();
  }

 private:
  bool enroll_once(int t, int index, std::string& why) {
    OpCtx* ctx = ledger::ctx(static_cast<std::size_t>(t));
    HostNode& host = *d_->hosts[static_cast<std::size_t>(t)];
    vs::vnf::Vnf& vnf = *host.vnfs[static_cast<std::size_t>(index)];
    const std::uint64_t serial =
        (static_cast<std::uint64_t>(t + 1) << 40) | ++counters_[t];
    {
      Span span(ctx, "vnf.rotate_key");
      vnf.credentials().rotate_key();
    }
    vs::pki::Certificate cert;
    {
      Span span(ctx, "vnf.ratls_issue");
      cert = vnf.credentials().issue_ratls_certificate(
          host.machine->sgx().quoting_enclave(), vs::crypto::Sha256Digest{},
          d_->vendor.public_key, serial, {vnf.name(), ""},
          d_->clock.now() - 10, d_->clock.now() + 3600);
    }
    if (cert.subject.common_name != vnf.name() || cert.serial != serial) {
      why = "issued certificate does not name " + vnf.name();
      return false;
    }
    auto client = d_->open_enclave_client(
        vnf, d_->controller_channel(static_cast<std::size_t>(t)), ctx);
    const auto res = client->request(
        make_request("POST", kEnroll, static_cast<std::size_t>(t), "{}"));
    const bool ok = res.status == 200 &&
                    body_contains(res, "\"status\":\"enrolled\"") &&
                    body_contains(res, "\"identity\":\"" + vnf.name() + "\"");
    {
      Span span(ctx, "vnf.tls_close");
      client->close();
    }
    if (!ok) {
      why = "enrollment of " + vnf.name() + ": status " +
            std::to_string(res.status);
      return false;
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    ++enrolled_[vnf.name()];
    return true;
  }

  std::unique_ptr<Deployment> d_;
  bool pinned_ = false;
  std::vector<std::uint64_t> counters_;  // per thread, touched by it only
  std::mutex mutex_;
  std::map<std::string, std::uint64_t> enrolled_;
};

}  // namespace

std::unique_ptr<Workload> make_enroll_ratls() {
  return std::make_unique<RatlsWorkload>();
}

}  // namespace fig1
