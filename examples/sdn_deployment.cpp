// Full SDN deployment: two container hosts, three VNFs (firewall, load
// balancer, monitor), a two-switch fabric, and a trusted-HTTPS controller.
// Every VNF is attested and enrolled, pushes its desired flow rules from
// inside its enclave, and traffic is then run through the fabric.
//
// Run: build/examples/sdn_deployment
#include "common/logging.h"
#include "http/client.h"
#include "testbed/testbed.h"
#include "vnf/functions.h"

using namespace vnfsgx;
using namespace vnfsgx::testbed;

namespace {

/// Enroll one VNF end-to-end; returns its certificate serial.
std::uint64_t enroll(Testbed& bed, SimHost& host, vnf::Vnf& v) {
  auto ch = bed.agent_channel(host);
  const auto vr = bed.vm.attest_vnf(*ch, v.name());
  if (!vr.trustworthy) throw Error("attestation failed: " + vr.reason);
  const auto cert = bed.vm.enroll_vnf(*ch, v.name(), v.name() + ".tenant-a");
  if (!cert) throw Error("enrollment failed for " + v.name());
  step(v.name() + " attested + enrolled (serial " +
       std::to_string(cert->serial) + ")");
  return cert->serial;
}

/// Push the VNF's desired flows through its in-enclave TLS session.
void push_flows(Testbed& bed, vnf::Vnf& v, std::uint64_t dpid) {
  auto transport = bed.net.connect(kControllerAddress);
  v.credentials().tls_open(std::move(transport), bed.clock.now(), "controller",
                           bed.vm.ca_certificate());
  vnf::EnclaveTlsStream tunnel(v.credentials());
  http::Connection conn(tunnel);
  int pushed = 0;
  for (const auto& flow : v.function().desired_flows(dpid)) {
    http::Request req;
    req.method = "POST";
    req.target = "/wm/staticflowpusher/json";
    req.body = to_bytes(flow.json_body);
    conn.write(req);
    const auto res = conn.read_response();
    if (res && res->status == 200) ++pushed;
  }
  v.credentials().tls_close();
  step(v.name() + " pushed " + std::to_string(pushed) +
       " flow(s) via in-enclave TLS");
}

}  // namespace

int main() {
  set_log_level(LogLevel::kWarn);
  Testbed bed;

  banner("SDN deployment: 2 hosts, 3 VNFs, 2 switches");

  // Forwarding plane: s1 (edge) -- s2 (core).
  dataplane::Fabric fabric;
  fabric.add_switch(1);
  fabric.add_switch(2);
  fabric.link({1, 2}, {2, 1});
  bed.start_controller(fabric, controller::SecurityMode::kTrustedHttps);

  // Hosts and VNFs.
  SimHost& host_a = bed.add_host("host-a");
  SimHost& host_b = bed.add_host("host-b");

  auto firewall_fn = std::make_unique<vnf::FirewallFunction>();
  firewall_fn->block_port(23);    // telnet
  firewall_fn->block_port(445);   // smb
  auto* firewall_raw = firewall_fn.get();
  vnf::Vnf firewall("fw-1", *host_a.machine, bed.vendor.seed,
                    std::move(firewall_fn));
  host_a.agent->register_vnf(firewall);

  auto lb_fn = std::make_unique<vnf::LoadBalancerFunction>(
      dataplane::ipv4("10.0.0.100"), 80);
  lb_fn->add_backend({dataplane::ipv4("10.0.1.1"), 3});
  lb_fn->add_backend({dataplane::ipv4("10.0.1.2"), 4});
  auto* lb_raw = lb_fn.get();
  vnf::Vnf balancer("lb-1", *host_a.machine, bed.vendor.seed, std::move(lb_fn));
  host_a.agent->register_vnf(balancer);

  auto mon_fn = std::make_unique<vnf::MonitorFunction>();
  auto* mon_raw = mon_fn.get();
  vnf::Vnf monitor("mon-1", *host_b.machine, bed.vendor.seed, std::move(mon_fn));
  host_b.agent->register_vnf(monitor);

  bed.learn_golden(host_a);
  bed.learn_golden(host_b);
  step("deployed fw-1 + lb-1 on host-a, mon-1 on host-b");

  // Attestation of both hosts.
  banner("Host attestation");
  for (SimHost* h : {&host_a, &host_b}) {
    auto ch = bed.agent_channel(*h);
    const auto result = bed.vm.attest_host(*ch);
    step(h->machine->name() + ": " + result.reason + " (" +
         std::to_string(result.iml_entries) + " IML entries)");
    if (!result.trustworthy) return 1;
  }

  // VNF attestation + enrollment + flow programming.
  banner("VNF enrollment");
  enroll(bed, host_a, firewall);
  enroll(bed, host_a, balancer);
  enroll(bed, host_b, monitor);

  banner("Flow programming (step 6, from inside the enclaves)");
  push_flows(bed, firewall, 1);
  push_flows(bed, balancer, 2);

  // Traffic.
  banner("Traffic through the fabric");
  int dropped = 0, forwarded = 0, missed = 0;
  for (int i = 0; i < 1000; ++i) {
    dataplane::Packet p;
    p.src_ip = dataplane::ipv4("10.0.2." + std::to_string(1 + i % 20));
    p.dst_ip = dataplane::ipv4("10.0.0.100");
    p.src_port = static_cast<std::uint16_t>(20000 + i);
    p.dst_port = (i % 10 == 0) ? 23 : 80;  // 10% telnet, 90% web
    p.proto = dataplane::IpProto::kTcp;
    p.payload = Bytes(64 + i % 512);

    // VNFs on the service chain observe the packet.
    monitor.process(p);
    if (firewall.process(p) == vnf::Verdict::kDrop) {
      // would be dropped at the edge anyway; also count the switch verdict
    }
    const auto path = fabric.inject(1, 7, p);
    switch (path.hops.back().result.kind) {
      case dataplane::ForwardingResult::Kind::kDropped:
        ++dropped;
        break;
      case dataplane::ForwardingResult::Kind::kForwarded:
        ++forwarded;
        break;
      default:
        ++missed;
    }
  }
  step("packets: " + std::to_string(forwarded) + " forwarded, " +
       std::to_string(dropped) + " dropped, " + std::to_string(missed) +
       " table-miss");
  step("firewall verdicts: " + std::to_string(firewall_raw->allowed()) +
       " allowed, " + std::to_string(firewall_raw->dropped()) + " dropped");
  step("lb backend shares:");
  for (const auto& [ip, count] : lb_raw->per_backend_counts()) {
    std::printf("       %s -> %llu flows\n", dataplane::ipv4_to_string(ip).c_str(),
                static_cast<unsigned long long>(count));
  }
  step("monitor top talker: " + dataplane::ipv4_to_string(mon_raw->top_talker()));

  // Controller-side view.
  banner("Controller state");
  std::printf("  requests served: %llu, rejected connections: %llu\n",
              static_cast<unsigned long long>(bed.controller->requests_served()),
              static_cast<unsigned long long>(
                  bed.controller->rejected_connections()));
  for (const auto& record : bed.controller->audit_log()) {
    std::printf("  audit: %-6s %-32s by '%s' -> %d\n", record.method.c_str(),
                record.path.c_str(), record.identity.c_str(), record.status);
  }

  std::printf("\nsdn_deployment complete.\n");
  return 0;
}
