// Untrusted agent running on the container host: answers the Verification
// Manager's attestation protocol by driving the local enclaves and the
// Quoting Enclave, and installs provisioned credentials into VNF enclaves.
#pragma once

#include <map>
#include <mutex>

#include "core/protocol.h"
#include "host/container_host.h"
#include "vnf/vnf.h"

namespace vnfsgx::core {

class HostAgent {
 public:
  explicit HostAgent(host::ContainerHost& host) : host_(host) {}

  /// Make a VNF's credential enclave reachable for attestation and
  /// provisioning under its name.
  void register_vnf(vnf::Vnf& vnf);

  /// Answer one protocol frame; errors come back as an encoded
  /// ErrorMessage frame, never as an exception. This is the per-burst
  /// entry used with net::frame_driver, where the runtime owns the framing
  /// I/O and the connection parks between frames.
  Bytes serve_frame(ByteView request);

 private:
  Bytes handle(ByteView request);
  Bytes handle_attest_host(const AttestHostRequest& request);
  Bytes handle_attest_vnf(const AttestVnfRequest& request);
  Bytes handle_provision(const ProvisionRequest& request);

  host::ContainerHost& host_;
  std::mutex mutex_;
  std::map<std::string, vnf::Vnf*> vnfs_;
};

}  // namespace vnfsgx::core
