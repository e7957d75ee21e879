// In-enclave signature-match IDS NF (the first enclave-resident consumer of
// the switchless hostcall ring).
//
// Everything security-relevant lives inside the enclave: the rule table,
// the compiled matcher, the 5-tuple flow table with per-flow counters, and
// the verdict cache. Untrusted code only marshals packets in and verdicts
// out. Rule provisioning rides the sealed-credential path: kOpSealRules /
// kOpRestoreRules wrap the table with the platform seal keys, so rules are
// confidentiality-protected exactly like VNF credentials.
//
// Frames cross the boundary in one wire format, kOpInspectFrame: a
// FrameDescriptor (fixed POD header + inline frame bytes) answered by a
// FrameVerdict plus the matched rule name (inspection_wire.h). Two
// disciplines carry it:
//   * sync — one Enclave::call per frame, any frame size; the verdict
//     reference the tests compare against.
//   * switchless — serialized once, directly into a RingGroup slot, with
//     the verdict returned in place. Each frame is steered to a ring by a
//     hash of its 5-tuple, so one flow's frames reach one resident worker
//     in burst order and the sticky per-flow drop never races.
// The trusted logic is thread-safe: a RingGroup runs one resident worker
// per ring, all dispatching into the same rule table and flow shards.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "dataplane/switch.h"
#include "sgx/hostcall.h"
#include "vnf/inspection_rules.h"
#include "vnf/inspection_wire.h"

namespace vnfsgx::obs {
class Histogram;
}  // namespace vnfsgx::obs

namespace vnfsgx::vnf {

/// ECALL opcodes of the inspection enclave.
enum InspectionOp : std::uint32_t {
  /// RuleSet TLV -> (). Installs + compiles the rule table, resets flows.
  kOpLoadRules = 1,
  // 2 is retired (a TLV frame format); the enclave rejects it as unknown.
  /// () -> sealed blob (MRENCLAVE policy) of the rule table.
  kOpSealRules = 3,
  /// sealed blob -> (). Restores a sealed rule table after a restart.
  kOpRestoreRules = 4,
  /// () -> TLV flow-table statistics snapshot.
  kOpFlowStats = 5,
  /// () -> (). Clears the flow table and verdict cache; rules stay.
  kOpResetFlows = 6,
  /// FrameDescriptor + inline payload -> FrameVerdict + rule name.
  /// Throws if no rules are loaded (the dataplane then fails closed).
  kOpInspectFrame = 7,
};

/// Largest frame payload the switchless path can inline in one ring slot.
/// Comfortably above a 1500-byte MTU frame; larger payloads are rejected
/// at the untrusted gate (the dataplane then fails closed). Sync mode has
/// no such limit.
inline constexpr std::size_t kMaxInlineFramePayload =
    sgx::kMaxHostCallPayload - wire::kFrameHeaderSize;

/// In-enclave flow-table statistics (kOpFlowStats).
struct InspectionStats {
  std::uint64_t flows = 0;       // distinct 5-tuples seen
  std::uint64_t inspected = 0;   // packets run through the matcher or cache
  std::uint64_t dropped = 0;     // drop verdicts issued
  std::uint64_t alerted = 0;     // alert verdicts issued
  std::uint64_t cache_hits = 0;  // verdicts served from the flow cache
};

/// The enclave image (one shared MRENCLAVE for all inspection enclaves).
sgx::EnclaveImage inspection_enclave_image();
sgx::Measurement inspection_enclave_measurement();

/// Untrusted-side client: marshals packets to the enclave over one of the
/// two boundary disciplines and adapts the NF to the dataplane punt hook.
class InspectionClient {
 public:
  enum class Mode { kSync, kSwitchless };

  struct Options {
    Mode mode = Mode::kSync;
    /// Hostcall rings — one resident enclave worker each (switchless only).
    std::size_t rings = 1;
    /// Per-ring slot count.
    std::size_t ring_capacity = 128;
  };

  /// For kSwitchless a RingGroup (and its in-enclave worker threads) is
  /// spun up; the other modes call straight into the enclave.
  explicit InspectionClient(std::shared_ptr<sgx::Enclave> enclave,
                            Mode mode = Mode::kSync);
  InspectionClient(std::shared_ptr<sgx::Enclave> enclave, Options options);
  ~InspectionClient();
  InspectionClient(const InspectionClient&) = delete;
  InspectionClient& operator=(const InspectionClient&) = delete;

  Mode mode() const { return options_.mode; }
  std::size_t rings() const { return group_ ? group_->rings() : 0; }

  void load_rules(const RuleSet& rules);
  Bytes seal_rules();
  void restore_rules(ByteView sealed);

  /// Inspect one frame. Records one per-frame latency sample.
  dataplane::InspectionOutcome inspect(const dataplane::Packet& packet,
                                       std::uint16_t in_port);

  /// Inspect a burst. kSync pays one crossing per frame (and records each
  /// frame's latency); kSwitchless steers each frame to its flow's ring
  /// with a bounded in-flight window per ring. Either way the burst adds
  /// one sample to the per-burst histogram. Outcomes are positional.
  std::vector<dataplane::InspectionOutcome> inspect_burst(
      std::span<const dataplane::Packet> packets, std::uint16_t in_port);

  /// Pointer-burst variant (the Switch punt path hands the non-contiguous
  /// punted subset this way; frames are never copied to regroup them).
  std::vector<dataplane::InspectionOutcome> inspect_burst(
      std::span<const dataplane::Packet* const> packets,
      std::uint16_t in_port);

  InspectionStats flow_stats();
  void reset_flows();

  /// Bind this NF to Switch::set_inspector. The returned callable holds a
  /// plain reference: the client must outlive any switch it is bound to.
  dataplane::InspectorFn as_inspector();

  /// Bind to Switch::set_burst_inspector: the whole punted burst rides the
  /// ring group in one pipelined window. Same lifetime rule as above.
  dataplane::BurstInspectorFn as_burst_inspector();

 private:
  Bytes dispatch(std::uint32_t opcode, ByteView input);
  std::size_t ring_for(const dataplane::Packet& packet) const;
  sgx::RingGroup::Ticket submit_frame(const dataplane::Packet& packet,
                                      std::uint16_t in_port, std::size_t ring);
  std::vector<dataplane::InspectionOutcome> inspect_burst_switchless(
      std::span<const dataplane::Packet* const> packets,
      std::uint16_t in_port);

  std::shared_ptr<sgx::Enclave> enclave_;
  Options options_;
  obs::Histogram* frame_latency_;  // vnfsgx_inspection_latency_us{mode}
  obs::Histogram* burst_latency_;  // vnfsgx_inspection_burst_us{mode}
  std::unique_ptr<sgx::RingGroup> group_;
};

}  // namespace vnfsgx::vnf
