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
// Frames cross the boundary in one wire format, kOpInspectFrame: one or
// more FrameDescriptors (fixed POD header + inline frame bytes) back to
// back, answered by one FrameVerdict plus matched rule name per descriptor,
// in order (inspection_wire.h). Two disciplines carry it:
//   * sync — one Enclave::call per frame, any frame size; the verdict
//     reference the tests compare against.
//   * switchless — serialized once, directly into RingGroup slots, with
//     the verdicts returned in place. Each frame is steered to a ring by a
//     hash of its 5-tuple, and a burst's frames for one ring are packed in
//     burst order into as few slots as they fit, so one flow's frames
//     reach one resident worker in burst order and the sticky per-flow
//     drop never races.
// The control opcodes (rules, sealing, flow statistics) take a classic
// ECALL in both modes: a rule table or its sealed blob is not bounded by a
// ring slot, and control traffic is too rare to need the ring.
// The trusted handler validates every descriptor of a slot before it
// judges any frame, so a malformed slot fails closed with no flow touched.
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
  /// 1..kMaxFramesPerSlot x (FrameDescriptor + inline payload), back to
  /// back -> one FrameVerdict + rule name per descriptor, in order. Throws,
  /// having judged no frame, on a malformed descriptor, trailing bytes, too
  /// many frames, or no rules loaded (the dataplane then fails closed).
  kOpInspectFrame = 7,
};

/// Largest frame payload the switchless path can inline in one ring slot.
/// Comfortably above a 1500-byte MTU frame; larger payloads are rejected
/// at the untrusted gate (the dataplane then fails closed). Sync mode has
/// no such limit.
inline constexpr std::size_t kMaxInlineFramePayload =
    sgx::kMaxHostCallPayload - wire::kFrameHeaderSize;

/// Most frames one kOpInspectFrame call carries. Bounded so that a slot of
/// verdicts, each naming a longest-name rule, always fits a ring slot's
/// result region: a slot of verdicts is never truncated.
inline constexpr std::size_t kMaxFramesPerSlot = 32;
static_assert(kMaxFramesPerSlot * (wire::kVerdictHeaderSize +
                                   kMaxRuleNameBytes) <=
              sgx::kMaxHostCallPayload);

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
/// inspect_burst() is the one judging entry.
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
  /// spun up for the frames; everything else calls straight into the
  /// enclave.
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

  /// Inspect a burst, given by pointer (the Switch punt path hands the
  /// non-contiguous punted subset this way; frames are never copied to
  /// regroup them). kSync makes one Enclave::call per frame and records
  /// one per-frame latency sample per call; kSwitchless steers each frame
  /// to its flow's ring and packs each ring's frames into as few slots as
  /// they fit, with a bounded in-flight window of slots per ring. Either
  /// way a non-empty burst adds one sample to the per-burst histogram.
  /// Outcomes are positional.
  std::vector<dataplane::InspectionOutcome> inspect_burst(
      std::span<const dataplane::Packet* const> packets,
      std::uint16_t in_port);

  InspectionStats flow_stats();
  void reset_flows();

  /// Bind to Switch::set_burst_inspector: the whole punted burst goes
  /// through inspect_burst(). The returned callable holds a plain
  /// reference: the client must outlive any switch it is bound to.
  dataplane::BurstInspectorFn as_burst_inspector();

 private:
  std::size_t ring_for(const dataplane::Packet& packet) const;
  std::vector<dataplane::InspectionOutcome> inspect_burst_switchless(
      std::span<const dataplane::Packet* const> packets,
      std::uint16_t in_port);

  std::shared_ptr<sgx::Enclave> enclave_;
  Options options_;
  obs::Histogram* frame_latency_;  // vnfsgx_inspection_latency_us (sync)
  obs::Histogram* burst_latency_;  // vnfsgx_inspection_burst_us{mode}
  std::unique_ptr<sgx::RingGroup> group_;
};

}  // namespace vnfsgx::vnf
