// OpenFlow-style switch: prioritized flow table, per-flow counters,
// packet-in for table misses. The controller's staticflowpusher REST
// endpoints program these tables.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dataplane/packet.h"

namespace vnfsgx::dataplane {

enum class ActionType : std::uint8_t {
  kForward,
  kDrop,
  kSendToController,
  kInspect,  // punt through the registered inspector, then forward/drop
};

struct Action {
  ActionType type = ActionType::kDrop;
  std::uint16_t out_port = 0;  // for kForward / kInspect pass verdicts

  static Action forward(std::uint16_t port) {
    return Action{ActionType::kForward, port};
  }
  static Action drop() { return Action{ActionType::kDrop, 0}; }
  static Action to_controller() {
    return Action{ActionType::kSendToController, 0};
  }
  /// Punt to the inspector NF; clean verdicts forward out `port`.
  static Action inspect(std::uint16_t port) {
    return Action{ActionType::kInspect, port};
  }
};

/// Inspector NF verdict for one punted packet.
enum class InspectVerdict : std::uint8_t {
  kForward,  // clean: forward along the flow's out_port
  kDrop,     // signature hit: discard
  kAlert,    // signature hit on an alert rule: forward, notify controller
};

struct InspectionOutcome {
  InspectVerdict verdict = InspectVerdict::kForward;
  std::string rule;  // matched rule name for kDrop / kAlert
};

/// The punt-path hook: all packets a burst punted, inspected in one
/// pipelined pass (the switchless ring keeps the whole burst in flight).
/// Deliberately an opaque callable: the dataplane knows nothing about
/// enclaves — the VNF layer binds this to its in-enclave inspection NF
/// (vnf::InspectionClient::as_burst_inspector). Packets are passed by
/// pointer because the punted subset of a burst is rarely contiguous;
/// outcomes must be positional and complete — a miscounted or throwing
/// reply fails the whole punted set CLOSED.
using BurstInspectorFn = std::function<std::vector<InspectionOutcome>(
    std::span<const Packet* const>, std::uint16_t in_port)>;

struct FlowEntry {
  std::string name;  // staticflowpusher identifier
  int priority = 0;
  Match match;
  Action action;
  std::uint64_t packet_count = 0;
  std::uint64_t byte_count = 0;
};

/// A packet punted to the controller, with its arrival port.
struct PacketIn {
  Packet packet;
  std::uint16_t in_port = 0;
};

/// Result of running a packet through a switch.
struct ForwardingResult {
  enum class Kind { kForwarded, kDropped, kPacketIn, kTableMiss };
  Kind kind = Kind::kTableMiss;
  std::uint16_t out_port = 0;
  const FlowEntry* entry = nullptr;
  // Punt-path trace: set when the matched action was kInspect.
  bool inspected = false;
  InspectVerdict verdict = InspectVerdict::kForward;
  std::string inspect_rule;  // rule behind a kDrop/kAlert verdict
};

class Switch {
 public:
  explicit Switch(std::uint64_t dpid) : dpid_(dpid) {}

  std::uint64_t dpid() const { return dpid_; }
  std::string dpid_string() const;

  /// Add or replace (by name) a flow entry.
  void add_flow(FlowEntry entry);
  bool remove_flow(const std::string& name);
  const std::vector<FlowEntry>& flows() const { return flows_; }

  /// Process a packet: a burst of one through process_burst().
  ForwardingResult process(const Packet& packet, std::uint16_t in_port);

  /// Process a burst: per packet, the highest priority match wins; ties
  /// are broken by match specificity, then insertion order. Punted packets
  /// are gathered and handed to the inspector in one call. Results are
  /// positional.
  std::vector<ForwardingResult> process_burst(std::span<const Packet> packets,
                                              std::uint16_t in_port);

  /// Bind the inspection NF serving this switch's kInspect actions. With no
  /// inspector bound, an inspector that throws, or one that returns a
  /// verdict count other than the punted count, kInspect fails CLOSED:
  /// every punted packet is dropped rather than forwarded uninspected.
  void set_burst_inspector(BurstInspectorFn inspector) {
    burst_inspector_ = std::move(inspector);
  }
  bool has_burst_inspector() const {
    return static_cast<bool>(burst_inspector_);
  }

  /// Packets punted to the controller (table miss or explicit action).
  const std::deque<PacketIn>& packet_in_queue() const { return packet_ins_; }
  void clear_packet_ins() { packet_ins_.clear(); }
  /// Remove and return the oldest packet-in (nullopt when empty).
  std::optional<PacketIn> pop_packet_in();

  std::uint64_t total_packets() const { return total_packets_; }

 private:
  FlowEntry* match_flow(const Packet& packet, std::uint16_t in_port);
  ForwardingResult apply_entry(FlowEntry* entry, const Packet& packet,
                               std::uint16_t in_port);
  ForwardingResult finish_inspection(FlowEntry& entry, const Packet& packet,
                                     std::uint16_t in_port,
                                     InspectionOutcome outcome);
  static ForwardingResult inspection_failure(FlowEntry& entry,
                                             std::string rule);

  std::uint64_t dpid_;
  std::vector<FlowEntry> flows_;
  std::deque<PacketIn> packet_ins_;
  BurstInspectorFn burst_inspector_;
  std::uint64_t total_packets_ = 0;
};

}  // namespace vnfsgx::dataplane
