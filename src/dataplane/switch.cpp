#include "dataplane/switch.h"

#include <algorithm>
#include <cstdio>

namespace vnfsgx::dataplane {

std::string Switch::dpid_string() const {
  char buf[24];
  std::snprintf(buf, sizeof buf, "00:00:%012llx",
                static_cast<unsigned long long>(dpid_ & 0xffffffffffffULL));
  return buf;
}

void Switch::add_flow(FlowEntry entry) {
  for (auto& existing : flows_) {
    if (existing.name == entry.name) {
      existing = std::move(entry);
      return;
    }
  }
  flows_.push_back(std::move(entry));
}

bool Switch::remove_flow(const std::string& name) {
  const auto it =
      std::find_if(flows_.begin(), flows_.end(),
                   [&name](const FlowEntry& e) { return e.name == name; });
  if (it == flows_.end()) return false;
  flows_.erase(it);
  return true;
}

std::optional<PacketIn> Switch::pop_packet_in() {
  if (packet_ins_.empty()) return std::nullopt;
  PacketIn front = std::move(packet_ins_.front());
  packet_ins_.pop_front();
  return front;
}

FlowEntry* Switch::match_flow(const Packet& packet, std::uint16_t in_port) {
  FlowEntry* best = nullptr;
  for (auto& entry : flows_) {
    if (!entry.match.matches(packet, in_port)) continue;
    if (!best || entry.priority > best->priority ||
        (entry.priority == best->priority &&
         entry.match.specificity() > best->match.specificity())) {
      best = &entry;
    }
  }
  return best;
}

ForwardingResult Switch::apply_entry(FlowEntry* entry, const Packet& packet,
                                     std::uint16_t in_port) {
  ++total_packets_;
  ForwardingResult result;
  if (!entry) {
    packet_ins_.push_back(PacketIn{packet, in_port});
    result.kind = ForwardingResult::Kind::kTableMiss;
    return result;
  }
  ++entry->packet_count;
  entry->byte_count += packet.payload.size();
  result.entry = entry;
  switch (entry->action.type) {
    case ActionType::kForward:
      result.kind = ForwardingResult::Kind::kForwarded;
      result.out_port = entry->action.out_port;
      break;
    case ActionType::kDrop:
      result.kind = ForwardingResult::Kind::kDropped;
      break;
    case ActionType::kSendToController:
      packet_ins_.push_back(PacketIn{packet, in_port});
      result.kind = ForwardingResult::Kind::kPacketIn;
      break;
    case ActionType::kInspect:
      // process_burst() collects these and punts them in one call; mark
      // the result so the caller knows it still owes a verdict.
      result.inspected = true;
      break;
  }
  return result;
}

ForwardingResult Switch::process(const Packet& packet, std::uint16_t in_port) {
  return std::move(process_burst(std::span(&packet, 1), in_port).front());
}

std::vector<ForwardingResult> Switch::process_burst(
    std::span<const Packet> packets, std::uint16_t in_port) {
  std::vector<ForwardingResult> results;
  results.reserve(packets.size());
  // First pass: match + apply every non-punt action, gathering the punted
  // packets for one inspector call.
  std::vector<const Packet*> punted;
  std::vector<std::size_t> punted_index;
  std::vector<FlowEntry*> punted_entry;
  for (std::size_t i = 0; i < packets.size(); ++i) {
    const Packet& packet = packets[i];
    FlowEntry* entry = match_flow(packet, in_port);
    results.push_back(apply_entry(entry, packet, in_port));
    if (entry != nullptr && entry->action.type == ActionType::kInspect) {
      punted.push_back(&packet);
      punted_index.push_back(i);
      punted_entry.push_back(entry);
    }
  }
  if (punted.empty()) return results;
  // Second pass: one pipelined inspection for the whole punted set. Fail
  // closed as a unit — a missing, throwing or miscounting inspector must
  // not let any punted frame through uninspected.
  std::vector<InspectionOutcome> outcomes;
  std::string error;
  if (!burst_inspector_) {
    error = "no-inspector";
  } else {
    try {
      outcomes = burst_inspector_(punted, in_port);
      if (outcomes.size() != punted.size()) {
        error = "inspector-error: burst verdict count mismatch";
      }
    } catch (const std::exception& e) {
      error = std::string("inspector-error: ") + e.what();
    }
  }
  for (std::size_t j = 0; j < punted.size(); ++j) {
    results[punted_index[j]] =
        error.empty()
            ? finish_inspection(*punted_entry[j], *punted[j], in_port,
                                std::move(outcomes[j]))
            : inspection_failure(*punted_entry[j], error);
  }
  return results;
}

ForwardingResult Switch::finish_inspection(FlowEntry& entry,
                                           const Packet& packet,
                                           std::uint16_t in_port,
                                           InspectionOutcome outcome) {
  ForwardingResult result;
  result.entry = &entry;
  result.inspected = true;
  result.verdict = outcome.verdict;
  result.inspect_rule = std::move(outcome.rule);
  switch (outcome.verdict) {
    case InspectVerdict::kDrop:
      result.kind = ForwardingResult::Kind::kDropped;
      break;
    case InspectVerdict::kAlert:
      // Alert rules forward the packet but copy it to the controller.
      packet_ins_.push_back(PacketIn{packet, in_port});
      [[fallthrough]];
    case InspectVerdict::kForward:
      result.kind = ForwardingResult::Kind::kForwarded;
      result.out_port = entry.action.out_port;
      break;
  }
  return result;
}

ForwardingResult Switch::inspection_failure(FlowEntry& entry,
                                            std::string rule) {
  ForwardingResult result;
  result.entry = &entry;
  result.inspected = true;
  result.kind = ForwardingResult::Kind::kDropped;
  result.verdict = InspectVerdict::kDrop;
  result.inspect_rule = std::move(rule);
  return result;
}

}  // namespace vnfsgx::dataplane
