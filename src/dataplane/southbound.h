// Southbound channel: the OpenFlow-equivalent control protocol between
// switches and the controller, over any net::Stream.
//
// Floodlight programs real switches over OpenFlow; in this simulator the
// REST layer mutates a local Fabric directly (like Floodlight's in-process
// providers), and this module supplies the distributed variant: a
// SwitchAgent wraps a switch and speaks the channel protocol; a
// ControllerEndpoint accepts agent connections, tracks the connected
// datapaths, pushes flow-mods, and receives packet-ins.
//
// Message flow:
//   agent -> controller : Hello{dpid}
//   controller -> agent : FlowMod{add|remove, FlowEntry}
//   agent -> controller : PacketIn{packet, in_port}   (pumped explicitly)
//   agent -> controller : EchoReply  (in response to EchoRequest)
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>

#include "dataplane/switch.h"
#include "net/stream.h"

namespace vnfsgx::dataplane {

enum class SbType : std::uint8_t {
  kHello = 1,
  kFlowModAdd = 2,
  kFlowModRemove = 3,
  kPacketIn = 4,
  kEchoRequest = 5,
  kEchoReply = 6,
};

/// Serialized forms (TLV bodies; see docs/PROTOCOL.md).
Bytes encode_hello(std::uint64_t dpid);
Bytes encode_flow_mod(SbType type, const FlowEntry& entry);
Bytes encode_packet_in(const Packet& packet, std::uint16_t in_port);
Bytes encode_echo(SbType type, std::uint64_t token);

struct SbMessage {
  SbType type;
  std::uint64_t dpid = 0;        // kHello
  FlowEntry flow;                // kFlowMod*
  Packet packet;                 // kPacketIn
  std::uint16_t in_port = 0;     // kPacketIn
  std::uint64_t token = 0;       // kEcho*
};

SbMessage decode_sb(ByteView frame);

/// Switch-side endpoint: owns the connection to the controller.
class SwitchAgent {
 public:
  /// Sends Hello{dpid} immediately. The agent borrows the switch; the
  /// caller keeps ownership and must outlive the agent.
  SwitchAgent(Switch& sw, net::StreamPtr channel);

  /// Forward all queued packet-ins to the controller.
  void pump_packet_ins();

  /// Process one controller message (blocking). Returns false on EOF.
  /// FlowMods are applied to the switch; echo requests are answered.
  bool serve_one();

  /// Serve until the controller disconnects.
  void serve() {
    while (serve_one()) {
    }
  }

  Switch& device() { return switch_; }

 private:
  Switch& switch_;
  net::StreamPtr channel_;
};

/// Controller-side endpoint: one instance per controller, one connection
/// handler call per agent.
class ControllerEndpoint {
 public:
  using PacketInHandler =
      std::function<void(std::uint64_t dpid, const PacketIn&)>;

  explicit ControllerEndpoint(PacketInHandler on_packet_in = nullptr)
      : on_packet_in_(std::move(on_packet_in)) {}

  /// Serve one agent connection until EOF (call from a per-connection
  /// thread). Registers the datapath on Hello, unregisters on disconnect.
  void serve(net::StreamPtr channel);

  /// Push a flow to a connected datapath. Returns false if unknown.
  bool add_flow(std::uint64_t dpid, const FlowEntry& entry);
  bool remove_flow(std::uint64_t dpid, const std::string& name);

  /// Liveness probe: sends EchoRequest; the reply is consumed by the
  /// serve loop (fire-and-forget here).
  bool ping(std::uint64_t dpid, std::uint64_t token);

  std::vector<std::uint64_t> connected_dpids() const;
  /// Packet-ins handled so far. A packet-in is counted only after its
  /// callback has returned, so a reader that sees a count of N also sees
  /// every effect of the first N callbacks.
  std::uint64_t packet_ins_received() const { return packet_ins_; }

 private:
  bool send_to(std::uint64_t dpid, const Bytes& frame);

  mutable std::mutex mutex_;
  std::map<std::uint64_t, net::Stream*> datapaths_;
  PacketInHandler on_packet_in_;
  std::atomic<std::uint64_t> packet_ins_{0};
};

}  // namespace vnfsgx::dataplane
