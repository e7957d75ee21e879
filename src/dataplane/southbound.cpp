#include "dataplane/southbound.h"

#include "common/logging.h"
#include "net/framing.h"
#include "pki/tlv.h"

namespace vnfsgx::dataplane {

namespace {

enum : std::uint8_t {
  kTagDpid = 0x01,
  kTagName = 0x02,
  kTagPriority = 0x03,
  kTagSrcMac = 0x04,
  kTagDstMac = 0x05,
  kTagSrcIp = 0x06,
  kTagDstIp = 0x07,
  kTagSrcPort = 0x08,
  kTagDstPort = 0x09,
  kTagProto = 0x0a,
  kTagInPort = 0x0b,
  kTagActionType = 0x0c,
  kTagOutPort = 0x0d,
  kTagPayload = 0x0e,
  kTagToken = 0x0f,
  kTagPktSrcMac = 0x10,
  kTagPktDstMac = 0x11,
  kTagPktSrcIp = 0x12,
  kTagPktDstIp = 0x13,
  kTagPktSrcPort = 0x14,
  kTagPktDstPort = 0x15,
  kTagPktProto = 0x16,
};

Bytes with_type(SbType type, Bytes body) {
  Bytes out;
  out.reserve(body.size() + 1);
  append_u8(out, static_cast<std::uint8_t>(type));
  append(out, body);
  return out;
}

void encode_match(pki::TlvWriter& w, const Match& match) {
  if (match.src_mac) w.add_u64(kTagSrcMac, *match.src_mac);
  if (match.dst_mac) w.add_u64(kTagDstMac, *match.dst_mac);
  if (match.src_ip) w.add_u32(kTagSrcIp, *match.src_ip);
  if (match.dst_ip) w.add_u32(kTagDstIp, *match.dst_ip);
  if (match.src_port) w.add_u32(kTagSrcPort, *match.src_port);
  if (match.dst_port) w.add_u32(kTagDstPort, *match.dst_port);
  if (match.proto) {
    w.add_u8(kTagProto, static_cast<std::uint8_t>(*match.proto));
  }
  if (match.in_port) w.add_u32(kTagInPort, *match.in_port);
}

void encode_packet(pki::TlvWriter& w, const Packet& p) {
  w.add_u64(kTagPktSrcMac, p.src_mac);
  w.add_u64(kTagPktDstMac, p.dst_mac);
  w.add_u32(kTagPktSrcIp, p.src_ip);
  w.add_u32(kTagPktDstIp, p.dst_ip);
  w.add_u32(kTagPktSrcPort, p.src_port);
  w.add_u32(kTagPktDstPort, p.dst_port);
  w.add_u8(kTagPktProto, static_cast<std::uint8_t>(p.proto));
  w.add_bytes(kTagPayload, p.payload);
}

}  // namespace

Bytes encode_hello(std::uint64_t dpid) {
  pki::TlvWriter w;
  w.add_u64(kTagDpid, dpid);
  return with_type(SbType::kHello, w.take());
}

Bytes encode_flow_mod(SbType type, const FlowEntry& entry) {
  pki::TlvWriter w;
  w.add_string(kTagName, entry.name);
  w.add_u32(kTagPriority, static_cast<std::uint32_t>(entry.priority));
  encode_match(w, entry.match);
  w.add_u8(kTagActionType, static_cast<std::uint8_t>(entry.action.type));
  w.add_u32(kTagOutPort, entry.action.out_port);
  return with_type(type, w.take());
}

Bytes encode_packet_in(const Packet& packet, std::uint16_t in_port) {
  pki::TlvWriter w;
  w.add_u32(kTagInPort, in_port);
  encode_packet(w, packet);
  return with_type(SbType::kPacketIn, w.take());
}

Bytes encode_echo(SbType type, std::uint64_t token) {
  pki::TlvWriter w;
  w.add_u64(kTagToken, token);
  return with_type(type, w.take());
}

SbMessage decode_sb(ByteView frame) {
  if (frame.empty()) throw ParseError("southbound: empty frame");
  SbMessage msg;
  msg.type = static_cast<SbType>(frame[0]);
  pki::TlvReader r(frame.subspan(1));
  switch (msg.type) {
    case SbType::kHello:
      msg.dpid = r.expect_u64(kTagDpid);
      break;
    case SbType::kFlowModAdd:
    case SbType::kFlowModRemove: {
      msg.flow.name = r.expect_string(kTagName);
      msg.flow.priority = static_cast<int>(r.expect_u32(kTagPriority));
      while (!r.done()) {
        switch (r.peek_tag()) {
          case kTagSrcMac:
            msg.flow.match.src_mac = r.expect_u64(kTagSrcMac);
            break;
          case kTagDstMac:
            msg.flow.match.dst_mac = r.expect_u64(kTagDstMac);
            break;
          case kTagSrcIp:
            msg.flow.match.src_ip = r.expect_u32(kTagSrcIp);
            break;
          case kTagDstIp:
            msg.flow.match.dst_ip = r.expect_u32(kTagDstIp);
            break;
          case kTagSrcPort:
            msg.flow.match.src_port =
                static_cast<std::uint16_t>(r.expect_u32(kTagSrcPort));
            break;
          case kTagDstPort:
            msg.flow.match.dst_port =
                static_cast<std::uint16_t>(r.expect_u32(kTagDstPort));
            break;
          case kTagProto:
            msg.flow.match.proto = static_cast<IpProto>(r.expect_u8(kTagProto));
            break;
          case kTagInPort:
            msg.flow.match.in_port =
                static_cast<std::uint16_t>(r.expect_u32(kTagInPort));
            break;
          case kTagActionType:
            msg.flow.action.type =
                static_cast<ActionType>(r.expect_u8(kTagActionType));
            break;
          case kTagOutPort:
            msg.flow.action.out_port =
                static_cast<std::uint16_t>(r.expect_u32(kTagOutPort));
            break;
          default:
            throw ParseError("southbound: unknown flow-mod field");
        }
      }
      break;
    }
    case SbType::kPacketIn: {
      msg.in_port = static_cast<std::uint16_t>(r.expect_u32(kTagInPort));
      msg.packet.src_mac = r.expect_u64(kTagPktSrcMac);
      msg.packet.dst_mac = r.expect_u64(kTagPktDstMac);
      msg.packet.src_ip = r.expect_u32(kTagPktSrcIp);
      msg.packet.dst_ip = r.expect_u32(kTagPktDstIp);
      msg.packet.src_port = static_cast<std::uint16_t>(r.expect_u32(kTagPktSrcPort));
      msg.packet.dst_port = static_cast<std::uint16_t>(r.expect_u32(kTagPktDstPort));
      msg.packet.proto = static_cast<IpProto>(r.expect_u8(kTagPktProto));
      msg.packet.payload = r.expect_bytes(kTagPayload);
      break;
    }
    case SbType::kEchoRequest:
    case SbType::kEchoReply:
      msg.token = r.expect_u64(kTagToken);
      break;
    default:
      throw ParseError("southbound: unknown message type");
  }
  return msg;
}

// ---------------------------------------------------------------------------
// SwitchAgent
// ---------------------------------------------------------------------------

SwitchAgent::SwitchAgent(Switch& sw, net::StreamPtr channel)
    : switch_(sw), channel_(std::move(channel)) {
  net::write_frame(*channel_, encode_hello(switch_.dpid()));
}

void SwitchAgent::pump_packet_ins() {
  while (auto packet_in = switch_.pop_packet_in()) {
    net::write_frame(*channel_,
                     encode_packet_in(packet_in->packet, packet_in->in_port));
  }
}

bool SwitchAgent::serve_one() {
  Bytes frame;
  try {
    frame = net::read_frame(*channel_);
  } catch (const IoError&) {
    return false;
  }
  const SbMessage msg = decode_sb(frame);
  switch (msg.type) {
    case SbType::kFlowModAdd:
      switch_.add_flow(msg.flow);
      break;
    case SbType::kFlowModRemove:
      switch_.remove_flow(msg.flow.name);
      break;
    case SbType::kEchoRequest:
      net::write_frame(*channel_, encode_echo(SbType::kEchoReply, msg.token));
      break;
    default:
      throw ProtocolError("switch agent: unexpected message");
  }
  return true;
}

// ---------------------------------------------------------------------------
// ControllerEndpoint
// ---------------------------------------------------------------------------

void ControllerEndpoint::serve(net::StreamPtr channel) {
  // First frame must be Hello.
  std::uint64_t dpid = 0;
  try {
    const SbMessage hello = decode_sb(net::read_frame(*channel));
    if (hello.type != SbType::kHello) {
      throw ProtocolError("southbound: expected Hello");
    }
    dpid = hello.dpid;
  } catch (const Error& e) {
    VNFSGX_LOG_WARN("southbound", "agent rejected: ", e.what());
    return;
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    datapaths_[dpid] = channel.get();
  }
  VNFSGX_LOG_INFO("southbound", "datapath connected: ", dpid);

  try {
    while (true) {
      Bytes frame;
      try {
        frame = net::read_frame(*channel);
      } catch (const IoError&) {
        break;
      }
      const SbMessage msg = decode_sb(frame);
      switch (msg.type) {
        case SbType::kPacketIn:
          if (on_packet_in_) {
            on_packet_in_(dpid, PacketIn{msg.packet, msg.in_port});
          }
          ++packet_ins_;
          break;
        case SbType::kEchoReply:
          break;  // liveness bookkeeping only
        default:
          throw ProtocolError("southbound: unexpected agent message");
      }
    }
  } catch (const Error& e) {
    VNFSGX_LOG_WARN("southbound", "datapath ", dpid, " error: ", e.what());
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  datapaths_.erase(dpid);
}

bool ControllerEndpoint::send_to(std::uint64_t dpid, const Bytes& frame) {
  net::Stream* channel = nullptr;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = datapaths_.find(dpid);
    if (it == datapaths_.end()) return false;
    channel = it->second;
  }
  try {
    net::write_frame(*channel, frame);
    return true;
  } catch (const IoError&) {
    return false;
  }
}

bool ControllerEndpoint::add_flow(std::uint64_t dpid, const FlowEntry& entry) {
  return send_to(dpid, encode_flow_mod(SbType::kFlowModAdd, entry));
}

bool ControllerEndpoint::remove_flow(std::uint64_t dpid,
                                     const std::string& name) {
  FlowEntry entry;
  entry.name = name;
  return send_to(dpid, encode_flow_mod(SbType::kFlowModRemove, entry));
}

bool ControllerEndpoint::ping(std::uint64_t dpid, std::uint64_t token) {
  return send_to(dpid, encode_echo(SbType::kEchoRequest, token));
}

std::vector<std::uint64_t> ControllerEndpoint::connected_dpids() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::uint64_t> out;
  out.reserve(datapaths_.size());
  for (const auto& [dpid, stream] : datapaths_) out.push_back(dpid);
  return out;
}

}  // namespace vnfsgx::dataplane
