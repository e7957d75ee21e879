// Fixed-layout wire structs for the zero-copy inspection hot path.
//
// The switchless ring hands frames to the enclave as FrameDescriptors
// written directly into the ring slot's payload region: each a fixed POD
// header (5-tuple, ingress port, flags, inline payload length) followed by
// the frame bytes, packed back to back with no gap and nothing after the
// last one. No TLV framing, no intermediate serialization buffer — the
// untrusted side serializes exactly once, into shared memory, and the
// verdicts come back the same way: one FrameVerdict header plus matched
// rule name per descriptor, in descriptor order.
//
// Layout notes:
//   * Both structs are trivially copyable with no padding; offsets are
//     static_assert-pinned so the layout is part of the contract.
//   * Producer and consumer share one address space (the ring is process
//     shared memory), so fields are native-endian by design.
//   * The ring slot payload region is only byte-aligned: always memcpy
//     descriptors in and out, never reinterpret_cast (alignment UB).
//   * `frame_len` / `rule_len` deliberately do NOT reuse the ring slot's
//     field names: boundarycheck matches shared-struct fields by name, and
//     a collision would conflate the descriptor's wire rules with the
//     slot's stricter shared-memory rules.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>

#include "common/bytes.h"
#include "common/error.h"

namespace vnfsgx::vnf::wire {

/// Per-frame request header on the zero-copy inspection path.
///
/// boundary: wire — serialized across the enclave boundary through a ring
/// slot; length fields are untrusted inputs (boundarycheck B2) and the
/// struct must never carry secret material (B4). The consumer copies the
/// header into private memory before validating it.
struct FrameDescriptor {
  std::uint32_t src_ip = 0;
  std::uint32_t dst_ip = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint16_t in_port = 0;
  std::uint8_t proto = 0;
  std::uint8_t frame_flags = 0;
  /// Bytes of inline frame payload following the header.
  std::uint32_t frame_len = 0;
};

inline constexpr std::size_t kFrameHeaderSize = 20;
static_assert(std::is_trivially_copyable_v<FrameDescriptor>);
static_assert(sizeof(FrameDescriptor) == kFrameHeaderSize,
              "FrameDescriptor must stay packed: the layout is the wire "
              "contract");
static_assert(offsetof(FrameDescriptor, proto) == 14);
static_assert(offsetof(FrameDescriptor, frame_len) == 16);

/// Per-frame verdict header returned in the slot's result region, followed
/// by `rule_len` bytes of matched-rule name (empty for clean frames).
///
/// boundary: wire — enclave-written, host-consumed; rule_len is validated
/// host-side before it slices the trailing name bytes (B2).
struct FrameVerdict {
  std::uint8_t verdict = 0;  // numeric InspectVerdict
  std::uint8_t cached = 0;   // 1 when served from the flow verdict cache
  std::uint16_t rule_len = 0;
};

inline constexpr std::size_t kVerdictHeaderSize = 4;
static_assert(std::is_trivially_copyable_v<FrameVerdict>);
static_assert(sizeof(FrameVerdict) == kVerdictHeaderSize);

/// Serializes header + inline payload into `out` (a ring slot's payload
/// region). Sets frame_len from `payload`; returns total bytes written.
/// Throws Error when the frame does not fit — the caller owns slot cleanup.
inline std::size_t encode_frame(const FrameDescriptor& header,
                                ByteView payload,
                                std::span<std::uint8_t> out) {
  if (out.size() < kFrameHeaderSize ||
      payload.size() > out.size() - kFrameHeaderSize) {
    throw Error("inspection wire: frame of " + std::to_string(payload.size()) +
                " bytes exceeds descriptor capacity of " +
                std::to_string(out.size() < kFrameHeaderSize
                                   ? 0
                                   : out.size() - kFrameHeaderSize));
  }
  FrameDescriptor d = header;
  d.frame_len = static_cast<std::uint32_t>(payload.size());
  std::memcpy(out.data(), &d, kFrameHeaderSize);
  if (!payload.empty()) {
    std::memcpy(out.data() + kFrameHeaderSize, payload.data(), payload.size());
  }
  return kFrameHeaderSize + payload.size();
}

/// Copy-in-once decode: the header is memcpy'd out of `in` exactly once
/// and the inline length validated against what was actually received
/// before the payload view is formed. Returns the bounded payload view.
inline ByteView decode_frame(ByteView in, FrameDescriptor* header) {
  if (in.size() < kFrameHeaderSize) {
    throw Error("inspection wire: truncated frame descriptor");
  }
  std::memcpy(header, in.data(), kFrameHeaderSize);
  const std::size_t inline_len = header->frame_len;
  if (inline_len > in.size() - kFrameHeaderSize) {
    throw Error("inspection wire: frame_len exceeds received bytes");
  }
  return in.subspan(kFrameHeaderSize, inline_len);
}

/// Serializes a verdict + rule name into `out` (a worker scratch buffer or
/// ring result region). Returns total bytes written.
inline std::size_t encode_verdict(std::uint8_t verdict, bool cached,
                                  std::string_view rule,
                                  std::span<std::uint8_t> out) {
  if (out.size() < kVerdictHeaderSize ||
      rule.size() > out.size() - kVerdictHeaderSize ||
      rule.size() > 0xffff) {
    throw Error("inspection wire: verdict does not fit result buffer");
  }
  FrameVerdict v;
  v.verdict = verdict;
  v.cached = cached ? 1 : 0;
  v.rule_len = static_cast<std::uint16_t>(rule.size());
  std::memcpy(out.data(), &v, kVerdictHeaderSize);
  if (!rule.empty()) {
    std::memcpy(out.data() + kVerdictHeaderSize, rule.data(), rule.size());
  }
  return kVerdictHeaderSize + rule.size();
}

/// Copy-in-once decode of a verdict; returns the bounded rule-name view.
inline ByteView decode_verdict(ByteView in, FrameVerdict* header) {
  if (in.size() < kVerdictHeaderSize) {
    throw Error("inspection wire: truncated frame verdict");
  }
  std::memcpy(header, in.data(), kVerdictHeaderSize);
  const std::size_t name_len = header->rule_len;
  if (name_len > in.size() - kVerdictHeaderSize) {
    throw Error("inspection wire: rule_len exceeds received bytes");
  }
  return in.subspan(kVerdictHeaderSize, name_len);
}

}  // namespace vnfsgx::vnf::wire
