// Length-prefixed message framing over a Stream.
//
// The attestation and provisioning protocols (Verification Manager <->
// enclaves, VM <-> IAS) exchange discrete messages; this frames them as
// u32-length || payload with a configurable size cap.
#pragma once

#include "net/stream.h"

namespace vnfsgx::net {

inline constexpr std::size_t kDefaultMaxFrame = 1u << 24;  // 16 MiB

/// Write one frame: header and payload in a single write, so the peer
/// sees one chunk (one readiness wake-up, one TLS record, one syscall).
inline void write_frame(Stream& stream, ByteView payload) {
  Bytes frame;
  frame.reserve(4 + payload.size());
  append_u32(frame, static_cast<std::uint32_t>(payload.size()));
  append(frame, payload);
  stream.write(frame);
}

/// Read one frame. Throws ParseError if the length exceeds `max_size`
/// and IoError on premature EOF.
inline Bytes read_frame(Stream& stream, std::size_t max_size = kDefaultMaxFrame) {
  std::uint8_t header[4];
  stream.read_exact(std::span<std::uint8_t>(header, 4));
  const std::uint32_t len = read_u32(ByteView(header, 4), 0);
  if (len > max_size) throw ParseError("frame too large");
  return stream.read_exact(len);
}

}  // namespace vnfsgx::net
