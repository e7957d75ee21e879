// Tag-length-value binary encoding (a simplified DER).
//
// All PKI objects (certificates, CRLs) and SGX structures (reports, quotes)
// serialize through this: tag byte + u24 big-endian length + value.
// Nesting is by encoding a child writer's output as a value.
#pragma once

#include <cstdint>
#include <string>

#include "common/bytes.h"
#include "common/error.h"

namespace vnfsgx::pki {

class TlvWriter {
 public:
  /// Encoded size of one element carrying `value_size` value bytes.
  static constexpr std::size_t element_size(std::size_t value_size) {
    return 4 + value_size;
  }

  /// Pre-size the output (callers that know the exact size write it in
  /// one allocation).
  void reserve(std::size_t size) { out_.reserve(size); }

  /// Write only the tag/length header of an element whose `value_size`
  /// value bytes the caller appends next, e.g. nested elements encoded in
  /// place instead of through a child writer.
  void add_header(std::uint8_t tag, std::size_t value_size) {
    if (value_size > 0xffffff) throw Error("tlv: value too large");
    const std::uint8_t header[4] = {tag,
                                    static_cast<std::uint8_t>(value_size >> 16),
                                    static_cast<std::uint8_t>(value_size >> 8),
                                    static_cast<std::uint8_t>(value_size)};
    append(out_, ByteView(header, 4));
  }

  void add_bytes(std::uint8_t tag, ByteView value) {
    add_header(tag, value.size());
    append(out_, value);
  }

  void add_string(std::uint8_t tag, std::string_view value) {
    add_bytes(tag, ByteView(reinterpret_cast<const std::uint8_t*>(value.data()),
                            value.size()));
  }

  void add_u64(std::uint8_t tag, std::uint64_t value) {
    std::uint8_t b[8];
    for (int i = 0; i < 8; ++i) {
      b[i] = static_cast<std::uint8_t>(value >> (56 - 8 * i));
    }
    add_bytes(tag, ByteView(b, 8));
  }

  void add_u32(std::uint8_t tag, std::uint32_t value) {
    std::uint8_t b[4];
    for (int i = 0; i < 4; ++i) {
      b[i] = static_cast<std::uint8_t>(value >> (24 - 8 * i));
    }
    add_bytes(tag, ByteView(b, 4));
  }

  void add_u8(std::uint8_t tag, std::uint8_t value) {
    const std::uint8_t b[1] = {value};
    add_bytes(tag, ByteView(b, 1));
  }

  /// Append bytes that are already TLV-encoded (e.g. a cached run of
  /// elements) without re-wrapping them in a tag/length header.
  void append_encoded(ByteView encoded) { append(out_, encoded); }

  const Bytes& bytes() const { return out_; }
  Bytes take() { return std::move(out_); }

 private:
  Bytes out_;
};

class TlvReader {
 public:
  explicit TlvReader(ByteView data) : data_(data) {}

  bool done() const { return pos_ >= data_.size(); }

  /// Peek at the next tag without consuming.
  std::uint8_t peek_tag() const {
    if (done()) throw ParseError("tlv: truncated (no tag)");
    return data_[pos_];
  }

  /// Read the next element; throws ParseError if the tag mismatches.
  ByteView expect(std::uint8_t tag) {
    if (done()) throw ParseError("tlv: truncated (expected tag)");
    const std::uint8_t actual = data_[pos_];
    if (actual != tag) {
      throw ParseError("tlv: expected tag " + std::to_string(tag) + ", got " +
                       std::to_string(actual));
    }
    if (pos_ + 4 > data_.size()) throw ParseError("tlv: truncated header");
    const std::uint32_t len = read_u24(data_, pos_ + 1);
    if (pos_ + 4 + len > data_.size()) throw ParseError("tlv: truncated value");
    const ByteView value = data_.subspan(pos_ + 4, len);
    pos_ += 4 + len;
    return value;
  }

  Bytes expect_bytes(std::uint8_t tag) {
    const ByteView v = expect(tag);
    return Bytes(v.begin(), v.end());
  }

  std::string expect_string(std::uint8_t tag) {
    const ByteView v = expect(tag);
    // Fully qualified: nested-namespace to_string overloads (pki, ima, ...)
    // must not hide the byte-view conversion.
    return ::vnfsgx::to_string(v);
  }

  std::uint64_t expect_u64(std::uint8_t tag) {
    const ByteView v = expect(tag);
    if (v.size() != 8) throw ParseError("tlv: bad u64 length");
    return read_u64(v, 0);
  }

  std::uint32_t expect_u32(std::uint8_t tag) {
    const ByteView v = expect(tag);
    if (v.size() != 4) throw ParseError("tlv: bad u32 length");
    return read_u32(v, 0);
  }

  std::uint8_t expect_u8(std::uint8_t tag) {
    const ByteView v = expect(tag);
    if (v.size() != 1) throw ParseError("tlv: bad u8 length");
    return v[0];
  }

  /// Fixed-size array helper.
  template <std::size_t N>
  std::array<std::uint8_t, N> expect_array(std::uint8_t tag) {
    const ByteView v = expect(tag);
    if (v.size() != N) throw ParseError("tlv: bad fixed-size value");
    std::array<std::uint8_t, N> out;
    std::copy(v.begin(), v.end(), out.begin());
    return out;
  }

 private:
  ByteView data_;
  std::size_t pos_ = 0;
};

}  // namespace vnfsgx::pki
