// Flat flow table of the in-enclave IDS: per-5-tuple packet and byte
// counters plus the sticky-drop verdict cache, in one open-addressed array
// with linear probing.
//
// Flows are keyed by the FNV-1a hash of the packed 5-tuple, the same hash
// the enclave uses to pick a flow shard. The shard takes the hash's low
// bits, so a table picks its home slot from the high bits. The table
// doubles before an insert would take it past half load, which keeps
// probe runs short; clear() gives the memory back. Not thread-safe: the
// enclave guards each shard's table with the shard mutex.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace vnfsgx::vnf {

class FlowTable {
 public:
  /// A 5-tuple: both addresses in one word, both ports and the protocol in
  /// the other.
  struct Key {
    std::uint64_t ips = 0;
    std::uint64_t ports_proto = 0;
    bool operator==(const Key&) const = default;
  };

  /// Rule index stored in Flow::poison_rule while the flow is not poisoned.
  static constexpr std::uint32_t kNotPoisoned =
      std::numeric_limits<std::uint32_t>::max();

  struct Flow {
    std::uint64_t packets = 0;  // 0 marks an empty slot
    std::uint64_t bytes = 0;
    Key key;
    // Verdict cache: the drop rule that poisoned the flow, as an index
    // into the installed rule table. A drop verdict is sticky for the
    // flow's lifetime; clean verdicts are never cached, since a
    // signature may start matching mid-flow.
    std::uint32_t poison_rule = kNotPoisoned;
  };

  static Key make_key(std::uint32_t src_ip, std::uint32_t dst_ip,
                      std::uint16_t src_port, std::uint16_t dst_port,
                      std::uint8_t proto) {
    return Key{std::uint64_t{src_ip} << 32 | dst_ip,
               std::uint64_t{src_port} << 24 | std::uint64_t{dst_port} << 8 |
                   proto};
  }

  /// FNV-1a over the packed tuple, big-endian: src_ip | dst_ip | src_port |
  /// dst_port | proto (13 bytes).
  static std::uint64_t hash(const Key& key) {
    std::uint64_t h = 1469598103934665603ULL;
    for (int shift = 56; shift >= 0; shift -= 8) {
      h = (h ^ ((key.ips >> shift) & 0xff)) * 1099511628211ULL;
    }
    for (int shift = 32; shift >= 0; shift -= 8) {
      h = (h ^ ((key.ports_proto >> shift) & 0xff)) * 1099511628211ULL;
    }
    return h;
  }

  FlowTable() { clear(); }

  /// Counts one packet of `bytes` payload bytes against the flow, adding
  /// the flow if it is new. `h` must be hash(key). The reference is valid
  /// until the next touch() or clear().
  Flow& touch(const Key& key, std::uint64_t h, std::size_t bytes) {
    std::size_t i = home(h);
    while (slots_[i].packets != 0 && !(slots_[i].key == key)) {
      i = (i + 1) & mask_;
    }
    if (slots_[i].packets == 0) {
      if ((size_ + 1) * 2 > slots_.size()) {
        grow();
        i = home(h);
        while (slots_[i].packets != 0) i = (i + 1) & mask_;
      }
      slots_[i].key = key;
      ++size_;
    }
    Flow& flow = slots_[i];
    ++flow.packets;
    flow.bytes += bytes;
    return flow;
  }

  /// The flow, or nullptr when it is not in the table.
  Flow* find(const Key& key, std::uint64_t h) {
    for (std::size_t i = home(h); slots_[i].packets != 0;
         i = (i + 1) & mask_) {
      if (slots_[i].key == key) return &slots_[i];
    }
    return nullptr;
  }

  /// Distinct flows in the table.
  std::size_t size() const { return size_; }
  /// Slots allocated (a power of two, at least twice size()).
  std::size_t capacity() const { return slots_.size(); }

  /// Drops every flow and shrinks back to the initial capacity.
  void clear() {
    std::vector<Flow>(kInitialCapacity).swap(slots_);
    size_ = 0;
    set_shift();
  }

 private:
  static constexpr std::size_t kInitialCapacity = 64;

  std::size_t home(std::uint64_t h) const {
    return static_cast<std::size_t>(h >> shift_);
  }

  void set_shift() {
    mask_ = slots_.size() - 1;
    shift_ = 64;
    for (std::size_t n = slots_.size(); n > 1; n >>= 1) --shift_;
  }

  void grow() {
    std::vector<Flow> old(slots_.size() * 2);
    old.swap(slots_);
    set_shift();
    for (const Flow& flow : old) {
      if (flow.packets == 0) continue;
      std::size_t i = home(hash(flow.key));
      while (slots_[i].packets != 0) i = (i + 1) & mask_;
      slots_[i] = flow;
    }
  }

  std::vector<Flow> slots_;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
  int shift_ = 64;
};

}  // namespace vnfsgx::vnf
