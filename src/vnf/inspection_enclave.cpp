#include "vnf/inspection_enclave.h"

#include <array>
#include <atomic>
#include <chrono>
#include <mutex>
#include <shared_mutex>
#include <utility>

#include "obs/metrics.h"
#include "pki/tlv.h"
#include "vnf/flow_table.h"

namespace vnfsgx::vnf {

namespace {

// kOpFlowStats reply tags.
enum : std::uint8_t {
  kTagFlows = 0x0b,
  kTagInspected = 0x0c,
  kTagDropped = 0x0d,
  kTagAlerted = 0x0e,
  kTagCacheHits = 0x0f,
};

constexpr std::uint8_t kVerdictForward = 0;
constexpr std::uint8_t kVerdictDrop = 1;
constexpr std::uint8_t kVerdictAlert = 2;

Bytes inspection_enclave_code() {
  return to_bytes(
      "vnfsgx inspection enclave v1.1\n"
      "role: in-enclave signature-match IDS\n"
      "guarantee: rules, flow table, and verdict cache never leave\n");
}

const char* mode_label(InspectionClient::Mode mode) {
  return mode == InspectionClient::Mode::kSync ? "sync" : "switchless";
}

obs::Histogram& inspection_latency() {
  return obs::registry().histogram(
      "vnfsgx_inspection_latency_us", {{"mode", "sync"}},
      obs::Histogram::latency_bounds_us(),
      "Single-frame enclave inspection latency in microseconds, one sample "
      "per sync ECALL");
}

obs::Histogram& inspection_burst(InspectionClient::Mode mode) {
  return obs::registry().histogram(
      "vnfsgx_inspection_burst_us", {{"mode", mode_label(mode)}},
      obs::Histogram::latency_bounds_us(),
      "Whole-burst enclave inspection latency in microseconds");
}

double elapsed_us(std::chrono::steady_clock::time_point start) {
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(
                 std::chrono::steady_clock::now() - start)
                 .count()) /
         1000.0;
}

// The trusted logic is shared by every worker a RingGroup runs, so all
// state is guarded: the rule table behind a reader/writer lock (installs
// are rare, matches constant), the flow table sharded by key hash so
// same-shard contention is the only serialization on the hot path, and
// the counters plain relaxed atomics, added once per slot.
class InspectionEnclaveLogic final : public sgx::TrustedLogic {
 public:
  Bytes handle_call(std::uint32_t opcode, ByteView input,
                    sgx::EnclaveServices& services) override {
    switch (static_cast<InspectionOp>(opcode)) {
      case kOpLoadRules:
        return load_rules(input);
      case kOpSealRules:
        return seal_rules(services);
      case kOpRestoreRules:
        return restore_rules(input, services);
      case kOpFlowStats:
        return flow_stats();
      case kOpResetFlows:
        clear_flows();
        return {};
      case kOpInspectFrame: {
        // Sync path: frames of any size; a slot's verdicts always fit.
        Bytes out(sgx::kMaxHostCallPayload);
        out.resize(inspect_slot(input, out));
        return out;
      }
    }
    throw Error("inspection enclave: unknown opcode " + std::to_string(opcode));
  }

  std::optional<std::size_t> handle_call_into(
      std::uint32_t opcode, ByteView input, std::span<std::uint8_t> out,
      sgx::EnclaveServices& services) override {
    (void)services;
    // Only the frame hot path gets the allocation-free treatment; control
    // opcodes are rare and fall back to handle_call.
    if (static_cast<InspectionOp>(opcode) != kOpInspectFrame) {
      return std::nullopt;
    }
    return inspect_slot(input, out);
  }

 private:
  static constexpr std::size_t kFlowShards = 8;
  struct FlowShard {
    std::mutex mutex;
    FlowTable table;  // guarded by mutex
  };

  /// Counter deltas of one slot, added to the shared atomics once.
  struct Tally {
    std::uint64_t dropped = 0;
    std::uint64_t alerted = 0;
    std::uint64_t cache_hits = 0;
  };

  /// One validated descriptor; the payload views the copied-in slot.
  struct Frame {
    wire::FrameDescriptor header;
    ByteView payload;
  };

  Bytes load_rules(ByteView input) {
    install(RuleSet::decode(input));
    return {};
  }

  Bytes seal_rules(sgx::EnclaveServices& services) {
    std::shared_lock<std::shared_mutex> lk(rules_mutex_);
    return services.seal(sgx::SealPolicy::kMrEnclave, rules_.encode(),
                        to_bytes("inspection-rules"));
  }

  Bytes restore_rules(ByteView input, sgx::EnclaveServices& services) {
    const auto plain = services.unseal(input, to_bytes("inspection-rules"));
    if (!plain) {
      throw SecurityViolation("inspection enclave: sealed rules rejected");
    }
    install(RuleSet::decode(*plain));
    return {};
  }

  void install(RuleSet rules) {
    if (rules.empty()) {
      throw Error("inspection enclave: refusing to install empty rule set");
    }
    auto matcher = std::make_unique<RuleMatcher>(rules);
    std::unique_lock<std::shared_mutex> lk(rules_mutex_);
    matcher_ = std::move(matcher);
    rules_ = std::move(rules);
    // Cached verdicts are stale under new rules, and a poisoned flow names
    // its rule by index: clear the flows before any reader sees the table.
    clear_flows();
  }

  void clear_flows() {
    for (FlowShard& shard : shards_) {
      std::lock_guard<std::mutex> lk(shard.mutex);
      shard.table.clear();
    }
  }

  /// The slot handler. Every descriptor is decoded and bounds-checked
  /// before any frame is judged, so a malformed slot throws with no flow
  /// touched. Then, under one rules reader lock, each frame's verdict is
  /// written to `out` in order. At most kMaxFramesPerSlot frames are
  /// accepted, so the verdicts always fit a ring slot's result region.
  std::size_t inspect_slot(ByteView input, std::span<std::uint8_t> out) {
    std::array<Frame, kMaxFramesPerSlot> frames;
    std::size_t count = 0;
    do {
      if (count == kMaxFramesPerSlot) {
        throw Error("inspection enclave: more than " +
                    std::to_string(kMaxFramesPerSlot) + " frames in a slot");
      }
      Frame& frame = frames[count++];
      frame.payload = wire::decode_frame(input, &frame.header);
      input = input.subspan(wire::kFrameHeaderSize + frame.payload.size());
    } while (!input.empty());
    if (count * (wire::kVerdictHeaderSize + kMaxRuleNameBytes) > out.size()) {
      throw Error("inspection enclave: verdicts would not fit the result");
    }

    std::shared_lock<std::shared_mutex> rules_lk(rules_mutex_);
    if (!matcher_) {
      throw Error("inspection enclave: no rules loaded");
    }
    Tally tally;
    std::size_t used = 0;
    for (std::size_t i = 0; i < count; ++i) {
      used += judge(frames[i], out.subspan(used), tally);
    }
    inspected_.fetch_add(count, std::memory_order_relaxed);
    dropped_.fetch_add(tally.dropped, std::memory_order_relaxed);
    alerted_.fetch_add(tally.alerted, std::memory_order_relaxed);
    cache_hits_.fetch_add(tally.cache_hits, std::memory_order_relaxed);
    return used;
  }

  /// One frame's verdict, written to `out`; the caller holds the rules
  /// reader lock. Flow accounting and the sticky-drop cache run under the
  /// flow shard's lock; the matcher scan runs without it, so concurrent
  /// workers scan in parallel.
  std::size_t judge(const Frame& frame, std::span<std::uint8_t> out,
                    Tally& tally) {
    const wire::FrameDescriptor& h = frame.header;
    const FlowTable::Key key = FlowTable::make_key(
        h.src_ip, h.dst_ip, h.src_port, h.dst_port, h.proto);
    const std::uint64_t hash = FlowTable::hash(key);
    FlowShard& shard = shards_[hash % kFlowShards];
    {
      std::lock_guard<std::mutex> lk(shard.mutex);
      const FlowTable::Flow& flow =
          shard.table.touch(key, hash, frame.payload.size());
      if (flow.poison_rule != FlowTable::kNotPoisoned) {
        // Poisoned by an earlier packet: serve the sticky drop from cache.
        ++tally.cache_hits;
        ++tally.dropped;
        return wire::encode_verdict(kVerdictDrop, true,
                                    rules_.rules()[flow.poison_rule].name, out);
      }
    }
    const auto hit = matcher_->match(frame.payload, h.dst_port, h.proto);
    if (!hit) return wire::encode_verdict(kVerdictForward, false, {}, out);
    const InspectionRule& rule = rules_.rules()[*hit];
    if (rule.action == RuleAction::kDrop) {
      ++tally.dropped;
      {
        std::lock_guard<std::mutex> lk(shard.mutex);
        // Re-find: a concurrent reset may have pruned the flow while the
        // matcher ran; poisoning a fresh entry would resurrect it.
        if (FlowTable::Flow* flow = shard.table.find(key, hash)) {
          flow->poison_rule = static_cast<std::uint32_t>(*hit);
        }
      }
      return wire::encode_verdict(kVerdictDrop, false, rule.name, out);
    }
    ++tally.alerted;
    return wire::encode_verdict(kVerdictAlert, false, rule.name, out);
  }

  Bytes flow_stats() {
    std::uint64_t flow_count = 0;
    for (FlowShard& shard : shards_) {
      std::lock_guard<std::mutex> lk(shard.mutex);
      flow_count += shard.table.size();
    }
    pki::TlvWriter w;
    w.add_u64(kTagFlows, flow_count);
    w.add_u64(kTagInspected, inspected_.load(std::memory_order_relaxed));
    w.add_u64(kTagDropped, dropped_.load(std::memory_order_relaxed));
    w.add_u64(kTagAlerted, alerted_.load(std::memory_order_relaxed));
    w.add_u64(kTagCacheHits, cache_hits_.load(std::memory_order_relaxed));
    return w.take();
  }

  // Guards rules_/matcher_ (shared: inspect/seal, exclusive: install).
  std::shared_mutex rules_mutex_;
  RuleSet rules_;
  std::unique_ptr<RuleMatcher> matcher_;
  std::array<FlowShard, kFlowShards> shards_;
  std::atomic<std::uint64_t> inspected_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> alerted_{0};
  std::atomic<std::uint64_t> cache_hits_{0};
};

}  // namespace

sgx::EnclaveImage inspection_enclave_image() {
  sgx::EnclaveImage image;
  image.name = "inspection-enclave";
  image.code = inspection_enclave_code();
  image.attributes = 0;
  image.factory = [] { return std::make_unique<InspectionEnclaveLogic>(); };
  return image;
}

sgx::Measurement inspection_enclave_measurement() {
  return sgx::measure_image(inspection_enclave_code(), 0);
}

// ---------------------------------------------------------------------------
// InspectionClient (untrusted side)
// ---------------------------------------------------------------------------

namespace {

/// Decodes the verdicts of one slot, in order, into `outcomes` at
/// `positions`. The reply must hold exactly positions.size() verdicts:
/// a short or over-long reply throws ParseError.
void decode_slot_verdicts(ByteView reply,
                          std::span<const std::uint32_t> positions,
                          std::span<dataplane::InspectionOutcome> outcomes) {
  for (const std::uint32_t position : positions) {
    wire::FrameVerdict header;
    const ByteView rule = wire::decode_verdict(reply, &header);
    reply = reply.subspan(wire::kVerdictHeaderSize + rule.size());
    dataplane::InspectionOutcome& outcome = outcomes[position];
    switch (header.verdict) {
      case kVerdictForward:
        outcome.verdict = dataplane::InspectVerdict::kForward;
        break;
      case kVerdictDrop:
        outcome.verdict = dataplane::InspectVerdict::kDrop;
        break;
      case kVerdictAlert:
        outcome.verdict = dataplane::InspectVerdict::kAlert;
        break;
      default:
        throw ParseError("inspection: bad verdict byte");
    }
    outcome.rule.assign(rule.begin(), rule.end());
  }
  if (!reply.empty()) {
    throw ParseError("inspection: bytes after the last verdict");
  }
}

dataplane::InspectionOutcome decode_one_verdict(ByteView reply) {
  dataplane::InspectionOutcome outcome;
  const std::uint32_t position = 0;
  decode_slot_verdicts(reply, std::span(&position, 1), std::span(&outcome, 1));
  return outcome;
}

wire::FrameDescriptor make_descriptor(const dataplane::Packet& packet,
                                      std::uint16_t in_port) {
  wire::FrameDescriptor d;
  d.src_ip = packet.src_ip;
  d.dst_ip = packet.dst_ip;
  d.src_port = packet.src_port;
  d.dst_port = packet.dst_port;
  d.in_port = in_port;
  d.proto = static_cast<std::uint8_t>(packet.proto);
  return d;
}

}  // namespace

InspectionClient::InspectionClient(std::shared_ptr<sgx::Enclave> enclave,
                                   Mode mode)
    : InspectionClient(std::move(enclave), Options{.mode = mode}) {}

InspectionClient::InspectionClient(std::shared_ptr<sgx::Enclave> enclave,
                                   Options options)
    : enclave_(std::move(enclave)),
      options_(options),
      frame_latency_(options.mode == Mode::kSync ? &inspection_latency()
                                                 : nullptr),
      burst_latency_(&inspection_burst(options.mode)) {
  if (!enclave_) throw Error("inspection client: null enclave");
  if (options_.mode == Mode::kSwitchless) {
    sgx::RingGroupOptions group_options;
    group_options.rings = std::max<std::size_t>(options_.rings, 1);
    group_options.ring_capacity = options_.ring_capacity;
    group_options.name = "inspection";
    group_ = std::make_unique<sgx::RingGroup>(enclave_, group_options);
  }
}

InspectionClient::~InspectionClient() = default;

// Control opcodes take a classic ECALL in both modes: a rule table or its
// sealed blob can be larger than a ring slot.
void InspectionClient::load_rules(const RuleSet& rules) {
  enclave_->call(kOpLoadRules, rules.encode());
}

Bytes InspectionClient::seal_rules() {
  return enclave_->call(kOpSealRules, {});
}

void InspectionClient::restore_rules(ByteView sealed) {
  enclave_->call(kOpRestoreRules, sealed);
}

std::size_t InspectionClient::ring_for(const dataplane::Packet& packet) const {
  // Flow steering, as NIC RSS does it: every frame of one 5-tuple hashes to
  // one ring, so a single resident worker judges the flow's frames in the
  // order they were submitted.
  const std::size_t rings = group_->rings();
  if (rings == 1) return 0;
  std::uint64_t h = (std::uint64_t{packet.src_ip} << 32 | packet.dst_ip) ^
                    (std::uint64_t{packet.src_port} << 24 |
                     std::uint64_t{packet.dst_port} << 8 |
                     static_cast<std::uint8_t>(packet.proto)) *
                        0x9e3779b97f4a7c15ULL;
  // splitmix64 finalizer: every input bit reaches the high word.
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return static_cast<std::size_t>(h % rings);
}

std::vector<dataplane::InspectionOutcome>
InspectionClient::inspect_burst_switchless(
    std::span<const dataplane::Packet* const> packets,
    std::uint16_t in_port) {
  // Each frame goes to its flow's ring, where it is appended to that ring's
  // open slot; a slot is published when the next frame would overflow it
  // (bytes or kMaxFramesPerSlot), and the rest at the end. One flow's
  // frames therefore sit in burst order within a ring's slots, and the
  // ring's worker runs those slots in publication order. Resident workers
  // drain different rings in parallel, with at most half a ring's capacity
  // of slots outstanding per ring — never more than a ring can hold, which
  // would deadlock against our own uncollected results. Slots are
  // collected FIFO and their verdicts land at their frames' positions.
  // Error path: every published slot is waited on even after a failure —
  // an uncollected ticket would pin its slot forever and leak ring
  // capacity into permanent backpressure — and every open slot is
  // abandoned. Once anything fails (an oversized frame, a rejected job, or
  // stop() racing the window) the burst stops submitting and decoding,
  // drains the in-flight slots, and rethrows: a stopped ring can therefore
  // never surface a stale or misaligned verdict.
  struct OpenSlot {
    bool claimed = false;
    sgx::RingGroup::SubmitHandle handle;
    std::size_t used = 0;
    std::size_t frames = 0;
    std::array<std::uint32_t, kMaxFramesPerSlot> positions{};
  };
  struct Published {
    sgx::RingGroup::Ticket ticket;
    std::size_t first = 0;  // index into `order`
    std::size_t frames = 0;
  };
  std::vector<dataplane::InspectionOutcome> outcomes(packets.size());
  const std::size_t window = std::max<std::size_t>(group_->capacity() / 2, 1);
  std::vector<OpenSlot> open(group_->rings());
  std::vector<std::size_t> inflight(group_->rings(), 0);
  std::vector<Published> published;
  published.reserve(packets.size());
  std::vector<std::uint32_t> order;  // frame positions, slot by slot
  order.reserve(packets.size());
  std::size_t collected = 0;
  std::exception_ptr first_error;
  std::array<std::uint8_t, sgx::kMaxHostCallPayload> result;
  auto collect_one = [&] {
    const Published& slot = published[collected++];
    --inflight[slot.ticket.ring];
    try {
      const std::size_t n = group_->wait_into(slot.ticket, result);
      if (!first_error) {
        decode_slot_verdicts(
            ByteView(result.data(), n),
            std::span(order).subspan(slot.first, slot.frames), outcomes);
      }
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  };
  auto publish = [&](OpenSlot& slot) {
    slot.claimed = false;  // publish() consumes the handle even if it throws
    group_->publish(slot.handle, slot.used);
    published.push_back({slot.handle.ticket, order.size(), slot.frames});
    order.insert(order.end(), slot.positions.begin(),
                 slot.positions.begin() + static_cast<long>(slot.frames));
    ++inflight[slot.handle.ticket.ring];
  };
  try {
    for (std::size_t i = 0; i < packets.size(); ++i) {
      const dataplane::Packet& packet = *packets[i];
      if (packet.payload.size() > kMaxInlineFramePayload) {
        throw Error("inspection: frame payload of " +
                    std::to_string(packet.payload.size()) +
                    " bytes exceeds inline descriptor capacity of " +
                    std::to_string(kMaxInlineFramePayload));
      }
      const std::size_t target = ring_for(packet);
      OpenSlot& slot = open[target];
      const std::size_t need = wire::kFrameHeaderSize + packet.payload.size();
      if (slot.claimed && (slot.frames == kMaxFramesPerSlot ||
                           need > sgx::kMaxHostCallPayload - slot.used)) {
        publish(slot);
      }
      if (!slot.claimed) {
        while (inflight[target] >= window && collected < published.size() &&
               !first_error) {
          collect_one();
        }
        if (first_error) break;
        slot.handle = group_->begin_submit_on(target, kOpInspectFrame);
        slot.claimed = true;
        slot.used = 0;
        slot.frames = 0;
      }
      slot.used += wire::encode_frame(make_descriptor(packet, in_port),
                                      packet.payload,
                                      slot.handle.payload.subspan(slot.used));
      slot.positions[slot.frames++] = static_cast<std::uint32_t>(i);
    }
    if (!first_error) {
      for (OpenSlot& slot : open) {
        if (slot.claimed) publish(slot);
      }
    }
  } catch (...) {
    if (!first_error) first_error = std::current_exception();
  }
  for (OpenSlot& slot : open) {
    if (slot.claimed) group_->abandon(slot.handle);
  }
  while (collected < published.size()) collect_one();
  if (first_error) std::rethrow_exception(first_error);
  return outcomes;
}

std::vector<dataplane::InspectionOutcome> InspectionClient::inspect_burst(
    std::span<const dataplane::Packet* const> packets,
    std::uint16_t in_port) {
  const auto start = std::chrono::steady_clock::now();
  std::vector<dataplane::InspectionOutcome> outcomes;
  if (group_) {
    outcomes = inspect_burst_switchless(packets, in_port);
  } else {
    // One ECALL per frame, each a real per-frame latency sample.
    outcomes.reserve(packets.size());
    for (const dataplane::Packet* packet : packets) {
      const auto frame_start = std::chrono::steady_clock::now();
      Bytes request(wire::kFrameHeaderSize + packet->payload.size());
      wire::encode_frame(make_descriptor(*packet, in_port), packet->payload,
                         request);
      outcomes.push_back(
          decode_one_verdict(enclave_->call(kOpInspectFrame, request)));
      frame_latency_->observe(elapsed_us(frame_start));
    }
  }
  if (!packets.empty()) burst_latency_->observe(elapsed_us(start));
  return outcomes;
}

InspectionStats InspectionClient::flow_stats() {
  const Bytes blob = enclave_->call(kOpFlowStats, {});
  pki::TlvReader r(blob);
  InspectionStats stats;
  stats.flows = r.expect_u64(kTagFlows);
  stats.inspected = r.expect_u64(kTagInspected);
  stats.dropped = r.expect_u64(kTagDropped);
  stats.alerted = r.expect_u64(kTagAlerted);
  stats.cache_hits = r.expect_u64(kTagCacheHits);
  return stats;
}

void InspectionClient::reset_flows() { enclave_->call(kOpResetFlows, {}); }

dataplane::BurstInspectorFn InspectionClient::as_burst_inspector() {
  return [this](std::span<const dataplane::Packet* const> packets,
                std::uint16_t in_port) {
    return inspect_burst(packets, in_port);
  };
}

}  // namespace vnfsgx::vnf
