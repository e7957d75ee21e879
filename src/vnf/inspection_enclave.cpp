#include "vnf/inspection_enclave.h"

#include <array>
#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <shared_mutex>
#include <type_traits>
#include <utility>

#include "obs/metrics.h"
#include "pki/tlv.h"

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

obs::Histogram& inspection_latency(InspectionClient::Mode mode) {
  return obs::registry().histogram(
      "vnfsgx_inspection_latency_us", {{"mode", mode_label(mode)}},
      obs::Histogram::latency_bounds_us(),
      "Single-frame enclave inspection latency in microseconds");
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
// the counters plain relaxed atomics.
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
      case kOpInspectFrame:
        // Sync path: any frame size, verdict sized to the rule name.
        return inspect_frame(
            input, [](std::uint8_t verdict, bool cached, std::string_view rule) {
              Bytes out(wire::kVerdictHeaderSize + rule.size());
              wire::encode_verdict(verdict, cached, rule, out);
              return out;
            });
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
    return inspect_frame(
        input, [out](std::uint8_t verdict, bool cached, std::string_view rule) {
          return wire::encode_verdict(verdict, cached, rule, out);
        });
  }

 private:
  // Packed 5-tuple: src_ip | dst_ip | src_port | dst_port | proto.
  using FlowKey = std::array<std::uint8_t, 13>;

  struct FlowState {
    std::uint64_t packets = 0;
    std::uint64_t bytes = 0;
    // Verdict cache: a drop verdict is sticky for the flow's lifetime, so
    // later packets of a poisoned flow skip the matcher entirely. Clean
    // verdicts are NOT cached — a signature may start matching mid-flow.
    bool poisoned = false;
    std::string poison_rule;
  };

  static constexpr std::size_t kFlowShards = 8;
  struct FlowShard {
    std::mutex mutex;
    std::map<FlowKey, FlowState> flows;
  };

  static FlowKey make_flow_key(std::uint32_t src_ip, std::uint32_t dst_ip,
                               std::uint16_t src_port, std::uint16_t dst_port,
                               std::uint8_t proto) {
    FlowKey key{};
    key[0] = static_cast<std::uint8_t>(src_ip >> 24);
    key[1] = static_cast<std::uint8_t>(src_ip >> 16);
    key[2] = static_cast<std::uint8_t>(src_ip >> 8);
    key[3] = static_cast<std::uint8_t>(src_ip);
    key[4] = static_cast<std::uint8_t>(dst_ip >> 24);
    key[5] = static_cast<std::uint8_t>(dst_ip >> 16);
    key[6] = static_cast<std::uint8_t>(dst_ip >> 8);
    key[7] = static_cast<std::uint8_t>(dst_ip);
    key[8] = static_cast<std::uint8_t>(src_port >> 8);
    key[9] = static_cast<std::uint8_t>(src_port);
    key[10] = static_cast<std::uint8_t>(dst_port >> 8);
    key[11] = static_cast<std::uint8_t>(dst_port);
    key[12] = proto;
    return key;
  }

  FlowShard& shard_for(const FlowKey& key) {
    // FNV-1a over the packed tuple; cheap and spreads sequential flows.
    std::uint64_t h = 1469598103934665603ULL;
    for (const std::uint8_t b : key) {
      h = (h ^ b) * 1099511628211ULL;
    }
    return shards_[h % kFlowShards];
  }

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
    {
      std::unique_lock<std::shared_mutex> lk(rules_mutex_);
      matcher_ = std::move(matcher);
      rules_ = std::move(rules);
    }
    clear_flows();  // verdicts cached under the old rules are stale
  }

  void clear_flows() {
    for (FlowShard& shard : shards_) {
      std::lock_guard<std::mutex> lk(shard.mutex);
      shard.flows.clear();
    }
  }

  /// The shared verdict core. Flow accounting and the sticky-drop cache
  /// run under the flow shard's lock; the matcher scan runs with only the
  /// rules reader lock held so concurrent workers scan in parallel. `emit`
  /// is invoked exactly once, while the rule-name view is still pinned by
  /// the locks, so implementations may serialize the view without copying.
  template <typename Emit>
  auto run_verdict(std::uint32_t src_ip, std::uint32_t dst_ip,
                   std::uint16_t src_port, std::uint16_t dst_port,
                   std::uint8_t proto, ByteView payload, Emit&& emit) {
    std::shared_lock<std::shared_mutex> rules_lk(rules_mutex_);
    if (!matcher_) {
      throw Error("inspection enclave: no rules loaded");
    }
    const FlowKey key =
        make_flow_key(src_ip, dst_ip, src_port, dst_port, proto);
    FlowShard& shard = shard_for(key);
    inspected_.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lk(shard.mutex);
      FlowState& flow = shard.flows[key];
      ++flow.packets;
      flow.bytes += payload.size();
      if (flow.poisoned) {
        // Poisoned by an earlier packet: serve the sticky drop from cache.
        cache_hits_.fetch_add(1, std::memory_order_relaxed);
        dropped_.fetch_add(1, std::memory_order_relaxed);
        return emit(kVerdictDrop, true,
                    std::string_view(flow.poison_rule));
      }
    }
    if (const auto hit = matcher_->match(payload, dst_port, proto)) {
      const InspectionRule& rule = rules_.rules()[*hit];
      if (rule.action == RuleAction::kDrop) {
        dropped_.fetch_add(1, std::memory_order_relaxed);
        {
          std::lock_guard<std::mutex> lk(shard.mutex);
          // Re-find: a concurrent reset may have pruned the flow while the
          // matcher ran; poisoning a fresh entry would resurrect it.
          const auto it = shard.flows.find(key);
          if (it != shard.flows.end()) {
            it->second.poisoned = true;
            it->second.poison_rule = rule.name;
          }
        }
        return emit(kVerdictDrop, false, std::string_view(rule.name));
      }
      alerted_.fetch_add(1, std::memory_order_relaxed);
      return emit(kVerdictAlert, false, std::string_view(rule.name));
    }
    return emit(kVerdictForward, false, std::string_view());
  }

  /// FrameDescriptor in, verdict out through `emit` (see run_verdict).
  /// The ring path emits into fixed buffers: no trusted-side allocation
  /// for clean frames.
  template <typename Emit>
  std::invoke_result_t<Emit, std::uint8_t, bool, std::string_view>
  inspect_frame(ByteView input, Emit&& emit) {
    wire::FrameDescriptor header;
    const ByteView payload = wire::decode_frame(input, &header);
    return run_verdict(header.src_ip, header.dst_ip, header.src_port,
                       header.dst_port, header.proto, payload,
                       std::forward<Emit>(emit));
  }

  Bytes flow_stats() {
    std::uint64_t flow_count = 0;
    for (FlowShard& shard : shards_) {
      std::lock_guard<std::mutex> lk(shard.mutex);
      flow_count += shard.flows.size();
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

dataplane::InspectionOutcome decode_frame_verdict(ByteView response) {
  wire::FrameVerdict header;
  const ByteView rule = wire::decode_verdict(response, &header);
  dataplane::InspectionOutcome outcome;
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
  if (!rule.empty()) {
    outcome.rule.assign(rule.begin(), rule.end());
  }
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
      frame_latency_(&inspection_latency(options.mode)),
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

Bytes InspectionClient::dispatch(std::uint32_t opcode, ByteView input) {
  if (group_) return group_->call(opcode, input);
  return enclave_->call(opcode, input);
}

void InspectionClient::load_rules(const RuleSet& rules) {
  dispatch(kOpLoadRules, rules.encode());
}

Bytes InspectionClient::seal_rules() { return dispatch(kOpSealRules, {}); }

void InspectionClient::restore_rules(ByteView sealed) {
  dispatch(kOpRestoreRules, sealed);
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

sgx::RingGroup::Ticket InspectionClient::submit_frame(
    const dataplane::Packet& packet, std::uint16_t in_port, std::size_t ring) {
  // Serialize once, straight into the claimed ring slot: no intermediate
  // buffer, no heap allocation anywhere on the submit path.
  if (packet.payload.size() > kMaxInlineFramePayload) {
    throw Error("inspection: frame payload of " +
                std::to_string(packet.payload.size()) +
                " bytes exceeds inline descriptor capacity of " +
                std::to_string(kMaxInlineFramePayload));
  }
  const sgx::RingGroup::SubmitHandle handle =
      group_->begin_submit_on(ring, kOpInspectFrame);
  std::size_t frame_len = 0;
  try {
    frame_len = wire::encode_frame(make_descriptor(packet, in_port),
                                   packet.payload, handle.payload);
  } catch (...) {
    group_->abandon(handle);
    throw;
  }
  group_->publish(handle, frame_len);
  return handle.ticket;
}

dataplane::InspectionOutcome InspectionClient::inspect(
    const dataplane::Packet& packet, std::uint16_t in_port) {
  const auto start = std::chrono::steady_clock::now();
  dataplane::InspectionOutcome outcome;
  if (group_) {
    // The verdict comes back through a stack buffer: nothing allocated.
    const sgx::RingGroup::Ticket ticket =
        submit_frame(packet, in_port, ring_for(packet));
    std::array<std::uint8_t, sgx::kMaxHostCallPayload> result;
    const std::size_t n = group_->wait_into(ticket, result);
    outcome = decode_frame_verdict(ByteView(result.data(), n));
  } else {
    Bytes request(wire::kFrameHeaderSize + packet.payload.size());
    wire::encode_frame(make_descriptor(packet, in_port), packet.payload,
                       request);
    outcome = decode_frame_verdict(enclave_->call(kOpInspectFrame, request));
  }
  frame_latency_->observe(elapsed_us(start));
  return outcome;
}

std::vector<dataplane::InspectionOutcome>
InspectionClient::inspect_burst_switchless(
    std::span<const dataplane::Packet* const> packets,
    std::uint16_t in_port) {
  // Pipelined windows, one per ring: each frame goes to its flow's ring, so
  // resident workers drain different flows in parallel, with at most half a
  // ring's capacity outstanding per ring — never more than a ring can hold,
  // which would deadlock against our own uncollected results. Tickets are
  // collected FIFO, so `outcomes` stays positional and each ring's
  // occupied slots stay one contiguous arc its worker drains in order.
  // Error path: every submitted ticket is waited on even after a failure —
  // an uncollected ticket would pin its slot forever and leak ring
  // capacity into permanent backpressure. Once anything fails (a rejected
  // job, or stop() racing the window) the burst stops decoding into
  // `outcomes`, drains the remaining in-flight tickets, and rethrows: a
  // stopped ring can therefore never surface a stale or misaligned verdict
  // for a later-submitted frame.
  std::vector<dataplane::InspectionOutcome> outcomes;
  outcomes.reserve(packets.size());
  const std::size_t window = std::max<std::size_t>(group_->capacity() / 2, 1);
  std::vector<sgx::RingGroup::Ticket> tickets;
  tickets.reserve(packets.size());
  std::vector<std::size_t> inflight(group_->rings(), 0);
  std::size_t collected = 0;
  std::exception_ptr first_error;
  std::array<std::uint8_t, sgx::kMaxHostCallPayload> result;
  auto collect_one = [&] {
    const sgx::RingGroup::Ticket t = tickets[collected++];
    --inflight[t.ring];
    try {
      const std::size_t n = group_->wait_into(t, result);
      if (!first_error) {
        outcomes.push_back(decode_frame_verdict(ByteView(result.data(), n)));
      }
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  };
  for (const dataplane::Packet* packet : packets) {
    const std::size_t target = ring_for(*packet);
    while (inflight[target] >= window && collected < tickets.size() &&
           !first_error) {
      collect_one();
    }
    if (first_error) break;
    try {
      tickets.push_back(submit_frame(*packet, in_port, target));
      ++inflight[target];
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
      break;
    }
  }
  while (collected < tickets.size()) collect_one();
  if (first_error) std::rethrow_exception(first_error);
  return outcomes;
}

std::vector<dataplane::InspectionOutcome> InspectionClient::inspect_burst(
    std::span<const dataplane::Packet> packets, std::uint16_t in_port) {
  std::vector<const dataplane::Packet*> pointers;
  pointers.reserve(packets.size());
  for (const dataplane::Packet& p : packets) pointers.push_back(&p);
  return inspect_burst(std::span<const dataplane::Packet* const>(pointers),
                       in_port);
}

std::vector<dataplane::InspectionOutcome> InspectionClient::inspect_burst(
    std::span<const dataplane::Packet* const> packets,
    std::uint16_t in_port) {
  const auto start = std::chrono::steady_clock::now();
  std::vector<dataplane::InspectionOutcome> outcomes;
  if (group_) {
    outcomes = inspect_burst_switchless(packets, in_port);
  } else {
    // Each inspect() records its own single-frame latency sample.
    outcomes.reserve(packets.size());
    for (const dataplane::Packet* p : packets) {
      outcomes.push_back(inspect(*p, in_port));
    }
  }
  if (!packets.empty()) burst_latency_->observe(elapsed_us(start));
  return outcomes;
}

InspectionStats InspectionClient::flow_stats() {
  const Bytes blob = dispatch(kOpFlowStats, {});
  pki::TlvReader r(blob);
  InspectionStats stats;
  stats.flows = r.expect_u64(kTagFlows);
  stats.inspected = r.expect_u64(kTagInspected);
  stats.dropped = r.expect_u64(kTagDropped);
  stats.alerted = r.expect_u64(kTagAlerted);
  stats.cache_hits = r.expect_u64(kTagCacheHits);
  return stats;
}

void InspectionClient::reset_flows() { dispatch(kOpResetFlows, {}); }

dataplane::InspectorFn InspectionClient::as_inspector() {
  return [this](const dataplane::Packet& packet, std::uint16_t in_port) {
    return inspect(packet, in_port);
  };
}

dataplane::BurstInspectorFn InspectionClient::as_burst_inspector() {
  return [this](std::span<const dataplane::Packet* const> packets,
                std::uint16_t in_port) {
    return inspect_burst(packets, in_port);
  };
}

}  // namespace vnfsgx::vnf
