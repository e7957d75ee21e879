// Signature rules for the in-enclave inspection NF: a named byte-pattern
// table (Snort-style content rules with optional header constraints) with a
// TLV wire form, plus a multi-pattern matcher compiled to a flat DFA.
//
// This header deliberately stays free of enclave and dataplane types: the
// same code compiles into the trusted logic (where the rules live) and into
// provisioning tools (which only encode them).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"

namespace vnfsgx::vnf {

enum class RuleAction : std::uint8_t {
  kDrop = 1,   // discard the packet, poison the flow
  kAlert = 2,  // forward but notify the controller
};

// boundary: wire — rule blobs are provisioned across the enclave boundary
// (decoded + validated once on entry by RuleSet::decode), so only the
// secret-egress rule (boundarycheck B4) applies to these fields.
struct InspectionRule {
  std::string name;
  Bytes pattern;  // byte signature searched anywhere in the payload
  RuleAction action = RuleAction::kDrop;
  // Header constraints; zero means wildcard.
  std::uint16_t dst_port = 0;
  std::uint8_t proto = 0;  // IpProto numeric value (6 tcp, 17 udp, ...)
};

/// Longest rule name a RuleSet accepts. Verdicts carry the matched rule's
/// name, so this bound is what lets a full slot of verdicts fit the ring
/// (see kMaxFramesPerSlot in inspection_enclave.h).
inline constexpr std::size_t kMaxRuleNameBytes = 60;

/// Ordered rule table. Drop rules outrank alert rules when several patterns
/// hit the same packet; ties fall to insertion order.
class RuleSet {
 public:
  /// Add or replace (by name). Throws Error on an empty or over-long
  /// (> kMaxRuleNameBytes) name, an empty pattern or a bad action.
  void add(InspectionRule rule);
  const std::vector<InspectionRule>& rules() const { return rules_; }
  std::size_t size() const { return rules_.size(); }
  bool empty() const { return rules_.empty(); }

  Bytes encode() const;
  static RuleSet decode(ByteView blob);

 private:
  std::vector<InspectionRule> rules_;
};

/// Upper bound on a compiled RuleMatcher: transition table plus output
/// lists. Rule sets past it are refused, so a rule blob cannot make the
/// enclave allocate without limit.
inline constexpr std::size_t kMaxMatcherBytes = std::size_t{4} << 20;

/// Aho-Corasick automaton over a RuleSet, compiled to a dense DFA: bytes map
/// to equivalence classes (one per byte occurring in some pattern, plus one
/// for every other byte), failure links are folded into a state x class
/// transition table, and each state keeps one flat list of the rules ending
/// at it. One table lookup per payload byte; while the automaton sits in the
/// root state it skips ahead to the next byte that can start a pattern.
class RuleMatcher {
 public:
  /// Throws Error when the compiled form would exceed kMaxMatcherBytes.
  explicit RuleMatcher(const RuleSet& rules);
  RuleMatcher(const RuleMatcher&) = delete;
  RuleMatcher& operator=(const RuleMatcher&) = delete;

  /// Best matching rule index for this payload + headers, or nullopt if
  /// clean. Drop beats alert; earlier rules beat later ones.
  std::optional<std::size_t> match(ByteView payload, std::uint16_t dst_port,
                                   std::uint8_t proto) const;

  /// Bytes of the compiled form (table and output lists), <= the cap.
  std::size_t compiled_bytes() const;

 private:
  /// First index >= `at` whose byte can start a pattern, or `size`.
  std::size_t skip_to_start(const std::uint8_t* data, std::size_t at,
                            std::size_t size) const;

  const std::vector<InspectionRule> rules_;
  std::array<std::uint16_t, 256> class_of_{};
  std::uint32_t classes_ = 1;
  // Entry = target state * classes_, the target's row offset. States that
  // report rules are numbered last, from row hit_row_ on; the k-th of them
  // reports out_rules_[out_begin_[k] .. out_begin_[k + 1]).
  std::vector<std::uint32_t> table_;
  std::uint32_t hit_row_ = 0;
  std::vector<std::uint32_t> out_begin_;
  std::vector<std::uint32_t> out_rules_;
  // Bytes that start some pattern: a 256-entry map, and (when there are at
  // most four of them) the same set for the 16-byte SIMD compare.
  std::array<std::uint8_t, 256> starts_{};
  std::array<std::uint8_t, 4> start_bytes_{};
  bool simd_skip_ = false;
};

}  // namespace vnfsgx::vnf
