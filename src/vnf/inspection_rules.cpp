#include "vnf/inspection_rules.h"

#include <algorithm>
#include <deque>
#include <numeric>
#include <string>

#include "common/error.h"
#include "pki/tlv.h"

#if defined(__x86_64__)
#include <emmintrin.h>
#endif

namespace vnfsgx::vnf {

namespace {

enum : std::uint8_t {
  kTagRule = 0x01,
  kTagName = 0x02,
  kTagPattern = 0x03,
  kTagAction = 0x04,
  kTagDstPort = 0x05,
  kTagProto = 0x06,
};

}  // namespace

void RuleSet::add(InspectionRule rule) {
  if (rule.name.empty()) throw Error("inspection rules: empty rule name");
  if (rule.name.size() > kMaxRuleNameBytes) {
    throw Error("inspection rules: rule name of " +
                std::to_string(rule.name.size()) + " bytes exceeds " +
                std::to_string(kMaxRuleNameBytes));
  }
  if (rule.pattern.empty()) {
    throw Error("inspection rules: rule '" + rule.name + "' has no pattern");
  }
  if (rule.action != RuleAction::kDrop && rule.action != RuleAction::kAlert) {
    throw Error("inspection rules: rule '" + rule.name + "' has bad action");
  }
  for (auto& existing : rules_) {
    if (existing.name == rule.name) {
      existing = std::move(rule);
      return;
    }
  }
  rules_.push_back(std::move(rule));
}

Bytes RuleSet::encode() const {
  pki::TlvWriter out;
  for (const InspectionRule& rule : rules_) {
    pki::TlvWriter w;
    w.add_string(kTagName, rule.name);
    w.add_bytes(kTagPattern, rule.pattern);
    w.add_u8(kTagAction, static_cast<std::uint8_t>(rule.action));
    w.add_u32(kTagDstPort, rule.dst_port);
    w.add_u8(kTagProto, rule.proto);
    out.add_bytes(kTagRule, w.bytes());
  }
  return out.take();
}

RuleSet RuleSet::decode(ByteView blob) {
  RuleSet set;
  pki::TlvReader r(blob);
  while (!r.done()) {
    pki::TlvReader rule_reader(r.expect(kTagRule));
    InspectionRule rule;
    rule.name = rule_reader.expect_string(kTagName);
    rule.pattern = rule_reader.expect_bytes(kTagPattern);
    rule.action = static_cast<RuleAction>(rule_reader.expect_u8(kTagAction));
    const std::uint32_t port = rule_reader.expect_u32(kTagDstPort);
    if (port > 0xffff) throw ParseError("inspection rules: bad dst_port");
    rule.dst_port = static_cast<std::uint16_t>(port);
    rule.proto = rule_reader.expect_u8(kTagProto);
    set.add(std::move(rule));  // re-validates fields on the trusted side
  }
  return set;
}

// ---------------------------------------------------------------------------
// RuleMatcher (Aho-Corasick, compiled to a byte-class DFA)
// ---------------------------------------------------------------------------

RuleMatcher::RuleMatcher(const RuleSet& rules) : rules_(rules.rules()) {
  // Byte classes: 0 for bytes in no pattern, then one per pattern byte.
  for (const InspectionRule& rule : rules_) {
    for (const std::uint8_t byte : rule.pattern) class_of_[byte] = 1;
  }
  for (std::uint16_t& cls : class_of_) {
    if (cls != 0) cls = static_cast<std::uint16_t>(classes_++);
  }
  const auto over_cap = [](std::size_t bytes) {
    if (bytes > kMaxMatcherBytes) {
      throw Error("inspection rules: compiled matcher needs " +
                  std::to_string(bytes) + " bytes, over the " +
                  std::to_string(kMaxMatcherBytes) + "-byte cap");
    }
  };

  // Trie (goto function) in dense rows; 0 means no edge, since the root is
  // nobody's child. Each new state is checked against the cap before its
  // row is allocated.
  std::uint32_t states = 0;
  const auto add_state = [&]() -> std::uint32_t {
    over_cap((states + std::size_t{1}) * classes_ * sizeof(std::uint32_t));
    table_.resize(table_.size() + classes_, 0);
    return states++;
  };
  add_state();  // root
  std::vector<std::uint32_t> end_of(rules_.size());  // state a rule ends at
  for (std::size_t r = 0; r < rules_.size(); ++r) {
    std::uint32_t state = 0;
    for (const std::uint8_t byte : rules_[r].pattern) {
      const std::size_t edge = state * classes_ + class_of_[byte];
      if (table_[edge] == 0) {
        const std::uint32_t child = add_state();  // may reallocate table_
        table_[edge] = child;
      }
      state = table_[edge];
    }
    end_of[r] = state;
  }
  // Rules ending at each state, in rule order: own[own_begin[s] ..
  // own_begin[s+1]).
  std::vector<std::uint32_t> own_begin(states + std::size_t{1}, 0);
  for (const std::uint32_t state : end_of) ++own_begin[state + 1];
  for (std::uint32_t s = 0; s < states; ++s) own_begin[s + 1] += own_begin[s];
  std::vector<std::uint32_t> own(rules_.size());
  {
    std::vector<std::uint32_t> fill(own_begin.begin(), own_begin.end() - 1);
    for (std::uint32_t r = 0; r < end_of.size(); ++r) {
      own[fill[end_of[r]]++] = r;
    }
  }
  const auto owns = [&](std::uint32_t s) {
    return own_begin[s + 1] - own_begin[s];
  };

  // BFS: a state's row is rewritten only when it is dequeued, so until then
  // its non-zero entries are trie children. Missing edges take the failure
  // state's (already folded, because shallower) transition. Alongside,
  // `report` links each state to the nearest proper suffix state that owns
  // rules, and `outputs` counts the rules a state reports.
  std::vector<std::uint32_t> fail(states, 0);
  std::vector<std::uint32_t> report(states, 0);
  std::vector<std::size_t> outputs(states, 0);
  std::size_t total_outputs = 0;
  std::deque<std::uint32_t> queue;
  for (std::uint32_t c = 0; c < classes_; ++c) {
    if (table_[c] != 0) queue.push_back(table_[c]);
  }
  while (!queue.empty()) {
    const std::uint32_t state = queue.front();
    queue.pop_front();
    const std::uint32_t f = fail[state];
    report[state] = owns(f) != 0 ? f : report[f];
    outputs[state] = owns(state) + outputs[f];
    total_outputs += outputs[state];
    over_cap((table_.size() + states + 1 + total_outputs) *
             sizeof(std::uint32_t));
    const std::size_t row = state * classes_;
    const std::size_t fail_row = f * classes_;
    for (std::uint32_t c = 0; c < classes_; ++c) {
      const std::uint32_t child = table_[row + c];
      if (child != 0) {
        fail[child] = table_[fail_row + c];
        queue.push_back(child);
      } else {
        table_[row + c] = table_[fail_row + c];
      }
    }
  }

  // Renumber with the reporting states last, so `row >= hit_row_` tells a
  // hit. The root reports nothing and stays state 0.
  std::vector<std::uint32_t> by_id(states);
  std::iota(by_id.begin(), by_id.end(), 0u);
  const auto reporting = std::stable_partition(
      by_id.begin(), by_id.end(),
      [&](std::uint32_t s) { return outputs[s] == 0; });
  const auto first_hit = static_cast<std::uint32_t>(reporting - by_id.begin());
  std::vector<std::uint32_t> id(states);
  for (std::uint32_t n = 0; n < states; ++n) id[by_id[n]] = n;
  hit_row_ = first_hit * classes_;
  std::vector<std::uint32_t> goto_table(table_.size());
  for (std::uint32_t s = 0; s < states; ++s) {
    for (std::uint32_t c = 0; c < classes_; ++c) {
      goto_table[id[s] * classes_ + c] = id[table_[s * classes_ + c]] * classes_;
    }
  }
  table_ = std::move(goto_table);

  // Flat outputs of the reporting states, in their new order: a state's own
  // rules, then those of each state on its report chain (every step adds at
  // least one rule).
  out_begin_.reserve(states - first_hit + std::size_t{1});
  out_rules_.reserve(total_outputs);
  for (std::uint32_t n = first_hit; n < states; ++n) {
    out_begin_.push_back(static_cast<std::uint32_t>(out_rules_.size()));
    std::uint32_t at = by_id[n];
    do {
      out_rules_.insert(out_rules_.end(), own.begin() + own_begin[at],
                        own.begin() + own_begin[at + 1]);
      at = report[at];
    } while (at != 0);
  }
  out_begin_.push_back(static_cast<std::uint32_t>(out_rules_.size()));

  for (const InspectionRule& rule : rules_) starts_[rule.pattern[0]] = 1;
  std::vector<std::uint8_t> first;
  for (std::size_t byte = 0; byte < starts_.size(); ++byte) {
    if (starts_[byte] != 0) first.push_back(static_cast<std::uint8_t>(byte));
  }
  simd_skip_ = !first.empty() && first.size() <= start_bytes_.size();
  if (simd_skip_) {
    // Unused compare lanes repeat the last start byte.
    for (std::size_t i = 0; i < start_bytes_.size(); ++i) {
      start_bytes_[i] = first[std::min(i, first.size() - 1)];
    }
  }
}

std::size_t RuleMatcher::compiled_bytes() const {
  return (table_.size() + out_begin_.size() + out_rules_.size()) *
         sizeof(std::uint32_t);
}

std::size_t RuleMatcher::skip_to_start(const std::uint8_t* data,
                                       std::size_t at,
                                       std::size_t size) const {
#if defined(__x86_64__)
  if (simd_skip_) {
    const auto lane = [this](std::size_t i) {
      return _mm_set1_epi8(static_cast<char>(start_bytes_[i]));
    };
    const __m128i b0 = lane(0), b1 = lane(1), b2 = lane(2), b3 = lane(3);
    // Whole 16-byte chunks only: the tail goes to the scalar loop below.
    for (; at + 16 <= size; at += 16) {
      const __m128i chunk =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + at));
      const __m128i hits =
          _mm_or_si128(_mm_or_si128(_mm_cmpeq_epi8(chunk, b0),
                                    _mm_cmpeq_epi8(chunk, b1)),
                       _mm_or_si128(_mm_cmpeq_epi8(chunk, b2),
                                    _mm_cmpeq_epi8(chunk, b3)));
      const int mask = _mm_movemask_epi8(hits);
      if (mask != 0) return at + static_cast<std::size_t>(__builtin_ctz(mask));
    }
  }
#endif
  while (at < size && starts_[data[at]] == 0) ++at;
  return at;
}

std::optional<std::size_t> RuleMatcher::match(ByteView payload,
                                              std::uint16_t dst_port,
                                              std::uint8_t proto) const {
  std::optional<std::size_t> best;
  const auto consider = [&](std::size_t rule_index) {
    const InspectionRule& rule = rules_[rule_index];
    if (rule.dst_port != 0 && rule.dst_port != dst_port) return;
    if (rule.proto != 0 && rule.proto != proto) return;
    if (!best) {
      best = rule_index;
      return;
    }
    const InspectionRule& current = rules_[*best];
    const bool rule_drops = rule.action == RuleAction::kDrop;
    const bool current_drops = current.action == RuleAction::kDrop;
    if (rule_drops != current_drops) {
      if (rule_drops) best = rule_index;
    } else if (rule_index < *best) {
      best = rule_index;
    }
  };

  const std::uint8_t* const data = payload.data();
  const std::size_t size = payload.size();
  std::uint32_t row = 0;  // root
  for (std::size_t i = 0; i < size; ++i) {
    if (row == 0) {
      i = skip_to_start(data, i, size);
      if (i == size) break;
    }
    row = table_[row + class_of_[data[i]]];
    if (row >= hit_row_) {
      const std::uint32_t state = (row - hit_row_) / classes_;
      for (std::uint32_t k = out_begin_[state]; k < out_begin_[state + 1];
           ++k) {
        consider(out_rules_[k]);
      }
    }
  }
  return best;
}

}  // namespace vnfsgx::vnf
