// In-enclave inspection NF tests: rule table encoding, the compiled
// Aho-Corasick matcher (differential against a naive search), the flat
// flow table, enclave verdicts + flow/verdict-cache state, packed ring
// slots (differential against sync mode), sealed rule provisioning, and
// the dataplane punt path (the switch's one burst hook) end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <memory>
#include <optional>
#include <random>
#include <set>

#include "crypto/random.h"
#include "dataplane/fabric.h"
#include "obs/metrics.h"
#include "pki/tlv.h"
#include "sgx/platform.h"
#include "vnf/flow_table.h"
#include "vnf/inspection_enclave.h"

namespace vnfsgx::vnf {
namespace {

namespace dp = dataplane;
using crypto::DeterministicRandom;

InspectionRule make_rule(const std::string& name, const std::string& pattern,
                         RuleAction action = RuleAction::kDrop) {
  InspectionRule rule;
  rule.name = name;
  rule.pattern = to_bytes(pattern);
  rule.action = action;
  return rule;
}

RuleSet demo_rules() {
  RuleSet rules;
  rules.add(make_rule("exploit-shell", "/bin/sh", RuleAction::kDrop));
  rules.add(make_rule("telnet-probe", "admin admin", RuleAction::kAlert));
  InspectionRule web = make_rule("sqli-web", "' OR 1=1", RuleAction::kDrop);
  web.dst_port = 80;
  web.proto = 6;  // tcp
  rules.add(web);
  return rules;
}

dp::Packet make_packet(const std::string& payload, std::uint16_t dst_port = 80,
                       std::uint32_t src_ip = 0x0a000001) {
  dp::Packet p;
  p.src_ip = src_ip;
  p.dst_ip = 0x0a000064;
  p.src_port = 40000;
  p.dst_port = dst_port;
  p.proto = dp::IpProto::kTcp;
  p.payload = to_bytes(payload);
  return p;
}

/// InspectionClient::inspect_burst over a contiguous burst: the client
/// takes frames by pointer, as the switch punts them.
std::vector<dp::InspectionOutcome> inspect_all(
    InspectionClient& client, const std::vector<dp::Packet>& burst) {
  std::vector<const dp::Packet*> frames;
  frames.reserve(burst.size());
  for (const dp::Packet& packet : burst) frames.push_back(&packet);
  return client.inspect_burst(frames, 1);
}

/// A burst of one frame.
dp::InspectionOutcome inspect_one(InspectionClient& client,
                                  const dp::Packet& packet) {
  const dp::Packet* const frame[] = {&packet};
  return std::move(client.inspect_burst(frame, 1).front());
}

class InspectionFixture : public ::testing::Test {
 protected:
  InspectionFixture() : rng_(31), vendor_(crypto::ed25519_generate(rng_)) {
    sgx::PlatformOptions options;
    options.crossing_cost = std::chrono::nanoseconds(0);
    platform_ = std::make_unique<sgx::SgxPlatform>(rng_, "ids-host", options);
  }

  std::shared_ptr<sgx::Enclave> load() {
    const sgx::EnclaveImage image = inspection_enclave_image();
    const sgx::SigStruct sig = sgx::sign_enclave(
        vendor_.seed, sgx::measure_image(image.code, image.attributes), 1, 1);
    return platform_->load_enclave(image, sig);
  }

  DeterministicRandom rng_;
  crypto::Ed25519KeyPair vendor_;
  std::unique_ptr<sgx::SgxPlatform> platform_;
};

// ---------------------------------------------------------------------------
// Rules and matcher (pure, no enclave)
// ---------------------------------------------------------------------------

TEST(InspectionRulesTest, EncodeDecodeRoundTrip) {
  const RuleSet rules = demo_rules();
  const RuleSet decoded = RuleSet::decode(rules.encode());
  ASSERT_EQ(decoded.size(), 3u);
  EXPECT_EQ(decoded.rules()[0].name, "exploit-shell");
  EXPECT_EQ(decoded.rules()[0].pattern, to_bytes("/bin/sh"));
  EXPECT_EQ(decoded.rules()[0].action, RuleAction::kDrop);
  EXPECT_EQ(decoded.rules()[1].action, RuleAction::kAlert);
  EXPECT_EQ(decoded.rules()[2].dst_port, 80);
  EXPECT_EQ(decoded.rules()[2].proto, 6);
}

TEST(InspectionRulesTest, ValidatesOnAdd) {
  RuleSet rules;
  EXPECT_THROW(rules.add(make_rule("", "x")), Error);
  EXPECT_THROW(rules.add(InspectionRule{"no-pattern", {}, RuleAction::kDrop,
                                        0, 0}),
               Error);
  rules.add(make_rule("a", "one"));
  rules.add(make_rule("a", "two"));  // replaces by name
  ASSERT_EQ(rules.size(), 1u);
  EXPECT_EQ(rules.rules()[0].pattern, to_bytes("two"));
}

TEST(InspectionRulesTest, RuleNamesAreBounded) {
  RuleSet rules;
  rules.add(make_rule(std::string(kMaxRuleNameBytes, 'n'), "x"));
  EXPECT_THROW(rules.add(make_rule(std::string(kMaxRuleNameBytes + 1, 'n'),
                                   "x")),
               Error);
  ASSERT_EQ(rules.size(), 1u);

  // A provisioned blob is held to the same bound when it is decoded.
  pki::TlvWriter rule;
  rule.add_string(0x02, std::string(kMaxRuleNameBytes + 1, 'n'));  // name
  rule.add_bytes(0x03, to_bytes("x"));                             // pattern
  rule.add_u8(0x04, static_cast<std::uint8_t>(RuleAction::kDrop));
  rule.add_u32(0x05, 0);  // dst_port
  rule.add_u8(0x06, 0);   // proto
  pki::TlvWriter blob;
  blob.add_bytes(0x01, rule.bytes());
  EXPECT_THROW(RuleSet::decode(blob.bytes()), Error);
  EXPECT_EQ(RuleSet::decode(rules.encode()).rules()[0].name.size(),
            kMaxRuleNameBytes);
}

TEST(InspectionRulesTest, MatcherFindsPatternsAnywhere) {
  const RuleSet rules = demo_rules();
  const RuleMatcher matcher(rules);
  EXPECT_FALSE(matcher.match(to_bytes("GET /index.html"), 80, 6).has_value());
  const auto hit = matcher.match(to_bytes("run /bin/sh now"), 443, 6);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(rules.rules()[*hit].name, "exploit-shell");
}

TEST(InspectionRulesTest, MatcherHonorsHeaderConstraints) {
  const RuleSet rules = demo_rules();
  const RuleMatcher matcher(rules);
  // sqli-web is constrained to tcp/80.
  EXPECT_TRUE(matcher.match(to_bytes("q=' OR 1=1--"), 80, 6).has_value());
  EXPECT_FALSE(matcher.match(to_bytes("q=' OR 1=1--"), 8080, 6).has_value());
  EXPECT_FALSE(matcher.match(to_bytes("q=' OR 1=1--"), 80, 17).has_value());
}

TEST(InspectionRulesTest, DropOutranksAlert) {
  RuleSet rules;
  rules.add(make_rule("noisy-alert", "attack", RuleAction::kAlert));
  rules.add(make_rule("hard-drop", "attack-now", RuleAction::kDrop));
  const RuleMatcher matcher(rules);
  // Both patterns hit; the drop rule must win even though it was added
  // later and matches later in the payload.
  const auto hit = matcher.match(to_bytes("xx attack-now xx"), 0, 0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(rules.rules()[*hit].name, "hard-drop");
}

TEST(InspectionRulesTest, OverlappingPatternsAllDetected) {
  RuleSet rules;
  rules.add(make_rule("he", "he", RuleAction::kAlert));
  rules.add(make_rule("she", "she", RuleAction::kAlert));
  rules.add(make_rule("hers", "hers", RuleAction::kDrop));
  const RuleMatcher matcher(rules);
  const auto hit = matcher.match(to_bytes("ushers"), 0, 0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(rules.rules()[*hit].name, "hers");  // drop wins over the alerts
  const auto she = matcher.match(to_bytes("ushe"), 0, 0);
  ASSERT_TRUE(she.has_value());
  EXPECT_EQ(rules.rules()[*she].name, "he");  // earliest rule among alerts
}

/// "<prefix><n>", appended rather than concatenated: GCC 12 reports a
/// false -Wrestrict on `"literal" + std::to_string(n)` in these loops.
std::string numbered(const char* prefix, std::size_t n) {
  std::string out(prefix);
  out += std::to_string(n);
  return out;
}

/// The reference the compiled matcher must agree with: std::search per rule,
/// then the same choice (the earliest drop rule, else the earliest alert).
std::optional<std::size_t> naive_match(const RuleSet& rules, ByteView payload,
                                       std::uint16_t dst_port,
                                       std::uint8_t proto) {
  std::optional<std::size_t> best;
  for (std::size_t i = 0; i < rules.size(); ++i) {
    const InspectionRule& rule = rules.rules()[i];
    if (rule.dst_port != 0 && rule.dst_port != dst_port) continue;
    if (rule.proto != 0 && rule.proto != proto) continue;
    if (std::search(payload.begin(), payload.end(), rule.pattern.begin(),
                    rule.pattern.end()) == payload.end()) {
      continue;
    }
    if (!best || (rule.action == RuleAction::kDrop &&
                  rules.rules()[*best].action != RuleAction::kDrop)) {
      best = i;
    }
  }
  return best;
}

/// Seeded random rule sets and payloads built to stress the automaton:
/// shared prefixes, patterns that are suffixes of others, 1-byte and
/// duplicate patterns, 0x00/0xff bytes, and header constraints. Every
/// pattern starts with a byte from `starts`, so a set has exactly as many
/// distinct first bytes as the generator chose.
class RuleFuzzer {
 public:
  explicit RuleFuzzer(std::uint32_t seed) : rng_(seed) {}

  RuleSet rule_set(std::size_t distinct_starts) {
    starts_.clear();
    std::vector<std::uint8_t> pool(kAlphabet.begin(), kAlphabet.end());
    std::shuffle(pool.begin(), pool.end(), rng_);
    starts_.assign(pool.begin(),
                   pool.begin() + static_cast<std::ptrdiff_t>(distinct_starts));
    RuleSet rules;
    std::vector<Bytes> patterns;
    const std::size_t count = 1 + below(40);
    // The first rules use every start byte once, so the set really has
    // `distinct_starts` of them.
    for (std::size_t i = 0; i < count || i < starts_.size(); ++i) {
      Bytes pattern;
      const std::size_t kind = patterns.empty() ? 0 : below(5);
      if (i < starts_.size() || kind == 0) {  // fresh
        pattern.push_back(i < starts_.size() ? starts_[i] : start());
        const std::size_t len = below(10);
        for (std::size_t k = 0; k < len; ++k) pattern.push_back(byte());
      } else if (kind == 1) {  // shares a prefix with an earlier pattern
        pattern = pick(patterns);
        const std::size_t len = 1 + below(6);
        for (std::size_t k = 0; k < len; ++k) pattern.push_back(byte());
      } else if (kind == 2) {  // an earlier pattern is its suffix
        pattern.push_back(start());
        const std::size_t len = below(4);
        for (std::size_t k = 0; k < len; ++k) pattern.push_back(byte());
        const Bytes& tail = pick(patterns);
        pattern.insert(pattern.end(), tail.begin(), tail.end());
      } else if (kind == 3) {  // one byte
        pattern.push_back(start());
      } else {  // the same pattern again, under another name
        pattern = pick(patterns);
      }
      InspectionRule rule;
      rule.name = numbered("r", i);
      rule.pattern = pattern;
      rule.action = below(2) == 0 ? RuleAction::kDrop : RuleAction::kAlert;
      rule.dst_port = std::array<std::uint16_t, 4>{0, 0, 80, 443}[below(4)];
      rule.proto = std::array<std::uint8_t, 4>{0, 0, 6, 17}[below(4)];
      rules.add(std::move(rule));
      patterns.push_back(std::move(pattern));
    }
    return rules;
  }

  /// `size` bytes: either dense in pattern bytes (the automaton rarely
  /// rests in the root) or mostly other bytes (the skip does the work).
  Bytes background(std::size_t size) {
    Bytes out(size);
    const bool dense = below(2) == 0;
    for (auto& b : out) {
      b = dense || below(16) == 0 ? byte()
                                  : static_cast<std::uint8_t>(0x20 + below(26));
    }
    return out;
  }

  std::size_t below(std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng_);
  }

 private:
  static constexpr std::array<std::uint8_t, 12> kAlphabet = {
      0x00, 0xff, 0x10, 0x80, 'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h'};

  std::uint8_t byte() { return kAlphabet[below(kAlphabet.size())]; }
  std::uint8_t start() { return starts_[below(starts_.size())]; }
  const Bytes& pick(const std::vector<Bytes>& from) {
    return from[below(from.size())];
  }

  std::mt19937 rng_;
  std::vector<std::uint8_t> starts_;
};

void plant(Bytes& payload, const Bytes& pattern, std::size_t at) {
  std::copy(pattern.begin(), pattern.end(),
            payload.begin() + static_cast<std::ptrdiff_t>(at));
}

TEST(InspectionRulesTest, CompiledMatcherAgreesWithNaiveSearch) {
  RuleFuzzer fuzz(2024);
  constexpr std::uint16_t kPorts[] = {80, 443, 53};
  constexpr std::uint8_t kProtos[] = {6, 17, 6};
  std::size_t checked = 0;
  std::size_t hits = 0;  // checks where some rule matched
  std::size_t mismatches = 0;
  std::set<std::size_t> start_counts;
  for (int set = 0; set < 240; ++set) {
    // 1-4 distinct first bytes take the SIMD skip, 5-12 the bitmap loop.
    const std::size_t distinct = set % 2 == 0 ? 1 + fuzz.below(4)
                                              : 5 + fuzz.below(8);
    const RuleSet rules = fuzz.rule_set(distinct);
    std::set<std::uint8_t> firsts;
    for (const auto& rule : rules.rules()) firsts.insert(rule.pattern[0]);
    ASSERT_EQ(firsts.size(), distinct);
    start_counts.insert(distinct);
    const RuleMatcher matcher(rules);

    const auto check = [&](const Bytes& payload, std::size_t queries) {
      for (std::size_t q = 0; q < queries; ++q) {
        const auto got = matcher.match(payload, kPorts[q], kProtos[q]);
        const auto want = naive_match(rules, payload, kPorts[q], kProtos[q]);
        ++checked;
        hits += want.has_value() ? 1 : 0;
        if (got != want) {
          ++mismatches;
          ADD_FAILURE() << "set " << set << ", " << payload.size()
                        << "-byte payload, query " << q << ": got "
                        << (got ? std::to_string(*got) : "none") << ", want "
                        << (want ? std::to_string(*want) : "none");
        }
      }
    };
    const auto pattern_of = [&](std::size_t r) -> const Bytes& {
      return rules.rules()[r].pattern;
    };
    for (int p = 0; p < 6; ++p) {
      const std::size_t size =
          p == 0 ? fuzz.below(17) : fuzz.below(1601);  // short ones too
      Bytes payload = fuzz.background(size);
      check(payload, 3);
      const Bytes& pattern = pattern_of(fuzz.below(rules.size()));
      if (pattern.size() > payload.size()) continue;
      Bytes first = payload;
      plant(first, pattern, 0);
      check(first, 3);
      Bytes last = payload;
      plant(last, pattern, payload.size() - pattern.size());
      check(last, 3);
      // One hit straddling (or, for 1-byte patterns, ending at) every
      // 16-byte boundary of the payload.
      Bytes crossing = payload;
      for (std::size_t edge = 16; edge < crossing.size(); edge += 16) {
        const Bytes& hit = pattern_of(fuzz.below(rules.size()));
        const std::size_t back = 1 + fuzz.below(hit.size());
        if (back > edge || edge - back + hit.size() > crossing.size()) continue;
        plant(crossing, hit, edge - back);
      }
      check(crossing, 3);
    }
    // Every boundary on its own: one hit per payload, on the full-size frame.
    if (set < 8) {
      const Bytes clean = fuzz.background(1600);
      const Bytes& hit = pattern_of(fuzz.below(rules.size()));
      for (std::size_t edge = 16; edge + hit.size() <= 1600; edge += 16) {
        Bytes payload = clean;
        plant(payload, hit, edge - 1 - fuzz.below(std::min<std::size_t>(
                                           hit.size(), edge)));
        check(payload, 1);
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << checked << " payload checks";
  EXPECT_GT(checked, 5000u);
  EXPECT_GT(hits, checked / 4);  // both verdict kinds are well covered
  EXPECT_LT(hits, checked - checked / 10);
  EXPECT_EQ(start_counts.size(), 12u);  // 1 through 12 distinct first bytes
}

TEST(InspectionRulesTest, MatcherRejectsTablesOverTheCap) {
  // All 256 byte values in the patterns make 257 classes: about 4,100
  // states already exceed the cap.
  RuleSet rules;
  DeterministicRandom rng(77);
  for (int r = 0; r < 5; ++r) {
    InspectionRule rule = make_rule(numbered("big-", r), "");
    rule.pattern = rng.bytes(1000);
    if (r == 0) {
      for (int b = 0; b < 256; ++b) {
        rule.pattern[static_cast<std::size_t>(b)] = static_cast<std::uint8_t>(b);
      }
    }
    rules.add(std::move(rule));
  }
  EXPECT_THROW(RuleMatcher{rules}, Error);

  // The same bytes in fewer states fit, and report their size.
  RuleSet fits;
  fits.add(rules.rules()[0]);
  const RuleMatcher matcher(fits);
  EXPECT_GT(matcher.compiled_bytes(), 1000u * 257u * 4u);
  EXPECT_LE(matcher.compiled_bytes(), kMaxMatcherBytes);
  const auto hit = matcher.match(fits.rules()[0].pattern, 0, 0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 0u);
}

TEST(InspectionRulesTest, OutputListsCountTowardTheCap) {
  // "a", "aa", ..., a^n: a small table (n states, two classes), but state
  // a^k reports k rules, so the flat output lists grow as n^2 / 2.
  RuleSet rules;
  for (std::size_t n = 1; n <= 1500; ++n) {
    rules.add(make_rule(numbered("a", n), std::string(n, 'a')));
  }
  EXPECT_THROW(RuleMatcher{rules}, Error);
}

// ---------------------------------------------------------------------------
// Flat flow table (pure, no enclave)
// ---------------------------------------------------------------------------

FlowTable::Key nth_key(std::uint32_t n) {
  return FlowTable::make_key(0x0a000000u + n, 0x0a640001u,
                             static_cast<std::uint16_t>(n),
                             static_cast<std::uint16_t>(n >> 16), 6);
}

TEST(FlowTableTest, HoldsManyFlowsAcrossRehashes) {
  constexpr std::uint32_t kFlows = 100'000;
  FlowTable table;
  for (std::uint32_t n = 0; n < kFlows; ++n) {
    const FlowTable::Key key = nth_key(n);
    table.touch(key, FlowTable::hash(key), n % 7);
    // Never past half load.
    ASSERT_LE(2 * table.size(), table.capacity()) << n;
  }
  ASSERT_EQ(table.size(), kFlows);
  // Poison every tenth flow, then touch every flow again: every counter
  // and poison mark survived each rehash.
  for (std::uint32_t n = 0; n < kFlows; n += 10) {
    const FlowTable::Key key = nth_key(n);
    FlowTable::Flow* flow = table.find(key, FlowTable::hash(key));
    ASSERT_NE(flow, nullptr) << n;
    flow->poison_rule = n;
  }
  for (std::uint32_t n = 0; n < kFlows; ++n) {
    const FlowTable::Key key = nth_key(n);
    const FlowTable::Flow& flow = table.touch(key, FlowTable::hash(key), 1);
    ASSERT_EQ(flow.key, key) << n;
    ASSERT_EQ(flow.packets, 2u) << n;
    ASSERT_EQ(flow.bytes, n % 7 + 1u) << n;
    ASSERT_EQ(flow.poison_rule, n % 10 == 0 ? n : FlowTable::kNotPoisoned)
        << n;
  }
  EXPECT_EQ(table.size(), kFlows);
  const FlowTable::Key absent = nth_key(kFlows);
  EXPECT_EQ(table.find(absent, FlowTable::hash(absent)), nullptr);

  table.clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_LT(table.capacity(), 1024u);  // the memory went back
  const FlowTable::Key first = nth_key(0);
  EXPECT_EQ(table.find(first, FlowTable::hash(first)), nullptr);
}

TEST(FlowTableTest, KeysDifferInEveryTupleField) {
  // Tuples that differ in one field only are distinct flows.
  FlowTable table;
  const std::array<FlowTable::Key, 6> keys = {
      FlowTable::make_key(1, 2, 3, 4, 6), FlowTable::make_key(9, 2, 3, 4, 6),
      FlowTable::make_key(1, 9, 3, 4, 6), FlowTable::make_key(1, 2, 9, 4, 6),
      FlowTable::make_key(1, 2, 3, 9, 6), FlowTable::make_key(1, 2, 3, 4, 17)};
  for (const auto& key : keys) table.touch(key, FlowTable::hash(key), 10);
  EXPECT_EQ(table.size(), keys.size());
  for (const auto& key : keys) {
    const FlowTable::Flow* flow = table.find(key, FlowTable::hash(key));
    ASSERT_NE(flow, nullptr);
    EXPECT_EQ(flow->packets, 1u);
  }
}

// ---------------------------------------------------------------------------
// Enclave verdicts + flow state
// ---------------------------------------------------------------------------

TEST_F(InspectionFixture, VerdictsFromTheEnclave) {
  InspectionClient client(load());
  client.load_rules(demo_rules());

  const auto clean = inspect_one(client, make_packet("GET / HTTP/1.1"));
  EXPECT_EQ(clean.verdict, dp::InspectVerdict::kForward);
  EXPECT_TRUE(clean.rule.empty());

  const auto dropped = inspect_one(client, make_packet("exec /bin/sh -c id"));
  EXPECT_EQ(dropped.verdict, dp::InspectVerdict::kDrop);
  EXPECT_EQ(dropped.rule, "exploit-shell");

  const auto alerted =
      inspect_one(client, make_packet("login: admin admin", 23, 0x0a000002));
  EXPECT_EQ(alerted.verdict, dp::InspectVerdict::kAlert);
  EXPECT_EQ(alerted.rule, "telnet-probe");

  const InspectionStats stats = client.flow_stats();
  EXPECT_EQ(stats.inspected, 3u);
  EXPECT_EQ(stats.dropped, 1u);
  EXPECT_EQ(stats.alerted, 1u);
  // The first two packets share a 5-tuple; the telnet probe differs.
  EXPECT_EQ(stats.flows, 2u);
}

TEST_F(InspectionFixture, DropVerdictIsStickyPerFlow) {
  InspectionClient client(load());
  client.load_rules(demo_rules());

  // First packet of the flow matches and poisons it.
  const auto first = inspect_one(client, make_packet("run /bin/sh"));
  EXPECT_EQ(first.verdict, dp::InspectVerdict::kDrop);
  // Second packet of the SAME flow is clean but still dropped, from cache.
  const auto second = inspect_one(client, make_packet("totally harmless"));
  EXPECT_EQ(second.verdict, dp::InspectVerdict::kDrop);
  EXPECT_EQ(second.rule, "exploit-shell");
  // A different flow with the same clean payload sails through.
  const auto other =
      inspect_one(client, make_packet("totally harmless", 80, 0x0a0000ff));
  EXPECT_EQ(other.verdict, dp::InspectVerdict::kForward);

  const InspectionStats stats = client.flow_stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.dropped, 2u);

  client.reset_flows();
  const InspectionStats cleared = client.flow_stats();
  EXPECT_EQ(cleared.flows, 0u);
  // Rules survive a flow reset: the poisoned flow is re-matched fresh.
  EXPECT_EQ(inspect_one(client, make_packet("totally harmless")).verdict,
            dp::InspectVerdict::kForward);
}

TEST_F(InspectionFixture, InspectionRequiresRules) {
  InspectionClient client(load());
  EXPECT_THROW(inspect_one(client, make_packet("anything")), Error);
  RuleSet empty;
  EXPECT_THROW(client.load_rules(empty), Error);  // refuse fail-open tables
}

TEST_F(InspectionFixture, SealedRuleProvisioning) {
  auto enclave = load();
  Bytes sealed;
  {
    InspectionClient client(enclave);
    client.load_rules(demo_rules());
    sealed = client.seal_rules();
  }
  // A fresh enclave with the same measurement unseals and enforces them.
  InspectionClient restored(load());
  restored.restore_rules(sealed);
  EXPECT_EQ(inspect_one(restored, make_packet("run /bin/sh")).verdict,
            dp::InspectVerdict::kDrop);

  // A tampered blob is rejected wholesale.
  Bytes tampered = sealed;
  tampered.back() ^= 1;
  InspectionClient victim(load());
  EXPECT_THROW(victim.restore_rules(tampered), SecurityViolation);
  // ... and the victim still refuses to inspect (no rules installed).
  EXPECT_THROW(inspect_one(victim, make_packet("x")), Error);

  // A rule table larger than a ring slot: a switchless client loads, seals
  // and restores it (control opcodes take a classic ECALL) and judges
  // every frame as a sync client with the same table does.
  RuleSet large;
  for (std::size_t i = 0; i < 100; ++i) {
    large.add(make_rule(numbered("rule-", i), numbered("sig-pattern-", i),
                        i % 2 == 0 ? RuleAction::kDrop : RuleAction::kAlert));
  }
  ASSERT_EQ(large.encode().size(), 5080u);
  std::vector<dp::Packet> frames;
  for (std::size_t i = 0; i < 100; ++i) {
    frames.push_back(make_packet(numbered("x sig-pattern-", i) + ";", 80,
                                 0x0a000c00u + static_cast<std::uint32_t>(i)));
  }
  frames.push_back(make_packet("clean", 80, 0x0a000cff));
  InspectionClient sync_client(load());
  sync_client.load_rules(large);
  const auto expected = inspect_all(sync_client, frames);
  Bytes large_sealed;
  {
    InspectionClient loader(load(), InspectionClient::Mode::kSwitchless);
    loader.load_rules(large);
    large_sealed = loader.seal_rules();
  }
  EXPECT_GT(large_sealed.size(), sgx::kMaxHostCallPayload);
  InspectionClient switchless(load(), InspectionClient::Mode::kSwitchless);
  switchless.restore_rules(large_sealed);
  const auto got = inspect_all(switchless, frames);
  ASSERT_EQ(got.size(), frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(got[i].verdict, expected[i].verdict) << i;
    EXPECT_EQ(got[i].rule, expected[i].rule) << i;
  }
  // Frame i carries rule i's signature, which for i >= 10 starts with the
  // signature of rule i / 10; even rules drop, odd ones alert, and a drop
  // outranks an alert.
  for (std::size_t i = 0; i < 100; ++i) {
    const bool drop = i % 2 == 0 || (i >= 10 && (i / 10) % 2 == 0);
    EXPECT_EQ(expected[i].verdict, drop ? dp::InspectVerdict::kDrop
                                        : dp::InspectVerdict::kAlert)
        << i;
  }
  EXPECT_EQ(expected.back().verdict, dp::InspectVerdict::kForward);
}

TEST_F(InspectionFixture, BurstModesAgree) {
  auto enclave = load();
  std::vector<dp::Packet> burst;
  for (int i = 0; i < 24; ++i) {
    burst.push_back(make_packet(i % 3 == 1 ? "payload /bin/sh inside"
                                           : "clean payload " +
                                                 std::to_string(i),
                                80, 0x0a000100 + i));
  }

  InspectionClient sync_client(enclave, InspectionClient::Mode::kSync);
  sync_client.load_rules(demo_rules());
  const sgx::EcallStats before = enclave->ecall_stats();
  const auto sync_out = inspect_all(sync_client, burst);
  // Sync mode pays one crossing per frame.
  EXPECT_EQ(enclave->ecall_stats().crossings - before.crossings, burst.size());

  InspectionClient switchless(enclave, InspectionClient::Mode::kSwitchless);
  switchless.reset_flows();
  const auto switchless_out = inspect_all(switchless, burst);

  ASSERT_EQ(sync_out.size(), burst.size());
  ASSERT_EQ(switchless_out.size(), burst.size());
  for (std::size_t i = 0; i < burst.size(); ++i) {
    EXPECT_EQ(sync_out[i].verdict, switchless_out[i].verdict) << i;
    EXPECT_EQ(sync_out[i].rule, switchless_out[i].rule) << i;
    const auto expected = i % 3 == 1 ? dp::InspectVerdict::kDrop
                                     : dp::InspectVerdict::kForward;
    EXPECT_EQ(sync_out[i].verdict, expected) << i;
  }
  EXPECT_GT(enclave->ecall_stats().switchless_jobs, 0u);
}

TEST_F(InspectionFixture, SyncModeAcceptsFramesOfAnySize) {
  // The ring's inline-descriptor limit does not apply to sync ECALLs: a
  // jumbo frame is inspected whole, signature past the ring limit included.
  InspectionClient client(load());
  client.load_rules(demo_rules());
  std::string jumbo(3 * kMaxInlineFramePayload, 'x');
  jumbo += "/bin/sh";
  const auto outcome = inspect_one(client, make_packet(jumbo));
  EXPECT_EQ(outcome.verdict, dp::InspectVerdict::kDrop);
  EXPECT_EQ(outcome.rule, "exploit-shell");
}

TEST_F(InspectionFixture, SwitchlessFailedBurstsDoNotLeakRingSlots) {
  InspectionClient client(load(), InspectionClient::Mode::kSwitchless);
  std::vector<dp::Packet> burst;
  for (int i = 0; i < 96; ++i) {
    burst.push_back(
        make_packet("frame " + std::to_string(i), 80, 0x0a000200 + i));
  }
  // No rules are loaded, so every in-enclave inspect job fails and every
  // wait() rethrows. A burst that abandons its in-flight tickets on the
  // first error pins their ring slots forever (kDone, never collected);
  // with a 128-slot ring and 64-frame windows, the third such burst
  // deadlocks in submit backpressure. Four rounds cross that threshold
  // with margin — this test hangs if the error path stops draining.
  for (int round = 0; round < 4; ++round) {
    EXPECT_THROW(inspect_all(client, burst), Error);
  }
  // The ring is still fully usable: provision rules and inspect cleanly.
  client.load_rules(demo_rules());
  const auto outcomes = inspect_all(client, burst);
  ASSERT_EQ(outcomes.size(), burst.size());
  for (const auto& outcome : outcomes) {
    EXPECT_EQ(outcome.verdict, dp::InspectVerdict::kForward);
  }
}

// ---------------------------------------------------------------------------
// Dataplane punt path
// ---------------------------------------------------------------------------

TEST_F(InspectionFixture, SwitchFailsClosedWithoutInspector) {
  dp::Switch sw(1);
  dp::FlowEntry punt;
  punt.name = "punt";
  punt.action = dp::Action::inspect(2);
  sw.add_flow(punt);

  ASSERT_FALSE(sw.has_burst_inspector());
  const auto result = sw.process(make_packet("anything"), 1);
  EXPECT_EQ(result.kind, dp::ForwardingResult::Kind::kDropped);
  EXPECT_TRUE(result.inspected);
  EXPECT_EQ(result.verdict, dp::InspectVerdict::kDrop);
  EXPECT_EQ(result.inspect_rule, "no-inspector");

  const std::vector<dp::Packet> burst(3, make_packet("anything"));
  for (const auto& r : sw.process_burst(burst, 1)) {
    EXPECT_EQ(r.kind, dp::ForwardingResult::Kind::kDropped);
    EXPECT_EQ(r.inspect_rule, "no-inspector");
  }
}

TEST_F(InspectionFixture, SwitchFailsClosedOnInspectorError) {
  InspectionClient client(load());  // no rules loaded: inspect_burst throws
  const auto forward_n = [](std::size_t n) {
    return [n](std::span<const dp::Packet* const>, std::uint16_t) {
      return std::vector<dp::InspectionOutcome>(n);  // all kForward
    };
  };
  const std::vector<std::pair<const char*, dp::BurstInspectorFn>> hooks = {
      {"enclave without rules", client.as_burst_inspector()},
      {"throwing hook",
       [](std::span<const dp::Packet* const>,
          std::uint16_t) -> std::vector<dp::InspectionOutcome> {
         throw Error("hook failed");
       }},
      // A miscounting hook fails closed even when every verdict it does
      // return says forward.
      {"no verdicts", forward_n(0)},
      {"two verdicts for one frame", forward_n(2)},
  };
  for (const auto& [what, hook] : hooks) {
    dp::Switch sw(1);
    sw.set_burst_inspector(hook);
    dp::FlowEntry punt;
    punt.name = "punt";
    punt.action = dp::Action::inspect(2);
    sw.add_flow(punt);

    const auto result = sw.process(make_packet("anything"), 1);
    EXPECT_EQ(result.kind, dp::ForwardingResult::Kind::kDropped) << what;
    EXPECT_TRUE(result.inspected) << what;
    EXPECT_EQ(result.verdict, dp::InspectVerdict::kDrop) << what;
    EXPECT_NE(result.inspect_rule.find("inspector-error"), std::string::npos)
        << what;
  }
}

TEST_F(InspectionFixture, PuntPathThroughFabric) {
  InspectionClient client(load());
  client.load_rules(demo_rules());

  dp::Fabric fabric;
  auto& edge = fabric.add_switch(1);
  auto& core = fabric.add_switch(2);
  fabric.link({1, 2}, {2, 1});
  edge.set_burst_inspector(client.as_burst_inspector());

  dp::FlowEntry punt;
  punt.name = "inspect-then-core";
  punt.action = dp::Action::inspect(2);
  edge.add_flow(punt);
  dp::FlowEntry egress;
  egress.name = "egress";
  egress.action = dp::Action::forward(9);  // unlinked: leaves the fabric
  core.add_flow(egress);

  // Clean traffic traverses the enclave-inspected hop and is delivered.
  const auto clean = fabric.inject(1, 7, make_packet("GET / HTTP/1.1"));
  EXPECT_EQ(clean.outcome, dp::PathOutcome::kDelivered);
  ASSERT_EQ(clean.hops.size(), 2u);
  EXPECT_TRUE(clean.hops[0].result.inspected);
  EXPECT_EQ(clean.hops[0].result.verdict, dp::InspectVerdict::kForward);

  // Malicious traffic dies at the inspected hop.
  const auto bad = fabric.inject(1, 7, make_packet("run /bin/sh now"));
  EXPECT_EQ(bad.outcome, dp::PathOutcome::kDropped);
  ASSERT_EQ(bad.hops.size(), 1u);
  EXPECT_EQ(bad.hops[0].result.inspect_rule, "exploit-shell");

  // Alert traffic is delivered AND surfaces a packet-in at the edge.
  const std::size_t before = edge.packet_in_queue().size();
  const auto alert = fabric.inject(
      1, 7, make_packet("login: admin admin", 23, 0x0a000005));
  EXPECT_EQ(alert.outcome, dp::PathOutcome::kDelivered);
  EXPECT_EQ(alert.hops[0].result.verdict, dp::InspectVerdict::kAlert);
  EXPECT_EQ(edge.packet_in_queue().size(), before + 1);
}

TEST_F(InspectionFixture, SwitchlessInspectorOnThePuntPath) {
  InspectionClient client(load(), InspectionClient::Mode::kSwitchless);
  client.load_rules(demo_rules());

  dp::Switch sw(1);
  sw.set_burst_inspector(client.as_burst_inspector());
  dp::FlowEntry punt;
  punt.name = "punt";
  punt.action = dp::Action::inspect(4);
  sw.add_flow(punt);

  const auto clean = sw.process(make_packet("hello"), 1);
  EXPECT_EQ(clean.kind, dp::ForwardingResult::Kind::kForwarded);
  EXPECT_EQ(clean.out_port, 4);
  const auto bad = sw.process(make_packet("run /bin/sh", 80, 0x0a000009), 1);
  EXPECT_EQ(bad.kind, dp::ForwardingResult::Kind::kDropped);
  EXPECT_EQ(bad.inspect_rule, "exploit-shell");
}

// ---------------------------------------------------------------------------
// Switchless path (FrameDescriptor in a RingGroup slot)
// ---------------------------------------------------------------------------

TEST_F(InspectionFixture, SwitchlessMatchesSyncAcrossRings) {
  auto enclave = load();
  std::vector<dp::Packet> burst;
  for (int i = 0; i < 24; ++i) {
    burst.push_back(make_packet(i % 3 == 1 ? "payload /bin/sh inside"
                                           : "clean payload " +
                                                 std::to_string(i),
                                80, 0x0a000300 + i));
  }

  InspectionClient sync_client(enclave, InspectionClient::Mode::kSync);
  sync_client.load_rules(demo_rules());
  const auto sync_out = inspect_all(sync_client, burst);

  InspectionClient::Options options;
  options.mode = InspectionClient::Mode::kSwitchless;
  options.rings = 2;
  InspectionClient switchless(enclave, options);
  ASSERT_EQ(switchless.rings(), 2u);
  switchless.reset_flows();
  const auto switchless_out = inspect_all(switchless, burst);

  ASSERT_EQ(switchless_out.size(), burst.size());
  for (std::size_t i = 0; i < burst.size(); ++i) {
    EXPECT_EQ(sync_out[i].verdict, switchless_out[i].verdict) << i;
    EXPECT_EQ(sync_out[i].rule, switchless_out[i].rule) << i;
  }
}

TEST_F(InspectionFixture, FlowSteeringKeepsStickyDropsInBurstOrder) {
  // Each burst opens a fresh flow with a drop-signature frame and follows
  // it with clean frames of the same flow, interleaved with clean frames of
  // a second flow. The sticky drop makes every later frame of the first
  // flow a cached drop, but only if those frames are judged after the
  // first one: two rings striping frames round-robin race them. Steering
  // by flow hash keeps one flow on one worker, in burst order.
  InspectionClient sync_client(load(), InspectionClient::Mode::kSync);
  sync_client.load_rules(demo_rules());
  InspectionClient::Options options;
  options.mode = InspectionClient::Mode::kSwitchless;
  options.rings = 2;
  InspectionClient switchless(load(), options);
  switchless.load_rules(demo_rules());

  std::mt19937 gen(1717);  // standardized output: same bursts everywhere
  auto below = [&gen](std::uint32_t n) { return gen() % n; };
  auto filler = [&below](std::size_t size) {
    std::string s(size, 'a');
    for (char& c : s) c = static_cast<char>('a' + below(26));
    return s;
  };
  constexpr int kBursts = 1000;
  int mismatched_bursts = 0;
  for (int b = 0; b < kBursts; ++b) {
    const std::uint32_t poisoned_ip = 0x0b000000u + 2u * b;
    const std::uint32_t clean_ip = poisoned_ip + 1;
    std::vector<dp::Packet> burst;
    burst.push_back(make_packet(filler(below(64)) + "/bin/sh" +
                                    filler(below(64)),
                                80, poisoned_ip));
    const std::size_t followers = 3 + below(12);
    for (std::size_t i = 0; i < followers; ++i) {
      burst.push_back(
          make_packet(filler(16 + below(600)), 80, poisoned_ip));
      if (below(2) == 0) {
        burst.push_back(make_packet(filler(16 + below(600)), 80, clean_ip));
      }
    }
    const auto expected = inspect_all(sync_client, burst);
    const auto got = inspect_all(switchless, burst);
    bool same = got.size() == expected.size();
    for (std::size_t i = 0; same && i < got.size(); ++i) {
      same = got[i].verdict == expected[i].verdict &&
             got[i].rule == expected[i].rule;
    }
    if (!same) ++mismatched_bursts;
  }
  EXPECT_EQ(mismatched_bursts, 0) << "of " << kBursts << " bursts";
}

TEST_F(InspectionFixture, SwitchlessBurstRecordsOneBurstSample) {
  auto enclave = load();
  InspectionClient client(enclave, InspectionClient::Mode::kSwitchless);
  client.load_rules(demo_rules());
  const obs::Histogram& frames = obs::registry().histogram(
      "vnfsgx_inspection_latency_us", {{"mode", "sync"}});
  const obs::Histogram& bursts = obs::registry().histogram(
      "vnfsgx_inspection_burst_us", {{"mode", "switchless"}});
  const std::uint64_t frames_before = frames.count();
  const std::uint64_t bursts_before = bursts.count();

  std::vector<dp::Packet> burst;
  for (int i = 0; i < 24; ++i) {
    burst.push_back(make_packet("frame " + std::to_string(i), 80,
                                0x0a000700 + i));
  }
  ASSERT_EQ(inspect_all(client, burst).size(), burst.size());
  // One burst is one sample: no per-frame averages are invented.
  EXPECT_EQ(frames.count() - frames_before, 0u);
  EXPECT_EQ(bursts.count() - bursts_before, 1u);

  // A burst of one frame is still one burst sample and no frame sample.
  inspect_one(client, make_packet("one frame"));
  EXPECT_EQ(frames.count() - frames_before, 0u);
  EXPECT_EQ(bursts.count() - bursts_before, 2u);

  // Sync mode: one per-frame sample per ECALL, plus one burst sample.
  InspectionClient sync_client(enclave);
  const obs::Histogram& sync_bursts = obs::registry().histogram(
      "vnfsgx_inspection_burst_us", {{"mode", "sync"}});
  const std::uint64_t sync_bursts_before = sync_bursts.count();
  ASSERT_EQ(inspect_all(sync_client, burst).size(), burst.size());
  EXPECT_EQ(frames.count() - frames_before, burst.size());
  EXPECT_EQ(sync_bursts.count() - sync_bursts_before, 1u);
  EXPECT_EQ(bursts.count() - bursts_before, 2u);
}

TEST_F(InspectionFixture, PoisonedFlowStaysOnOneRing) {
  auto enclave = load();
  InspectionClient::Options options;
  options.mode = InspectionClient::Mode::kSwitchless;
  options.rings = 2;
  InspectionClient client(enclave, options);
  client.load_rules(demo_rules());
  // Slots published into each ring since the last call.
  std::array<std::uint64_t, 2> seen{};
  const auto submits_delta = [&seen] {
    std::array<std::uint64_t, 2> delta{};
    for (std::size_t r = 0; r < 2; ++r) {
      const std::uint64_t now =
          obs::registry()
              .counter("vnfsgx_hostcall_submits_total",
                       {{"ring", numbered("inspection/", r)}})
              .value();
      delta[r] = now - seen[r];
      seen[r] = now;
    }
    return delta;
  };
  submits_delta();

  // Poison the flow: its first frame goes to the flow's ring.
  const dp::Packet poisoned = make_packet("totally harmless");
  EXPECT_EQ(inspect_one(client, make_packet("run /bin/sh")).verdict,
            dp::InspectVerdict::kDrop);
  const auto first = submits_delta();
  ASSERT_EQ(first[0] + first[1], 1u);
  const std::size_t home = first[0] == 1 ? 0 : 1;

  // Every later frame of the flow runs on that ring and is a cached drop.
  const std::vector<dp::Packet> burst(8, poisoned);
  const auto outcomes = inspect_all(client, burst);
  ASSERT_EQ(outcomes.size(), burst.size());
  for (const auto& outcome : outcomes) {
    EXPECT_EQ(outcome.verdict, dp::InspectVerdict::kDrop);
    EXPECT_EQ(outcome.rule, "exploit-shell");
  }
  auto delta = submits_delta();
  EXPECT_GE(delta[home], 1u);
  EXPECT_EQ(delta[1 - home], 0u);
  EXPECT_GE(client.flow_stats().cache_hits, 8u);

  // A clean flow steered to the other ring forwards, and a burst mixing
  // both flows keeps each on its own ring.
  std::optional<dp::Packet> clean;
  for (std::uint32_t ip = 0x0a000d00; !clean && ip < 0x0a000d40; ++ip) {
    dp::Packet candidate = make_packet("totally harmless", 80, ip);
    EXPECT_EQ(inspect_one(client, candidate).verdict,
              dp::InspectVerdict::kForward);
    if (submits_delta()[1 - home] == 1) clean = std::move(candidate);
  }
  ASSERT_TRUE(clean.has_value());
  std::vector<dp::Packet> mixed;
  for (int i = 0; i < 4; ++i) {
    mixed.push_back(poisoned);
    mixed.push_back(*clean);
  }
  const auto mixed_out = inspect_all(client, mixed);
  ASSERT_EQ(mixed_out.size(), mixed.size());
  for (std::size_t i = 0; i < mixed.size(); ++i) {
    EXPECT_EQ(mixed_out[i].verdict, i % 2 == 0 ? dp::InspectVerdict::kDrop
                                               : dp::InspectVerdict::kForward)
        << i;
  }
  delta = submits_delta();
  EXPECT_EQ(delta[home], 1u);
  EXPECT_EQ(delta[1 - home], 1u);
}

TEST_F(InspectionFixture, OversizedFrameFailsClosed) {
  auto enclave = load();
  InspectionClient client(enclave, InspectionClient::Mode::kSwitchless);
  client.load_rules(demo_rules());

  // One byte past the inline-descriptor limit: rejected at the untrusted
  // gate before any slot is claimed.
  const std::string big(kMaxInlineFramePayload + 1, 'x');
  EXPECT_THROW(inspect_one(client, make_packet(big, 80, 0x0a00aa01)), Error);

  // Through the switch the same rejection fails closed, never open.
  dp::Switch sw(1);
  sw.set_burst_inspector(client.as_burst_inspector());
  dp::FlowEntry punt;
  punt.name = "punt";
  punt.action = dp::Action::inspect(4);
  sw.add_flow(punt);
  const auto result = sw.process(make_packet(big, 80, 0x0a00aa02), 1);
  EXPECT_EQ(result.kind, dp::ForwardingResult::Kind::kDropped);
  EXPECT_NE(result.inspect_rule.find("inspector-error"), std::string::npos);

  // The limit itself is inclusive and the ring was not damaged.
  const std::string max(kMaxInlineFramePayload, 'x');
  EXPECT_EQ(inspect_one(client, make_packet(max, 80, 0x0a00aa03)).verdict,
            dp::InspectVerdict::kForward);
}

// ---------------------------------------------------------------------------
// Packed slots: several FrameDescriptors per ring slot
// ---------------------------------------------------------------------------

/// One kOpInspectFrame request holding `payloads.size()` descriptors of the
/// same flow, back to back.
Bytes packed_slot(const std::vector<std::string>& payloads) {
  Bytes slot;
  for (const std::string& payload : payloads) {
    wire::FrameDescriptor header;
    header.src_ip = 0x0a000001;
    header.dst_ip = 0x0a000064;
    header.src_port = 40000;
    header.dst_port = 80;
    header.proto = 6;
    const std::size_t at = slot.size();
    slot.resize(at + wire::kFrameHeaderSize + payload.size());
    wire::encode_frame(header, to_bytes(payload),
                       std::span<std::uint8_t>(slot).subspan(at));
  }
  return slot;
}

std::uint64_t switchless_jobs(const sgx::Enclave& enclave) {
  return enclave.ecall_stats().switchless_jobs;
}

TEST_F(InspectionFixture, FullSlotOfLongestNameVerdictsFits) {
  // Every frame of a slot at the frame cap matches a rule with the longest
  // name allowed: kMaxFramesPerSlot verdicts of 4 + kMaxRuleNameBytes
  // bytes must fit the slot's result region whole.
  const std::string long_name(kMaxRuleNameBytes, 'L');
  RuleSet rules;
  rules.add(make_rule(long_name, "ZZ", RuleAction::kAlert));
  const std::size_t payload_bytes =
      sgx::kMaxHostCallPayload / kMaxFramesPerSlot - wire::kFrameHeaderSize;
  std::vector<dp::Packet> burst;
  for (std::size_t i = 0; i < kMaxFramesPerSlot; ++i) {
    burst.push_back(make_packet("ZZ" + std::string(payload_bytes - 2, 'a'),
                                80, 0x0a000800 + static_cast<int>(i)));
  }

  auto enclave = load();
  InspectionClient client(enclave, InspectionClient::Mode::kSwitchless);
  client.load_rules(rules);
  const std::uint64_t jobs_before = switchless_jobs(*enclave);
  const auto outcomes = inspect_all(client, burst);
  EXPECT_EQ(switchless_jobs(*enclave) - jobs_before, 1u);  // one full slot
  ASSERT_EQ(outcomes.size(), kMaxFramesPerSlot);
  for (const auto& outcome : outcomes) {
    EXPECT_EQ(outcome.verdict, dp::InspectVerdict::kAlert);
    EXPECT_EQ(outcome.rule, long_name);
  }

  // Frames small enough that 33 fit a slot's bytes still take two slots:
  // the client stops at kMaxFramesPerSlot.
  std::vector<dp::Packet> tiny(kMaxFramesPerSlot + 1,
                               make_packet("ZZ", 80, 0x0a0008ff));
  const std::uint64_t jobs_mid = switchless_jobs(*enclave);
  const auto tiny_outcomes = inspect_all(client, tiny);
  EXPECT_EQ(switchless_jobs(*enclave) - jobs_mid, 2u);
  ASSERT_EQ(tiny_outcomes.size(), tiny.size());
  for (const auto& outcome : tiny_outcomes) {
    EXPECT_EQ(outcome.rule, long_name);
  }

  // The enclave itself refuses a slot past the cap, before judging any
  // frame, and answers a slot at the cap in full.
  const std::vector<std::string> frames(kMaxFramesPerSlot, "ZZ match");
  std::vector<std::string> too_many = frames;
  too_many.push_back("ZZ match");
  const Bytes stats_before = enclave->call(kOpFlowStats, {});
  EXPECT_THROW(enclave->call(kOpInspectFrame, packed_slot(too_many)), Error);
  EXPECT_EQ(enclave->call(kOpFlowStats, {}), stats_before);
  const Bytes reply = enclave->call(kOpInspectFrame, packed_slot(frames));
  EXPECT_EQ(reply.size(),
            kMaxFramesPerSlot * (wire::kVerdictHeaderSize + kMaxRuleNameBytes));
}

TEST_F(InspectionFixture, TrailingBytesAfterTheLastDescriptorAreRejected) {
  auto enclave = load();
  enclave->call(kOpLoadRules, demo_rules().encode());
  const Bytes stats_before = enclave->call(kOpFlowStats, {});
  for (const std::size_t extra : {1u, 7u, 19u}) {
    Bytes slot = packed_slot({"clean", "run /bin/sh"});
    slot.resize(slot.size() + extra, 0);
    EXPECT_THROW(enclave->call(kOpInspectFrame, slot), Error) << extra;
  }
  EXPECT_THROW(enclave->call(kOpInspectFrame, {}), Error);
  // Nothing was judged: no frame counted, no flow poisoned.
  EXPECT_EQ(enclave->call(kOpFlowStats, {}), stats_before);
}

TEST_F(InspectionFixture, PackedSlotsMatchSyncOnImixBursts) {
  // Seeded IMIX bursts (7x64 : 4x576 : 1x1500 bytes) over 48 flows, with
  // drop, alert and port-bound drop signatures, through sync mode (one
  // frame per ECALL) and through packed switchless slots at 1, 2 and 4
  // rings. Flows recur across bursts, so sticky drops are exercised too.
  constexpr std::array<std::size_t, 12> kImix = {64,  64,  64,  64,  64,  64,
                                                 64,  576, 576, 576, 576, 1500};
  constexpr int kBursts = 200;
  constexpr int kBurstFrames = 32;
  for (const std::size_t rings : {1u, 2u, 4u}) {
    InspectionClient sync_client(load(), InspectionClient::Mode::kSync);
    sync_client.load_rules(demo_rules());
    InspectionClient::Options options;
    options.mode = InspectionClient::Mode::kSwitchless;
    options.rings = rings;
    auto enclave = load();
    InspectionClient switchless(enclave, options);
    switchless.load_rules(demo_rules());

    std::mt19937 gen(9100 + static_cast<unsigned>(rings));
    auto below = [&gen](std::uint32_t n) { return gen() % n; };
    std::size_t frames = 0;
    int mismatched = 0;
    const std::uint64_t jobs_before = switchless_jobs(*enclave);
    for (int b = 0; b < kBursts; ++b) {
      std::vector<dp::Packet> burst;
      for (int f = 0; f < kBurstFrames; ++f) {
        std::string payload(kImix[below(12)], 'a');
        for (char& c : payload) c = static_cast<char>('a' + below(26));
        const std::uint32_t kind = below(100);
        const char* sig = kind < 2   ? "/bin/sh"
                          : kind < 4 ? "admin admin"
                          : kind < 5 ? "' OR 1=1"
                                     : nullptr;
        if (sig) {
          const std::string s(sig);
          payload.replace(below(static_cast<std::uint32_t>(
                              payload.size() - s.size() + 1)),
                          s.size(), s);
        }
        const std::uint32_t flow = below(48);
        burst.push_back(make_packet(payload, flow % 2 ? 80 : 8080,
                                    0x0a010000u + flow));
      }
      const auto expected = inspect_all(sync_client, burst);
      const auto got = inspect_all(switchless, burst);
      bool same = got.size() == expected.size();
      for (std::size_t i = 0; same && i < got.size(); ++i) {
        same = got[i].verdict == expected[i].verdict &&
               got[i].rule == expected[i].rule;
      }
      if (!same) ++mismatched;
      frames += burst.size();
    }
    EXPECT_EQ(mismatched, 0) << "rings=" << rings;
    // Packing: a slot carries about five IMIX frames, so far fewer slots
    // than frames went through the rings.
    EXPECT_LT(switchless_jobs(*enclave) - jobs_before, frames / 3)
        << "rings=" << rings;
    EXPECT_EQ(switchless.flow_stats().inspected,
              sync_client.flow_stats().inspected);
  }
}

TEST_F(InspectionFixture, SlotFillingFramesTravelAlone) {
  auto enclave = load();
  InspectionClient client(enclave, InspectionClient::Mode::kSwitchless);
  client.load_rules(demo_rules());

  // A 64-B frame and an MTU frame share a slot (84 + 1520 bytes); a second
  // MTU frame does not fit beside them; a kMaxInlineFramePayload frame
  // fills a slot alone; the last small frame needs a fresh slot.
  std::vector<dp::Packet> burst;
  burst.push_back(make_packet(std::string(64, 'a'), 80, 0x0a000901));
  burst.push_back(make_packet(std::string(1500, 'b'), 80, 0x0a000902));
  burst.push_back(
      make_packet(std::string(1500 - 7, 'c') + "/bin/sh", 80, 0x0a000903));
  burst.push_back(make_packet(
      std::string(kMaxInlineFramePayload - 7, 'd') + "/bin/sh", 80,
      0x0a000904));
  burst.push_back(make_packet(std::string(64, 'e'), 80, 0x0a000905));
  const std::uint64_t jobs_before = switchless_jobs(*enclave);
  const auto outcomes = inspect_all(client, burst);
  EXPECT_EQ(switchless_jobs(*enclave) - jobs_before, 4u);
  ASSERT_EQ(outcomes.size(), burst.size());
  const std::array<dp::InspectVerdict, 5> expected = {
      dp::InspectVerdict::kForward, dp::InspectVerdict::kForward,
      dp::InspectVerdict::kDrop, dp::InspectVerdict::kDrop,
      dp::InspectVerdict::kForward};
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_EQ(outcomes[i].verdict, expected[i]) << i;
    EXPECT_EQ(outcomes[i].rule, expected[i] == dp::InspectVerdict::kDrop
                                    ? "exploit-shell"
                                    : "")
        << i;
  }
}

TEST_F(InspectionFixture, CachedDropWithinOneSlot) {
  // A drop frame and later frames of the same flow ride one slot: the
  // later frames are judged after it and get the sticky cached drop.
  auto enclave = load();
  InspectionClient client(enclave, InspectionClient::Mode::kSwitchless);
  client.load_rules(demo_rules());
  const std::vector<dp::Packet> burst = {
      make_packet("run /bin/sh", 80, 0x0a000a01),
      make_packet("totally harmless", 80, 0x0a000a01),
      make_packet("totally harmless", 80, 0x0a000a02),
      make_packet("also harmless", 80, 0x0a000a01)};
  const InspectionStats before = client.flow_stats();
  const std::uint64_t jobs_before = switchless_jobs(*enclave);
  const auto outcomes = inspect_all(client, burst);
  EXPECT_EQ(switchless_jobs(*enclave) - jobs_before, 1u);
  ASSERT_EQ(outcomes.size(), 4u);
  for (const std::size_t i : {0u, 1u, 3u}) {
    EXPECT_EQ(outcomes[i].verdict, dp::InspectVerdict::kDrop) << i;
    EXPECT_EQ(outcomes[i].rule, "exploit-shell") << i;
  }
  EXPECT_EQ(outcomes[2].verdict, dp::InspectVerdict::kForward);
  const InspectionStats after = client.flow_stats();
  EXPECT_EQ(after.cache_hits - before.cache_hits, 2u);
  EXPECT_EQ(after.dropped - before.dropped, 3u);
  EXPECT_EQ(after.flows, 2u);
}

TEST_F(InspectionFixture, OversizedFrameMidBurstFreesEverySlot) {
  InspectionClient::Options options;
  options.mode = InspectionClient::Mode::kSwitchless;
  options.rings = 2;
  InspectionClient client(load(), options);
  client.load_rules(demo_rules());
  const auto occupancy = [] {
    std::int64_t total = 0;
    for (const char* ring : {"inspection/0", "inspection/1"}) {
      total += obs::registry()
                   .gauge("vnfsgx_hostcall_ring_occupancy", {{"ring", ring}})
                   .value();
    }
    return total;
  };

  // Frames before the oversized one sit in open (claimed) slots or in
  // published ones when it is rejected; all of them must be given back.
  std::vector<dp::Packet> burst;
  for (int i = 0; i < 40; ++i) {
    burst.push_back(make_packet(std::string(100, 'a'), 80, 0x0a000b00 + i));
  }
  burst[25] = make_packet(std::string(kMaxInlineFramePayload + 1, 'x'), 80,
                          0x0a000b99);
  for (int round = 0; round < 3; ++round) {
    EXPECT_THROW(inspect_all(client, burst), Error);
    EXPECT_EQ(occupancy(), 0);
  }
  burst[25] = make_packet("run /bin/sh", 80, 0x0a000b99);
  const auto outcomes = inspect_all(client, burst);
  ASSERT_EQ(outcomes.size(), burst.size());
  EXPECT_EQ(outcomes[25].verdict, dp::InspectVerdict::kDrop);
  EXPECT_EQ(occupancy(), 0);
}

TEST_F(InspectionFixture, FlowTableCountsDistinctTuplesThroughTheEnclave) {
  // 100k distinct flows through the packed ring path, across many rehashes
  // of every shard's table; a second pass over some of them adds no flow.
  constexpr std::uint32_t kFlows = 100'000;
  InspectionClient client(load(), InspectionClient::Mode::kSwitchless);
  client.load_rules(demo_rules());
  std::vector<dp::Packet> burst(64, make_packet("clean frame"));
  for (std::uint32_t base = 0; base < kFlows; base += 64) {
    for (std::uint32_t i = 0; i < 64; ++i) {
      burst[i].src_ip = 0x0b000000u + base + i;
      burst[i].src_port = static_cast<std::uint16_t>(i);
    }
    ASSERT_EQ(inspect_all(client, burst).size(), burst.size());
  }
  const std::uint64_t sent = (kFlows + 63) / 64 * 64;
  InspectionStats stats = client.flow_stats();
  EXPECT_EQ(stats.flows, sent);
  EXPECT_EQ(stats.inspected, sent);
  inspect_all(client, burst);  // the last 64 flows again
  stats = client.flow_stats();
  EXPECT_EQ(stats.flows, sent);
  EXPECT_EQ(stats.inspected, sent + 64);

  client.reset_flows();
  EXPECT_EQ(client.flow_stats().flows, 0u);
  inspect_all(client, burst);
  EXPECT_EQ(client.flow_stats().flows, 64u);
}

// ---------------------------------------------------------------------------
// Dataplane burst punt path
// ---------------------------------------------------------------------------

TEST_F(InspectionFixture, ProcessBurstPuntsOncePerBurst) {
  auto enclave = load();
  InspectionClient::Options options;
  options.mode = InspectionClient::Mode::kSwitchless;
  options.rings = 2;
  options.ring_capacity = 16;
  InspectionClient client(enclave, options);
  client.load_rules(demo_rules());

  dp::Switch sw(1);
  std::size_t hook_calls = 0;
  const dp::BurstInspectorFn inner = client.as_burst_inspector();
  sw.set_burst_inspector([&](std::span<const dp::Packet* const> frames,
                             std::uint16_t in_port) {
    ++hook_calls;
    return inner(frames, in_port);
  });
  ASSERT_TRUE(sw.has_burst_inspector());
  dp::FlowEntry punt;
  punt.name = "punt";
  punt.action = dp::Action::inspect(4);
  sw.add_flow(punt);

  std::vector<dp::Packet> burst;
  for (int i = 0; i < 12; ++i) {
    switch (i % 3) {
      case 0:
        burst.push_back(make_packet("clean " + std::to_string(i), 80,
                                    0x0a000400 + i));
        break;
      case 1:
        burst.push_back(make_packet("run /bin/sh", 80, 0x0a000400 + i));
        break;
      default:
        burst.push_back(
            make_packet("login: admin admin", 23, 0x0a000400 + i));
    }
  }

  const std::size_t alerts_before = sw.packet_in_queue().size();
  const auto results = sw.process_burst(burst, 1);
  ASSERT_EQ(results.size(), burst.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    switch (i % 3) {
      case 0:
        EXPECT_EQ(results[i].kind, dp::ForwardingResult::Kind::kForwarded)
            << i;
        EXPECT_EQ(results[i].out_port, 4) << i;
        EXPECT_EQ(results[i].verdict, dp::InspectVerdict::kForward) << i;
        break;
      case 1:
        EXPECT_EQ(results[i].kind, dp::ForwardingResult::Kind::kDropped) << i;
        EXPECT_EQ(results[i].inspect_rule, "exploit-shell") << i;
        break;
      default:
        EXPECT_EQ(results[i].kind, dp::ForwardingResult::Kind::kForwarded)
            << i;
        EXPECT_EQ(results[i].verdict, dp::InspectVerdict::kAlert) << i;
        EXPECT_EQ(results[i].inspect_rule, "telnet-probe") << i;
    }
    EXPECT_TRUE(results[i].inspected) << i;
  }
  EXPECT_EQ(hook_calls, 1u);
  // Every alert verdict surfaced a packet-in, exactly as process() does.
  EXPECT_EQ(sw.packet_in_queue().size(), alerts_before + 4);
}

TEST_F(InspectionFixture, ProcessIsABurstOfOne) {
  InspectionClient client(load());
  client.load_rules(demo_rules());

  dp::Switch sw(1);
  std::vector<std::size_t> punted;  // frames per hook call
  const dp::BurstInspectorFn inner = client.as_burst_inspector();
  sw.set_burst_inspector([&](std::span<const dp::Packet* const> frames,
                             std::uint16_t in_port) {
    punted.push_back(frames.size());
    return inner(frames, in_port);
  });
  dp::FlowEntry punt;
  punt.name = "punt";
  punt.action = dp::Action::inspect(4);
  sw.add_flow(punt);
  dp::FlowEntry telnet;
  telnet.name = "telnet";
  telnet.priority = 10;
  telnet.match.dst_port = 23;
  telnet.action = dp::Action::forward(5);
  sw.add_flow(telnet);

  const auto clean = sw.process(make_packet("clean", 80, 0x0a000500), 1);
  EXPECT_EQ(clean.kind, dp::ForwardingResult::Kind::kForwarded);
  EXPECT_EQ(clean.out_port, 4);
  EXPECT_TRUE(clean.inspected);
  const auto bad = sw.process(make_packet("run /bin/sh", 80, 0x0a000501), 1);
  EXPECT_EQ(bad.kind, dp::ForwardingResult::Kind::kDropped);
  EXPECT_EQ(bad.inspect_rule, "exploit-shell");
  EXPECT_EQ(punted, (std::vector<std::size_t>{1, 1}));

  // A packet no punt flow takes never reaches the hook.
  const auto direct =
      sw.process(make_packet("login: admin admin", 23, 0x0a000502), 1);
  EXPECT_EQ(direct.kind, dp::ForwardingResult::Kind::kForwarded);
  EXPECT_EQ(direct.out_port, 5);
  EXPECT_FALSE(direct.inspected);
  EXPECT_EQ(punted.size(), 2u);
}

TEST_F(InspectionFixture, ProcessBurstFailsClosedAsAUnit) {
  // No rules loaded: the burst inspector throws, and EVERY punted frame in
  // the burst must drop — a partial result would forward frames that were
  // never inspected.
  auto enclave = load();
  InspectionClient client(enclave, InspectionClient::Mode::kSwitchless);

  dp::Switch sw(1);
  sw.set_burst_inspector(client.as_burst_inspector());
  dp::FlowEntry punt;
  punt.name = "punt";
  punt.action = dp::Action::inspect(4);
  sw.add_flow(punt);

  std::vector<dp::Packet> burst;
  for (int i = 0; i < 6; ++i) {
    burst.push_back(make_packet("frame " + std::to_string(i), 80,
                                0x0a000600 + i));
  }
  const auto results = sw.process_burst(burst, 1);
  ASSERT_EQ(results.size(), burst.size());
  for (const auto& result : results) {
    EXPECT_EQ(result.kind, dp::ForwardingResult::Kind::kDropped);
    EXPECT_NE(result.inspect_rule.find("inspector-error"), std::string::npos);
  }

  // Recovery: provision rules and the same switch forwards clean traffic.
  client.load_rules(demo_rules());
  const auto after = sw.process_burst(burst, 1);
  for (const auto& result : after) {
    EXPECT_EQ(result.kind, dp::ForwardingResult::Kind::kForwarded);
  }
}

}  // namespace
}  // namespace vnfsgx::vnf
