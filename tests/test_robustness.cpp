// Decoder robustness: every wire-format parser in the system must survive
// arbitrary corruption — truncation, bit flips, random bytes — by throwing
// ParseError (or rejecting) rather than crashing or reading out of bounds.
// Deterministic mutation-based sweeps over all TLV decoders, JSON, the
// HTTP parser, the inspection NF's rule blobs (decoder, compiled matcher,
// and the enclave's rule loading) and its FrameDescriptor/FrameVerdict wire
// format (decoders, and the enclave handler behind them on single
// descriptors and on packed multi-descriptor slots).
#include <gtest/gtest.h>

#include <array>
#include <optional>

#include "common/sim_clock.h"
#include "core/protocol.h"
#include "crypto/random.h"
#include "dataplane/switch.h"
#include "http/wire.h"
#include "ima/measurement_list.h"
#include "ima/tpm.h"
#include "json/json.h"
#include "net/inmemory.h"
#include "pki/ca.h"
#include "sgx/platform.h"
#include "sgx/sigstruct.h"
#include "sgx/structs.h"
#include "vnf/inspection_enclave.h"
#include "vnf/inspection_wire.h"

namespace vnfsgx {
namespace {

using crypto::DeterministicRandom;

/// Apply deterministic mutations to `original` and feed each to `decode`.
/// The decoder must either succeed or throw Error; anything else
/// (crash, UB caught by sanitizers) fails the suite.
template <typename DecodeFn>
void mutation_sweep(const Bytes& original, DecodeFn decode) {
  DeterministicRandom rng(12345);

  // Truncations at every length.
  for (std::size_t len = 0; len <= original.size(); ++len) {
    Bytes cut(original.begin(), original.begin() + static_cast<std::ptrdiff_t>(len));
    try {
      decode(cut);
    } catch (const Error&) {
      // expected for most mutations
    }
  }
  // Single-bit flips across the buffer (stride keeps the sweep fast).
  for (std::size_t i = 0; i < original.size(); ++i) {
    for (int bit : {0, 7}) {
      Bytes mutated = original;
      mutated[i] ^= static_cast<std::uint8_t>(1u << bit);
      try {
        decode(mutated);
      } catch (const Error&) {
      }
    }
  }
  // Random garbage of assorted sizes.
  for (std::size_t size : {0u, 1u, 3u, 16u, 64u, 300u, 5000u}) {
    const Bytes garbage = rng.bytes(size);
    try {
      decode(garbage);
    } catch (const Error&) {
    }
  }
  // Length-field inflation: overwrite plausible TLV length bytes with 0xff.
  for (std::size_t i = 1; i + 3 < original.size(); i += 4) {
    Bytes mutated = original;
    mutated[i] = 0xff;
    mutated[i + 1] = 0xff;
    mutated[i + 2] = 0xff;
    try {
      decode(mutated);
    } catch (const Error&) {
    }
  }
}

struct RobustnessFixture : public ::testing::Test {
  DeterministicRandom rng{99};
  SimClock clock{1'700'000'000};

  /// One drop and one alert rule.
  static vnf::RuleSet ids_rules() {
    vnf::RuleSet rules;
    rules.add({"exploit-shell", to_bytes("/bin/sh"), vnf::RuleAction::kDrop});
    rules.add({"telnet-probe", to_bytes("admin admin"),
               vnf::RuleAction::kAlert});
    return rules;
  }

  /// An inspection enclave with ids_rules() installed.
  std::shared_ptr<sgx::Enclave> inspection_enclave(sgx::SgxPlatform& platform) {
    const sgx::EnclaveImage image = vnf::inspection_enclave_image();
    const auto vendor = crypto::ed25519_generate(rng);
    auto enclave = platform.load_enclave(
        image, sgx::sign_enclave(
                   vendor.seed,
                   sgx::measure_image(image.code, image.attributes), 1, 1));
    enclave->call(vnf::kOpLoadRules, ids_rules().encode());
    return enclave;
  }

  static Bytes encoded_frame(const std::string& payload) {
    vnf::wire::FrameDescriptor header;
    header.src_ip = 0x0a000001;
    header.dst_ip = 0x0a000064;
    header.src_port = 40000;
    header.dst_port = 80;
    header.in_port = 1;
    header.proto = 6;
    Bytes out(vnf::wire::kFrameHeaderSize + payload.size());
    vnf::wire::encode_frame(header, to_bytes(payload), out);
    return out;
  }
};

/// Descriptors in a kOpInspectFrame request, counted by walking it with
/// decode_frame; nullopt when the walk fails (no valid slot).
std::optional<std::size_t> count_descriptors(ByteView slot) {
  std::size_t count = 0;
  try {
    do {
      vnf::wire::FrameDescriptor header;
      const ByteView payload = vnf::wire::decode_frame(slot, &header);
      slot = slot.subspan(vnf::wire::kFrameHeaderSize + payload.size());
      ++count;
    } while (!slot.empty());
  } catch (const Error&) {
    return std::nullopt;
  }
  return count;
}

/// The reply to `slot` is well formed: exactly one verdict per descriptor,
/// each with a known verdict byte and a rule name exactly when the verdict
/// is not a plain forward, and nothing after the last one.
void expect_well_formed_verdicts(ByteView slot, ByteView reply) {
  const std::optional<std::size_t> frames = count_descriptors(slot);
  ASSERT_TRUE(frames.has_value()) << "a malformed slot was answered";
  for (std::size_t i = 0; i < *frames; ++i) {
    vnf::wire::FrameVerdict header;
    const ByteView rule = vnf::wire::decode_verdict(reply, &header);
    ASSERT_LE(header.verdict, 2);
    ASSERT_EQ(rule.size(), header.rule_len);
    const std::string name(rule.begin(), rule.end());
    if (header.verdict == 0) {
      ASSERT_TRUE(name.empty());
    } else {
      ASSERT_TRUE(name == "exploit-shell" || name == "telnet-probe") << name;
    }
    reply = reply.subspan(vnf::wire::kVerdictHeaderSize + rule.size());
  }
  ASSERT_TRUE(reply.empty()) << reply.size() << " bytes after the verdicts";
}

TEST_F(RobustnessFixture, CertificateDecoder) {
  pki::CertificateAuthority ca({"ca", "org"}, rng, clock);
  const auto kp = crypto::ed25519_generate(rng);
  const Bytes encoded =
      ca.issue({"subject", "org"}, kp.public_key, 3).encode();
  mutation_sweep(encoded, [](const Bytes& b) {
    const auto cert = pki::Certificate::decode(b);
    (void)cert.fingerprint();
  });
}

TEST_F(RobustnessFixture, CrlDecoder) {
  pki::CertificateAuthority ca({"ca", ""}, rng, clock);
  ca.revoke(1);
  ca.revoke(99);
  const Bytes encoded = ca.current_crl().encode();
  mutation_sweep(encoded, [](const Bytes& b) {
    const auto crl = pki::RevocationList::decode(b);
    (void)crl.is_revoked(1);
  });
}

TEST_F(RobustnessFixture, SgxStructDecoders) {
  sgx::ReportBody body;
  body.mr_enclave.fill(0xaa);
  body.isv_prod_id = 7;
  mutation_sweep(body.encode(),
                 [](const Bytes& b) { sgx::ReportBody::decode(b); });

  sgx::Report report;
  report.body = body;
  report.mac.fill(0xbb);
  mutation_sweep(report.encode(),
                 [](const Bytes& b) { sgx::Report::decode(b); });

  sgx::Quote quote;
  quote.body = body;
  quote.platform_id.fill(0xcc);
  mutation_sweep(quote.encode(), [](const Bytes& b) { sgx::Quote::decode(b); });

  const auto vendor = crypto::ed25519_generate(rng);
  const auto sig = sgx::sign_enclave(vendor.seed, body.mr_enclave, 1, 1);
  mutation_sweep(sig.encode(), [](const Bytes& b) {
    const auto s = sgx::SigStruct::decode(b);
    (void)s.verify();
  });
}

TEST_F(RobustnessFixture, ImlDecoder) {
  ima::MeasurementList list;
  for (int i = 0; i < 5; ++i) {
    ima::Digest d{};
    d[0] = static_cast<std::uint8_t>(i + 1);
    list.add_measurement(d, "/bin/tool" + std::to_string(i));
  }
  list.add_violation("/tmp/x");
  mutation_sweep(list.encode(), [](const Bytes& b) {
    const auto l = ima::MeasurementList::decode(b);
    (void)l.aggregate();
  });
}

TEST_F(RobustnessFixture, TpmQuoteDecoder) {
  ima::Tpm tpm(rng);
  tpm.extend(10, ima::Digest{});
  const Bytes encoded = tpm.quote(10, {}).encode();
  mutation_sweep(encoded, [&](const Bytes& b) {
    const auto q = ima::TpmQuote::decode(b);
    (void)q.verify(crypto::Ed25519VerifyKey(tpm.aik_public_key()));
  });
}

TEST_F(RobustnessFixture, ProtocolDecoders) {
  core::AttestHostResponse response;
  response.quote = rng.bytes(100);
  response.iml = rng.bytes(200);
  response.tpm_quote = rng.bytes(50);
  mutation_sweep(core::encode(response), [](const Bytes& b) {
    core::decode_attest_host_response(b);
  });

  core::AttestVnfRequest request;
  request.vnf_name = "vnf-with-a-longish-name";
  mutation_sweep(core::encode(request), [](const Bytes& b) {
    core::decode_attest_vnf_request(b);
  });

  core::ProvisionRequest provision;
  provision.vnf_name = "v";
  provision.certificate = rng.bytes(150);
  mutation_sweep(core::encode(provision), [](const Bytes& b) {
    core::decode_provision_request(b);
  });
}

TEST_F(RobustnessFixture, JsonParser) {
  const std::string doc =
      R"({"name":"flow1","switch":1,"priority":100,"match":{"tcp_dst":443},)"
      R"("actions":["output=2","drop"],"note":"x\nyé","f":1.25e-3})";
  const Bytes encoded = to_bytes(doc);
  mutation_sweep(encoded, [](const Bytes& b) {
    const auto v = json::parse(vnfsgx::to_string(b));
    (void)json::serialize(v);
  });
}

TEST_F(RobustnessFixture, HttpRequestParser) {
  const Bytes wire = to_bytes(
      "POST /wm/staticflowpusher/json?x=1 HTTP/1.1\r\n"
      "Content-Type: application/json\r\n"
      "X-Custom: value with spaces\r\n"
      "Content-Length: 11\r\n"
      "\r\n"
      "{\"name\":1}x");
  mutation_sweep(wire, [](const Bytes& b) {
    auto [a, peer] = net::make_pipe();
    a->write(b);
    a->close();
    http::Connection conn(*peer);
    while (conn.read_request().has_value()) {
    }
  });
}

TEST_F(RobustnessFixture, RuleSetDecoder) {
  // A blob that decodes also compiles, and the matcher only names rules
  // that exist.
  vnf::RuleSet rules = ids_rules();
  rules.add({"sqli-web", to_bytes("' OR 1=1"), vnf::RuleAction::kDrop, 80, 6});
  const Bytes payload = to_bytes("GET /?q=' OR 1=1 /bin/sh admin admin");
  mutation_sweep(rules.encode(), [&](const Bytes& b) {
    const vnf::RuleSet decoded = vnf::RuleSet::decode(b);
    const vnf::RuleMatcher matcher(decoded);
    const auto hit = matcher.match(payload, 80, 6);
    if (hit) {
      ASSERT_LT(*hit, decoded.size());
    }
  });
}

TEST_F(RobustnessFixture, RejectedRuleLoadsKeepTheInstalledRules) {
  sgx::PlatformOptions options;
  options.crossing_cost = std::chrono::nanoseconds(0);
  sgx::SgxPlatform platform(rng, "robust-ids", options);
  auto enclave = inspection_enclave(platform);
  const Bytes drop_frame = encoded_frame("run /bin/sh now");
  std::size_t rejected = 0;
  // The drop frame still gets the installed rule's verdict from the
  // matcher (flows reset first, so no sticky verdict answers instead).
  const auto expect_installed_rules = [&] {
    enclave->call(vnf::kOpResetFlows, {});
    vnf::wire::FrameVerdict header;
    const Bytes reply = enclave->call(vnf::kOpInspectFrame, drop_frame);
    const ByteView rule = vnf::wire::decode_verdict(reply, &header);
    ASSERT_EQ(header.verdict, 1);
    ASSERT_EQ(header.cached, 0);
    ASSERT_EQ(std::string(rule.begin(), rule.end()), "exploit-shell");
  };

  // Over the cap: all 256 byte values make 257 classes, and 5,000 pattern
  // bytes make about 5,000 states.
  vnf::RuleSet too_big;
  too_big.add({"replacement-shell", to_bytes("/bin/sh"),
               vnf::RuleAction::kDrop});
  Bytes every_byte(256);
  for (std::size_t b = 0; b < every_byte.size(); ++b) {
    every_byte[b] = static_cast<std::uint8_t>(b);
  }
  too_big.add({"every-byte", every_byte, vnf::RuleAction::kAlert});
  for (const char* name : {"bulk-1", "bulk-2", "bulk-3", "bulk-4", "bulk-5"}) {
    too_big.add({name, rng.bytes(1000), vnf::RuleAction::kAlert});
  }
  try {
    enclave->call(vnf::kOpLoadRules, too_big.encode());
    FAIL() << "over-cap rule set installed";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("cap"), std::string::npos)
        << e.what();
  }
  expect_installed_rules();

  // Mutated blobs: every rejected one leaves the installed rules in place;
  // an accepted one is undone.
  vnf::RuleSet replacement;
  replacement.add({"replacement-shell", to_bytes("/bin/sh"),
                   vnf::RuleAction::kDrop});
  mutation_sweep(replacement.encode(), [&](const Bytes& b) {
    try {
      enclave->call(vnf::kOpLoadRules, b);
    } catch (const Error&) {
      ++rejected;
      expect_installed_rules();
      throw;
    }
    enclave->call(vnf::kOpLoadRules, ids_rules().encode());
  });
  EXPECT_GT(rejected, 50u);
}

TEST_F(RobustnessFixture, InspectionWireDecoders) {
  // decode_frame: a returned payload view always lies inside the input and
  // matches the header's frame_len.
  mutation_sweep(encoded_frame("GET / HTTP/1.1 /bin/sh"), [](const Bytes& b) {
    vnf::wire::FrameDescriptor header;
    const ByteView payload = vnf::wire::decode_frame(b, &header);
    ASSERT_EQ(payload.size(), header.frame_len);
    ASSERT_EQ(payload.data(), b.data() + vnf::wire::kFrameHeaderSize);
    ASSERT_LE(vnf::wire::kFrameHeaderSize + payload.size(), b.size());
  });

  // decode_verdict: same bound on the rule-name view.
  Bytes verdict(vnf::wire::kVerdictHeaderSize + 13);
  vnf::wire::encode_verdict(1, true, "exploit-shell", verdict);
  mutation_sweep(verdict, [](const Bytes& b) {
    vnf::wire::FrameVerdict header;
    const ByteView rule = vnf::wire::decode_verdict(b, &header);
    ASSERT_EQ(rule.size(), header.rule_len);
    ASSERT_EQ(rule.data(), b.data() + vnf::wire::kVerdictHeaderSize);
    ASSERT_LE(vnf::wire::kVerdictHeaderSize + rule.size(), b.size());
  });
}

TEST_F(RobustnessFixture, InspectionEnclaveFrameHandler) {
  // Mutated descriptors sent through a sync ECALL: the enclave either
  // rejects the frame (Error) or answers with a well-formed verdict.
  sgx::PlatformOptions options;
  options.crossing_cost = std::chrono::nanoseconds(0);
  sgx::SgxPlatform platform(rng, "robust-ids", options);
  auto enclave = inspection_enclave(platform);
  for (const char* payload : {"clean payload", "run /bin/sh now",
                              "login: admin admin"}) {
    mutation_sweep(encoded_frame(payload), [&](const Bytes& b) {
      expect_well_formed_verdicts(b, enclave->call(vnf::kOpInspectFrame, b));
    });
  }
}

TEST_F(RobustnessFixture, InspectionEnclaveSlotHandler) {
  // Mutated slots of 2-6 descriptors through kOpInspectFrame. Each either
  // raises Error having judged no frame (the flow statistics do not move)
  // or returns exactly one well-formed verdict per descriptor it holds.
  // The flows are reset before each slot, so a judged frame always adds
  // a flow.
  sgx::PlatformOptions options;
  options.crossing_cost = std::chrono::nanoseconds(0);
  sgx::SgxPlatform platform(rng, "robust-ids", options);
  auto enclave = inspection_enclave(platform);
  const std::array<const char*, 6> payloads = {
      "clean payload", "run /bin/sh now", "login: admin admin",
      "a somewhat longer clean payload of several words", "", "x"};
  std::size_t rejected = 0;
  std::size_t answered = 0;
  for (std::size_t frames = 2; frames <= payloads.size(); ++frames) {
    Bytes slot;
    for (std::size_t i = 0; i < frames; ++i) {
      const Bytes frame = encoded_frame(payloads[i]);
      slot.insert(slot.end(), frame.begin(), frame.end());
    }
    mutation_sweep(slot, [&](const Bytes& b) {
      enclave->call(vnf::kOpResetFlows, {});
      const Bytes stats = enclave->call(vnf::kOpFlowStats, {});
      Bytes reply;
      try {
        reply = enclave->call(vnf::kOpInspectFrame, b);
      } catch (const Error&) {
        ++rejected;
        ASSERT_EQ(enclave->call(vnf::kOpFlowStats, {}), stats);
        throw;
      }
      ++answered;
      expect_well_formed_verdicts(b, reply);
    });
  }
  EXPECT_GT(rejected, 100u);
  EXPECT_GT(answered, 100u);
}

TEST_F(RobustnessFixture, RetiredInspectOpcodeFailsClosed) {
  sgx::PlatformOptions options;
  options.crossing_cost = std::chrono::nanoseconds(0);
  sgx::SgxPlatform platform(rng, "robust-ids", options);
  auto enclave = inspection_enclave(platform);
  constexpr std::uint32_t kRetiredInspectOpcode = 2;
  const Bytes frame = encoded_frame("run /bin/sh now");
  try {
    enclave->call(kRetiredInspectOpcode, frame);
    FAIL() << "retired opcode accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("unknown opcode"), std::string::npos);
  }

  // A punt hook still speaking the retired opcode fails closed at the
  // switch: the frame drops, it never forwards uninspected.
  dataplane::Switch sw(1);
  sw.set_burst_inspector(
      [&](std::span<const dataplane::Packet* const> packets, std::uint16_t) {
        for (const dataplane::Packet* packet : packets) {
          enclave->call(kRetiredInspectOpcode, packet->payload);
        }
        return std::vector<dataplane::InspectionOutcome>(packets.size());
      });
  dataplane::FlowEntry punt;
  punt.name = "punt";
  punt.action = dataplane::Action::inspect(2);
  sw.add_flow(punt);
  dataplane::Packet packet;
  packet.payload = to_bytes("clean payload");
  const auto result = sw.process(packet, 1);
  EXPECT_EQ(result.kind, dataplane::ForwardingResult::Kind::kDropped);
  EXPECT_NE(result.inspect_rule.find("inspector-error"), std::string::npos);
  EXPECT_NE(result.inspect_rule.find("unknown opcode"), std::string::npos);
}

TEST_F(RobustnessFixture, HttpResponseParser) {
  const Bytes wire = to_bytes(
      "HTTP/1.1 200 OK\r\n"
      "Content-Length: 5\r\n"
      "\r\n"
      "hello");
  mutation_sweep(wire, [](const Bytes& b) {
    auto [a, peer] = net::make_pipe();
    a->write(b);
    a->close();
    http::Connection conn(*peer);
    while (conn.read_response().has_value()) {
    }
  });
}

}  // namespace
}  // namespace vnfsgx
