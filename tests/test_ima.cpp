// IMA simulator tests: filesystem, policy parsing/matching, measurement
// list semantics (cache, aggregate, violations), encoding.
#include <gtest/gtest.h>

#include "common/hex.h"
#include "crypto/sha256.h"
#include "ima/subsystem.h"
#include "pki/tlv.h"

namespace vnfsgx::ima {
namespace {

TEST(Filesystem, WriteReadTamper) {
  SimulatedFilesystem fs;
  fs.write_file("/bin/sh", to_bytes("shell"), {.uid = 0, .executable = true});
  EXPECT_TRUE(fs.exists("/bin/sh"));
  EXPECT_EQ(vnfsgx::to_string(fs.read_file("/bin/sh")), "shell");
  EXPECT_EQ(fs.metadata("/bin/sh").uid, 0u);

  fs.tamper_file("/bin/sh");
  EXPECT_NE(vnfsgx::to_string(fs.read_file("/bin/sh")), "shell");

  fs.remove_file("/bin/sh");
  EXPECT_FALSE(fs.exists("/bin/sh"));
  EXPECT_THROW(fs.read_file("/bin/sh"), Error);
  EXPECT_THROW(fs.tamper_file("/bin/sh"), Error);
}

TEST(Filesystem, ListsPaths) {
  SimulatedFilesystem fs;
  fs.write_file("/a", {});
  fs.write_file("/b", {});
  EXPECT_EQ(fs.list().size(), 2u);
  EXPECT_EQ(fs.file_count(), 2u);
}

TEST(Policy, ParsesRulesAndComments) {
  const ImaPolicy policy = ImaPolicy::parse(
      "# comment line\n"
      "measure func=BPRM_CHECK uid=0\n"
      "dont_measure path=/tmp\n"
      "measure func=FILE_CHECK fowner=0  # trailing comment\n"
      "\n");
  EXPECT_EQ(policy.rules().size(), 3u);
  EXPECT_TRUE(policy.rules()[0].measure);
  EXPECT_FALSE(policy.rules()[1].measure);
  EXPECT_EQ(policy.rules()[2].fowner.value(), 0u);
}

TEST(Policy, RejectsMalformed) {
  EXPECT_THROW(ImaPolicy::parse("observe func=BPRM_CHECK"), ParseError);
  EXPECT_THROW(ImaPolicy::parse("measure func=NONSENSE"), ParseError);
  EXPECT_THROW(ImaPolicy::parse("measure funky"), ParseError);
  EXPECT_THROW(ImaPolicy::parse("measure color=red"), ParseError);
}

TEST(Policy, FirstMatchWins) {
  const ImaPolicy policy = ImaPolicy::parse(
      "dont_measure path=/tmp\n"
      "measure func=BPRM_CHECK\n");
  ImaEvent tmp_exec{ImaHook::kBprmCheck, 0, 0, "/tmp/evil"};
  ImaEvent bin_exec{ImaHook::kBprmCheck, 0, 0, "/bin/sh"};
  EXPECT_FALSE(policy.should_measure(tmp_exec));
  EXPECT_TRUE(policy.should_measure(bin_exec));
}

TEST(Policy, DefaultIsDontMeasure) {
  const ImaPolicy policy = ImaPolicy::parse("measure func=BPRM_CHECK\n");
  ImaEvent open_event{ImaHook::kFileCheck, 1000, 0, "/etc/passwd"};
  EXPECT_FALSE(policy.should_measure(open_event));
}

TEST(Policy, UidCondition) {
  const ImaPolicy policy = ImaPolicy::parse("measure func=FILE_CHECK uid=0\n");
  ImaEvent root_open{ImaHook::kFileCheck, 0, 0, "/etc/shadow"};
  ImaEvent user_open{ImaHook::kFileCheck, 1000, 0, "/etc/shadow"};
  EXPECT_TRUE(policy.should_measure(root_open));
  EXPECT_FALSE(policy.should_measure(user_open));
}

TEST(MeasurementListTest, TemplateHashMatchesDefinition) {
  Digest digest = crypto::Sha256::hash(to_bytes("file content"));
  MeasurementList list;
  list.add_measurement(digest, "/bin/true");
  ASSERT_EQ(list.size(), 1u);
  EXPECT_EQ(list.entries()[0].template_hash,
            template_hash_for(digest, "/bin/true"));
  EXPECT_EQ(list.entries()[0].template_name, "ima-ng");
  EXPECT_FALSE(list.entries()[0].is_violation());
}

TEST(MeasurementListTest, AggregateIsOrderSensitiveExtendChain) {
  const Digest d1 = crypto::Sha256::hash(to_bytes("one"));
  const Digest d2 = crypto::Sha256::hash(to_bytes("two"));
  MeasurementList a, b;
  a.add_measurement(d1, "/1");
  a.add_measurement(d2, "/2");
  b.add_measurement(d2, "/2");
  b.add_measurement(d1, "/1");
  EXPECT_NE(a.aggregate(), b.aggregate());
  // Deterministic for the same sequence.
  MeasurementList c;
  c.add_measurement(d1, "/1");
  c.add_measurement(d2, "/2");
  EXPECT_EQ(a.aggregate(), c.aggregate());
}

TEST(MeasurementListTest, EmptyAggregateIsZeroPcrBase) {
  MeasurementList empty;
  EXPECT_EQ(empty.aggregate(), Digest{});
}

TEST(MeasurementListTest, ViolationsDetected) {
  MeasurementList list;
  list.add_measurement(crypto::Sha256::hash(to_bytes("x")), "/ok");
  EXPECT_FALSE(list.has_violation());
  list.add_violation("/etc/suspicious");
  EXPECT_TRUE(list.has_violation());
  EXPECT_TRUE(list.entries()[1].is_violation());
}

TEST(MeasurementListTest, EncodingRoundTrip) {
  MeasurementList list;
  list.add_measurement(crypto::Sha256::hash(to_bytes("a")), "/bin/a");
  list.add_violation("/tmp/bad");
  list.add_measurement(crypto::Sha256::hash(to_bytes("b")), "/bin/b");

  const MeasurementList decoded = MeasurementList::decode(list.encode());
  ASSERT_EQ(decoded.size(), 3u);
  EXPECT_EQ(decoded.entries(), list.entries());
  EXPECT_EQ(decoded.aggregate(), list.aggregate());
}

// The encoder before the exact-size single pass: one child TlvWriter per
// entry, wrapped as an entry element. Kept as the oracle that the wire
// bytes did not move; u32 and string values go through add_bytes as they
// did then.
Bytes encode_per_entry(const MeasurementList& list) {
  pki::TlvWriter w;
  for (const ImaEntry& entry : list.entries()) {
    pki::TlvWriter e;
    Bytes pcr;
    append_u32(pcr, entry.pcr);
    e.add_bytes(0x02, pcr);
    e.add_bytes(0x03, entry.template_hash);
    e.add_bytes(0x04, to_bytes(entry.template_name));
    e.add_bytes(0x05, entry.file_digest);
    e.add_bytes(0x06, to_bytes(entry.file_path));
    w.add_bytes(0x01, e.bytes());
  }
  return w.take();
}

void expect_encoding_unchanged(const MeasurementList& list) {
  const Bytes encoded = list.encode();
  EXPECT_EQ(encoded, encode_per_entry(list));
  EXPECT_EQ(encoded.capacity(), encoded.size());  // sized exactly, once
  EXPECT_EQ(MeasurementList::decode(encoded).entries(), list.entries());
}

TEST(MeasurementListTest, EncodingMatchesPerEntryEncoder) {
  MeasurementList list;
  expect_encoding_unchanged(list);  // 0 entries

  list.add_measurement(crypto::Sha256::hash(to_bytes("a")), "/bin/a");
  expect_encoding_unchanged(list);  // 1 entry

  list.add_violation("/tmp/bad");
  list.add_measurement(crypto::Sha256::hash(to_bytes("e")), "");
  list.add_measurement(crypto::Sha256::hash(to_bytes("long")),
                       "/" + std::string(299, 'p'));  // 300-byte path
  list.add_violation("");
  expect_encoding_unchanged(list);

  MeasurementList large;
  for (int i = 0; i < 1000; ++i) {
    const std::string path = "/opt/bin/tool" + std::to_string(i);
    if (i % 97 == 0) {
      large.add_violation(path);
    } else {
      large.add_measurement(crypto::Sha256::hash(to_bytes(path)), path);
    }
  }
  expect_encoding_unchanged(large);  // 1,000 entries
}

TEST(MeasurementListTest, DecodeRejectsGarbage) {
  EXPECT_THROW(MeasurementList::decode(to_bytes("junk")), ParseError);
}

class SubsystemFixture : public ::testing::Test {
 protected:
  SubsystemFixture() : ima_(fs_, ImaPolicy::tcb_default()) {
    fs_.write_file("/bin/app", to_bytes("application v1"),
                   {.uid = 0, .executable = true});
  }
  SimulatedFilesystem fs_;
  ImaSubsystem ima_;
};

TEST_F(SubsystemFixture, ExecProducesMeasurement) {
  EXPECT_TRUE(ima_.on_exec("/bin/app"));
  ASSERT_EQ(ima_.list().size(), 1u);
  EXPECT_EQ(ima_.list().entries()[0].file_path, "/bin/app");
  EXPECT_EQ(ima_.list().entries()[0].file_digest,
            crypto::Sha256::hash(to_bytes("application v1")));
}

TEST_F(SubsystemFixture, MeasurementCacheSkipsUnchangedFiles) {
  EXPECT_TRUE(ima_.on_exec("/bin/app"));
  EXPECT_FALSE(ima_.on_exec("/bin/app"));  // cached
  EXPECT_EQ(ima_.list().size(), 1u);
}

TEST_F(SubsystemFixture, ModifiedFileRemeasured) {
  ima_.on_exec("/bin/app");
  const Digest before = ima_.aggregate();
  fs_.tamper_file("/bin/app");
  EXPECT_TRUE(ima_.on_exec("/bin/app"));
  EXPECT_EQ(ima_.list().size(), 2u);
  EXPECT_NE(ima_.aggregate(), before);
}

TEST_F(SubsystemFixture, MissingFileIgnored) {
  EXPECT_FALSE(ima_.on_exec("/does/not/exist"));
  EXPECT_EQ(ima_.list().size(), 0u);
}

TEST_F(SubsystemFixture, ViolationRecorded) {
  ima_.report_violation("/bin/app");
  EXPECT_TRUE(ima_.list().has_violation());
}

TEST_F(SubsystemFixture, PolicyFiltersEvents) {
  SimulatedFilesystem fs;
  fs.write_file("/tmp/scratch", to_bytes("x"), {.uid = 0});
  fs.write_file("/bin/tool", to_bytes("y"), {.uid = 0, .executable = true});
  ImaSubsystem scoped(fs, ImaPolicy::parse("dont_measure path=/tmp\n"
                                           "measure func=BPRM_CHECK\n"));
  EXPECT_FALSE(scoped.on_exec("/tmp/scratch"));
  EXPECT_TRUE(scoped.on_exec("/bin/tool"));
}

// Scaling sweep used by the SUB-IMA experiment: list size grows linearly
// with measured files and the aggregate stays stable for equal content.
class ImaScaleSweep : public ::testing::TestWithParam<int> {};

TEST_P(ImaScaleSweep, MeasuresNFiles) {
  SimulatedFilesystem fs;
  ImaSubsystem ima(fs, ImaPolicy::tcb_default());
  const int n = GetParam();
  for (int i = 0; i < n; ++i) {
    const std::string path = "/bin/tool" + std::to_string(i);
    fs.write_file(path, to_bytes("content " + std::to_string(i)),
                  {.uid = 0, .executable = true});
    ima.on_exec(path);
  }
  EXPECT_EQ(ima.list().size(), static_cast<std::size_t>(n));
  const MeasurementList decoded = MeasurementList::decode(ima.list().encode());
  EXPECT_EQ(decoded.aggregate(), ima.aggregate());
}

INSTANTIATE_TEST_SUITE_P(Sizes, ImaScaleSweep, ::testing::Values(0, 1, 10, 100, 1000));

}  // namespace
}  // namespace vnfsgx::ima

// ---------------------------------------------------------------------------
// TPM (the §4 hardware root of trust)
// ---------------------------------------------------------------------------
// Appended below the main suite: tests for the simulated TPM and its IMA
// anchoring. (Namespace reopened to keep the file single-unit.)

namespace vnfsgx::ima {
namespace {

TEST(TpmTest, ExtendIsOrderSensitiveChain) {
  crypto::DeterministicRandom rng(9);
  Tpm a(rng), b(rng);
  const Digest d1 = crypto::Sha256::hash(to_bytes("one"));
  const Digest d2 = crypto::Sha256::hash(to_bytes("two"));
  a.extend(10, d1);
  a.extend(10, d2);
  b.extend(10, d2);
  b.extend(10, d1);
  EXPECT_NE(a.read(10), b.read(10));
  EXPECT_EQ(a.read(11), Pcr{});  // untouched PCRs stay zero
}

TEST(TpmTest, PcrIndexBoundsChecked) {
  crypto::DeterministicRandom rng(10);
  Tpm tpm(rng);
  EXPECT_THROW(tpm.extend(kTpmPcrCount, Digest{}), Error);
  EXPECT_THROW(tpm.read(kTpmPcrCount), Error);
}

TEST(TpmTest, QuoteVerifiesAndBindsNonce) {
  crypto::DeterministicRandom rng(11);
  Tpm tpm(rng);
  tpm.extend(10, crypto::Sha256::hash(to_bytes("entry")));
  std::array<std::uint8_t, 32> nonce{};
  nonce[0] = 0x55;
  const TpmQuote quote = tpm.quote(10, nonce);
  EXPECT_TRUE(quote.verify(crypto::Ed25519VerifyKey(tpm.aik_public_key())));
  EXPECT_EQ(quote.pcr_value, tpm.read(10));
  EXPECT_EQ(quote.nonce, nonce);

  // Round trip + tamper detection.
  TpmQuote decoded = TpmQuote::decode(quote.encode());
  EXPECT_TRUE(decoded.verify(crypto::Ed25519VerifyKey(tpm.aik_public_key())));
  decoded.pcr_value[0] ^= 1;
  EXPECT_FALSE(decoded.verify(crypto::Ed25519VerifyKey(tpm.aik_public_key())));
}

TEST(TpmTest, QuoteFromOtherTpmRejected) {
  crypto::DeterministicRandom rng(12);
  Tpm real(rng), rogue(rng);
  std::array<std::uint8_t, 32> nonce{};
  const TpmQuote quote = rogue.quote(10, nonce);
  EXPECT_FALSE(quote.verify(crypto::Ed25519VerifyKey(real.aik_public_key())));
}

TEST(TpmTest, ImaExtendsPcr10InLockstepWithAggregate) {
  crypto::DeterministicRandom rng(13);
  Tpm tpm(rng);
  SimulatedFilesystem fs;
  ImaSubsystem ima(fs, ImaPolicy::tcb_default());
  ima.attach_tpm(&tpm);
  EXPECT_TRUE(ima.tpm_attached());

  for (int i = 0; i < 5; ++i) {
    const std::string path = "/bin/t" + std::to_string(i);
    fs.write_file(path, to_bytes("content " + std::to_string(i)),
                  {.uid = 0, .executable = true});
    ima.on_exec(path);
    // Invariant: PCR 10 always equals the IML aggregate.
    EXPECT_EQ(tpm.read(kImaPcrIndex), ima.aggregate());
  }
  ima.report_violation("/bin/t0");
  EXPECT_EQ(tpm.read(kImaPcrIndex), ima.aggregate());
}

TEST(TpmTest, SanitizedImlDivergesFromPcr) {
  // The §4 attack: root removes an incriminating IML entry. The doctored
  // list's aggregate can no longer match PCR 10.
  crypto::DeterministicRandom rng(14);
  Tpm tpm(rng);
  SimulatedFilesystem fs;
  ImaSubsystem ima(fs, ImaPolicy::tcb_default());
  ima.attach_tpm(&tpm);
  for (int i = 0; i < 3; ++i) {
    const std::string path = "/bin/t" + std::to_string(i);
    fs.write_file(path, to_bytes("c" + std::to_string(i)),
                  {.uid = 0, .executable = true});
    ima.on_exec(path);
  }
  MeasurementList sanitized;
  for (const auto& e : ima.list().entries()) {
    if (e.file_path != "/bin/t1") {
      sanitized.add_measurement(e.file_digest, e.file_path);
    }
  }
  EXPECT_NE(sanitized.aggregate(), tpm.read(kImaPcrIndex));
}

TEST(TpmTest, DecodeRejectsGarbage) {
  EXPECT_THROW(TpmQuote::decode(to_bytes("nonsense")), ParseError);
}

}  // namespace
}  // namespace vnfsgx::ima
