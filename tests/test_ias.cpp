// IAS simulator tests: registration, quote verification statuses,
// revocation, report signing, and the REST front-end.
#include <gtest/gtest.h>

#include "common/hex.h"
#include "common/sim_clock.h"
#include "crypto/random.h"
#include "http/client.h"
#include "http/runtime.h"
#include "ias/http_api.h"
#include "net/server.h"
#include "sgx/platform.h"
#include "testbed/testbed.h"

namespace vnfsgx::ias {
namespace {

using crypto::DeterministicRandom;

enum : std::uint32_t { kReportOp = 1 };

class ReportLogic final : public sgx::TrustedLogic {
 public:
  Bytes handle_call(std::uint32_t, ByteView input,
                    sgx::EnclaveServices& services) override {
    const sgx::TargetInfo target = sgx::TargetInfo::decode(input);
    return services.create_report(target, sgx::ReportData{}).encode();
  }
};

/// The testbed's IAS (served at testbed::kIasAddress) plus a bare SGX
/// platform whose quotes the tests submit.
class IasFixture : public ::testing::Test {
 protected:
  IasFixture()
      : rng_(bed_.rng),
        clock_(bed_.clock),
        ias_(bed_.ias),
        platform_(std::make_unique<sgx::SgxPlatform>(rng_, "host",
                                                     sgx::PlatformOptions{})),
        vendor_(bed_.vendor) {}

  IasClient ias_client(const std::string& address = testbed::kIasAddress) {
    return IasClient([this, address] { return bed_.net.connect(address); },
                     ias_.report_signing_key());
  }

  http::Client http_client() {
    return http::Client(bed_.net.connect(testbed::kIasAddress));
  }

  sgx::Quote make_quote() {
    sgx::EnclaveImage image;
    image.name = "reporter";
    image.code = to_bytes("reporter enclave");
    image.factory = [] { return std::make_unique<ReportLogic>(); };
    const sgx::SigStruct sig = sgx::sign_enclave(
        vendor_.seed, sgx::measure_image(image.code, 0), 1, 1);
    auto enclave = platform_->load_enclave(image, sig);
    const Bytes report_bytes = enclave->call(
        kReportOp, platform_->quoting_enclave().target_info().encode());
    return platform_->quoting_enclave().quote(
        sgx::Report::decode(report_bytes));
  }

  void register_platform() {
    ias_.register_platform(platform_->platform_id(),
                           platform_->quoting_enclave().attestation_public_key());
  }

  testbed::Testbed bed_;
  crypto::RandomSource& rng_;
  SimClock& clock_;
  IasService& ias_;
  std::unique_ptr<sgx::SgxPlatform> platform_;
  crypto::Ed25519KeyPair& vendor_;
};

TEST_F(IasFixture, OkForRegisteredPlatform) {
  register_platform();
  const auto avr = ias_.verify_quote(make_quote().encode());
  EXPECT_EQ(avr.status(), QuoteStatus::kOk);
  EXPECT_TRUE(avr.verify(crypto::Ed25519VerifyKey(ias_.report_signing_key())));
  EXPECT_EQ(avr.platform_id(), platform_->platform_id());
  EXPECT_EQ(avr.timestamp(), clock_.now());
}

TEST_F(IasFixture, UnknownPlatformRejected) {
  const auto avr = ias_.verify_quote(make_quote().encode());
  EXPECT_EQ(avr.status(), QuoteStatus::kUnknownPlatform);
  EXPECT_TRUE(avr.verify(crypto::Ed25519VerifyKey(ias_.report_signing_key())));  // errors are signed too
}

TEST_F(IasFixture, RevokedPlatformRejected) {
  register_platform();
  ias_.revoke_platform(platform_->platform_id());
  EXPECT_TRUE(ias_.is_revoked(platform_->platform_id()));
  const auto avr = ias_.verify_quote(make_quote().encode());
  EXPECT_EQ(avr.status(), QuoteStatus::kGroupRevoked);
}

TEST_F(IasFixture, TamperedQuoteSignatureInvalid) {
  register_platform();
  sgx::Quote quote = make_quote();
  quote.body.report_data[0] ^= 1;
  const auto avr = ias_.verify_quote(quote.encode());
  EXPECT_EQ(avr.status(), QuoteStatus::kSignatureInvalid);
}

TEST_F(IasFixture, MalformedQuote) {
  const auto avr = ias_.verify_quote(to_bytes("not a quote"));
  EXPECT_EQ(avr.status(), QuoteStatus::kMalformed);
  EXPECT_TRUE(avr.verify(crypto::Ed25519VerifyKey(ias_.report_signing_key())));
}

TEST_F(IasFixture, ReportSignatureTamperDetected) {
  register_platform();
  auto avr = ias_.verify_quote(make_quote().encode());
  avr.body_json[avr.body_json.size() / 2] ^= 1;
  EXPECT_FALSE(avr.verify(crypto::Ed25519VerifyKey(ias_.report_signing_key())));
}

TEST_F(IasFixture, QuoteBodyEchoMatchesSubmitted) {
  register_platform();
  const sgx::Quote quote = make_quote();
  const auto avr = ias_.verify_quote(quote.encode());
  EXPECT_EQ(avr.quoted_enclave(), quote.body);
}

// fields() parses a report once; it must read what the three per-field
// accessors read, on an OK report, a revoked platform's report and a
// report over bytes that are not a quote.
void expect_fields_agree(const VerificationReport& avr) {
  const ReportFields fields = avr.fields();
  EXPECT_EQ(fields.status, avr.status());
  ASSERT_TRUE(fields.quote.has_value());
  EXPECT_EQ(fields.quote->body, avr.quoted_enclave());
  EXPECT_EQ(fields.quote->platform_id, avr.platform_id());
}

TEST_F(IasFixture, ReportFieldsAgreeWithAccessorsOnOkReport) {
  register_platform();
  const auto avr = ias_.verify_quote(make_quote().encode());
  EXPECT_EQ(avr.fields().status, QuoteStatus::kOk);
  expect_fields_agree(avr);
}

TEST_F(IasFixture, ReportFieldsAgreeWithAccessorsOnRevokedPlatform) {
  register_platform();
  ias_.revoke_platform(platform_->platform_id());
  const auto avr = ias_.verify_quote(make_quote().encode());
  EXPECT_EQ(avr.fields().status, QuoteStatus::kGroupRevoked);
  expect_fields_agree(avr);
}

TEST_F(IasFixture, ReportFieldsAgreeWithAccessorsOnBadQuote) {
  const auto avr = ias_.verify_quote(to_bytes("not a quote"));
  const ReportFields fields = avr.fields();
  EXPECT_EQ(fields.status, QuoteStatus::kMalformed);
  EXPECT_EQ(fields.status, avr.status());
  // The echoed bytes do not decode: the accessors throw, fields() has none.
  EXPECT_FALSE(fields.quote.has_value());
  EXPECT_THROW(avr.quoted_enclave(), ParseError);
  EXPECT_THROW(avr.platform_id(), ParseError);
}

TEST_F(IasFixture, ReportIdsIncrement) {
  register_platform();
  const auto a = ias_.verify_quote(make_quote().encode());
  const auto b = ias_.verify_quote(make_quote().encode());
  EXPECT_NE(a.report_id(), b.report_id());
  EXPECT_EQ(ias_.reports_issued(), 2u);
}

TEST_F(IasFixture, HttpApiEndToEnd) {
  register_platform();
  IasClient client = ias_client();
  const auto avr = client.verify_quote(make_quote().encode());
  EXPECT_EQ(avr.status(), QuoteStatus::kOk);
}

TEST_F(IasFixture, HttpApiRejectsBadRequests) {
  {
    http::Client c = http_client();
    EXPECT_EQ(c.post("/attestation/v4/report", "not json").status, 400);
    c.close();
  }
  {
    http::Client c = http_client();
    EXPECT_EQ(c.post("/attestation/v4/report", R"({"x":1})").status, 400);
    c.close();
  }
  {
    http::Client c = http_client();
    EXPECT_EQ(c.post("/attestation/v4/report",
                     R"({"isvEnclaveQuote":"!!!!"})").status, 400);
    c.close();
  }
}

TEST_F(IasFixture, SigrlEndpoint) {
  register_platform();

  const std::string id_hex =
      to_hex(ByteView(platform_->platform_id().data(), 16));
  {
    http::Client c = http_client();
    const auto res = c.get("/attestation/v4/sigrl/" + id_hex);
    EXPECT_EQ(res.status, 200);
    EXPECT_FALSE(json::parse(vnfsgx::to_string(res.body)).at("revoked").as_bool());
    c.close();
  }
  ias_.revoke_platform(platform_->platform_id());
  {
    http::Client c = http_client();
    const auto res = c.get("/attestation/v4/sigrl/" + id_hex);
    EXPECT_TRUE(json::parse(vnfsgx::to_string(res.body)).at("revoked").as_bool());
    c.close();
  }
  {
    http::Client c = http_client();
    EXPECT_EQ(c.get("/attestation/v4/sigrl/zz").status, 400);
    c.close();
  }
}

TEST_F(IasFixture, IasClientRejectsForgedSignature) {
  register_platform();
  // A rogue IAS signing with a different key must be detected.
  DeterministicRandom rogue_rng(123);
  IasService rogue(rogue_rng, clock_);
  rogue.register_platform(platform_->platform_id(),
                          platform_->quoting_enclave().attestation_public_key());
  http::Router router = make_ias_router(rogue);
  net::ServerRuntime rogue_runtime({.name = "test-rogue-ias"});
  rogue_runtime.listen_inmemory(bed_.net, "rogue-ias:443",
                                http::make_http_driver_factory(router));
  // Client pins the *real* service's key.
  IasClient client = ias_client("rogue-ias:443");
  EXPECT_THROW(client.verify_quote(make_quote().encode()), ProtocolError);
}

}  // namespace
}  // namespace vnfsgx::ias
