#include "vnf/credential_enclave.h"

#include <optional>

#include "crypto/sha256.h"
#include "pki/tlv.h"
#include "pki/truststore.h"
#include "ratls/evidence.h"
#include "ratls/issue.h"
#include "tls/session.h"
#include "vnf/ocall.h"

namespace vnfsgx::vnf {

namespace {

enum : std::uint8_t {
  kTagNonce = 0x01,
  kTagTargetInfo = 0x02,
  kTagStreamToken = 0x03,
  kTagNow = 0x04,
  kTagExpectedName = 0x05,
  kTagCaRoot = 0x06,
  kTagMax = 0x07,
  kTagSeed = 0x08,
  kTagCert = 0x09,
  kTagQuote = 0x0a,
  kTagImlDigest = 0x0b,
  kTagVendorKey = 0x0c,
  kTagSerial = 0x0d,
  kTagSubjectCn = 0x0e,
  kTagSubjectOrg = 0x0f,
  kTagNotBefore = 0x10,
  kTagNotAfter = 0x11,
};

Bytes credential_enclave_code() {
  return to_bytes(
      "vnfsgx credential enclave v1.0\n"
      "role: in-enclave VNF credential store + TLS endpoint\n"
      "guarantee: private key and TLS session keys never leave\n");
}

/// Wraps an OCALL stream token as a net::Stream the in-enclave TLS client
/// can use. Throws if untrusted code unregistered the transport.
class OcallStream final : public net::Stream {
 public:
  explicit OcallStream(std::uint64_t token) : token_(token) {}

  void write(ByteView data) override { resolve().write(data); }
  std::size_t read(std::span<std::uint8_t> out) override {
    return resolve().read(out);
  }
  void close() override {
    net::Stream* s = OcallStreamRegistry::get(token_);
    if (s) s->close();
  }

 private:
  net::Stream& resolve() {
    net::Stream* s = OcallStreamRegistry::get(token_);
    if (!s) throw IoError("ocall stream: transport unregistered");
    return *s;
  }
  std::uint64_t token_;
};

/// RandomSource adapter over the in-enclave RNG service.
class ServicesRng final : public crypto::RandomSource {
 public:
  explicit ServicesRng(sgx::EnclaveServices& services) : services_(services) {}
  void fill(std::span<std::uint8_t> out) override { services_.read_rand(out); }

 private:
  sgx::EnclaveServices& services_;
};

/// Clock adapter for a timestamp passed through the ECALL (sgx_get_trusted
/// _time equivalent: the enclave trusts the value only for certificate
/// validity checks, same as the prototype).
class FixedClock final : public Clock {
 public:
  explicit FixedClock(UnixTime now) : now_(now) {}
  UnixTime now() const override { return now_; }

 private:
  UnixTime now_;
};

class CredentialEnclaveLogic final : public sgx::TrustedLogic {
 public:
  Bytes handle_call(std::uint32_t opcode, ByteView input,
                    sgx::EnclaveServices& services) override {
    switch (static_cast<CredentialOp>(opcode)) {
      case kOpGenerateKey:
        return generate_key(services);
      case kOpCreateReport:
        return create_report(input, services);
      case kOpInstallCertificate:
        return install_certificate(input, services);
      case kOpGetCertificate:
        return get_certificate(services);
      case kOpSign:
        return sign(input);
      case kOpSealState:
        return seal_state(services);
      case kOpRestoreState:
        return restore_state(input, services);
      case kOpTlsOpen:
        return tls_open(input, services);
      case kOpTlsSend:
        return tls_send(input);
      case kOpTlsRecv:
        return tls_recv(input);
      case kOpTlsClose:
        return tls_close();
      case kOpRotateKey:
        return rotate_key(services);
      case kOpRatlsReport:
        return ratls_report(input, services);
      case kOpRatlsIssue:
        return ratls_issue(input, services);
    }
    throw Error("credential enclave: unknown opcode " + std::to_string(opcode));
  }

 private:
  /// The vault seed's signing key; throws while the vault holds no seed.
  /// The seed enters the vault only through generate_key and restore_state,
  /// which both expand it right away, and leaves it only through
  /// rotate_key, which drops the key with it.
  const crypto::Ed25519SigningKey& signing_key() const {
    if (!signing_key_) throw Error("credential enclave: no key generated yet");
    return *signing_key_;
  }

  Bytes generate_key(sgx::EnclaveServices& services) {
    if (!services.vault().contains("seed")) {
      Zeroizing<crypto::Ed25519Seed> seed;
      services.read_rand(seed);
      services.vault().store("seed", Bytes(seed.begin(), seed.end()));
      signing_key_ = crypto::ed25519_expand_key(seed);
    }
    const auto& pub = signing_key().public_key;
    return Bytes(pub.begin(), pub.end());
  }

  Bytes create_report(ByteView input, sgx::EnclaveServices& services) {
    pki::TlvReader r(input);
    const auto nonce = r.expect_array<32>(kTagNonce);
    const sgx::TargetInfo target =
        sgx::TargetInfo::decode(r.expect(kTagTargetInfo));
    const sgx::Report report = services.create_report(
        target,
        credential_report_data(nonce, signing_key().public_key));
    return report.encode();
  }

  Bytes install_certificate(ByteView input, sgx::EnclaveServices& services) {
    const pki::Certificate cert = pki::Certificate::decode(input);
    if (cert.public_key != signing_key().public_key) {
      throw SecurityViolation(
          "credential enclave: certificate key does not match enclave key");
    }
    services.vault().store("cert", cert.encode());
    return {};
  }

  Bytes get_certificate(sgx::EnclaveServices& services) {
    if (!services.vault().contains("cert")) {
      throw Error("credential enclave: no certificate installed");
    }
    return services.vault().load("cert");
  }

  Bytes sign(ByteView input) {
    const auto sig = crypto::ed25519_sign(signing_key(), input);
    return Bytes(sig.begin(), sig.end());
  }

  Bytes seal_state(sgx::EnclaveServices& services) {
    pki::TlvWriter w;
    w.add_bytes(kTagSeed, services.vault().load("seed"));
    if (services.vault().contains("cert")) {
      w.add_bytes(kTagCert, services.vault().load("cert"));
    }
    return services.seal(sgx::SealPolicy::kMrEnclave, w.bytes(),
                         to_bytes("credential-state"));
  }

  Bytes restore_state(ByteView input, sgx::EnclaveServices& services) {
    const auto plain = services.unseal(input, to_bytes("credential-state"));
    if (!plain) {
      throw SecurityViolation("credential enclave: sealed state rejected");
    }
    pki::TlvReader r(*plain);
    services.vault().store("seed", r.expect_bytes(kTagSeed));
    const Bytes& seed_bytes = services.vault().load("seed");
    Zeroizing<crypto::Ed25519Seed> seed;
    std::copy(seed_bytes.begin(), seed_bytes.end(), seed.begin());
    signing_key_ = crypto::ed25519_expand_key(seed);
    if (!r.done()) {
      services.vault().store("cert", r.expect_bytes(kTagCert));
    }
    return {};
  }

  Bytes tls_open(ByteView input, sgx::EnclaveServices& services) {
    pki::TlvReader r(input);
    const std::uint64_t token = r.expect_u64(kTagStreamToken);
    const UnixTime now = static_cast<UnixTime>(r.expect_u64(kTagNow));
    const std::string expected_name = r.expect_string(kTagExpectedName);
    const pki::Certificate ca_root =
        pki::Certificate::decode(r.expect(kTagCaRoot));

    if (!services.vault().contains("cert")) {
      throw Error("credential enclave: no certificate installed");
    }
    // One trust store per enclave, kept across sessions: the root's
    // self-signature is checked once per root, and the controller
    // certificate's verdict comes from the store's validation cache (its
    // validity window is still checked against this call's `now`). A
    // different root replaces the store, dropping every cached verdict.
    const std::string root_fingerprint = ca_root.fingerprint();
    if (!truststore_ || root_fingerprint != truststore_root_) {
      auto store = std::make_unique<pki::TrustStore>();
      store->add_root(ca_root);
      session_.reset();  // a live session may still point at the old store
      truststore_ = std::move(store);
      truststore_root_ = root_fingerprint;
    }
    clock_ = std::make_unique<FixedClock>(now);
    rng_ = std::make_unique<ServicesRng>(services);

    tls::Config config;
    config.certificate =
        pki::Certificate::decode(services.vault().load("cert"));
    // The signer closes over a copy of the expanded key *inside the
    // enclave*; the private key is never marshalled out, and the closure's
    // copy wipes itself.
    config.signer = [key = signing_key()](ByteView data) {
      return crypto::ed25519_sign(key, data);
    };
    config.truststore = truststore_.get();
    config.expected_server_name = expected_name;
    config.clock = clock_.get();
    config.rng = rng_.get();

    session_ = tls::Session::connect(std::make_unique<OcallStream>(token),
                                     config);
    return {};
  }

  Bytes tls_send(ByteView input) {
    require_session();
    session_->write(input);
    return {};
  }

  Bytes tls_recv(ByteView input) {
    require_session();
    pki::TlvReader r(input);
    const std::uint32_t max = r.expect_u32(kTagMax);
    Bytes out(std::min<std::uint32_t>(max, 1 << 20));
    const std::size_t n = session_->read(out);
    out.resize(n);
    return out;
  }

  Bytes tls_close() {
    if (session_) {
      session_->close();
      session_.reset();
    }
    return {};
  }

  Bytes ratls_report(ByteView input, sgx::EnclaveServices& services) {
    pki::TlvReader r(input);
    const sgx::TargetInfo target =
        sgx::TargetInfo::decode(r.expect(kTagTargetInfo));
    const sgx::Report report = services.create_report(
        target, ratls::report_data_for_key(signing_key().public_key));
    return report.encode();
  }

  Bytes ratls_issue(ByteView input, sgx::EnclaveServices& services) {
    pki::TlvReader r(input);
    const Bytes quote_bytes = r.expect_bytes(kTagQuote);
    ratls::Evidence evidence;
    evidence.quote = sgx::Quote::decode(quote_bytes);
    evidence.iml_digest = r.expect_array<crypto::kSha256DigestSize>(
        kTagImlDigest);
    evidence.vendor_key =
        r.expect_array<crypto::kEd25519PublicKeySize>(kTagVendorKey);
    evidence.isv_prod_id = evidence.quote.body.isv_prod_id;
    evidence.isv_svn = evidence.quote.body.isv_svn;

    ratls::CertificateSpec spec;
    spec.serial = r.expect_u64(kTagSerial);
    spec.subject.common_name = r.expect_string(kTagSubjectCn);
    spec.subject.organization = r.expect_string(kTagSubjectOrg);
    spec.not_before = static_cast<UnixTime>(r.expect_u64(kTagNotBefore));
    spec.not_after = static_cast<UnixTime>(r.expect_u64(kTagNotAfter));

    const crypto::Ed25519SigningKey& key = signing_key();
    const auto& pub = key.public_key;
    // The quote must speak for THIS enclave's key: untrusted code supplied
    // it, and binding someone else's quote to our key (or ours to theirs)
    // must not produce a certificate.
    if (evidence.quote.body.report_data != ratls::report_data_for_key(pub)) {
      throw SecurityViolation(
          "credential enclave: quote does not bind this enclave's key");
    }
    const pki::Certificate cert = ratls::make_certificate(
        spec, pub, evidence,
        [&key](ByteView data) { return crypto::ed25519_sign(key, data); });
    services.vault().store("cert", cert.encode());
    return cert.encode();
  }

  Bytes rotate_key(sgx::EnclaveServices& services) {
    // Any live session was established under the old credential; drop it.
    tls_close();
    services.vault().erase("seed");
    services.vault().erase("cert");
    signing_key_.reset();
    return generate_key(services);
  }

  void require_session() {
    if (!session_) throw Error("credential enclave: no TLS session open");
  }

  // The credential key, expanded once per seed; wipes itself when replaced.
  std::optional<crypto::Ed25519SigningKey> signing_key_;
  // In-enclave TLS state: session keys live and die here.
  std::unique_ptr<pki::TrustStore> truststore_;
  std::string truststore_root_;  // fingerprint of truststore_'s one root
  std::unique_ptr<FixedClock> clock_;
  std::unique_ptr<ServicesRng> rng_;
  std::unique_ptr<tls::Session> session_;
};

}  // namespace

Bytes encode_report_request(const std::array<std::uint8_t, 32>& nonce,
                            const sgx::TargetInfo& target) {
  pki::TlvWriter w;
  w.add_bytes(kTagNonce, nonce);
  w.add_bytes(kTagTargetInfo, target.encode());
  return w.take();
}

Bytes encode_tls_open(std::uint64_t stream_token, UnixTime now,
                      const std::string& expected_name,
                      const pki::Certificate& ca_root) {
  pki::TlvWriter w;
  w.add_u64(kTagStreamToken, stream_token);
  w.add_u64(kTagNow, static_cast<std::uint64_t>(now));
  w.add_string(kTagExpectedName, expected_name);
  w.add_bytes(kTagCaRoot, ca_root.encode());
  return w.take();
}

Bytes encode_ratls_report_request(const sgx::TargetInfo& target) {
  pki::TlvWriter w;
  w.add_bytes(kTagTargetInfo, target.encode());
  return w.take();
}

Bytes encode_ratls_issue(ByteView quote_bytes,
                         const crypto::Sha256Digest& iml_digest,
                         const crypto::Ed25519PublicKey& vendor_key,
                         std::uint64_t serial,
                         const pki::DistinguishedName& subject,
                         UnixTime not_before, UnixTime not_after) {
  pki::TlvWriter w;
  w.add_bytes(kTagQuote, quote_bytes);
  w.add_bytes(kTagImlDigest, iml_digest);
  w.add_bytes(kTagVendorKey, vendor_key);
  w.add_u64(kTagSerial, serial);
  w.add_string(kTagSubjectCn, subject.common_name);
  w.add_string(kTagSubjectOrg, subject.organization);
  w.add_u64(kTagNotBefore, static_cast<std::uint64_t>(not_before));
  w.add_u64(kTagNotAfter, static_cast<std::uint64_t>(not_after));
  return w.take();
}

sgx::ReportData credential_report_data(
    const std::array<std::uint8_t, 32>& nonce,
    const crypto::Ed25519PublicKey& public_key) {
  crypto::Sha256 h;
  h.update(nonce);
  h.update(public_key);
  const auto digest = h.finish();
  sgx::ReportData data{};
  std::copy(digest.begin(), digest.end(), data.begin());
  return data;
}

sgx::EnclaveImage credential_enclave_image() {
  sgx::EnclaveImage image;
  image.name = "credential-enclave";
  image.code = credential_enclave_code();
  image.attributes = 0;
  image.factory = [] { return std::make_unique<CredentialEnclaveLogic>(); };
  return image;
}

sgx::Measurement credential_enclave_measurement() {
  return sgx::measure_image(credential_enclave_code(), 0);
}

}  // namespace vnfsgx::vnf
