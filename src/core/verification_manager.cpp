#include "core/verification_manager.h"

#include <atomic>
#include <thread>

#include "common/logging.h"
#include "crypto/ct.h"
#include "ima/tpm.h"
#include "net/framing.h"
#include "obs/metrics.h"

namespace vnfsgx::core {

namespace {

obs::Counter& attestation_counter(const char* kind, bool ok) {
  // One instrument per (kind, result); references are stable so the four
  // lookups happen once per process.
  return obs::registry().counter(
      "vnfsgx_attestations_total",
      {{"kind", kind}, {"result", ok ? "ok" : "fail"}},
      "Attestation outcomes by kind (host = Figure-1 steps 1-2, "
      "vnf = steps 3-4)");
}

/// The quote an AVR with status OK echoes. The service signs OK only over
/// a quote it decoded, so a missing one is a malformed report.
const sgx::Quote& echoed_quote(const ias::ReportFields& fields) {
  if (!fields.quote) throw ParseError("avr: echoed quote does not decode");
  return *fields.quote;
}

}  // namespace

VerificationManager::VerificationManager(crypto::RandomSource& rng,
                                         const Clock& clock,
                                         ias::IasClient ias, VmOptions options)
    : rng_(rng),
      clock_(clock),
      ias_(std::move(ias)),
      options_(std::move(options)),
      ca_(options_.ca_name, rng, clock) {
  // The two enclave identities the system ships are trusted out of the box;
  // operators may allow additional measurements via appraisal().
  appraisal_.allow_enclave(host::attestation_enclave_measurement());
  appraisal_.allow_enclave(vnf::credential_enclave_measurement());
}

Bytes VerificationManager::rpc(net::Stream& channel, const Bytes& request) {
  net::write_frame(channel, request);
  return net::read_frame(channel);
}

Nonce VerificationManager::fresh_nonce() {
  Nonce nonce;
  rng_.fill(nonce);
  return nonce;
}

HostAttestation VerificationManager::attest_host(net::Stream& channel) {
  static obs::Histogram& duration = obs::registry().histogram(
      "vnfsgx_host_attestation_duration_us", {}, {},
      "Wall time of Figure-1 steps 1-2 (challenge, quote, IAS, appraisal)");
  obs::Span span =
      obs::tracer().start_span("host_attestation", obs::kStepHostAttestation);
  HostAttestation result = attest_host_impl(channel, span);
  span.annotate("result", result.trustworthy ? "ok" : "fail");
  if (!result.trustworthy) span.annotate("reason", result.reason);
  span.end();
  duration.observe(span.elapsed_us());
  attestation_counter("host", result.trustworthy).add();
  return result;
}

HostAttestation VerificationManager::attest_host_impl(net::Stream& channel,
                                                      obs::Span& span) {
  HostAttestation result;

  // Step 1: challenge the host's integrity attestation enclave.
  AttestHostRequest request;
  request.nonce = fresh_nonce();
  const Bytes raw = rpc(channel, encode(request));
  if (peek_type(raw) == MessageType::kError) {
    result.reason = "host error: " + decode_error(raw).what;
    return result;
  }
  const AttestHostResponse response = decode_attest_host_response(raw);

  // Step 2: verify the quote with the IAS.
  ias::VerificationReport avr = [&] {
    obs::Span verify =
        span.child("quote_verification", obs::kStepQuoteVerification);
    return ias_.verify_quote(response.quote);
  }();
  const ias::ReportFields fields = avr.fields();
  result.quote_status = fields.status;
  if (result.quote_status != ias::QuoteStatus::kOk) {
    result.reason = "IAS rejected quote: " + ias::to_string(result.quote_status);
    return result;
  }
  const sgx::Quote& quote = echoed_quote(fields);
  const sgx::ReportBody& quoted = quote.body;
  result.platform_id = quote.platform_id;

  // The quote must come from the known integrity attestation enclave...
  if (!appraisal_.enclave_allowed(quoted.mr_enclave) ||
      quoted.mr_enclave != host::attestation_enclave_measurement()) {
    result.reason = "quote from unrecognized enclave";
    return result;
  }
  // ...and bind this nonce and exactly this IML.
  const sgx::ReportData expected =
      host::iml_report_data(request.nonce, response.iml);
  if (!crypto::ct_equal(ByteView(expected.data(), expected.size()),
                        ByteView(quoted.report_data.data(),
                                 quoted.report_data.size()))) {
    result.reason = "report data does not bind nonce+IML (replay?)";
    return result;
  }

  // Appraise the measurement list.
  const ima::MeasurementList iml = ima::MeasurementList::decode(response.iml);
  result.iml_entries = iml.size();

  // §4 extension: when this platform has an enrolled AIK, require an
  // authenticated TPM quote and cross-check the IML aggregate against
  // PCR 10. A root attacker who sanitized the IML before the enclave bound
  // it produces an aggregate that no longer matches the hardware PCR.
  std::optional<crypto::Ed25519VerifyKey> aik;
  {
    const std::shared_lock<std::shared_mutex> lock(mutex_);
    const auto it = platform_aiks_.find(result.platform_id);
    if (it != platform_aiks_.end()) aik = it->second;
  }
  if (aik) {
    if (response.tpm_quote.empty()) {
      result.reason = "TPM quote required but absent";
      return result;
    }
    ima::TpmQuote tpm_quote;
    try {
      tpm_quote = ima::TpmQuote::decode(response.tpm_quote);
    } catch (const ParseError&) {
      result.reason = "TPM quote undecodable";
      return result;
    }
    if (!tpm_quote.verify(*aik)) {
      result.reason = "TPM quote signature invalid";
      return result;
    }
    if (tpm_quote.nonce != request.nonce) {
      result.reason = "TPM quote nonce mismatch (replay?)";
      return result;
    }
    if (tpm_quote.pcr_index != ima::kImaPcrIndex ||
        tpm_quote.pcr_value != iml.aggregate()) {
      result.reason = "IML does not match TPM PCR-10 (IML tampered on host)";
      return result;
    }
    result.tpm_verified = true;
  }

  result.appraisal = appraisal_.appraise(iml);
  if (!result.appraisal.trustworthy) {
    result.reason = "IML appraisal failed: " + result.appraisal.reason;
    return result;
  }

  result.trustworthy = true;
  result.reason = "host attested";
  {
    const std::lock_guard<std::shared_mutex> lock(mutex_);
    trusted_platforms_.insert(result.platform_id);
    ++hosts_attested_;
  }
  VNFSGX_LOG_INFO("vm", "host attested, IML entries: ", result.iml_entries);
  return result;
}

VnfAttestation VerificationManager::attest_vnf(net::Stream& channel,
                                               const std::string& vnf_name) {
  static obs::Histogram& duration = obs::registry().histogram(
      "vnfsgx_vnf_attestation_duration_us", {}, {},
      "Wall time of Figure-1 steps 3-4 (enclave challenge, quote, IAS)");
  obs::Span span = obs::tracer().start_span("enclave_attestation",
                                            obs::kStepEnclaveAttestation);
  span.annotate("vnf", vnf_name);
  AttestVnfRequest request;
  request.vnf_name = vnf_name;
  request.nonce = fresh_nonce();
  VnfAttestation result = attest_vnf_impl(channel, request, &span);
  span.annotate("result", result.trustworthy ? "ok" : "fail");
  if (!result.trustworthy) span.annotate("reason", result.reason);
  span.end();
  duration.observe(span.elapsed_us());
  attestation_counter("vnf", result.trustworthy).add();
  return result;
}

VnfAttestation VerificationManager::attest_vnf_impl(
    net::Stream& channel, const AttestVnfRequest& request, obs::Span* span) {
  VnfAttestation result;
  const Bytes raw = rpc(channel, encode(request));
  if (peek_type(raw) == MessageType::kError) {
    result.reason = "host error: " + decode_error(raw).what;
    return result;
  }
  const AttestVnfResponse response = decode_attest_vnf_response(raw);

  const ias::VerificationReport avr = [&] {
    obs::Span verify = span ? span->child("enclave_quote_verification",
                                          obs::kStepEnclaveQuoteVerification)
                            : obs::Span();
    return ias_.verify_quote(response.quote);
  }();
  const ias::ReportFields fields = avr.fields();
  result.quote_status = fields.status;
  if (result.quote_status != ias::QuoteStatus::kOk) {
    result.reason = "IAS rejected quote: " + ias::to_string(result.quote_status);
    return result;
  }
  const sgx::Quote& quote = echoed_quote(fields);
  const sgx::ReportBody& quoted = quote.body;
  result.platform_id = quote.platform_id;
  result.public_key = response.public_key;

  // The protocol continues only on hosts that passed attestation (§2).
  if (!platform_trusted(result.platform_id)) {
    result.reason = "hosting platform not attested";
    return result;
  }
  if (quoted.mr_enclave != vnf::credential_enclave_measurement() ||
      !appraisal_.enclave_allowed(quoted.mr_enclave)) {
    result.reason = "quote from unrecognized enclave";
    return result;
  }
  const sgx::ReportData expected =
      vnf::credential_report_data(request.nonce, response.public_key);
  if (!crypto::ct_equal(ByteView(expected.data(), expected.size()),
                        ByteView(quoted.report_data.data(),
                                 quoted.report_data.size()))) {
    result.reason = "report data does not bind nonce+key (replay?)";
    return result;
  }

  result.trustworthy = true;
  result.reason = "VNF enclave attested";
  {
    const std::lock_guard<std::shared_mutex> lock(mutex_);
    attested_vnfs_[request.vnf_name] =
        AttestedVnf{response.public_key, result.platform_id};
    ++vnfs_attested_;
  }
  VNFSGX_LOG_INFO("vm", "VNF '", request.vnf_name, "' enclave attested");
  return result;
}

std::vector<VnfAttestation> VerificationManager::attest_fleet(
    std::span<const FleetTarget> targets, std::size_t max_workers) {
  static obs::Histogram& duration = obs::registry().histogram(
      "vnfsgx_fleet_attestation_duration_us", {}, {},
      "Wall time of one attest_fleet call (all targets, all phases)");

  std::vector<VnfAttestation> results(targets.size());
  if (targets.empty()) return results;

  obs::Span span = obs::tracer().start_span("fleet_attestation",
                                            obs::kStepEnclaveAttestation);
  span.annotate("fleet_size", std::to_string(targets.size()));

  // Draw every nonce up front: the RandomSource is not required to be
  // thread-safe, so it must not be shared across workers.
  std::vector<AttestVnfRequest> requests(targets.size());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    requests[i].vnf_name = targets[i].vnf_name;
    requests[i].nonce = fresh_nonce();
  }

  // Each worker runs whole attestations, AVR signature check included, so
  // one target's checks overlap the other targets' RPC and IAS legs.
  // Channels are per-target, and the IAS client is thread-safe (pooled).
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= targets.size()) return;
      try {
        results[i] = attest_vnf_impl(*targets[i].channel, requests[i], nullptr);
      } catch (const ias::ReportSignatureError&) {
        results[i].reason = ias::ReportSignatureError::kReason;
      } catch (const std::exception& e) {
        results[i].reason = e.what();
      }
      attestation_counter("vnf", results[i].trustworthy).add();
    }
  };
  if (max_workers == 0) max_workers = 8;
  // The calling thread is one of the workers.
  const std::size_t extra_workers = std::min(max_workers, targets.size()) - 1;
  std::vector<std::thread> workers;
  workers.reserve(extra_workers);
  for (std::size_t i = 0; i < extra_workers; ++i) workers.emplace_back(worker);
  worker();
  for (std::thread& t : workers) t.join();

  std::size_t ok_count = 0;
  for (const VnfAttestation& r : results) ok_count += r.trustworthy ? 1 : 0;
  span.annotate("trustworthy", std::to_string(ok_count));
  span.end();
  duration.observe(span.elapsed_us());
  VNFSGX_LOG_INFO("vm", "fleet attestation: ", ok_count, "/", targets.size(),
                  " trustworthy");
  return results;
}

std::optional<pki::Certificate> VerificationManager::enroll_vnf(
    net::Stream& channel, const std::string& vnf_name,
    const std::string& common_name) {
  static obs::Histogram& duration = obs::registry().histogram(
      "vnfsgx_provisioning_duration_us", {}, {},
      "Wall time of Figure-1 step 5 (issue + provision credential)");
  static obs::Counter& ok = obs::registry().counter(
      "vnfsgx_credentials_provisioned_total", {{"result", "ok"}},
      "Credential provisioning outcomes (Figure-1 step 5)");
  static obs::Counter& fail = obs::registry().counter(
      "vnfsgx_credentials_provisioned_total", {{"result", "fail"}},
      "Credential provisioning outcomes (Figure-1 step 5)");
  obs::Span span =
      obs::tracer().start_span("provisioning", obs::kStepProvisioning);
  span.annotate("vnf", vnf_name);
  std::optional<pki::Certificate> cert =
      enroll_vnf_impl(channel, vnf_name, common_name);
  span.annotate("result", cert ? "ok" : "fail");
  span.end();
  duration.observe(span.elapsed_us());
  (cert ? ok : fail).add();
  return cert;
}

std::optional<pki::Certificate> VerificationManager::enroll_vnf_impl(
    net::Stream& channel, const std::string& vnf_name,
    const std::string& common_name) {
  AttestedVnf attested;
  {
    const std::shared_lock<std::shared_mutex> lock(mutex_);
    const auto it = attested_vnfs_.find(vnf_name);
    if (it == attested_vnfs_.end()) {
      VNFSGX_LOG_WARN("vm", "enroll refused: '", vnf_name, "' not attested");
      return std::nullopt;
    }
    attested = it->second;
  }

  // Generate + sign the client certificate for the enclave-held key.
  const pki::Certificate cert = ca_.issue(
      {common_name, options_.ca_name.organization}, attested.public_key,
      static_cast<std::uint8_t>(pki::KeyUsage::kClientAuth),
      options_.credential_validity_seconds);

  ProvisionRequest request;
  request.vnf_name = vnf_name;
  request.certificate = cert.encode();
  const Bytes raw = rpc(channel, encode(request));
  if (peek_type(raw) == MessageType::kError) {
    VNFSGX_LOG_WARN("vm", "provisioning error: ", decode_error(raw).what);
    return std::nullopt;
  }
  const ProvisionResponse response = decode_provision_response(raw);
  if (!response.ok) {
    VNFSGX_LOG_WARN("vm", "provisioning refused: ", response.detail);
    return std::nullopt;
  }
  {
    const std::lock_guard<std::shared_mutex> lock(mutex_);
    issued_[cert.serial] = attested.platform_id;
    ++credentials_issued_;
  }
  VNFSGX_LOG_INFO("vm", "credential provisioned to '", vnf_name,
                  "' serial=", cert.serial);
  return cert;
}

void VerificationManager::enroll_platform_aik(
    const sgx::PlatformId& platform_id, const crypto::Ed25519PublicKey& aik) {
  const std::lock_guard<std::shared_mutex> lock(mutex_);
  platform_aiks_.insert_or_assign(platform_id, crypto::Ed25519VerifyKey(aik));
}

pki::RevocationList VerificationManager::revoke_certificate(
    std::uint64_t serial) {
  return ca_.revoke(serial);
}

pki::RevocationList VerificationManager::revoke_platform(
    const sgx::PlatformId& platform_id) {
  std::vector<std::uint64_t> serials;
  {
    const std::lock_guard<std::shared_mutex> lock(mutex_);
    trusted_platforms_.erase(platform_id);
    for (const auto& [serial, platform] : issued_) {
      if (platform == platform_id) serials.push_back(serial);
    }
    // Drop attestation state for VNFs on this platform.
    for (auto it = attested_vnfs_.begin(); it != attested_vnfs_.end();) {
      if (it->second.platform_id == platform_id) {
        it = attested_vnfs_.erase(it);
      } else {
        ++it;
      }
    }
  }
  pki::RevocationList crl = ca_.current_crl();
  for (const std::uint64_t serial : serials) {
    crl = ca_.revoke(serial);
  }
  VNFSGX_LOG_WARN("vm", "platform distrusted; revoked ", serials.size(),
                  " credential(s)");
  return crl;
}

bool VerificationManager::platform_trusted(
    const sgx::PlatformId& platform_id) const {
  const std::shared_lock<std::shared_mutex> lock(mutex_);
  return trusted_platforms_.count(platform_id) > 0;
}

std::vector<sgx::PlatformId> VerificationManager::trusted_platforms() const {
  const std::shared_lock<std::shared_mutex> lock(mutex_);
  return std::vector<sgx::PlatformId>(trusted_platforms_.begin(),
                                      trusted_platforms_.end());
}

std::vector<std::string> VerificationManager::attested_vnf_names() const {
  const std::shared_lock<std::shared_mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(attested_vnfs_.size());
  for (const auto& [name, info] : attested_vnfs_) names.push_back(name);
  return names;
}

}  // namespace vnfsgx::core
