#include "ratls/verifier.h"

#include <algorithm>
#include <array>
#include <string_view>

#include "common/error.h"
#include "crypto/sha256.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace vnfsgx::ratls {

namespace {

/// Every appraisal outcome; meter() takes one of these literals.
constexpr std::array<std::string_view, 8> kResults = {
    "ok", "malformed", "key_binding", "sigstruct_identity",
    "self_signature", "unknown_platform", "quote_signature", "measurement"};

/// Count one appraisal. The outcome counters are registered together at
/// the first appraisal and cached, so an appraisal looks nothing up in the
/// metrics registry.
void meter(std::string_view result) {
  static const std::array<obs::Counter*, kResults.size()> counters = [] {
    std::array<obs::Counter*, kResults.size()> c{};
    for (std::size_t i = 0; i < kResults.size(); ++i) {
      c[i] = &obs::registry().counter("vnfsgx_ratls_appraisals_total",
                                      {{"result", std::string(kResults[i])}},
                                      "RA-TLS certificate appraisals by outcome");
    }
    return c;
  }();
  const auto it = std::find(kResults.begin(), kResults.end(), result);
  if (it == kResults.end()) throw Error("ratls: unlisted appraisal outcome");
  counters[static_cast<std::size_t>(it - kResults.begin())]->add();
}

ByteView sig_view(const crypto::Ed25519Signature& sig) {
  return ByteView(sig.data(), sig.size());
}

}  // namespace

// More platforms than this and the map starts over (tables are rebuilt on
// demand); a deployment's platform count is far below it.
constexpr std::size_t kMaxAttestationKeys = 64;

Verifier::Verifier(VerifierPolicy policy) : policy_(std::move(policy)) {
  if (!policy_.attestation_key || !policy_.enclave_allowed) {
    throw Error(
        "ratls: verifier policy requires attestation_key and enclave_allowed");
  }
}

bool Verifier::recognizes(const pki::Certificate& leaf) const {
  return carries_evidence(leaf);
}

std::uint64_t Verifier::policy_generation() const {
  return policy_.policy_generation ? policy_.policy_generation() : 0;
}

const char* Verifier::pre_check(const pki::Certificate& leaf,
                                std::optional<Evidence>& evidence) const {
  try {
    evidence = find_evidence(leaf);
  } catch (const ParseError&) {
    return "malformed";
  }
  if (!evidence) return "malformed";
  // The quote must speak for THIS certificate's key: a quote lifted from a
  // genuine enclave cannot vouch for an attacker-chosen key.
  if (evidence->quote.body.report_data !=
      report_data_for_key(leaf.public_key)) {
    return "key_binding";
  }
  // SIGSTRUCT identity: the claimed vendor key must hash to the quote's
  // MRSIGNER, and the ISV identity must match what the quote reports.
  crypto::Sha256 h;
  h.update(evidence->vendor_key);
  if (h.finish() != evidence->quote.body.mr_signer ||
      evidence->isv_prod_id != evidence->quote.body.isv_prod_id ||
      evidence->isv_svn != evidence->quote.body.isv_svn) {
    return "sigstruct_identity";
  }
  return nullptr;
}

crypto::Ed25519VerifyKey Verifier::verify_key_for(
    const crypto::Ed25519PublicKey& attestation_key) const {
  const std::lock_guard<std::mutex> lock(keys_mutex_);
  const auto it = attestation_keys_.find(attestation_key);
  if (it != attestation_keys_.end()) return it->second;
  if (attestation_keys_.size() >= kMaxAttestationKeys) attestation_keys_.clear();
  return attestation_keys_
      .emplace(attestation_key, crypto::Ed25519VerifyKey(attestation_key))
      .first->second;
}

const char* Verifier::post_check(const Evidence& evidence) const {
  if (!policy_.enclave_allowed(evidence.quote.body.mr_enclave)) {
    return "measurement";
  }
  return nullptr;
}

pki::VerifyStatus Verifier::appraise(const pki::Certificate& leaf) const {
  static obs::Histogram& duration = obs::registry().histogram(
      "vnfsgx_ratls_appraise_duration_us", {}, {},
      "RA-TLS appraisal wall time (in-handshake attestation)");
  obs::Span span =
      obs::tracer().start_span("ratls_appraise", obs::kStepQuoteVerification);
  std::optional<Evidence> evidence;
  const char* why = pre_check(leaf, evidence);
  if (!why && !leaf.verify_signature(leaf.public_key)) {
    why = "self_signature";
  }
  if (!why) {
    const auto attestation_key =
        policy_.attestation_key(evidence->quote.platform_id);
    if (!attestation_key) {
      why = "unknown_platform";
    } else if (!verify_key_for(*attestation_key)
                    .verify(evidence->quote.encode_tbs(),
                            sig_view(evidence->quote.signature))) {
      why = "quote_signature";
    }
  }
  if (!why) why = post_check(*evidence);
  meter(why ? why : "ok");
  span.annotate("result", why ? why : "ok");
  span.end();
  duration.observe(span.elapsed_us());
  return why ? pki::VerifyStatus::kAttestationFailed : pki::VerifyStatus::kOk;
}

std::vector<pki::VerifyStatus> Verifier::appraise_batch(
    std::span<const pki::Certificate* const> leaves) const {
  static obs::Histogram& batch_size = obs::registry().histogram(
      "vnfsgx_ed25519_batch_size", {}, {1, 2, 4, 8, 16, 32, 64, 128, 256},
      "Signatures checked per Ed25519 batch verification");
  obs::Span span = obs::tracer().start_span("ratls_appraise_batch",
                                            obs::kStepQuoteVerification);
  span.annotate("leaves", std::to_string(leaves.size()));

  std::vector<const char*> why(leaves.size(), nullptr);
  std::vector<std::optional<Evidence>> evidence(leaves.size());
  std::vector<std::size_t> pending;  // leaves awaiting signature verdicts
  std::vector<Bytes> messages;       // stable storage for message views
  std::vector<crypto::Ed25519BatchItem> items;

  for (std::size_t i = 0; i < leaves.size(); ++i) {
    why[i] = pre_check(*leaves[i], evidence[i]);
    if (why[i]) continue;
    const auto attestation_key =
        policy_.attestation_key(evidence[i]->quote.platform_id);
    if (!attestation_key) {
      why[i] = "unknown_platform";
      continue;
    }
    // Two batch items per leaf: certificate self-signature, quote signature.
    pending.push_back(i);
    messages.push_back(leaves[i]->tbs());
    crypto::Ed25519BatchItem self_sig;
    self_sig.public_key = leaves[i]->public_key;
    self_sig.signature = sig_view(leaves[i]->signature);
    items.push_back(self_sig);
    messages.push_back(evidence[i]->quote.encode_tbs());
    crypto::Ed25519BatchItem quote_sig;
    quote_sig.public_key = *attestation_key;
    quote_sig.signature = sig_view(evidence[i]->quote.signature);
    items.push_back(quote_sig);
  }
  // messages stops growing here, so the views stay valid.
  for (std::size_t j = 0; j < items.size(); ++j) {
    items[j].message = ByteView(messages[j]);
  }
  if (!items.empty()) {
    batch_size.observe(static_cast<double>(items.size()));
    const std::vector<bool> sig_ok = crypto::ed25519_verify_batch(
        std::span<const crypto::Ed25519BatchItem>(items), nullptr);
    for (std::size_t j = 0; j < pending.size(); ++j) {
      const std::size_t i = pending[j];
      if (!sig_ok[2 * j]) {
        why[i] = "self_signature";
      } else if (!sig_ok[2 * j + 1]) {
        why[i] = "quote_signature";
      }
    }
  }

  std::vector<pki::VerifyStatus> results(leaves.size());
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    if (!why[i]) why[i] = post_check(*evidence[i]);
    meter(why[i] ? why[i] : "ok");
    results[i] = why[i] ? pki::VerifyStatus::kAttestationFailed
                        : pki::VerifyStatus::kOk;
  }
  span.annotate("result", "done");
  span.end();
  return results;
}

}  // namespace vnfsgx::ratls
