#include "pki/truststore.h"

#include "common/error.h"
#include "obs/metrics.h"

namespace vnfsgx::pki {

namespace {

constexpr std::size_t kMaxCachedVerdicts = 4096;

obs::Counter& cache_counter(const char* result) {
  return obs::registry().counter(
      "vnfsgx_cache_requests_total",
      {{"cache", "cert_validation"}, {"result", result}},
      "Certificate-validation cache lookups by outcome");
}

obs::Counter& eviction_counter() {
  return obs::registry().counter("vnfsgx_cache_evictions_total",
                                 {{"cache", "cert_validation"}},
                                 "Cached verdicts dropped (generation bump, "
                                 "capacity, or explicit flush)");
}

}  // namespace

std::string to_string(VerifyStatus status) {
  switch (status) {
    case VerifyStatus::kOk:
      return "ok";
    case VerifyStatus::kUnknownIssuer:
      return "unknown issuer";
    case VerifyStatus::kBadSignature:
      return "bad signature";
    case VerifyStatus::kExpired:
      return "expired";
    case VerifyStatus::kNotYetValid:
      return "not yet valid";
    case VerifyStatus::kRevoked:
      return "revoked";
    case VerifyStatus::kWrongUsage:
      return "wrong key usage";
    case VerifyStatus::kIssuerNotCa:
      return "issuer is not a CA";
    case VerifyStatus::kAttestationFailed:
      return "attestation evidence rejected";
  }
  return "?";
}

void TrustStore::add_root(const Certificate& root) {
  if (!root.is_ca) throw Error("truststore: root is not a CA certificate");
  if (!root.verify_signature(root.public_key)) {
    throw Error("truststore: root self-signature invalid");
  }
  const std::unique_lock<std::shared_mutex> lock(mutex_);
  roots_.push_back(Anchor{root, crypto::Ed25519VerifyKey(root.public_key)});
  generation_.fetch_add(1, std::memory_order_acq_rel);
}

std::size_t TrustStore::root_count() const {
  const std::shared_lock<std::shared_mutex> lock(mutex_);
  return roots_.size();
}

void TrustStore::set_crl(const RevocationList& crl) {
  const std::unique_lock<std::shared_mutex> lock(mutex_);
  const Anchor* root = find_root_locked(crl.issuer);
  if (!root) throw Error("truststore: CRL from unknown issuer");
  if (!crl.verify_signature(root->key)) {
    throw Error("truststore: CRL signature invalid");
  }
  // Invalidate before publishing the new list: once set_crl returns, no
  // cached verdict predating this CRL can be served.
  generation_.fetch_add(1, std::memory_order_acq_rel);
  for (auto& existing : crls_) {
    if (existing.issuer == crl.issuer) {
      existing = crl;
      return;
    }
  }
  crls_.push_back(crl);
}

void TrustStore::set_attested_verifier(const AttestedCertVerifier* verifier) {
  verifier_.store(verifier, std::memory_order_release);
  // Cached verdicts may predate the delegation change; never serve them.
  generation_.fetch_add(1, std::memory_order_acq_rel);
}

const TrustStore::Anchor* TrustStore::find_root_locked(
    const DistinguishedName& issuer) const {
  for (const Anchor& root : roots_) {
    if (root.cert.subject == issuer) return &root;
  }
  return nullptr;
}

bool TrustStore::serial_revoked(std::uint64_t serial) const {
  const std::shared_lock<std::shared_mutex> lock(mutex_);
  for (const RevocationList& crl : crls_) {
    if (crl.is_revoked(serial)) return true;
  }
  return false;
}

VerifyResult TrustStore::verify_chain(
    const Certificate& leaf, std::span<const Certificate> intermediates,
    KeyUsage usage, UnixTime now) const {
  const std::shared_lock<std::shared_mutex> lock(mutex_);
  // Leaf-local checks first.
  if (now < leaf.not_before) return {VerifyStatus::kNotYetValid};
  if (now > leaf.not_after) return {VerifyStatus::kExpired};
  if (!leaf.allows(usage)) return {VerifyStatus::kWrongUsage};

  const Certificate* current = &leaf;
  for (const Certificate& issuer : intermediates) {
    if (issuer.subject != current->issuer) {
      return {VerifyStatus::kUnknownIssuer};
    }
    if (!issuer.is_ca || !issuer.allows(KeyUsage::kCertSign)) {
      return {VerifyStatus::kIssuerNotCa};
    }
    if (now < issuer.not_before) return {VerifyStatus::kNotYetValid};
    if (now > issuer.not_after) return {VerifyStatus::kExpired};
    if (!current->verify_signature(issuer.public_key)) {
      return {VerifyStatus::kBadSignature};
    }
    for (const RevocationList& crl : crls_) {
      if (crl.issuer == current->issuer && crl.is_revoked(current->serial)) {
        return {VerifyStatus::kRevoked};
      }
    }
    current = &issuer;
  }
  // The last link must chain to a trusted root.
  return verify_link_to_root_locked(*current, now);
}

VerifyResult TrustStore::verify_link_to_root_locked(const Certificate& cert,
                                                    UnixTime now) const {
  const Anchor* root = find_root_locked(cert.issuer);
  if (!root) return {VerifyStatus::kUnknownIssuer};
  if (!root->cert.is_ca) return {VerifyStatus::kIssuerNotCa};
  if (!cert.verify_signature(root->key)) {
    return {VerifyStatus::kBadSignature};
  }
  for (const RevocationList& crl : crls_) {
    if (crl.issuer == cert.issuer && crl.is_revoked(cert.serial)) {
      return {VerifyStatus::kRevoked};
    }
  }
  (void)now;
  return {VerifyStatus::kOk};
}

// Full (uncached) evaluation of the time-independent verdict. Check order
// matches the original verify(): issuer, signature, [window], usage,
// revocation — apply() re-inserts the window test between pre and post.
TrustStore::CachedVerdict TrustStore::evaluate_locked(const Certificate& leaf,
                                                      KeyUsage usage) const {
  CachedVerdict v;
  v.not_before = leaf.not_before;
  v.not_after = leaf.not_after;
  const Anchor* root = find_root_locked(leaf.issuer);
  if (!root) {
    v.pre = VerifyStatus::kUnknownIssuer;
    return v;
  }
  if (!root->cert.is_ca) {
    v.pre = VerifyStatus::kIssuerNotCa;
    return v;
  }
  if (!leaf.verify_signature(root->key)) {
    v.pre = VerifyStatus::kBadSignature;
    return v;
  }
  if (!leaf.allows(usage)) {
    v.post = VerifyStatus::kWrongUsage;
    return v;
  }
  for (const RevocationList& crl : crls_) {
    if (crl.issuer == leaf.issuer && crl.is_revoked(leaf.serial)) {
      v.post = VerifyStatus::kRevoked;
      return v;
    }
  }
  return v;
}

// Appraisal path for certificates the attested verifier recognizes: the
// verifier replaces the issuer/signature checks (an RA-TLS certificate is
// self-signed; its quote is the chain), usage is checked after, and the
// validity window is re-applied per request like every cached verdict.
TrustStore::CachedVerdict TrustStore::evaluate_attested(
    const Certificate& leaf, KeyUsage usage,
    const AttestedCertVerifier& verifier) const {
  CachedVerdict v;
  v.not_before = leaf.not_before;
  v.not_after = leaf.not_after;
  const VerifyStatus appraisal = verifier.appraise(leaf);
  if (appraisal != VerifyStatus::kOk) {
    v.pre = appraisal;
    return v;
  }
  if (!leaf.allows(usage)) {
    v.post = VerifyStatus::kWrongUsage;
    return v;
  }
  v.attested = true;
  return v;
}

VerifyResult TrustStore::apply(const CachedVerdict& verdict, UnixTime now) {
  if (verdict.pre != VerifyStatus::kOk) return {verdict.pre};
  if (now < verdict.not_before) return {VerifyStatus::kNotYetValid};
  if (now > verdict.not_after) return {VerifyStatus::kExpired};
  return {verdict.post, verdict.attested && verdict.post == VerifyStatus::kOk};
}

std::string TrustStore::cache_key(const Certificate& leaf,
                                  KeyUsage usage) const {
  // Fingerprint (hex SHA-256 of the public encoding) + requested usage —
  // no key material ever enters the cache. Certificates the attested
  // verifier recognizes additionally embed the appraisal-policy generation,
  // so a policy bump sends cached RA-TLS accepts to a fresh key (miss) on
  // the next request.
  std::string key = leaf.fingerprint() + "/" +
                    std::to_string(static_cast<unsigned>(usage));
  const AttestedCertVerifier* verifier =
      verifier_.load(std::memory_order_acquire);
  if (verifier && verifier->recognizes(leaf)) {
    key += "/ra" + std::to_string(verifier->policy_generation());
  }
  return key;
}

TrustStore::CacheStripe& TrustStore::stripe_for(const std::string& key) const {
  return cache_stripes_[std::hash<std::string>{}(key) % kCacheStripes];
}

std::optional<TrustStore::CachedVerdict> TrustStore::cache_lookup(
    const std::string& key) const {
  CacheStripe& stripe = stripe_for(key);
  const std::lock_guard<std::mutex> lock(stripe.mutex);
  const std::uint64_t current = generation_.load(std::memory_order_acquire);
  if (stripe.generation != current) {
    if (!stripe.map.empty()) eviction_counter().add(stripe.map.size());
    stripe.map.clear();
    stripe.generation = current;
  }
  const auto it = stripe.map.find(key);
  if (it == stripe.map.end()) {
    ++stripe.misses;
    cache_counter("miss").add();
    return std::nullopt;
  }
  ++stripe.hits;
  cache_counter("hit").add();
  return it->second;
}

void TrustStore::cache_store(const std::string& key,
                             const CachedVerdict& verdict,
                             std::uint64_t generation) const {
  CacheStripe& stripe = stripe_for(key);
  const std::lock_guard<std::mutex> lock(stripe.mutex);
  const std::uint64_t current = generation_.load(std::memory_order_acquire);
  // A verdict computed against an older truststore must never be published:
  // a revocation may have landed between evaluation and now.
  if (generation != current) return;
  if (stripe.generation != current) {
    if (!stripe.map.empty()) eviction_counter().add(stripe.map.size());
    stripe.map.clear();
    stripe.generation = current;
  }
  if (stripe.map.size() >= kMaxCachedVerdicts / kCacheStripes) {
    stripe.map.erase(stripe.map.begin());
    eviction_counter().add();
  }
  stripe.map[key] = verdict;
}

void TrustStore::flush_validation_cache() const {
  for (CacheStripe& stripe : cache_stripes_) {
    const std::lock_guard<std::mutex> lock(stripe.mutex);
    if (!stripe.map.empty()) eviction_counter().add(stripe.map.size());
    stripe.map.clear();
  }
}

std::uint64_t TrustStore::cache_hits() const {
  std::uint64_t total = 0;
  for (CacheStripe& stripe : cache_stripes_) {
    const std::lock_guard<std::mutex> lock(stripe.mutex);
    total += stripe.hits;
  }
  return total;
}

std::uint64_t TrustStore::cache_misses() const {
  std::uint64_t total = 0;
  for (CacheStripe& stripe : cache_stripes_) {
    const std::lock_guard<std::mutex> lock(stripe.mutex);
    total += stripe.misses;
  }
  return total;
}

VerifyResult TrustStore::verify(const Certificate& leaf, KeyUsage usage,
                                UnixTime now) const {
  const std::string key = cache_key(leaf, usage);
  if (const auto cached = cache_lookup(key)) return apply(*cached, now);
  CachedVerdict verdict;
  const AttestedCertVerifier* verifier =
      verifier_.load(std::memory_order_acquire);
  if (verifier && verifier->recognizes(leaf)) {
    const std::uint64_t generation =
        generation_.load(std::memory_order_acquire);
    verdict = evaluate_attested(leaf, usage, *verifier);
    cache_store(key, verdict, generation);
    return apply(verdict, now);
  }
  std::uint64_t generation = 0;
  {
    const std::shared_lock<std::shared_mutex> lock(mutex_);
    generation = generation_.load(std::memory_order_acquire);
    verdict = evaluate_locked(leaf, usage);
  }
  cache_store(key, verdict, generation);
  return apply(verdict, now);
}

std::vector<VerifyResult> TrustStore::verify_batch(
    std::span<const Certificate> leaves, KeyUsage usage, UnixTime now) const {
  static obs::Histogram& batch_size = obs::registry().histogram(
      "vnfsgx_ed25519_batch_size", {}, {1, 2, 4, 8, 16, 32, 64, 128, 256},
      "Signatures checked per Ed25519 batch verification");

  std::vector<VerifyResult> results(leaves.size());
  std::vector<CachedVerdict> verdicts(leaves.size());
  std::vector<std::string> keys(leaves.size());
  std::vector<bool> resolved(leaves.size(), false);

  for (std::size_t i = 0; i < leaves.size(); ++i) {
    keys[i] = cache_key(leaves[i], usage);
    if (const auto cached = cache_lookup(keys[i])) {
      results[i] = apply(*cached, now);
      resolved[i] = true;
    }
  }

  // Recognized (RA-TLS) misses route through the attested verifier's burst
  // appraisal — its own Ed25519 batch — instead of the CA-chain batch below.
  const AttestedCertVerifier* verifier =
      verifier_.load(std::memory_order_acquire);
  if (verifier) {
    std::vector<std::size_t> ra_idx;
    std::vector<const Certificate*> ra_leaves;
    for (std::size_t i = 0; i < leaves.size(); ++i) {
      if (resolved[i] || !verifier->recognizes(leaves[i])) continue;
      ra_idx.push_back(i);
      ra_leaves.push_back(&leaves[i]);
    }
    if (!ra_idx.empty()) {
      const std::uint64_t ra_generation =
          generation_.load(std::memory_order_acquire);
      const std::vector<VerifyStatus> appraisals = verifier->appraise_batch(
          std::span<const Certificate* const>(ra_leaves));
      for (std::size_t j = 0; j < ra_idx.size(); ++j) {
        const std::size_t i = ra_idx[j];
        const Certificate& leaf = leaves[i];
        CachedVerdict& v = verdicts[i];
        v.not_before = leaf.not_before;
        v.not_after = leaf.not_after;
        if (appraisals[j] != VerifyStatus::kOk) {
          v.pre = appraisals[j];
        } else if (!leaf.allows(usage)) {
          v.post = VerifyStatus::kWrongUsage;
        } else {
          v.attested = true;
        }
        cache_store(keys[i], v, ra_generation);
        results[i] = apply(v, now);
        resolved[i] = true;
      }
    }
  }

  // Cache misses: everything except the Ed25519 signature check is cheap,
  // so evaluate those parts per certificate and fold all signature checks
  // into one batch verification.
  std::vector<std::size_t> need_sig;
  std::vector<Bytes> tbs_storage;
  std::vector<crypto::Ed25519BatchItem> items;
  std::uint64_t generation = 0;
  {
    const std::shared_lock<std::shared_mutex> lock(mutex_);
    generation = generation_.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < leaves.size(); ++i) {
      if (resolved[i]) continue;
      const Certificate& leaf = leaves[i];
      CachedVerdict& v = verdicts[i];
      v.not_before = leaf.not_before;
      v.not_after = leaf.not_after;
      const Anchor* root = find_root_locked(leaf.issuer);
      if (!root) {
        v.pre = VerifyStatus::kUnknownIssuer;
        continue;
      }
      if (!root->cert.is_ca) {
        v.pre = VerifyStatus::kIssuerNotCa;
        continue;
      }
      need_sig.push_back(i);
      tbs_storage.push_back(leaf.tbs());
      crypto::Ed25519BatchItem item;
      item.public_key = root->key.public_key();
      item.message = ByteView(tbs_storage.back());
      item.signature =
          ByteView(leaf.signature.data(), leaf.signature.size());
      items.push_back(item);
    }
    // tbs_storage stops growing here, so the message views stay valid.
    for (std::size_t j = 0; j < need_sig.size(); ++j) {
      items[j].message = ByteView(tbs_storage[j]);
    }
    if (!items.empty()) {
      batch_size.observe(static_cast<double>(items.size()));
      const std::vector<bool> sig_ok = crypto::ed25519_verify_batch(
          std::span<const crypto::Ed25519BatchItem>(items), nullptr);
      for (std::size_t j = 0; j < need_sig.size(); ++j) {
        const std::size_t i = need_sig[j];
        const Certificate& leaf = leaves[i];
        CachedVerdict& v = verdicts[i];
        if (!sig_ok[j]) {
          v.pre = VerifyStatus::kBadSignature;
          continue;
        }
        if (!leaf.allows(usage)) {
          v.post = VerifyStatus::kWrongUsage;
          continue;
        }
        for (const RevocationList& crl : crls_) {
          if (crl.issuer == leaf.issuer && crl.is_revoked(leaf.serial)) {
            v.post = VerifyStatus::kRevoked;
            break;
          }
        }
      }
    }
  }

  for (std::size_t i = 0; i < leaves.size(); ++i) {
    if (resolved[i]) continue;
    cache_store(keys[i], verdicts[i], generation);
    results[i] = apply(verdicts[i], now);
  }
  return results;
}

}  // namespace vnfsgx::pki
