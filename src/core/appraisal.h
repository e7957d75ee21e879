// Appraisal policy: the Verification Manager's database of expected
// measurements — golden IMA file digests and whitelisted enclave
// measurements — and the appraisal verdict logic.
#pragma once

#include <set>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "ima/measurement_list.h"
#include "sgx/measurement.h"

namespace vnfsgx::core {

struct AppraisalResult {
  bool trustworthy = false;
  std::string reason;
  std::vector<std::string> offending_paths;
};

class AppraisalDatabase {
 public:
  /// Register the expected digest for a measured file.
  void expect_file(const std::string& path, const ima::Digest& digest);

  /// Convenience: learn all entries of a known-good IML as expectations
  /// (golden-host enrollment).
  void learn(const ima::MeasurementList& golden);

  /// Whitelist an enclave measurement (attestation / credential enclaves).
  void allow_enclave(const sgx::Measurement& mr_enclave);
  bool enclave_allowed(const sgx::Measurement& mr_enclave) const;

  /// Appraise a host's measurement list:
  ///  * violation entries (zero digest) => untrustworthy,
  ///  * entries for unknown paths       => untrustworthy,
  ///  * digest mismatches               => untrustworthy,
  /// otherwise trustworthy. One hash lookup per entry; thread-safe against
  /// concurrent policy changes.
  AppraisalResult appraise(const ima::MeasurementList& iml) const;

 private:
  // Written by the policy calls above while attestations read it: writers
  // take the exclusive side, appraise()/enclave_allowed() the shared one.
  mutable std::shared_mutex mutex_;
  std::unordered_map<std::string, ima::Digest> expected_files_;
  std::set<sgx::Measurement> allowed_enclaves_;
};

}  // namespace vnfsgx::core
