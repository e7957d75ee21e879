#include "core/appraisal.h"

namespace vnfsgx::core {

void AppraisalDatabase::expect_file(const std::string& path,
                                    const ima::Digest& digest) {
  const std::lock_guard<std::shared_mutex> lock(mutex_);
  expected_files_[path] = digest;
}

void AppraisalDatabase::learn(const ima::MeasurementList& golden) {
  const std::lock_guard<std::shared_mutex> lock(mutex_);
  for (const ima::ImaEntry& entry : golden.entries()) {
    if (!entry.is_violation()) {
      expected_files_[entry.file_path] = entry.file_digest;
    }
  }
}

void AppraisalDatabase::allow_enclave(const sgx::Measurement& mr_enclave) {
  const std::lock_guard<std::shared_mutex> lock(mutex_);
  allowed_enclaves_.insert(mr_enclave);
}

bool AppraisalDatabase::enclave_allowed(
    const sgx::Measurement& mr_enclave) const {
  const std::shared_lock<std::shared_mutex> lock(mutex_);
  return allowed_enclaves_.count(mr_enclave) > 0;
}

AppraisalResult AppraisalDatabase::appraise(
    const ima::MeasurementList& iml) const {
  AppraisalResult result;
  const std::shared_lock<std::shared_mutex> lock(mutex_);
  for (const ima::ImaEntry& entry : iml.entries()) {
    if (entry.is_violation()) {
      result.reason = "measurement violation recorded";
      result.offending_paths.push_back(entry.file_path);
      continue;
    }
    const auto it = expected_files_.find(entry.file_path);
    if (it == expected_files_.end()) {
      result.reason = "unexpected file measured";
      result.offending_paths.push_back(entry.file_path);
      continue;
    }
    if (it->second != entry.file_digest) {
      result.reason = "file digest mismatch";
      result.offending_paths.push_back(entry.file_path);
    }
  }
  result.trustworthy = result.offending_paths.empty();
  if (result.trustworthy) result.reason = "all measurements match";
  return result;
}

}  // namespace vnfsgx::core
