#include "sgx/enclave.h"

#include <cstring>
#include <vector>

#include "crypto/gcm.h"
#include "crypto/hmac.h"
#include "obs/metrics.h"
#include "sgx/platform.h"

namespace vnfsgx::sgx {

namespace {

// Dispatch counters by boundary path (see docs/ENCLAVE_BOUNDARY.md).
obs::Counter& ecall_sync_total() {
  static obs::Counter& c = obs::registry().counter(
      "vnfsgx_ecall_sync_total", {},
      "ECALL jobs dispatched as classic one-crossing-per-call ECALLs");
  return c;
}
obs::Counter& ecall_switchless_total() {
  static obs::Counter& c = obs::registry().counter(
      "vnfsgx_ecall_switchless_total", {},
      "ECALL jobs dispatched by the switchless hostcall ring worker");
  return c;
}

// Stack of enclaves the current thread is executing inside (ECALLs may
// nest when trusted logic calls into another enclave via untrusted glue).
thread_local std::vector<const Enclave*> t_enclave_stack;

struct EnclaveEntryGuard {
  explicit EnclaveEntryGuard(const Enclave* enclave) {
    t_enclave_stack.push_back(enclave);
  }
  ~EnclaveEntryGuard() { t_enclave_stack.pop_back(); }
};

bool inside(const Enclave* enclave) {
  for (const Enclave* e : t_enclave_stack) {
    if (e == enclave) return true;
  }
  return false;
}

}  // namespace

// ---------------------------------------------------------------------------
// EnclaveVault
// ---------------------------------------------------------------------------

void EnclaveVault::check_access(const char* op) const {
  if (!inside(&owner_)) {
    throw SecurityViolation(std::string("EPC access denied: ") + op +
                            " on vault of enclave '" + owner_.name() +
                            "' from outside the enclave");
  }
}

void EnclaveVault::store(const std::string& key, Bytes value) {
  check_access("store");
  entries_[key] = std::move(value);
}

const Bytes& EnclaveVault::load(const std::string& key) const {
  check_access("load");
  const auto it = entries_.find(key);
  if (it == entries_.end()) throw Error("vault: no such key: " + key);
  return it->second;
}

bool EnclaveVault::contains(const std::string& key) const {
  return entries_.count(key) > 0;
}

void EnclaveVault::erase(const std::string& key) {
  check_access("erase");
  entries_.erase(key);
}

// ---------------------------------------------------------------------------
// EnclaveServices implementation
// ---------------------------------------------------------------------------

class Enclave::ServicesImpl final : public EnclaveServices {
 public:
  ServicesImpl(Enclave& enclave, SgxPlatform& platform)
      : enclave_(enclave), platform_(platform), vault_(enclave) {}

  Report create_report(const TargetInfo& target,
                       const ReportData& data) override {
    require_inside("create_report");
    Report report;
    report.body = enclave_.body_;
    report.body.report_data = data;
    const SecureBytes key = platform_.report_key(target.mr_enclave);
    const auto mac = crypto::HmacSha256::mac(key, report.body.encode());
    std::copy(mac.begin(), mac.end(), report.mac.begin());
    return report;
  }

  Bytes seal(SealPolicy policy, ByteView plaintext, ByteView aad) override {
    require_inside("seal");
    const Measurement identity = policy == SealPolicy::kMrEnclave
                                     ? enclave_.body_.mr_enclave
                                     : enclave_.body_.mr_signer;
    Bytes key_id(16);
    platform_.rng_.fill(key_id);
    const SecureBytes key = platform_.seal_key(policy, identity, key_id);
    Bytes nonce(12);
    platform_.rng_.fill(nonce);

    const crypto::AesGcm aead(key);
    const Bytes sealed = aead.seal(nonce, plaintext, aad);

    Bytes blob;
    append_u8(blob, static_cast<std::uint8_t>(policy));
    append(blob, key_id);
    append(blob, nonce);
    append(blob, sealed);
    return blob;
  }

  std::optional<Bytes> unseal(ByteView blob, ByteView aad) override {
    require_inside("unseal");
    if (blob.size() < 1 + 16 + 12 + crypto::kGcmTagSize) return std::nullopt;
    const auto policy = static_cast<SealPolicy>(blob[0]);
    if (policy != SealPolicy::kMrEnclave && policy != SealPolicy::kMrSigner) {
      return std::nullopt;
    }
    const ByteView key_id = blob.subspan(1, 16);
    const ByteView nonce = blob.subspan(17, 12);
    const ByteView sealed = blob.subspan(29);
    const Measurement identity = policy == SealPolicy::kMrEnclave
                                     ? enclave_.body_.mr_enclave
                                     : enclave_.body_.mr_signer;
    const SecureBytes key = platform_.seal_key(policy, identity, key_id);
    const crypto::AesGcm aead(key);
    return aead.open(nonce, sealed, aad);
  }

  void read_rand(std::span<std::uint8_t> out) override {
    require_inside("read_rand");
    platform_.rng_.fill(out);
  }

  const ReportBody& self() const override { return enclave_.body_; }

  EnclaveVault& vault() override { return vault_; }

 private:
  void require_inside(const char* op) const {
    if (!inside(&enclave_)) {
      throw SecurityViolation(std::string("enclave service '") + op +
                              "' invoked from outside enclave '" +
                              enclave_.name() + "'");
    }
  }

  Enclave& enclave_;
  SgxPlatform& platform_;
  EnclaveVault vault_;
};

// ---------------------------------------------------------------------------
// Enclave
// ---------------------------------------------------------------------------

Enclave::Enclave(SgxPlatform& platform, std::string name, ReportBody body,
                 std::unique_ptr<TrustedLogic> logic, std::size_t epc_bytes)
    : platform_(platform),
      name_(std::move(name)),
      body_(body),
      logic_(std::move(logic)),
      services_(std::make_unique<ServicesImpl>(*this, platform)),
      epc_bytes_(epc_bytes) {}

Enclave::~Enclave() { destroy(); }

Bytes Enclave::call(std::uint32_t opcode, ByteView input) {
  if (destroyed_) {
    throw SecurityViolation("ECALL into destroyed enclave '" + name_ + "'");
  }
  platform_.charge_crossing();
  ecall_count_.fetch_add(1, std::memory_order_release);
  note_dispatch(opcode, DispatchPath::kSync);
  const EnclaveEntryGuard guard(this);
  return logic_->handle_call(opcode, input, *services_);
}

EcallStats Enclave::ecall_stats() const {
  // Release adds pair with these acquire loads, so no fence is needed. The
  // counters are enclave-global, so N ring workers (RingGroup) aggregate
  // here for free.
  EcallStats stats;
  stats.crossings = ecall_count_.load(std::memory_order_acquire);
  stats.sync_calls = sync_calls_.load(std::memory_order_acquire);
  stats.switchless_jobs = switchless_jobs_.load(std::memory_order_acquire);
  for (std::uint32_t op = 0; op < kTrackedOpcodes; ++op) {
    const std::uint64_t n = opcode_counts_[op].load(std::memory_order_acquire);
    if (n != 0) stats.per_opcode.emplace_back(op, n);
  }
  const std::uint64_t overflow =
      opcode_counts_[kTrackedOpcodes].load(std::memory_order_acquire);
  if (overflow != 0) stats.per_opcode.emplace_back(kOpcodeOverflow, overflow);
  return stats;
}

void Enclave::note_dispatch(std::uint32_t opcode, DispatchPath path) {
  const std::uint32_t slot =
      opcode < kTrackedOpcodes ? opcode : kTrackedOpcodes;
  opcode_counts_[slot].fetch_add(1, std::memory_order_release);
  switch (path) {
    case DispatchPath::kSync:
      sync_calls_.fetch_add(1, std::memory_order_release);
      ecall_sync_total().add();
      break;
    case DispatchPath::kSwitchless:
      switchless_jobs_.fetch_add(1, std::memory_order_release);
      ecall_switchless_total().add();
      break;
  }
}

bool Enclave::currently_inside() const { return inside(this); }

void Enclave::destroy() {
  if (destroyed_) return;
  destroyed_ = true;
  platform_.release_epc(epc_bytes_);
}

// ---------------------------------------------------------------------------
// EnclaveEntry (switchless worker residency)
// ---------------------------------------------------------------------------

EnclaveEntry::EnclaveEntry(Enclave& enclave) : enclave_(enclave) {
  if (enclave_.destroyed_) {
    throw SecurityViolation("ECALL into destroyed enclave '" +
                            enclave_.name() + "'");
  }
  enclave_.platform_.charge_crossing();
  enclave_.ecall_count_.fetch_add(1, std::memory_order_release);
  t_enclave_stack.push_back(&enclave_);
}

EnclaveEntry::~EnclaveEntry() { t_enclave_stack.pop_back(); }

std::size_t EnclaveEntry::dispatch_into(std::uint32_t opcode, ByteView input,
                                        std::span<std::uint8_t> out) {
  if (enclave_.destroyed_) {
    throw SecurityViolation("switchless dispatch into destroyed enclave '" +
                            enclave_.name() + "'");
  }
  enclave_.note_dispatch(opcode, Enclave::DispatchPath::kSwitchless);
  if (std::optional<std::size_t> n = enclave_.logic_->handle_call_into(
          opcode, input, out, *enclave_.services_)) {
    if (*n > out.size()) {
      throw Error("hostcall: trusted result exceeds ring slot capacity");
    }
    return *n;
  }
  const Bytes result =
      enclave_.logic_->handle_call(opcode, input, *enclave_.services_);
  if (result.size() > out.size()) {
    throw Error("hostcall: trusted result exceeds ring slot capacity");
  }
  if (!result.empty()) {
    std::memcpy(out.data(), result.data(), result.size());
  }
  return result.size();
}

}  // namespace vnfsgx::sgx
