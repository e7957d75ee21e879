// Enclave runtime: trusted-logic interface, in-enclave services (the SDK
// intrinsics), the protected-memory vault, and the ECALL gate.
//
// The simulator enforces the SGX security contract in software:
//   * an enclave is immutable once initialized (no page changes),
//   * enclave memory (the vault) is readable only while executing inside
//     that enclave — any other access throws SecurityViolation,
//   * reports can only be created from inside an enclave,
//   * sealed blobs only unseal inside an enclave with the same identity
//     (measurement or signer, per policy) on the same platform.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/error.h"
#include "common/secure.h"
#include "sgx/measurement.h"
#include "sgx/sigstruct.h"
#include "sgx/structs.h"

namespace vnfsgx::sgx {

class Enclave;
class SgxPlatform;

enum class SealPolicy : std::uint8_t {
  kMrEnclave = 1,  // only the exact same enclave can unseal
  kMrSigner = 2,   // any enclave from the same vendor can unseal
};

/// Key-value storage living in (simulated) EPC memory. Reads and writes are
/// permitted only while the owning enclave is executing an ECALL.
class EnclaveVault {
 public:
  explicit EnclaveVault(const Enclave& owner) : owner_(owner) {}

  void store(const std::string& key, Bytes value);
  const Bytes& load(const std::string& key) const;
  bool contains(const std::string& key) const;  // metadata; callable anywhere
  void erase(const std::string& key);
  std::size_t size() const { return entries_.size(); }

 private:
  void check_access(const char* op) const;

  const Enclave& owner_;
  // Vault entries model EPC-resident secrets: each value wipes itself on
  // erase() and on enclave teardown (EREMOVE scrubs EPC pages).
  std::map<std::string, SecureBytes> entries_;
};

/// The in-enclave API surface (mirrors sgx_create_report, sgx_seal_data,
/// sgx_read_rand, ...). Handed to TrustedLogic during ECALLs.
class EnclaveServices {
 public:
  virtual ~EnclaveServices() = default;

  /// EREPORT: a report about this enclave, MACed for `target`.
  virtual Report create_report(const TargetInfo& target,
                               const ReportData& data) = 0;

  /// Seal data to this enclave's identity. Returns the sealed blob.
  virtual Bytes seal(SealPolicy policy, ByteView plaintext, ByteView aad) = 0;

  /// Unseal a blob sealed on this platform to a matching identity.
  /// Returns nullopt if the blob fails authentication or policy.
  virtual std::optional<Bytes> unseal(ByteView blob, ByteView aad) = 0;

  /// sgx_read_rand.
  virtual void read_rand(std::span<std::uint8_t> out) = 0;

  /// This enclave's own identity (for report_data construction etc).
  virtual const ReportBody& self() const = 0;

  /// Protected storage.
  virtual EnclaveVault& vault() = 0;
};

/// The "code inside the enclave". Receives opcode-dispatched ECALLs.
class TrustedLogic {
 public:
  virtual ~TrustedLogic() = default;
  virtual Bytes handle_call(std::uint32_t opcode, ByteView input,
                            EnclaveServices& services) = 0;

  /// Allocation-free fast path used by the switchless ring: write the
  /// result directly into `out` (enclave-local memory backing the worker's
  /// scratch buffer) and return its length. Return nullopt to fall back to
  /// handle_call() for this opcode. Implementations must never write past
  /// out.size(); dispatch re-validates the returned length anyway.
  virtual std::optional<std::size_t> handle_call_into(
      std::uint32_t opcode, ByteView input, std::span<std::uint8_t> out,
      EnclaveServices& services) {
    (void)opcode;
    (void)input;
    (void)out;
    (void)services;
    return std::nullopt;
  }
};

using LogicFactory = std::function<std::unique_ptr<TrustedLogic>()>;

/// Coherent snapshot of an enclave's ECALL accounting (see ecall_stats()).
struct EcallStats {
  /// Boundary crossings: sync ECALLs + switchless-worker (re)entries. This
  /// is what the crossing cost is charged per.
  std::uint64_t crossings = 0;
  /// Jobs dispatched per path. sync_calls jobs paid one crossing each;
  /// switchless_jobs crossed only when their worker woke from a park.
  std::uint64_t sync_calls = 0;
  std::uint64_t switchless_jobs = 0;
  /// Dispatch counts keyed by opcode (all paths combined), ascending by
  /// opcode. Opcodes >= kTrackedOpcodes aggregate under kOpcodeOverflow.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> per_opcode;

  std::uint64_t dispatches() const {
    return sync_calls + switchless_jobs;
  }
};

/// Opcodes tracked individually in EcallStats::per_opcode; everything at or
/// above this aggregates under the kOpcodeOverflow pseudo-opcode.
inline constexpr std::uint32_t kTrackedOpcodes = 64;
inline constexpr std::uint32_t kOpcodeOverflow = 0xffffffff;

/// An enclave image: the measured byte contents plus the behavior those
/// bytes stand for in the simulation. Tampering `code` changes the
/// measurement exactly as flipping bits in a real enclave binary would.
struct EnclaveImage {
  std::string name;  // debugging label only; not measured
  Bytes code;
  std::uint64_t attributes = 0;
  LogicFactory factory;
};

/// A loaded, initialized enclave. Created via SgxPlatform::load_enclave.
class Enclave {
 public:
  ~Enclave();
  Enclave(const Enclave&) = delete;
  Enclave& operator=(const Enclave&) = delete;

  const Measurement& mr_enclave() const { return body_.mr_enclave; }
  const Measurement& mr_signer() const { return body_.mr_signer; }
  const ReportBody& identity() const { return body_; }
  const std::string& name() const { return name_; }

  /// ECALL: enter the enclave and dispatch to the trusted logic.
  /// Throws SecurityViolation if the enclave has been destroyed.
  Bytes call(std::uint32_t opcode, ByteView input);

  /// Number of ECALL crossings so far (used by the overhead benchmarks).
  std::uint64_t ecall_count() const {
    return ecall_count_.load(std::memory_order_relaxed);
  }

  /// Snapshot of the crossing/dispatch counters. Each counter is bumped
  /// with a release RMW and read here with an acquire load, so a count
  /// published by another thread (a benchmark worker, a ring's enclave
  /// worker) carries everything that thread did before it; prefer this
  /// over raw ecall_count() reads across threads.
  EcallStats ecall_stats() const;

  /// EREMOVE: tear down; EPC pages are freed and further calls throw.
  void destroy();
  bool destroyed() const { return destroyed_; }

  /// True iff the calling thread is currently executing inside this
  /// enclave (used by the vault access checks).
  bool currently_inside() const;

  /// Size of this enclave's EPC reservation.
  std::size_t epc_bytes() const { return epc_bytes_; }

 private:
  friend class SgxPlatform;
  friend class EnclaveEntry;
  Enclave(SgxPlatform& platform, std::string name, ReportBody body,
          std::unique_ptr<TrustedLogic> logic, std::size_t epc_bytes);

  class ServicesImpl;

  enum class DispatchPath { kSync, kSwitchless };
  void note_dispatch(std::uint32_t opcode, DispatchPath path);

  SgxPlatform& platform_;
  std::string name_;
  ReportBody body_;
  std::unique_ptr<TrustedLogic> logic_;
  std::unique_ptr<ServicesImpl> services_;
  std::size_t epc_bytes_;
  std::atomic<std::uint64_t> ecall_count_{0};
  std::atomic<std::uint64_t> sync_calls_{0};
  std::atomic<std::uint64_t> switchless_jobs_{0};
  // Per-opcode dispatch counts; slot kTrackedOpcodes is the overflow bin.
  std::array<std::atomic<std::uint64_t>, kTrackedOpcodes + 1> opcode_counts_{};
  bool destroyed_ = false;
};

/// RAII enclave entry for the switchless hostcall worker: the constructor
/// performs ONE classic crossing (charged + counted); dispatch_into() then
/// runs jobs inside the enclave with no further crossings until destruction
/// exits. Must be entered and exited on the same thread.
class EnclaveEntry {
 public:
  explicit EnclaveEntry(Enclave& enclave);
  ~EnclaveEntry();
  EnclaveEntry(const EnclaveEntry&) = delete;
  EnclaveEntry& operator=(const EnclaveEntry&) = delete;

  /// Dispatch one job to the trusted logic without a boundary crossing.
  /// The result is written straight into `out` (the ring worker's
  /// enclave-local scratch) and its length returned.
  /// Prefers TrustedLogic::handle_call_into; falls back to handle_call plus
  /// one copy when the logic has no fixed-buffer path for the opcode.
  /// Throws Error if the result does not fit in `out`.
  std::size_t dispatch_into(std::uint32_t opcode, ByteView input,
                            std::span<std::uint8_t> out);

 private:
  Enclave& enclave_;
};

}  // namespace vnfsgx::sgx
