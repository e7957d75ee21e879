// Switchless ECALL runtime (the HotCalls design): RingGroup, a set of
// shared-memory job rings between untrusted submitters and in-enclave
// worker threads, one resident worker per ring. A group with one ring is
// the single-ring case; the ring itself is private to the group.
//
// Untrusted threads claim a ring slot, write opcode + payload into it, and
// mark it queued; the worker — resident inside the enclave via a single
// long-lived ECALL entry — polls its ring, copies each job *into* enclave
// memory (exactly one read per slot field: untrusted memory is never
// re-read after validation), executes it, and posts the result back into
// the slot. No per-job boundary crossing happens on this path.
//
// Two submission shapes:
//   * submit(opcode, bytes)/wait(): copying submit and collect, for
//     control opcodes.
//   * begin_submit()/publish() + wait_into(): zero-copy — the caller
//     serializes its message directly into the claimed slot's payload
//     region and the result lands in a caller buffer, so a frame round trip
//     performs zero heap allocations.
//
// Ring choice: a submitting thread sticks to its home ring (cache locality,
// contention-free claims) and steals a slot on a sibling rather than block
// when home is full; begin_submit_on() pins a job to one ring, which is how
// the inspection NF keeps each flow on one worker.
//
// Idle policy is spin-then-park: after `spin_polls` empty polls a worker
// exits the enclave and parks on a condition variable, so an idle enclave
// burns no CPU; the next submission performs a classic ECALL-style wakeup
// (one crossing when the worker re-enters).
//
// Capacity is bounded and submission applies backpressure (blocks for a
// free slot) rather than dropping. See docs/ENCLAVE_BOUNDARY.md for the
// memory layout and the trusted/untrusted ownership rules.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sgx/enclave.h"

namespace vnfsgx::obs {
class Counter;
}  // namespace vnfsgx::obs

namespace vnfsgx::sgx {

/// Upper bound on a ring job's payload and result. Oversized payloads are
/// rejected at the untrusted gate (submit throws); oversized results are
/// truncated to an error inside the enclave.
inline constexpr std::size_t kMaxHostCallPayload = 2048;

/// Counters exposed for tests and benchmarks (monotonic).
struct HostCallStats {
  std::uint64_t submits = 0;             // jobs published into the ring
  std::uint64_t jobs = 0;                // jobs completed through the ring
  std::uint64_t parks = 0;               // spin budget exhausted, worker slept
  std::uint64_t wakeups = 0;             // park -> run transitions
  std::uint64_t backpressure_waits = 0;  // submits that blocked on a full ring
};

struct RingGroupOptions {
  /// Rings (= resident enclave workers). One per producer core is the
  /// intended shape; 1 is the single-ring case.
  std::size_t rings = 1;
  /// Per-ring slot count; rounded up to a power of two, minimum 2.
  std::size_t ring_capacity = 128;
  /// Empty polls before a worker exits the enclave and parks.
  int spin_polls = 4096;
  /// Metrics label prefix; ring i is labeled "<name>/<i>".
  std::string name = "hostcall";
};

/// Aggregated group counters plus the per-ring breakdown. Every counter is
/// read with an acquire load, so the snapshot needs no fence.
struct RingGroupStats {
  HostCallStats total;
  std::vector<HostCallStats> per_ring;
  std::uint64_t affinity_submits = 0;  // claims landed on the home ring
  std::uint64_t steals = 0;            // claims diverted to a sibling ring
};

/// N hostcall rings over one enclave, each with its own resident worker.
/// Submitting threads are assigned a home ring on first contact
/// (round-robin); a full home ring falls back to stealing a slot on a
/// sibling before blocking. All rings dispatch into the same TrustedLogic,
/// which therefore must tolerate concurrent calls when rings > 1.
class RingGroup {
 public:
  /// Starts one in-enclave worker thread per ring. The group shares
  /// ownership of the enclave so no worker can outlive it.
  explicit RingGroup(std::shared_ptr<Enclave> enclave,
                     RingGroupOptions options = {});
  ~RingGroup();

  RingGroup(const RingGroup&) = delete;
  RingGroup& operator=(const RingGroup&) = delete;

  /// Handle to a submitted job: the ring that owns the slot and the slot
  /// index. Pass to wait() or wait_into() exactly once.
  struct Ticket {
    std::uint32_t ring = 0;
    std::uint32_t slot = 0;
  };

  /// A claimed-but-unpublished slot for zero-copy submission. The caller
  /// serializes its message directly into `payload` (the slot's inline
  /// region, kMaxHostCallPayload bytes) and then either publish()es or
  /// abandon()s the handle — exactly one of the two, exactly once. Between
  /// begin_submit() and that call the slot is caller-owned and stop()
  /// waits for it, so never hold a handle across blocking work.
  struct SubmitHandle {
    Ticket ticket;
    std::span<std::uint8_t> payload;
  };

  std::size_t rings() const { return rings_.size(); }
  /// Slots per ring (the rounded-up ring_capacity).
  std::size_t capacity() const;
  /// Slots currently claimed/queued/executing/unconsumed, over all rings.
  std::size_t occupancy() const;

  /// The calling thread's affine ring (assigned round-robin on first use).
  std::size_t home_ring() const { return home_index(); }

  /// Zero-copy claim with affinity: home ring first, then steal round-robin
  /// from siblings, then block on the home ring (backpressure — never
  /// drops). Throws Error once stopped.
  SubmitHandle begin_submit(std::uint32_t opcode);

  /// Zero-copy claim pinned to one ring (flow steering). Blocks on that
  /// ring when full.
  SubmitHandle begin_submit_on(std::size_t ring_index, std::uint32_t opcode);

  /// Hand a filled handle to the worker. `payload_len` is how many bytes of
  /// handle.payload the caller wrote; the handle is consumed. Throws Error
  /// (and frees the slot) if payload_len exceeds kMaxHostCallPayload.
  void publish(const SubmitHandle& handle, std::size_t payload_len);

  /// Release an unpublished handle without running a job (error paths).
  void abandon(const SubmitHandle& handle);

  /// Enqueue a job, copying `payload` into the slot, with the same affinity
  /// policy as begin_submit(). Throws Error if the payload exceeds
  /// kMaxHostCallPayload or the group has been stopped.
  Ticket submit(std::uint32_t opcode, ByteView payload);

  /// Collect a submitted job's result, freeing its slot. Rethrows the
  /// trusted handler's failure as Error.
  Bytes wait(Ticket ticket);

  /// Zero-copy collect: the result bytes land in `out` and the result
  /// length is returned. Throws Error (still freeing the slot) when the
  /// result does not fit in `out`; rethrows trusted failures like wait().
  std::size_t wait_into(Ticket ticket, std::span<std::uint8_t> out);

  /// submit + wait: the drop-in replacement for Enclave::call.
  Bytes call(std::uint32_t opcode, ByteView payload);

  /// Stop every ring: refuse new jobs, let in-flight submitters finish,
  /// drain every queued job through its worker, then join it. Results stay
  /// collectable. Idempotent; also run by the destructor.
  void stop();
  bool stopped() const;

  RingGroupStats stats() const;

 private:
  class Ring;

  std::size_t home_index() const;
  Ring& ring_at(std::uint32_t index, const char* what) const;

  std::uint64_t group_id_ = 0;
  std::vector<std::unique_ptr<Ring>> rings_;
  mutable std::atomic<std::uint32_t> next_home_{0};
  std::atomic<std::uint64_t> affinity_submits_{0};
  std::atomic<std::uint64_t> steals_{0};
  // Cached per-ring steal counters (label: the ring that donated the slot).
  std::vector<obs::Counter*> steal_counters_;
};

}  // namespace vnfsgx::sgx
