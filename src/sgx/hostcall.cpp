#include "sgx/hostcall.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>

#include "obs/metrics.h"

namespace vnfsgx::sgx {

namespace {

// Slot lifecycle. Transitions are one-directional around the cycle:
//   kFree -(submitter CAS)-> kClaimed -(submitter store)-> kQueued
//   kQueued -(worker CAS)-> kExecuting -(worker store)-> kDone
//   kDone -(waiter store)-> kFree
// abandon() short-circuits kClaimed -> kFree without a worker pass.
constexpr std::uint32_t kFree = 0;
constexpr std::uint32_t kClaimed = 1;
constexpr std::uint32_t kQueued = 2;
constexpr std::uint32_t kExecuting = 3;
constexpr std::uint32_t kDone = 4;

// Yield-polls a waiter spends on its own slot before blocking on done_cv_.
constexpr int kWaitSpinPolls = 256;

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 2;
  while (p < n) p <<= 1;
  return p;
}

Error payload_too_big(std::size_t len) {
  return Error("hostcall: payload of " + std::to_string(len) +
               " bytes exceeds ring limit of " +
               std::to_string(kMaxHostCallPayload));
}

}  // namespace

// One ring of the group: a power-of-two array of slots in untrusted shared
// memory plus the resident enclave worker that drains it.
//
// Statistics counters are bumped with release RMWs and read with acquire
// loads: a snapshot that observes a count also observes everything its
// writer did before that bump, with no fence on either side.
class RingGroup::Ring {
 public:
  Ring(std::uint32_t index, std::shared_ptr<Enclave> enclave,
       const RingGroupOptions& options);
  ~Ring() { stop(); }

  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;

  /// Claim a slot, waiting out a full ring (backpressure). Throws Error
  /// once stopped.
  SubmitHandle claim(std::uint32_t opcode);
  void publish(std::uint32_t slot, std::size_t payload_len);
  void abandon(std::uint32_t slot);
  std::size_t wait_into(std::uint32_t slot, std::span<std::uint8_t> out);

  void stop();
  bool stopped() const {
    return !accepting_.load(std::memory_order_acquire);
  }
  std::size_t occupancy() const {
    return occupancy_.load(std::memory_order_relaxed);
  }
  std::size_t capacity() const { return capacity_; }
  HostCallStats stats() const;

 private:
  struct Slot;
  struct WorkerScratch;

  Slot& slot_at(std::uint32_t slot, const char* what);
  Slot* try_claim();
  Slot& claim_slot();
  void enter_submitter();
  void leave_submitter();
  void release_slot(Slot& slot);
  void await_done(Slot& slot);
  bool process_one(EnclaveEntry& entry, WorkerScratch& scratch);
  void worker_main();
  void set_occupancy_gauge();

  std::uint32_t index_;
  std::shared_ptr<Enclave> enclave_;
  std::string name_;
  int spin_polls_;
  std::size_t capacity_ = 0;
  std::size_t mask_ = 0;
  std::unique_ptr<Slot[]> slots_;

  std::atomic<bool> accepting_{true};
  std::atomic<bool> running_{true};
  std::atomic<std::size_t> occupancy_{0};
  std::atomic<std::uint64_t> queued_{0};      // enqueued, not yet claimed
  std::atomic<std::uint64_t> submitters_{0};  // threads holding slots/handles
  std::atomic<std::uint32_t> claim_hint_{0};
  std::size_t scan_ = 0;  // worker-only cursor

  // Worker park/wake (the "classic ECALL wakeup" edge).
  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;
  std::atomic<bool> parked_{false};

  // Submitters blocked on a full ring (backpressure) or on a result.
  std::mutex space_mutex_;
  std::condition_variable space_cv_;
  std::atomic<std::uint32_t> space_waiters_{0};
  std::mutex done_mutex_;
  std::condition_variable done_cv_;
  std::atomic<std::uint32_t> done_waiters_{0};

  // stop() rendezvous with in-flight submitters.
  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;
  std::once_flag stop_once_;

  std::atomic<std::uint64_t> submits_{0};
  std::atomic<std::uint64_t> jobs_{0};
  std::atomic<std::uint64_t> parks_{0};
  std::atomic<std::uint64_t> wakeups_{0};
  std::atomic<std::uint64_t> backpressure_waits_{0};

  // Cached metric instruments (registered once per ring name).
  obs::Gauge* occupancy_gauge_ = nullptr;
  obs::Counter* submits_counter_ = nullptr;

  std::thread worker_;
};

// One ring slot. `state` is the synchronization point: every plain field is
// written strictly before a release store of `state` and read strictly after
// an acquire load of it, so the non-atomic payload/result bytes hand off
// cleanly between the untrusted submitter and the enclave worker.
//
// boundary: shared — host-writable while the enclave reads it. boundarycheck
// enforces copy-in-once (B1), bounds-before-use (B2), release/acquire on
// `state` (B3), and no secret egress (B4) on every access to these fields.
struct alignas(64) RingGroup::Ring::Slot {
  std::atomic<std::uint32_t> state{kFree};
  std::uint32_t opcode = 0;
  std::uint32_t payload_len = 0;
  std::uint32_t result_len = 0;
  std::uint8_t failed = 0;
  std::array<std::uint8_t, kMaxHostCallPayload> payload{};
  // Result shares the error channel: when failed != 0 the bytes hold the
  // trusted handler's exception text instead of output.
  std::array<std::uint8_t, kMaxHostCallPayload> result{};
};

// Enclave-local fixed buffers the worker copies jobs into and results out
// of. One instance lives on the worker's stack for its whole residency:
// the switchless hot path allocates nothing per job on the trusted side.
struct RingGroup::Ring::WorkerScratch {
  std::array<std::uint8_t, kMaxHostCallPayload> input{};
  std::array<std::uint8_t, kMaxHostCallPayload> output{};
};

RingGroup::Ring::Ring(std::uint32_t index, std::shared_ptr<Enclave> enclave,
                      const RingGroupOptions& options)
    : index_(index),
      enclave_(std::move(enclave)),
      name_(options.name + "/" + std::to_string(index)),
      spin_polls_(options.spin_polls) {
  capacity_ = round_up_pow2(std::max<std::size_t>(options.ring_capacity, 2));
  mask_ = capacity_ - 1;
  slots_ = std::make_unique<Slot[]>(capacity_);
  occupancy_gauge_ = &obs::registry().gauge(
      "vnfsgx_hostcall_ring_occupancy", {{"ring", name_}},
      "Hostcall ring slots currently claimed, queued, executing, or "
      "holding an uncollected result");
  submits_counter_ = &obs::registry().counter(
      "vnfsgx_hostcall_submits_total", {{"ring", name_}},
      "Slots published into this hostcall ring");
  worker_ = std::thread(&Ring::worker_main, this);
}

void RingGroup::Ring::set_occupancy_gauge() {
  occupancy_gauge_->set(
      static_cast<std::int64_t>(occupancy_.load(std::memory_order_relaxed)));
}

RingGroup::Ring::Slot& RingGroup::Ring::slot_at(std::uint32_t slot,
                                                const char* what) {
  if (slot >= capacity_) throw Error(std::string("hostcall: invalid ") + what);
  return slots_[slot];
}

RingGroup::Ring::Slot* RingGroup::Ring::try_claim() {
  const std::uint32_t start = claim_hint_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < capacity_; ++i) {
    Slot& slot = slots_[(start + i) & mask_];
    std::uint32_t expected = kFree;
    if (slot.state.compare_exchange_strong(expected, kClaimed,
                                           std::memory_order_acq_rel,
                                           std::memory_order_relaxed)) {
      claim_hint_.store(static_cast<std::uint32_t>((start + i + 1) & mask_),
                        std::memory_order_relaxed);
      occupancy_.fetch_add(1, std::memory_order_relaxed);
      set_occupancy_gauge();
      return &slot;
    }
  }
  return nullptr;
}

RingGroup::Ring::Slot& RingGroup::Ring::claim_slot() {
  if (Slot* slot = try_claim()) return *slot;
  // Ring full: backpressure. Block until a waiter frees a slot — never drop.
  backpressure_waits_.fetch_add(1, std::memory_order_release);
  std::unique_lock<std::mutex> lk(space_mutex_);
  space_waiters_.fetch_add(1, std::memory_order_seq_cst);
  Slot* claimed = nullptr;
  space_cv_.wait(lk, [&] {
    if (!accepting_.load(std::memory_order_seq_cst)) return true;
    claimed = try_claim();
    return claimed != nullptr;
  });
  space_waiters_.fetch_sub(1, std::memory_order_seq_cst);
  if (claimed == nullptr) {
    throw Error("hostcall: ring '" + name_ + "' stopped");
  }
  return *claimed;
}

void RingGroup::Ring::enter_submitter() {
  submitters_.fetch_add(1, std::memory_order_seq_cst);
}

void RingGroup::Ring::leave_submitter() {
  if (submitters_.fetch_sub(1, std::memory_order_seq_cst) == 1) {
    std::lock_guard<std::mutex> lk(stop_mutex_);
    stop_cv_.notify_all();
  }
}

void RingGroup::Ring::release_slot(Slot& slot) {
  slot.state.store(kFree, std::memory_order_release);
  occupancy_.fetch_sub(1, std::memory_order_relaxed);
  set_occupancy_gauge();
  if (space_waiters_.load(std::memory_order_seq_cst) > 0) {
    std::lock_guard<std::mutex> lk(space_mutex_);
    space_cv_.notify_all();
  }
}

RingGroup::SubmitHandle RingGroup::Ring::claim(std::uint32_t opcode) {
  // The submitter count stays elevated until publish()/abandon(): stop()
  // phase 2 must wait out claimed-but-unpublished handles too, or phase 3
  // could join the worker while a publish is still in flight.
  enter_submitter();
  try {
    if (!accepting_.load(std::memory_order_seq_cst)) {
      throw Error("hostcall: ring '" + name_ + "' stopped");
    }
    Slot& slot = claim_slot();
    slot.opcode = opcode;
    return SubmitHandle{
        Ticket{index_, static_cast<std::uint32_t>(&slot - slots_.get())},
        std::span<std::uint8_t>(slot.payload.data(), kMaxHostCallPayload)};
  } catch (...) {
    leave_submitter();
    throw;
  }
}

void RingGroup::Ring::publish(std::uint32_t slot_index,
                              std::size_t payload_len) {
  Slot& slot = slot_at(slot_index, "submit handle");
  if (payload_len > kMaxHostCallPayload) {
    // The handle is consumed either way: free the slot so a bad length
    // cannot leak ring occupancy, then report the gate rejection.
    release_slot(slot);
    leave_submitter();
    throw payload_too_big(payload_len);
  }
  slot.payload_len = static_cast<std::uint32_t>(payload_len);
  slot.state.store(kQueued, std::memory_order_release);
  queued_.fetch_add(1, std::memory_order_seq_cst);
  submits_.fetch_add(1, std::memory_order_release);
  submits_counter_->add();
  // Classic-ECALL wakeup edge: only pay the lock when the worker is parked.
  if (parked_.load(std::memory_order_seq_cst)) {
    std::lock_guard<std::mutex> lk(wake_mutex_);
    wake_cv_.notify_one();
  }
  leave_submitter();
}

void RingGroup::Ring::abandon(std::uint32_t slot_index) {
  release_slot(slot_at(slot_index, "submit handle"));
  leave_submitter();
}

void RingGroup::Ring::await_done(Slot& slot) {
  for (int i = 0; i < kWaitSpinPolls; ++i) {
    if (slot.state.load(std::memory_order_acquire) == kDone) return;
    std::this_thread::yield();
  }
  if (slot.state.load(std::memory_order_acquire) != kDone) {
    std::unique_lock<std::mutex> lk(done_mutex_);
    done_waiters_.fetch_add(1, std::memory_order_seq_cst);
    done_cv_.wait(lk, [&] {
      // bc-ok(B3): seq_cst required — Dekker hand-off with done_waiters_:
      // the predicate load must not reorder before the waiter-count store,
      // or the worker could miss a sleeper and skip the notify.
      return slot.state.load(std::memory_order_seq_cst) == kDone;
    });
    done_waiters_.fetch_sub(1, std::memory_order_seq_cst);
  }
}

std::size_t RingGroup::Ring::wait_into(std::uint32_t slot_index,
                                       std::span<std::uint8_t> out) {
  Slot& slot = slot_at(slot_index, "ticket");
  await_done(slot);
  const std::uint32_t result_len = slot.result_len;
  const bool failed = slot.failed != 0;
  // The ring lives in shared memory: validate the copied length against the
  // slot capacity before it offsets anything, and free the slot either way
  // so a corrupted length cannot leak ring occupancy.
  const bool length_ok = result_len <= kMaxHostCallPayload;
  const bool fits = length_ok && result_len <= out.size();
  // Copy everything needed out of the slot before releasing it: a released
  // slot can be reclaimed and rewritten by another submitter immediately.
  std::string error;
  if (length_ok && failed) {
    error.assign(slot.result.begin(), slot.result.begin() + result_len);
  } else if (fits && result_len != 0) {
    std::memcpy(out.data(), slot.result.data(), result_len);
  }
  release_slot(slot);
  if (!length_ok) {
    throw Error("hostcall: result_len exceeds ring slot capacity");
  }
  if (failed) throw Error(error);
  if (!fits) {
    throw Error("hostcall: result of " + std::to_string(result_len) +
                " bytes exceeds caller buffer of " +
                std::to_string(out.size()));
  }
  return result_len;
}

bool RingGroup::Ring::process_one(EnclaveEntry& entry,
                                  WorkerScratch& scratch) {
  std::size_t offset = capacity_;
  for (std::size_t i = 0; i < capacity_; ++i) {
    if (slots_[(scan_ + i) & mask_].state.load(std::memory_order_acquire) ==
        kQueued) {
      offset = i;
      break;
    }
  }
  if (offset == capacity_) return false;
  // A slot skipped above may have been published after it was looked at but
  // before the one found. One thread publishes its slots in claim order, and
  // the acquire above makes its earlier publications visible, so a second
  // look at the skipped slots keeps each submitter's jobs in FIFO order.
  for (std::size_t i = 0; i < offset; ++i) {
    if (slots_[(scan_ + i) & mask_].state.load(std::memory_order_acquire) ==
        kQueued) {
      offset = i;
      break;
    }
  }
  Slot& slot = slots_[(scan_ + offset) & mask_];
  std::uint32_t expected = kQueued;
  if (!slot.state.compare_exchange_strong(expected, kExecuting,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
    return false;
  }
  scan_ = (scan_ + offset + 1) & mask_;
  queued_.fetch_sub(1, std::memory_order_seq_cst);

  // Copy-in ONCE from the untrusted slot: each field is read exactly one
  // time into an enclave-local value, then validated and used only via
  // that copy. Trusted code never re-reads untrusted memory after a
  // check, so a concurrently scribbling host cannot flip a validated
  // length or opcode (the classic TOCTOU double-fetch). The payload is
  // memcpy'd once into the worker's fixed scratch buffer and the result
  // produced in place — no trusted-side allocation per job.
  const std::uint32_t opcode_copy = slot.opcode;
  const std::uint32_t payload_len_copy = slot.payload_len;
  bool ok = false;
  std::size_t reply_len = 0;
  std::string error;
  if (payload_len_copy > kMaxHostCallPayload) {
    error = "hostcall: untrusted payload_len out of range";
  } else {
    if (payload_len_copy != 0) {
      std::memcpy(scratch.input.data(), slot.payload.data(),
                  payload_len_copy);
    }
    try {
      reply_len = entry.dispatch_into(
          opcode_copy, ByteView(scratch.input.data(), payload_len_copy),
          std::span<std::uint8_t>(scratch.output));
      ok = reply_len <= kMaxHostCallPayload;
      if (!ok) error = "hostcall: trusted result exceeds ring slot capacity";
    } catch (const std::exception& e) {
      error = e.what();
    }
  }
  if (ok) {
    if (reply_len != 0) {
      std::memcpy(slot.result.data(), scratch.output.data(), reply_len);
    }
  } else {
    reply_len = std::min(error.size(), kMaxHostCallPayload);
    if (reply_len != 0) {
      std::memcpy(slot.result.data(), error.data(), reply_len);
    }
  }
  slot.result_len = static_cast<std::uint32_t>(reply_len);
  slot.failed = ok ? 0 : 1;
  // bc-ok(B3): seq_cst required — StoreLoad ordering against the
  // done_waiters_ load below (Dekker pattern): a plain release would let
  // this store reorder after the waiter check and strand a sleeper.
  slot.state.store(kDone, std::memory_order_seq_cst);
  jobs_.fetch_add(1, std::memory_order_release);
  if (done_waiters_.load(std::memory_order_seq_cst) > 0) {
    std::lock_guard<std::mutex> lk(done_mutex_);
    done_cv_.notify_all();
  }
  return true;
}

void RingGroup::Ring::worker_main() {
  WorkerScratch scratch;
  while (true) {
    {
      // One crossing to enter; every job dispatched inside this scope is
      // switchless. Re-entry after a park is the "classic ECALL wakeup".
      EnclaveEntry entry(*enclave_);
      int empty_polls = 0;
      while (true) {
        if (process_one(entry, scratch)) {
          empty_polls = 0;
          continue;
        }
        if (!running_.load(std::memory_order_seq_cst)) {
          // stop() already drained submitters; the ring is empty. Done.
          return;
        }
        if (++empty_polls >= spin_polls_) break;
        std::this_thread::yield();
      }
    }  // exit the enclave before sleeping: idle enclaves burn no CPU
    parks_.fetch_add(1, std::memory_order_release);
    {
      std::unique_lock<std::mutex> lk(wake_mutex_);
      parked_.store(true, std::memory_order_seq_cst);
      wake_cv_.wait(lk, [&] {
        return !running_.load(std::memory_order_seq_cst) ||
               queued_.load(std::memory_order_seq_cst) > 0;
      });
      parked_.store(false, std::memory_order_seq_cst);
    }
    wakeups_.fetch_add(1, std::memory_order_release);
  }
}

void RingGroup::Ring::stop() {
  std::call_once(stop_once_, [this] {
    // Phase 1: refuse new jobs and kick backpressure-blocked claimants.
    accepting_.store(false, std::memory_order_seq_cst);
    {
      std::lock_guard<std::mutex> lk(space_mutex_);
      space_cv_.notify_all();
    }
    // Phase 2: let in-flight submitters land their jobs (the worker is
    // still running, so anything they queued will execute). Unpublished
    // zero-copy handles count as submitters until publish()/abandon().
    {
      std::unique_lock<std::mutex> lk(stop_mutex_);
      stop_cv_.wait(lk, [this] {
        return submitters_.load(std::memory_order_seq_cst) == 0;
      });
    }
    // Phase 3: tell the worker to finish its final drain and exit.
    running_.store(false, std::memory_order_seq_cst);
    {
      std::lock_guard<std::mutex> lk(wake_mutex_);
      wake_cv_.notify_one();
    }
    worker_.join();
  });
}

HostCallStats RingGroup::Ring::stats() const {
  HostCallStats s;
  s.submits = submits_.load(std::memory_order_acquire);
  s.jobs = jobs_.load(std::memory_order_acquire);
  s.parks = parks_.load(std::memory_order_acquire);
  s.wakeups = wakeups_.load(std::memory_order_acquire);
  s.backpressure_waits = backpressure_waits_.load(std::memory_order_acquire);
  return s;
}

// ---------------------------------------------------------------------------
// RingGroup
// ---------------------------------------------------------------------------

RingGroup::RingGroup(std::shared_ptr<Enclave> enclave,
                     RingGroupOptions options) {
  if (!enclave) throw Error("hostcall: null enclave");
  const std::size_t n = std::max<std::size_t>(options.rings, 1);
  rings_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    rings_.push_back(std::make_unique<Ring>(static_cast<std::uint32_t>(i),
                                            enclave, options));
  }
}

RingGroup::~RingGroup() { stop(); }

std::size_t RingGroup::capacity() const { return rings_.front()->capacity(); }

std::size_t RingGroup::occupancy() const {
  std::size_t total = 0;
  for (const auto& ring : rings_) total += ring->occupancy();
  return total;
}

bool RingGroup::stopped() const { return rings_.front()->stopped(); }

RingGroup::Ring& RingGroup::ring_at(std::uint32_t index,
                                    const char* what) const {
  if (index >= rings_.size()) {
    throw Error(std::string("hostcall: invalid ") + what);
  }
  return *rings_[index];
}

RingGroup::SubmitHandle RingGroup::begin_submit_on(std::size_t ring_index,
                                                   std::uint32_t opcode) {
  if (ring_index >= rings_.size()) {
    throw Error("hostcall: ring index out of range");
  }
  return rings_[ring_index]->claim(opcode);
}

void RingGroup::publish(const SubmitHandle& handle, std::size_t payload_len) {
  ring_at(handle.ticket.ring, "submit handle")
      .publish(handle.ticket.slot, payload_len);
}

void RingGroup::abandon(const SubmitHandle& handle) {
  ring_at(handle.ticket.ring, "submit handle").abandon(handle.ticket.slot);
}

std::size_t RingGroup::wait_into(Ticket ticket, std::span<std::uint8_t> out) {
  return ring_at(ticket.ring, "ticket").wait_into(ticket.slot, out);
}

void RingGroup::stop() {
  for (auto& ring : rings_) ring->stop();
}

RingGroupStats RingGroup::stats() const {
  RingGroupStats s;
  s.per_ring.reserve(rings_.size());
  for (const auto& ring : rings_) {
    const HostCallStats r = ring->stats();
    s.total.submits += r.submits;
    s.total.jobs += r.jobs;
    s.total.parks += r.parks;
    s.total.wakeups += r.wakeups;
    s.total.backpressure_waits += r.backpressure_waits;
    s.per_ring.push_back(r);
  }
  return s;
}

}  // namespace vnfsgx::sgx
