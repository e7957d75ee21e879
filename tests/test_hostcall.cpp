// Switchless ECALL runtime tests: the hostcall ring behind a one-ring
// RingGroup (submit/wait, spin-then-park, backpressure, teardown drain),
// multi-ring groups (affinity, stealing, aggregation), and the failure
// modes at the trusted/untrusted boundary.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>

#include "crypto/random.h"
#include "sgx/hostcall.h"
#include "sgx/platform.h"

namespace vnfsgx::sgx {
namespace {

using crypto::DeterministicRandom;

enum TestOp : std::uint32_t {
  kEcho = 1,
  kStore = 2,
  kLoad = 3,
  kFail = 4,
  kGateWait = 5,
  kBigResult = 6,
  kRecord = 7,
};

/// "<prefix><n>", built by appending: GCC 12's -Wrestrict misfires on
/// `"literal" + std::to_string(n)`.
std::string tag(const char* prefix, std::size_t n) {
  std::string s(prefix);
  s += std::to_string(n);
  return s;
}

/// Test gate the trusted logic can block on, controlled from the outside.
struct Gate {
  std::mutex mutex;
  std::condition_variable cv;
  bool open = false;

  void release() {
    std::lock_guard<std::mutex> lk(mutex);
    open = true;
    cv.notify_all();
  }
  void await() {
    std::unique_lock<std::mutex> lk(mutex);
    cv.wait(lk, [this] { return open; });
  }
};

/// The order in which kRecord jobs ran inside the enclave.
struct Journal {
  std::mutex mutex;
  std::vector<std::string> entries;
};

class RingTestLogic final : public TrustedLogic {
 public:
  RingTestLogic(std::shared_ptr<Gate> gate, std::shared_ptr<Journal> journal)
      : gate_(std::move(gate)), journal_(std::move(journal)) {}

  Bytes handle_call(std::uint32_t opcode, ByteView input,
                    EnclaveServices& services) override {
    switch (opcode) {
      case kEcho:
        return Bytes(input.begin(), input.end());
      case kStore:
        services.vault().store("secret", Bytes(input.begin(), input.end()));
        return {};
      case kLoad:
        return services.vault().load("secret");
      case kFail:
        throw Error("trusted handler refused");
      case kGateWait:
        gate_->await();
        return to_bytes("released");
      case kBigResult:
        return Bytes(kMaxHostCallPayload + 1, 0xab);
      case kRecord: {
        std::lock_guard<std::mutex> lk(journal_->mutex);
        journal_->entries.push_back(to_string(input));
        return {};
      }
    }
    throw Error("unknown opcode");
  }

 private:
  std::shared_ptr<Gate> gate_;
  std::shared_ptr<Journal> journal_;
};

class HostCallFixture : public ::testing::Test {
 protected:
  HostCallFixture() : rng_(29), vendor_(crypto::ed25519_generate(rng_)) {
    PlatformOptions options;
    options.crossing_cost = std::chrono::nanoseconds(0);  // fast tests
    platform_ = std::make_unique<SgxPlatform>(rng_, "ring-host", options);
    gate_ = std::make_shared<Gate>();
    journal_ = std::make_shared<Journal>();
  }

  std::shared_ptr<Enclave> load() {
    EnclaveImage image;
    image.name = "ring-test-enclave";
    image.code = to_bytes("ring test enclave code");
    image.factory = [gate = gate_, journal = journal_] {
      return std::make_unique<RingTestLogic>(gate, journal);
    };
    const SigStruct sig = sign_enclave(
        vendor_.seed, measure_image(image.code, image.attributes), 1, 1);
    return platform_->load_enclave(image, sig);
  }

  DeterministicRandom rng_;
  crypto::Ed25519KeyPair vendor_;
  std::unique_ptr<SgxPlatform> platform_;
  std::shared_ptr<Gate> gate_;
  std::shared_ptr<Journal> journal_;
};

// ---------------------------------------------------------------------------
// Switchless ring: happy paths
// ---------------------------------------------------------------------------

TEST_F(HostCallFixture, RingEchoRoundTrip) {
  auto enclave = load();
  RingGroup ring(enclave);
  const Bytes out = ring.call(kEcho, to_bytes("through the ring"));
  EXPECT_EQ(to_string(out), "through the ring");
  EXPECT_EQ(ring.stats().total.jobs, 1u);
  EXPECT_EQ(ring.occupancy(), 0u);
  const EcallStats stats = enclave->ecall_stats();
  EXPECT_EQ(stats.switchless_jobs, 1u);
  EXPECT_EQ(stats.sync_calls, 0u);
}

TEST_F(HostCallFixture, SwitchlessAvoidsPerJobCrossings) {
  auto enclave = load();
  RingGroup ring(enclave);
  constexpr int kJobs = 200;
  const EcallStats before = enclave->ecall_stats();

  // Pipelined window keeps the ring busy so the worker never runs dry.
  std::vector<RingGroup::Ticket> tickets;
  std::size_t collected = 0;
  for (int i = 0; i < kJobs; ++i) {
    if (tickets.size() - collected >= 32) {
      const Bytes out = ring.wait(tickets[collected]);
      EXPECT_EQ(to_string(out), tag("p", collected));
      ++collected;
    }
    tickets.push_back(ring.submit(kEcho, to_bytes(tag("p", i))));
  }
  while (collected < tickets.size()) {
    const Bytes out = ring.wait(tickets[collected]);
    EXPECT_EQ(to_string(out), tag("p", collected));
    ++collected;
  }

  const EcallStats after = enclave->ecall_stats();
  EXPECT_EQ(after.switchless_jobs - before.switchless_jobs,
            static_cast<std::uint64_t>(kJobs));
  // A sync loop would cross kJobs times; the ring crosses once at worker
  // start plus once per park/wake cycle.
  EXPECT_LT(after.crossings - before.crossings,
            static_cast<std::uint64_t>(kJobs) / 2);
}

TEST_F(HostCallFixture, RingRunsOneSubmittersJobsInOrder) {
  // The worker scans for queued slots while the submitter is still filling
  // earlier ones; it must never overtake a slot published before the one it
  // found. Per-flow verdicts on the inspection path depend on this order.
  auto enclave = load();
  RingGroupOptions options;
  options.ring_capacity = 8;
  RingGroup ring(enclave, options);
  constexpr std::size_t kJobs = 20000;
  std::vector<RingGroup::Ticket> tickets;
  tickets.reserve(kJobs);
  std::size_t collected = 0;
  for (std::size_t i = 0; i < kJobs; ++i) {
    if (tickets.size() - collected >= 4) ring.wait(tickets[collected++]);
    tickets.push_back(ring.submit(kRecord, to_bytes(tag("j", i))));
  }
  while (collected < tickets.size()) ring.wait(tickets[collected++]);

  std::lock_guard<std::mutex> lk(journal_->mutex);
  ASSERT_EQ(journal_->entries.size(), kJobs);
  std::size_t out_of_order = 0;
  for (std::size_t i = 0; i < kJobs; ++i) {
    if (journal_->entries[i] != tag("j", i)) ++out_of_order;
  }
  EXPECT_EQ(out_of_order, 0u);
}

TEST_F(HostCallFixture, RingWorkerRunsInsideTheEnclave) {
  auto enclave = load();
  RingGroup ring(enclave);
  // Vault access throws SecurityViolation unless executing inside the
  // enclave — a round trip proves the ring worker really is "inside".
  ring.call(kStore, to_bytes("ring-credential"));
  EXPECT_EQ(to_string(ring.call(kLoad, {})), "ring-credential");
}

TEST_F(HostCallFixture, RingPropagatesTrustedErrors) {
  auto enclave = load();
  RingGroup ring(enclave);
  try {
    ring.call(kFail, {});
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("refused"), std::string::npos);
  }
  // The failed slot was freed; the ring keeps working.
  EXPECT_EQ(to_string(ring.call(kEcho, to_bytes("ok"))), "ok");
  EXPECT_EQ(ring.occupancy(), 0u);
}

TEST_F(HostCallFixture, ConcurrentSubmitters) {
  auto enclave = load();
  RingGroupOptions options;
  options.ring_capacity = 8;  // small ring: force contention
  RingGroup ring(enclave, options);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ring, &failures, t] {
      for (int i = 0; i < kPerThread; ++i) {
        std::string msg = "t";
        msg += std::to_string(t);
        msg += '.';
        msg += std::to_string(i);
        const Bytes out = ring.call(kEcho, to_bytes(msg));
        if (to_string(out) != msg) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(ring.stats().total.jobs,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(ring.occupancy(), 0u);
}

TEST_F(HostCallFixture, SpinBudgetExhaustionParksAndWakes) {
  auto enclave = load();
  RingGroupOptions options;
  options.spin_polls = 16;  // park quickly
  RingGroup ring(enclave, options);
  // Idle ring: the worker must park instead of spinning forever.
  for (int i = 0; i < 200 && ring.stats().total.parks == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(ring.stats().total.parks, 1u);
  // A submission must wake it (the classic-ECALL wakeup edge).
  EXPECT_EQ(to_string(ring.call(kEcho, to_bytes("wake"))), "wake");
  EXPECT_GE(ring.stats().total.wakeups, 1u);
}

// ---------------------------------------------------------------------------
// Switchless ring: failure modes at the boundary
// ---------------------------------------------------------------------------

TEST_F(HostCallFixture, OversizedPayloadRejectedAtTheGate) {
  auto enclave = load();
  RingGroup ring(enclave);
  const Bytes too_big(kMaxHostCallPayload + 1, 0x41);
  EXPECT_THROW(ring.submit(kEcho, too_big), Error);
  // Nothing was enqueued and the ring still works.
  EXPECT_EQ(ring.occupancy(), 0u);
  EXPECT_EQ(ring.stats().total.jobs, 0u);
  const Bytes max_size(kMaxHostCallPayload, 0x42);
  EXPECT_EQ(ring.call(kEcho, max_size), max_size);
}

TEST_F(HostCallFixture, OversizedTrustedResultFailsTheJob) {
  auto enclave = load();
  RingGroup ring(enclave);
  try {
    ring.call(kBigResult, {});
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("slot capacity"), std::string::npos);
  }
  EXPECT_EQ(ring.occupancy(), 0u);
}

TEST_F(HostCallFixture, FullRingBlocksInsteadOfDropping) {
  auto enclave = load();
  RingGroupOptions options;
  options.ring_capacity = 2;
  RingGroup ring(enclave, options);
  ASSERT_EQ(ring.capacity(), 2u);

  // Slot 1: a job the worker is stuck executing until we open the gate.
  const auto blocked = ring.submit(kGateWait, {});
  // Slot 2: queued behind it.
  const auto queued = ring.submit(kEcho, to_bytes("queued"));

  // Third submission finds the ring full and must block — not drop.
  std::atomic<bool> third_done{false};
  Bytes third_result;
  std::thread submitter([&] {
    third_result = ring.call(kEcho, to_bytes("backpressured"));
    third_done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(third_done.load());  // still blocked, nothing lost

  gate_->release();
  EXPECT_EQ(to_string(ring.wait(blocked)), "released");  // frees a slot
  EXPECT_EQ(to_string(ring.wait(queued)), "queued");
  submitter.join();
  EXPECT_TRUE(third_done.load());
  EXPECT_EQ(to_string(third_result), "backpressured");
  EXPECT_GE(ring.stats().total.backpressure_waits, 1u);
  EXPECT_EQ(ring.stats().total.jobs, 3u);
}

TEST_F(HostCallFixture, StopDrainsInFlightJobsCleanly) {
  auto enclave = load();
  RingGroupOptions options;
  options.ring_capacity = 16;
  RingGroup ring(enclave, options);
  std::vector<RingGroup::Ticket> tickets;
  for (int i = 0; i < 8; ++i) {
    tickets.push_back(ring.submit(kEcho, to_bytes(tag("drain", i))));
  }
  ring.stop();
  EXPECT_TRUE(ring.stopped());
  // Every submitted job was executed before the worker exited; results are
  // still collectable — no dangling slots.
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(to_string(ring.wait(tickets[i])), tag("drain", i));
  }
  EXPECT_EQ(ring.stats().total.jobs, 8u);
  EXPECT_EQ(ring.occupancy(), 0u);
  // New work is refused after stop.
  EXPECT_THROW(ring.submit(kEcho, to_bytes("late")), Error);
  EXPECT_THROW(ring.call(kEcho, to_bytes("late")), Error);
}

TEST_F(HostCallFixture, DestructionWithUncollectedResultsIsClean) {
  auto enclave = load();
  {
    RingGroup ring(enclave);
    for (int i = 0; i < 4; ++i) {
      ring.submit(kEcho, to_bytes("abandoned"));
    }
    // Destructor stops + drains; uncollected kDone slots must not leak or
    // dangle (ASan/TSan verify).
  }
  // Enclave outlives the ring and stays usable.
  EXPECT_EQ(to_string(enclave->call(kEcho, to_bytes("after"))), "after");
}

TEST_F(HostCallFixture, StopUnblocksBackpressuredSubmitters) {
  auto enclave = load();
  RingGroupOptions options;
  options.ring_capacity = 2;
  auto ring = std::make_unique<RingGroup>(enclave, options);
  ring->submit(kGateWait, {});
  ring->submit(kEcho, {});  // ring now full

  std::atomic<bool> threw{false};
  std::thread submitter([&] {
    try {
      ring->submit(kEcho, to_bytes("doomed"));
    } catch (const Error&) {
      threw.store(true);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate_->release();  // let the worker finish so stop() can drain
  ring->stop();
  submitter.join();
  EXPECT_TRUE(threw.load());
}

TEST_F(HostCallFixture, StopRacingPipelineNeverMisdeliversResults) {
  // A stop() landing in the middle of a pipelined submit/wait window may
  // fail frames (fine) but must never surface a result that belongs to a
  // different ticket — every successful wait has to return exactly the
  // payload submitted under that ticket, and no slot may leak.
  auto enclave = load();
  RingGroupOptions options;
  options.ring_capacity = 8;
  RingGroup ring(enclave, options);

  std::thread stopper([&] {
    std::this_thread::sleep_for(std::chrono::microseconds(500));
    ring.stop();
  });

  constexpr int kFrames = 4000;
  std::vector<RingGroup::Ticket> tickets;
  std::vector<int> frame_of;  // frame_of[i] = frame submitted as tickets[i]
  std::size_t collected = 0;
  int mismatches = 0;
  auto collect = [&] {
    try {
      const Bytes out = ring.wait(tickets[collected]);
      if (to_string(out) != tag("f", frame_of[collected])) {
        ++mismatches;
      }
    } catch (const Error&) {
      // stop() raced this frame; losing it is fine, misdelivery is not.
    }
    ++collected;
  };
  for (int i = 0; i < kFrames; ++i) {
    if (tickets.size() - collected >= 4) collect();
    try {
      tickets.push_back(ring.submit(kEcho, to_bytes(tag("f", i))));
      frame_of.push_back(i);
    } catch (const Error&) {
      break;  // ring stopped mid-pipeline
    }
  }
  while (collected < tickets.size()) collect();
  stopper.join();
  EXPECT_EQ(mismatches, 0);
  EXPECT_EQ(ring.occupancy(), 0u);
}

TEST_F(HostCallFixture, CapacityRoundsToPowerOfTwo) {
  auto enclave = load();
  RingGroupOptions options;
  options.ring_capacity = 3;
  RingGroup ring(enclave, options);
  EXPECT_EQ(ring.capacity(), 4u);
}

TEST_F(HostCallFixture, InvalidTicketRejected) {
  auto enclave = load();
  RingGroup ring(enclave);
  // Out-of-range slot on a real ring, then a ring the group does not have.
  EXPECT_THROW(ring.wait(RingGroup::Ticket{0, 1u << 20}), Error);
  EXPECT_THROW(ring.wait(RingGroup::Ticket{1, 0}), Error);
  EXPECT_EQ(ring.occupancy(), 0u);
}

// ---------------------------------------------------------------------------
// Zero-copy submission (begin_submit / publish / wait_into)
// ---------------------------------------------------------------------------

TEST_F(HostCallFixture, ZeroCopyRoundTrip) {
  auto enclave = load();
  RingGroup ring(enclave);
  const std::string msg = "serialized straight into the slot";

  const auto handle = ring.begin_submit(kEcho);
  ASSERT_EQ(handle.payload.size(), kMaxHostCallPayload);
  std::memcpy(handle.payload.data(), msg.data(), msg.size());
  ring.publish(handle, msg.size());

  std::array<std::uint8_t, kMaxHostCallPayload> out{};
  const std::size_t n = ring.wait_into(handle.ticket, out);
  EXPECT_EQ(std::string(out.begin(), out.begin() + n), msg);
  EXPECT_EQ(ring.occupancy(), 0u);
  EXPECT_EQ(ring.stats().total.jobs, 1u);
  EXPECT_EQ(ring.stats().total.submits, 1u);
}

TEST_F(HostCallFixture, AbandonedHandleFreesTheSlot) {
  auto enclave = load();
  RingGroupOptions options;
  options.ring_capacity = 2;
  RingGroup ring(enclave, options);

  const auto handle = ring.begin_submit(kEcho);
  EXPECT_EQ(ring.occupancy(), 1u);
  ring.abandon(handle);
  EXPECT_EQ(ring.occupancy(), 0u);
  EXPECT_EQ(ring.stats().total.submits, 0u);  // never published, never a job
  EXPECT_EQ(ring.stats().total.jobs, 0u);

  // The slot really is reusable: fill the whole (tiny) ring afterwards.
  EXPECT_EQ(to_string(ring.call(kEcho, to_bytes("a"))), "a");
  EXPECT_EQ(to_string(ring.call(kEcho, to_bytes("b"))), "b");
}

TEST_F(HostCallFixture, OversizedPublishRejectedAndSlotFreed) {
  auto enclave = load();
  RingGroup ring(enclave);
  const auto handle = ring.begin_submit(kEcho);
  EXPECT_THROW(ring.publish(handle, kMaxHostCallPayload + 1), Error);
  // The rejected handle was released, not leaked.
  EXPECT_EQ(ring.occupancy(), 0u);
  EXPECT_EQ(ring.stats().total.submits, 0u);
  EXPECT_EQ(to_string(ring.call(kEcho, to_bytes("still fine"))), "still fine");
}

TEST_F(HostCallFixture, WaitIntoSmallBufferFailsButFreesTheSlot) {
  auto enclave = load();
  RingGroup ring(enclave);
  const Bytes big(256, 0x55);
  const auto ticket = ring.submit(kEcho, big);
  std::array<std::uint8_t, 16> tiny{};
  try {
    ring.wait_into(ticket, tiny);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("caller buffer"), std::string::npos);
  }
  EXPECT_EQ(ring.occupancy(), 0u);  // failed collection still frees the slot
  EXPECT_EQ(to_string(ring.call(kEcho, to_bytes("next"))), "next");
}

TEST_F(HostCallFixture, WaitIntoPropagatesTrustedErrors) {
  auto enclave = load();
  RingGroup ring(enclave);
  const auto ticket = ring.submit(kFail, {});
  std::array<std::uint8_t, kMaxHostCallPayload> out{};
  try {
    ring.wait_into(ticket, out);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("refused"), std::string::npos);
  }
  EXPECT_EQ(ring.occupancy(), 0u);
}

TEST_F(HostCallFixture, StopWaitsForUnpublishedHandles) {
  auto enclave = load();
  RingGroup ring(enclave);
  const auto handle = ring.begin_submit(kEcho);
  std::memcpy(handle.payload.data(), "held", 4);

  std::atomic<bool> stop_done{false};
  std::thread stopper([&] {
    ring.stop();
    stop_done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // Phase 2 of stop() must wait out the claimed-but-unpublished handle —
  // tearing the ring down under a caller mid-serialization would hand the
  // worker a half-written slot.
  EXPECT_FALSE(stop_done.load());

  ring.publish(handle, 4);
  stopper.join();
  EXPECT_TRUE(stop_done.load());
  EXPECT_EQ(to_string(ring.wait(handle.ticket)), "held");
  EXPECT_EQ(ring.occupancy(), 0u);
}

// ---------------------------------------------------------------------------
// RingGroup: affinity, stealing, aggregation, teardown
// ---------------------------------------------------------------------------

TEST_F(HostCallFixture, GroupAffinityKeepsAThreadOnItsHomeRing) {
  auto enclave = load();
  RingGroupOptions options;
  options.rings = 2;
  options.name = "affine";
  RingGroup group(enclave, options);
  ASSERT_EQ(group.rings(), 2u);
  const std::size_t home = group.home_ring();
  ASSERT_LT(home, 2u);

  for (int i = 0; i < 8; ++i) {
    const auto ticket = group.submit(kEcho, to_bytes(tag("a", i)));
    EXPECT_EQ(ticket.ring, home);  // never wanders while home has space
    EXPECT_EQ(to_string(group.wait(ticket)), tag("a", i));
  }

  const RingGroupStats stats = group.stats();
  EXPECT_EQ(stats.affinity_submits, 8u);
  EXPECT_EQ(stats.steals, 0u);
  EXPECT_EQ(stats.per_ring[home].jobs, 8u);
  EXPECT_EQ(stats.per_ring[1 - home].jobs, 0u);
  EXPECT_EQ(stats.total.jobs, 8u);
}

TEST_F(HostCallFixture, GroupFullHomeRingStealsFromSibling) {
  auto enclave = load();
  RingGroupOptions options;
  options.rings = 2;
  options.ring_capacity = 2;
  options.name = "steal";
  RingGroup group(enclave, options);
  const std::size_t home = group.home_ring();
  const std::uint32_t sibling = static_cast<std::uint32_t>(1 - home);

  // Fill the home ring: one job parked on the gate, one queued behind it.
  // Slots stay occupied until collected, so home is deterministically full.
  auto stuck = group.begin_submit_on(home, kGateWait);
  group.publish(stuck, 0);
  const auto queued = group.submit(kEcho, to_bytes("queued"));
  ASSERT_EQ(queued.ring, home);

  // A full home must divert to the sibling ring instead of blocking.
  const auto stolen = group.submit(kEcho, to_bytes("stolen"));
  EXPECT_EQ(stolen.ring, sibling);
  EXPECT_EQ(to_string(group.wait(stolen)), "stolen");  // sibling worker ran it

  const RingGroupStats mid = group.stats();
  EXPECT_EQ(mid.steals, 1u);
  EXPECT_EQ(mid.affinity_submits, 1u);  // only "queued" landed home unassisted

  gate_->release();
  std::array<std::uint8_t, kMaxHostCallPayload> out{};
  const std::size_t n =
      group.wait_into(stuck.ticket, out);
  EXPECT_EQ(std::string(out.begin(), out.begin() + n), "released");
  EXPECT_EQ(to_string(group.wait(queued)), "queued");
  EXPECT_EQ(group.occupancy(), 0u);
}

TEST_F(HostCallFixture, GroupStatsMatchSerialOracle) {
  auto enclave = load();
  RingGroupOptions options;
  options.rings = 3;
  options.name = "oracle";
  RingGroup group(enclave, options);
  const EcallStats before = enclave->ecall_stats();

  // Pin a known number of jobs to each ring; the aggregate must equal this
  // serial plan exactly — no lost or double-counted increments.
  const std::array<std::size_t, 3> plan = {5, 9, 2};
  for (std::size_t r = 0; r < plan.size(); ++r) {
    for (std::size_t i = 0; i < plan[r]; ++i) {
      auto handle = group.begin_submit_on(r, kEcho);
      const std::string msg = tag("r", r) + tag(".", i);
      std::memcpy(handle.payload.data(), msg.data(), msg.size());
      group.publish(handle, msg.size());
      std::array<std::uint8_t, kMaxHostCallPayload> out{};
      const std::size_t n = group.wait_into(
          handle.ticket, out);
      EXPECT_EQ(std::string(out.begin(), out.begin() + n), msg);
    }
  }

  const std::uint64_t expected = plan[0] + plan[1] + plan[2];
  const RingGroupStats stats = group.stats();
  ASSERT_EQ(stats.per_ring.size(), 3u);
  std::uint64_t sum_jobs = 0;
  std::uint64_t sum_submits = 0;
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(stats.per_ring[r].jobs, plan[r]);
    EXPECT_EQ(stats.per_ring[r].submits, plan[r]);
    sum_jobs += stats.per_ring[r].jobs;
    sum_submits += stats.per_ring[r].submits;
  }
  EXPECT_EQ(stats.total.jobs, expected);
  EXPECT_EQ(stats.total.jobs, sum_jobs);
  EXPECT_EQ(stats.total.submits, sum_submits);
  // Pinned submits bypass the affinity policy entirely.
  EXPECT_EQ(stats.affinity_submits, 0u);
  EXPECT_EQ(stats.steals, 0u);

  // The enclave-global view agrees: N ring workers, one set of counters.
  const EcallStats after = enclave->ecall_stats();
  EXPECT_EQ(after.switchless_jobs - before.switchless_jobs, expected);
  std::uint64_t echo_before = 0;
  std::uint64_t echo_after = 0;
  for (const auto& [op, count] : before.per_opcode) {
    if (op == kEcho) echo_before = count;
  }
  for (const auto& [op, count] : after.per_opcode) {
    if (op == kEcho) echo_after = count;
  }
  EXPECT_EQ(echo_after - echo_before, expected);
}

TEST_F(HostCallFixture, GroupStopDrainsInFlightWindowsAcrossRings) {
  auto enclave = load();
  RingGroupOptions options;
  options.rings = 3;
  options.ring_capacity = 8;
  options.name = "gdrain";
  RingGroup group(enclave, options);

  // An open pipelined window striped over every ring, then stop() mid-burst:
  // every published job must still complete and stay collectable.
  std::vector<RingGroup::Ticket> tickets;
  for (int i = 0; i < 18; ++i) {
    auto handle = group.begin_submit_on(static_cast<std::size_t>(i) % 3, kEcho);
    const std::string msg = tag("w", i);
    std::memcpy(handle.payload.data(), msg.data(), msg.size());
    group.publish(handle, msg.size());
    tickets.push_back(handle.ticket);
  }
  group.stop();
  EXPECT_TRUE(group.stopped());

  for (int i = 0; i < 18; ++i) {
    std::array<std::uint8_t, kMaxHostCallPayload> out{};
    const std::size_t n = group.wait_into(tickets[static_cast<std::size_t>(i)], out);
    EXPECT_EQ(std::string(out.begin(), out.begin() + n),
              tag("w", i));
  }
  EXPECT_EQ(group.occupancy(), 0u);
  EXPECT_THROW(group.submit(kEcho, to_bytes("late")), Error);
  EXPECT_THROW(group.begin_submit(kEcho), Error);
}

TEST_F(HostCallFixture, GroupStressManyProducersWithAffinityChurn) {
  auto enclave = load();
  RingGroupOptions options;
  options.rings = 3;
  options.ring_capacity = 8;  // small rings: force steals and backpressure
  options.spin_polls = 64;    // park/wake churn too
  options.name = "stress";
  RingGroup group(enclave, options);

  constexpr int kThreads = 6;
  constexpr int kPerThread = 300;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&group, &failures, t] {
      for (int i = 0; i < kPerThread; ++i) {
        std::string msg = "t";
        msg += std::to_string(t);
        msg += '.';
        msg += std::to_string(i);
        std::string got;
        if (i % 3 == 0) {
          // Pinned zero-copy submit to a rotating ring: deliberate affinity
          // churn so every thread hits every ring and every steal path.
          auto handle = group.begin_submit_on(
              static_cast<std::size_t>(t + i) % 3, kEcho);
          std::memcpy(handle.payload.data(), msg.data(), msg.size());
          group.publish(handle, msg.size());
          std::array<std::uint8_t, kMaxHostCallPayload> out{};
          const std::size_t n = group.wait_into(
              handle.ticket, out);
          got.assign(out.begin(), out.begin() + static_cast<long>(n));
        } else {
          got = to_string(group.call(kEcho, to_bytes(msg)));
        }
        if (got != msg) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  const RingGroupStats stats = group.stats();
  constexpr std::uint64_t kTotal =
      static_cast<std::uint64_t>(kThreads) * kPerThread;
  EXPECT_EQ(stats.total.jobs, kTotal);
  EXPECT_EQ(stats.total.submits, kTotal);
  std::uint64_t sum = 0;
  for (const auto& ring_stats : stats.per_ring) sum += ring_stats.jobs;
  EXPECT_EQ(sum, kTotal);
  EXPECT_EQ(group.occupancy(), 0u);
}

}  // namespace
}  // namespace vnfsgx::sgx
