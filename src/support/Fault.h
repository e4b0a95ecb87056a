//===- support/Fault.h - Resource gauge & deterministic faults --*- C++ -*-===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Two cooperating governance devices, both fully deterministic:
///
/// ResourceGauge meters cumulative allocation on a solving run —
/// TermContext node interning, CDCL clause growth, simplex tableau rows —
/// and trips a ResourceExhaustedMemory once the SolverOptions::MemLimitMb
/// budget is exceeded. Cumulative (never released) by design: unlike RSS it
/// is a pure function of the solving trace, so a trip happens at the same
/// allocation on every run, every machine, every sanitizer — the property
/// the byte-identical chaos reports rely on. It over-approximates live
/// memory, which is the safe direction for a governor.
///
/// FaultInjector fires seed-derived faults at exact event counts:
/// fail-at-Nth allocation (as ResourceExhaustedMemory), throw at the
/// attempt's Nth SMT check on any solver (as InvariantViolation), and a
/// spurious cancel at the Nth cancellation poll. Counters are monotone
/// across retries when the same injector instance is reused, so a fault
/// that fired in attempt 1 does not re-fire in attempt 2 — exactly the
/// transient-fault shape the retry ladder exists for. Instances are not
/// thread-safe: one injector per job.
///
//===----------------------------------------------------------------------===//

#ifndef MUCYC_SUPPORT_FAULT_H
#define MUCYC_SUPPORT_FAULT_H

#include "support/Error.h"

#include <atomic>
#include <cstdint>
#include <string>

namespace mucyc {

/// SplitMix64 step: deterministic seed mixing without pulling in the
/// testgen RNG (support must stay dependency-free).
inline uint64_t mixSeed(uint64_t Seed, uint64_t Salt) {
  uint64_t Z = Seed + 0x9e3779b97f4a7c15ull * (Salt + 1);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

/// Cooperative cumulative-allocation meter (see file comment for why it
/// never releases). Installed per solving attempt; 0 limit = observe only.
class ResourceGauge {
public:
  explicit ResourceGauge(uint64_t LimitBytes = 0) : Limit(LimitBytes) {}

  /// Account \p Bytes of growth; throws ResourceExhaustedMemory past the
  /// limit. Charged *before* the allocation mutates any structure, so a
  /// trip leaves the owner consistent.
  void charge(uint64_t Bytes) {
    Used += Bytes;
    if (Limit && Used > Limit)
      raiseError(ErrorCode::ResourceExhaustedMemory,
                 "memory budget exhausted (" + std::to_string(Used >> 10) +
                     " KiB metered, limit " + std::to_string(Limit >> 10) +
                     " KiB)");
  }

  uint64_t used() const { return Used; }
  uint64_t limit() const { return Limit; }

private:
  uint64_t Used = 0;
  uint64_t Limit;
};

/// Deterministic fault injector; see file comment. All trip points are
/// 1-based event ordinals; 0 disarms that fault.
class FaultInjector {
public:
  uint64_t AllocTrip = 0;  ///< Fail the Nth node allocation.
  uint64_t CheckTrip = 0;  ///< Throw at the attempt's Nth check, any solver.
  uint64_t CancelTrip = 0; ///< Report cancelled at the Nth expiry poll.

  /// Derives a fault plan from a chaos seed: which fault classes are armed
  /// and their trip ordinals are a pure function of \p Seed.
  static FaultInjector fromSeed(uint64_t Seed) {
    FaultInjector FI;
    // Arm one or two of the three classes so most runs see exactly one
    // fault shape (easier to attribute) but combinations are covered too.
    uint64_t Pick = mixSeed(Seed, 0) % 6;
    if (Pick == 0 || Pick == 3 || Pick == 5)
      FI.AllocTrip = 200 + mixSeed(Seed, 1) % 20000;
    if (Pick == 1 || Pick == 3 || Pick == 4)
      FI.CheckTrip = 1 + mixSeed(Seed, 2) % 40;
    if (Pick == 2 || Pick == 4 || Pick == 5)
      FI.CancelTrip = 1 + mixSeed(Seed, 3) % 60;
    return FI;
  }

  /// Call on every metered allocation (TermContext::intern).
  void onAlloc() {
    if (AllocTrip && ++Allocs == AllocTrip)
      raiseError(ErrorCode::ResourceExhaustedMemory,
                 "injected allocation failure at node #" +
                     std::to_string(Allocs));
  }

  /// Called by SmtSolver::check on every call, after it counts the check.
  void onSmtCheck() {
    if (CheckTrip && ++Checks == CheckTrip)
      raiseError(ErrorCode::InvariantViolation,
                 "injected fault at SMT check #" + std::to_string(Checks));
  }

  /// Call from the engine's expiry poll; true = behave as if cancelled.
  bool spuriousCancel() {
    return CancelTrip && ++CancelPolls == CancelTrip;
  }

private:
  uint64_t Allocs = 0, Checks = 0, CancelPolls = 0;
};

/// Deterministic service-boundary fault plan. Where FaultInjector is
/// one-shot and per-job (faults *inside* a solving attempt), this plan is
/// process-global and periodic: "SIGKILL every Nth spawned worker", "tear
/// every Nth store write at byte K", "short-cut every Nth socket write".
/// Counters are atomic so concurrent connection threads observe a single
/// global event order; determinism therefore requires the driver to
/// serialize requests (the ci.sh crash leg replays sequentially). All
/// periods are "every Nth event", 1-based; 0 disarms that class.
class ServiceFaultPlan {
public:
  uint64_t KillWorkerEvery = 0; ///< SIGKILL every Nth spawned worker.
  uint64_t TearStoreEvery = 0;  ///< Tear every Nth disk-store write...
  uint64_t TearStoreByte = 64;  ///< ...truncated at this byte offset.
  uint64_t ShortWriteEvery = 0; ///< Abort every Nth socket frame write.

  bool armed() const {
    return KillWorkerEvery || TearStoreEvery || ShortWriteEvery;
  }

  /// True when this spawned worker should be SIGKILLed by the chaos plan.
  bool killThisWorker() {
    return KillWorkerEvery &&
           (Workers.fetch_add(1, std::memory_order_relaxed) + 1) %
                   KillWorkerEvery ==
               0;
  }

  /// True when this disk-store write should be torn; \p ByteOut receives the
  /// truncation offset.
  bool tearThisStoreWrite(uint64_t &ByteOut) {
    if (!TearStoreEvery)
      return false;
    ByteOut = TearStoreByte;
    return (StoreWrites.fetch_add(1, std::memory_order_relaxed) + 1) %
               TearStoreEvery ==
           0;
  }

  /// True when this socket frame write should be cut short mid-frame.
  bool shortThisWrite() {
    return ShortWriteEvery &&
           (FrameWrites.fetch_add(1, std::memory_order_relaxed) + 1) %
                   ShortWriteEvery ==
               0;
  }

  /// Parses a chaos-plan spec like "kill-worker=7,tear-store=5@64,
  /// short-write=9". Returns false (with \p Err set) on a malformed spec.
  bool parse(const std::string &Spec, std::string &Err);

  /// The process-wide plan consulted by worker spawn, ResultStore::storeFile
  /// and writeFrame. Defaults to everything-disarmed.
  static ServiceFaultPlan &global();

private:
  std::atomic<uint64_t> Workers{0};
  std::atomic<uint64_t> StoreWrites{0};
  std::atomic<uint64_t> FrameWrites{0};
};

} // namespace mucyc

#endif // MUCYC_SUPPORT_FAULT_H
