//===- tests/FaultTest.cpp - Fault tolerance & resource governance --------===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Covers the robustness subsystem: the typed error taxonomy, the cumulative
// resource gauge, the deterministic fault injector, the degraded-retry
// ladder (runtime/Recover.h) through solveRequest(), scheduler deadline/
// cancellation semantics, portfolio crash survival, and the testgen chaos
// oracle.
//
//===----------------------------------------------------------------------===//

#include "bench_suite/Suite.h"
#include "runtime/Recover.h"
#include "runtime/Scheduler.h"
#include "runtime/Portfolio.h"
#include "solver/ChcSolve.h"
#include "support/Error.h"
#include "support/Fault.h"
#include "testgen/Oracles.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

using namespace mucyc;

//===----------------------------------------------------------------------===//
// Error taxonomy
//===----------------------------------------------------------------------===//

TEST(ErrorTest, CodeNamesAndRecoverability) {
  EXPECT_STREQ(errorCodeName(ErrorCode::None), "none");
  EXPECT_STREQ(errorCodeName(ErrorCode::ResourceExhaustedMemory),
               "resource-exhausted-memory");
  EXPECT_STREQ(errorCodeName(ErrorCode::ResourceExhaustedSteps),
               "resource-exhausted-steps");
  EXPECT_STREQ(errorCodeName(ErrorCode::ResourceExhaustedDepth),
               "resource-exhausted-depth");
  EXPECT_STREQ(errorCodeName(ErrorCode::Cancelled), "cancelled");
  EXPECT_STREQ(errorCodeName(ErrorCode::Timeout), "timeout");
  EXPECT_STREQ(errorCodeName(ErrorCode::InvariantViolation),
               "invariant-violation");
  EXPECT_STREQ(errorCodeName(ErrorCode::InputError), "input-error");

  // Resource trips and invariant violations are worth a degraded retry;
  // cancellation, timeouts and bad input are not.
  EXPECT_TRUE(errorRecoverable(ErrorCode::ResourceExhaustedMemory));
  EXPECT_TRUE(errorRecoverable(ErrorCode::ResourceExhaustedSteps));
  EXPECT_TRUE(errorRecoverable(ErrorCode::ResourceExhaustedDepth));
  EXPECT_TRUE(errorRecoverable(ErrorCode::InvariantViolation));
  EXPECT_FALSE(errorRecoverable(ErrorCode::None));
  EXPECT_FALSE(errorRecoverable(ErrorCode::Cancelled));
  EXPECT_FALSE(errorRecoverable(ErrorCode::Timeout));
  EXPECT_FALSE(errorRecoverable(ErrorCode::InputError));
}

TEST(ErrorTest, RaiseCarriesCodeAndDetail) {
  try {
    raiseError(ErrorCode::ResourceExhaustedSteps, "budget gone");
    FAIL() << "raiseError returned";
  } catch (const MucycError &E) {
    EXPECT_EQ(E.code(), ErrorCode::ResourceExhaustedSteps);
    EXPECT_EQ(E.detail(), "budget gone");
    EXPECT_NE(std::string(E.what()).find("resource-exhausted-steps"),
              std::string::npos);
    ErrorInfo I = E.info();
    EXPECT_TRUE(I.isError());
    EXPECT_NE(I.describe().find("budget gone"), std::string::npos);
  }
  EXPECT_FALSE(ErrorInfo{}.isError());
}

TEST(ErrorTest, InvariantMacro) {
  EXPECT_NO_THROW(MUCYC_INVARIANT(1 + 1 == 2, "arithmetic works"));
  try {
    MUCYC_INVARIANT(1 + 1 == 3, "arithmetic is broken");
    FAIL() << "violated invariant did not throw";
  } catch (const MucycError &E) {
    EXPECT_EQ(E.code(), ErrorCode::InvariantViolation);
    // The stringized condition rides along for diagnostics.
    EXPECT_NE(E.detail().find("arithmetic is broken"), std::string::npos);
    EXPECT_NE(E.detail().find("1 + 1 == 3"), std::string::npos);
  }
}

//===----------------------------------------------------------------------===//
// ResourceGauge / FaultInjector
//===----------------------------------------------------------------------===//

TEST(FaultTest, GaugeTripsPastLimitAndIsCumulative) {
  ResourceGauge Unlimited;
  for (int I = 0; I < 1000; ++I)
    Unlimited.charge(1 << 20); // 0 limit = observe only.
  EXPECT_EQ(Unlimited.used(), 1000ull << 20);

  ResourceGauge G(1024);
  G.charge(1000);
  EXPECT_EQ(G.used(), 1000u);
  try {
    G.charge(100);
    FAIL() << "gauge did not trip";
  } catch (const MucycError &E) {
    EXPECT_EQ(E.code(), ErrorCode::ResourceExhaustedMemory);
  }
  EXPECT_EQ(G.used(), 1100u); // Never released: the meter only grows.
}

TEST(FaultTest, InjectorFiresAtExactOrdinalOnce) {
  FaultInjector FI;
  FI.AllocTrip = 3;
  EXPECT_NO_THROW(FI.onAlloc());
  EXPECT_NO_THROW(FI.onAlloc());
  EXPECT_THROW(FI.onAlloc(), MucycError); // Exactly the 3rd.
  for (int I = 0; I < 100; ++I)
    EXPECT_NO_THROW(FI.onAlloc()); // Monotone counter: transient fault.

  FaultInjector FC;
  FC.CheckTrip = 2;
  EXPECT_NO_THROW(FC.onSmtCheck());
  try {
    FC.onSmtCheck();
    FAIL() << "check trip did not fire";
  } catch (const MucycError &E) {
    EXPECT_EQ(E.code(), ErrorCode::InvariantViolation);
  }
  EXPECT_NO_THROW(FC.onSmtCheck());

  FaultInjector FK;
  FK.CancelTrip = 4;
  EXPECT_FALSE(FK.spuriousCancel());
  EXPECT_FALSE(FK.spuriousCancel());
  EXPECT_FALSE(FK.spuriousCancel());
  EXPECT_TRUE(FK.spuriousCancel());
  EXPECT_FALSE(FK.spuriousCancel());

  // Disarmed injector is inert.
  FaultInjector Off;
  for (int I = 0; I < 1000; ++I) {
    EXPECT_NO_THROW(Off.onAlloc());
    EXPECT_NO_THROW(Off.onSmtCheck());
    EXPECT_FALSE(Off.spuriousCancel());
  }
}

TEST(FaultTest, FromSeedIsDeterministicAndArmed) {
  for (uint64_t Seed : {1ull, 7ull, 42ull, 0xdeadbeefull}) {
    FaultInjector A = FaultInjector::fromSeed(Seed);
    FaultInjector B = FaultInjector::fromSeed(Seed);
    EXPECT_EQ(A.AllocTrip, B.AllocTrip);
    EXPECT_EQ(A.CheckTrip, B.CheckTrip);
    EXPECT_EQ(A.CancelTrip, B.CancelTrip);
    EXPECT_TRUE(A.AllocTrip || A.CheckTrip || A.CancelTrip)
        << "seed " << Seed << " armed nothing";
  }
  EXPECT_EQ(mixSeed(3, 5), mixSeed(3, 5));
  EXPECT_NE(mixSeed(3, 5), mixSeed(3, 6));
}

//===----------------------------------------------------------------------===//
// ServiceFaultPlan: the process-global service-boundary chaos plan
//===----------------------------------------------------------------------===//

TEST(FaultTest, ServicePlanParsesFullSpec) {
  ServiceFaultPlan P;
  std::string Err;
  ASSERT_TRUE(P.parse("kill-worker=7,tear-store=5@64,short-write=9", Err))
      << Err;
  EXPECT_EQ(P.KillWorkerEvery, 7u);
  EXPECT_EQ(P.TearStoreEvery, 5u);
  EXPECT_EQ(P.TearStoreByte, 64u);
  EXPECT_EQ(P.ShortWriteEvery, 9u);
  EXPECT_TRUE(P.armed());

  // tear-store without @K keeps the default truncation offset.
  ServiceFaultPlan Q;
  ASSERT_TRUE(Q.parse("tear-store=3", Err)) << Err;
  EXPECT_EQ(Q.TearStoreEvery, 3u);
  EXPECT_EQ(Q.TearStoreByte, 64u);

  // Period 0 disarms a class; an all-zero plan is unarmed.
  ServiceFaultPlan Z;
  ASSERT_TRUE(Z.parse("kill-worker=0", Err)) << Err;
  EXPECT_FALSE(Z.armed());
  EXPECT_FALSE(ServiceFaultPlan().armed()) << "default plan must be inert";
}

TEST(FaultTest, ServicePlanRejectsMalformedSpecs) {
  auto Rejects = [](const std::string &Spec, const char *Needle) {
    ServiceFaultPlan P;
    std::string Err;
    EXPECT_FALSE(P.parse(Spec, Err)) << Spec;
    EXPECT_NE(Err.find(Needle), std::string::npos)
        << Spec << " -> " << Err;
  };
  Rejects("kill-worker", "bad chaos-plan clause");
  Rejects("kill-worker=", "bad chaos-plan clause");
  Rejects("=7", "bad chaos-plan clause");
  Rejects("kill-worker=x7", "bad chaos-plan period");
  Rejects("tear-store=5@", "bad tear-store byte offset");
  Rejects("tear-store=5@ten", "bad tear-store byte offset");
  Rejects("sigsegv-everything=2", "unknown chaos-plan key");
  Rejects("kill-worker=7,,short-write=9", "bad chaos-plan clause");
}

TEST(FaultTest, ServicePlanFiresPeriodically) {
  ServiceFaultPlan P;
  std::string Err;
  ASSERT_TRUE(P.parse("kill-worker=3,tear-store=2@10,short-write=4", Err));
  // Every Nth event fires, 1-based: workers 3, 6, 9, ...
  std::vector<int> Killed;
  for (int I = 1; I <= 9; ++I)
    if (P.killThisWorker())
      Killed.push_back(I);
  EXPECT_EQ(Killed, (std::vector<int>{3, 6, 9}));

  uint64_t At = 0;
  EXPECT_FALSE(P.tearThisStoreWrite(At));
  EXPECT_TRUE(P.tearThisStoreWrite(At));
  EXPECT_EQ(At, 10u);
  EXPECT_FALSE(P.tearThisStoreWrite(At));
  EXPECT_TRUE(P.tearThisStoreWrite(At));

  int Shorted = 0;
  for (int I = 0; I < 8; ++I)
    Shorted += P.shortThisWrite() ? 1 : 0;
  EXPECT_EQ(Shorted, 2); // Writes 4 and 8.

  // A disarmed plan never fires and never burns counters into firing.
  ServiceFaultPlan Off;
  for (int I = 0; I < 100; ++I) {
    EXPECT_FALSE(Off.killThisWorker());
    EXPECT_FALSE(Off.tearThisStoreWrite(At));
    EXPECT_FALSE(Off.shortThisWrite());
  }
}

//===----------------------------------------------------------------------===//
// Degradation ladder
//===----------------------------------------------------------------------===//

TEST(RecoverTest, DegradeLadderShape) {
  auto Base = SolverOptions::parse("Ret(T,MBP(1))");
  ASSERT_TRUE(Base.has_value());
  Base->MaxRefineSteps = 100;
  Base->MaxDepth = 8;
  Base->MemLimitMb = 7;
  Base->MaxRetries = 3;

  SolverOptions A0 = degradeOptions(*Base, 0);
  EXPECT_FALSE(A0.NoIncremental);
  EXPECT_EQ(A0.MaxRefineSteps, 100u);

  SolverOptions A1 = degradeOptions(*Base, 1);
  EXPECT_TRUE(A1.NoIncremental); // Possibly-poisoned state is dropped.
  EXPECT_EQ(A1.MaxRefineSteps, 50u);
  EXPECT_EQ(A1.MaxDepth, 4);
  EXPECT_EQ(A1.Engine, EngineKind::Ret); // Same engine on first retry.
  // The external envelope is NOT degraded: limits the caller imposed stay.
  EXPECT_EQ(A1.MemLimitMb, 7u);
  EXPECT_EQ(A1.MaxRetries, 3u);

  SolverOptions A2 = degradeOptions(*Base, 2);
  EXPECT_EQ(A2.Engine, EngineKind::SpacerTs); // Ret -> complementary engine.
  EXPECT_FALSE(A2.SpacerFig15);

  auto Ts = SolverOptions::parse("SpacerTS(fig15)");
  ASSERT_TRUE(Ts.has_value());
  SolverOptions T2 = degradeOptions(*Ts, 2);
  EXPECT_EQ(T2.Engine, EngineKind::Ret); // Non-Ret -> Ret(T,MBP(1)).
  EXPECT_EQ(T2.Cex, CexMethod::Mbp);
  EXPECT_TRUE(T2.Accumulate);
}

TEST(RecoverTest, BackoffDeterministicAndCapped) {
  for (unsigned A = 1; A <= 8; ++A) {
    uint64_t Ms = retryBackoffMs(99, A);
    EXPECT_EQ(Ms, retryBackoffMs(99, A));
    EXPECT_LE(Ms, 100u);
    EXPECT_GE(Ms, 1u);
  }
}

//===----------------------------------------------------------------------===//
// Solve-level governance
//===----------------------------------------------------------------------===//

TEST(FaultTest, MemLimitTripsDivergingEngineWithBreadcrumb) {
  // The Solve baseline diverges on Example 5 (x' = 2x has no finite exact
  // reach set) with rapid formula growth; a 1 MiB metered budget turns the
  // divergence into a prompt, typed, recoverable failure instead of
  // unbounded growth.
  TermContext Ctx;
  NormalizedChc N = paperExample5(Ctx);
  auto Opts = SolverOptions::parse("Solve");
  ASSERT_TRUE(Opts.has_value());
  Opts->MemLimitMb = 1;
  ChcSolver S(Ctx, N, *Opts);
  SolverResult R = S.solve();
  EXPECT_EQ(R.Status, ChcStatus::Unknown);
  EXPECT_EQ(R.Error.Code, ErrorCode::ResourceExhaustedMemory);
  EXPECT_TRUE(errorRecoverable(R.Error.Code));
  EXPECT_NE(R.Error.Detail.find("memory budget exhausted"),
            std::string::npos);
}

TEST(FaultTest, InjectedAllocFaultSurfacesAsError) {
  TermContext Ctx;
  NormalizedChc N = paperExample4(Ctx);
  auto Opts = SolverOptions::parse("Ret(T,MBP(1))");
  ASSERT_TRUE(Opts.has_value());
  FaultInjector FI;
  FI.AllocTrip = 1; // The very first solve-phase interning fails.
  Opts->Faults = &FI;
  ChcSolver S(Ctx, N, *Opts);
  SolverResult R = S.solve();
  EXPECT_EQ(R.Status, ChcStatus::Unknown);
  EXPECT_EQ(R.Error.Code, ErrorCode::ResourceExhaustedMemory);
  EXPECT_NE(R.Error.Detail.find("injected"), std::string::npos);
}

TEST(FaultTest, SpuriousCancelBecomesCancelledError) {
  TermContext Ctx;
  NormalizedChc N = paperExample4(Ctx);
  auto Opts = SolverOptions::parse("Ret(T,MBP(1))");
  ASSERT_TRUE(Opts.has_value());
  FaultInjector FI;
  FI.CancelTrip = 1; // First expiry poll reports cancelled.
  Opts->Faults = &FI;
  ChcSolver S(Ctx, N, *Opts);
  SolverResult R = S.solve();
  EXPECT_EQ(R.Status, ChcStatus::Unknown);
  EXPECT_EQ(R.Error.Code, ErrorCode::Cancelled);
  EXPECT_FALSE(errorRecoverable(R.Error.Code)); // No retry on cancel.
}

//===----------------------------------------------------------------------===//
// Recovery ladder end-to-end
//===----------------------------------------------------------------------===//

TEST(RecoverTest, TransientFaultSucceedsOnDegradedRetry) {
  // Attempt 1 dies at the 2nd SMT check; the injector's counters are
  // monotone across attempts, so the degraded attempt 2 runs clean and
  // produces the ground-truth answer.
  auto Opts = SolverOptions::parse("Ret(T,MBP(1))");
  ASSERT_TRUE(Opts.has_value());
  FaultInjector FI;
  FI.CheckTrip = 2;
  Opts->Faults = &FI;
  Opts->MaxRetries = 1;
  SolveResponse R = solveRequest(SolveRequest::fromBuilder(
      [](TermContext &C) { return paperExample4(C); }, *Opts));
  EXPECT_EQ(R.Status, ChcStatus::Unsat);
  EXPECT_EQ(R.Attempts, 2u);
  EXPECT_EQ(R.Stats.Retries, 1u);
  EXPECT_EQ(R.Stats.Degradations, 1u); // The final attempt ran degraded.
  EXPECT_FALSE(R.Error.isError());
}

TEST(RecoverTest, RetriesAreCapped) {
  // Both attempts trip the 1 MiB budget (attempt 2 is still Solve, only
  // degraded); the ladder must stop at MaxRetries + 1 attempts with the
  // breadcrumb of the final attempt.
  auto Opts = SolverOptions::parse("Solve");
  ASSERT_TRUE(Opts.has_value());
  Opts->MemLimitMb = 1;
  Opts->MaxRetries = 1;
  SolveResponse R = solveRequest(SolveRequest::fromBuilder(
      [](TermContext &C) { return paperExample5(C); }, *Opts));
  EXPECT_EQ(R.Status, ChcStatus::Unknown);
  EXPECT_EQ(R.Attempts, 2u);
  EXPECT_TRUE(R.Error.isError());
  EXPECT_TRUE(errorRecoverable(R.Error.Code))
      << "ladder stopped for the cap, not for an unrecoverable error";
  EXPECT_EQ(R.Stats.Retries, 1u);
}

TEST(RecoverTest, GroundTruthSolvedUnderMemLimitViaEngineSwitch) {
  // Acceptance scenario: the configured engine (the Solve baseline)
  // diverges on Example 5 and trips the 1 MiB budget on attempts 1 and 2;
  // attempt 3 switches to the complementary Ret engine, which proves the
  // instance safe within the SAME untouched budget — a resource trip plus
  // the ladder yields the ground-truth answer instead of an abort.
  auto Opts = SolverOptions::parse("Solve");
  ASSERT_TRUE(Opts.has_value());
  Opts->MemLimitMb = 1;
  Opts->MaxRetries = 2;
  SolveResponse R = solveRequest(SolveRequest::fromBuilder(
      [](TermContext &C) { return paperExample5(C); }, *Opts));
  EXPECT_EQ(R.Status, ChcStatus::Sat); // Example 5 ground truth.
  EXPECT_EQ(R.Attempts, 3u);
  EXPECT_EQ(R.Stats.Retries, 2u);
  EXPECT_EQ(R.Stats.Degradations, 2u); // The final attempt ran degraded.
  EXPECT_FALSE(R.Error.isError());
}

//===----------------------------------------------------------------------===//
// Scheduler deadline & cancellation semantics
//===----------------------------------------------------------------------===//

TEST(SchedulerTest, ZeroDeadlineMeansNoDeadline) {
  auto Opts = SolverOptions::parse("Ret(T,MBP(1))");
  ASSERT_TRUE(Opts.has_value());
  SolveRequest Req = SolveRequest::fromBuilder(
      [](TermContext &C) { return paperExample5(C); }, *Opts);
  Req.DeadlineMs = 0;
  std::vector<SolveResponse> Out = Scheduler(1).run({Req});
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(Out[0].Status, ChcStatus::Sat);
  EXPECT_FALSE(Out[0].Error.isError());
  EXPECT_EQ(Out[0].Attempts, 1u);
}

TEST(SchedulerTest, PreCancelledBatchRecordsCancelledBreadcrumb) {
  auto Tok = CancelToken::create();
  Tok->request();
  auto Opts = SolverOptions::parse("Ret(T,MBP(1))");
  ASSERT_TRUE(Opts.has_value());
  std::atomic<bool> Built{false};
  std::vector<SolveRequest> Batch{SolveRequest::fromBuilder(
      [&Built](TermContext &C) {
        Built = true;
        return paperExample5(C);
      },
      *Opts)};
  std::vector<SolveResponse> Out = Scheduler(1).run(Batch, Tok);
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(Out[0].Status, ChcStatus::Unknown);
  EXPECT_EQ(Out[0].Error.Code, ErrorCode::Cancelled);
  EXPECT_FALSE(Built.load()); // Build never invoked on a cancelled batch.
}

//===----------------------------------------------------------------------===//
// Portfolio under faults
//===----------------------------------------------------------------------===//

TEST(PortfolioTest, SurvivesCrashingMember) {
  // Member 0 dies instantly (injected allocation failure, no retries);
  // member 1 must still win with the ground-truth answer, and the loser's
  // breadcrumb must survive in its report.
  auto Configs = parseConfigList("Ret(T,MBP(1)),Yld(T,MBP(1))");
  ASSERT_TRUE(Configs.has_value());
  FaultInjector FI;
  FI.AllocTrip = 1;
  (*Configs)[0].Faults = &FI;
  SolveRequest Base = SolveRequest::fromBuilder(
      [](TermContext &C) { return paperExample4(C); }, SolverOptions());
  Base.DeadlineMs = 60000;
  PortfolioResult R = racePortfolio(Base, *Configs, /*Jobs=*/2);
  ASSERT_NE(R.winner(), nullptr);
  EXPECT_EQ(R.winner()->Status, ChcStatus::Unsat);
  EXPECT_EQ(R.WinnerIndex, 1);
  const SolveResponse &Loser = R.Members[0].Resp;
  EXPECT_EQ(Loser.Status, ChcStatus::Unknown);
  EXPECT_TRUE(Loser.Error.isError());
  EXPECT_NE(Loser.Error.Detail.find("injected"), std::string::npos);
}

TEST(PortfolioTest, MergedStatsCountRetries) {
  // A single-member race (no cancellation interference): the member's
  // transient fault forces one retry, and the merged stats must carry the
  // recovery counters across the portfolio boundary.
  auto Configs = parseConfigList("Ret(T,MBP(1))");
  ASSERT_TRUE(Configs.has_value());
  FaultInjector FI;
  FI.CheckTrip = 2;
  (*Configs)[0].Faults = &FI;
  (*Configs)[0].MaxRetries = 2;
  SolveRequest Base = SolveRequest::fromBuilder(
      [](TermContext &C) { return paperExample4(C); }, SolverOptions());
  Base.DeadlineMs = 60000;
  PortfolioResult R = racePortfolio(Base, *Configs, /*Jobs=*/1);
  ASSERT_NE(R.winner(), nullptr);
  EXPECT_EQ(R.winner()->Status, ChcStatus::Unsat);
  EXPECT_EQ(R.Members[0].Resp.Attempts, 2u);
  EXPECT_EQ(R.MergedStats.Retries, 1u);
  EXPECT_EQ(R.MergedStats.Degradations, 1u);
}

//===----------------------------------------------------------------------===//
// Chaos oracle
//===----------------------------------------------------------------------===//

namespace {

/// The safe system from TestgenTest: P(0); P(x) /\ x >= 1 => false.
ChcSystem safeSystem(TermContext &C) {
  ChcSystem Sys(C);
  PredId P = Sys.addPred("P", {Sort::Int});
  TermRef X = C.mkVar("x", Sort::Int);
  Clause Fact;
  Fact.Constraint = C.mkEq(X, C.mkIntConst(0));
  Fact.Head = PredApp{P, {X}};
  Sys.addClause(std::move(Fact));
  Clause Query;
  Query.Constraint = C.mkGe(X, C.mkIntConst(1));
  Query.Body = {PredApp{P, {X}}};
  Sys.addClause(std::move(Query));
  return Sys;
}

} // namespace

TEST(ChaosTest, ResilienceHoldsAcrossSeeds) {
  TermContext C;
  ChcSystem Sys = safeSystem(C);
  EngineRaceKnobs Knobs;
  Knobs.RefineBudget = 100;
  for (uint64_t Seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    OracleOutcome O = checkChaosResilience(Sys, Knobs, Seed);
    EXPECT_FALSE(O.failed()) << "seed " << Seed << ": " << O.Check << " — "
                             << O.Detail;
  }
}

TEST(ChaosTest, OracleCatchesFlippedChaosVerdict) {
  TermContext C;
  ChcSystem Sys = safeSystem(C);
  EngineRaceKnobs Knobs;
  Knobs.RefineBudget = 100;
  OracleHooks H;
  H.MangleEngine = [](size_t Member, ChcStatus S) {
    if (Member != 0)
      return S;
    return S == ChcStatus::Sat ? ChcStatus::Unsat : S;
  };
  OracleOutcome O = checkChaosResilience(Sys, Knobs, /*ChaosSeed=*/1, &H);
  ASSERT_TRUE(O.failed());
  // Flipping Sat to Unsat trips the clean-vs-chaos comparison (or the
  // ground-truth check, whichever inspects member 0 first).
  EXPECT_TRUE(O.Check == "chaos-wrong-verdict" ||
              O.Check == "chaos-ground-truth")
      << O.Check << " — " << O.Detail;
}

//===----------------------------------------------------------------------===//
// Representation invariance of resource governance
//===----------------------------------------------------------------------===//
//
// The small-value arithmetic fast path and the term-kid arena must be
// invisible to the fault-tolerance layer: gauge charges are computed from
// logical sizes (node + kid count), never from which BigInt representation
// a Rational happens to hold, so the ordinal at which a budget trips — and
// therefore every breadcrumb, retry decision and chaos schedule — is a
// pure function of the allocation trace.

TEST(FaultTest, ArenaAccountingIsPureFunctionOfTrace) {
  auto BuildBytes = [] {
    TermContext C;
    TermRef X = C.mkVar("x", Sort::Int);
    TermRef Sum = C.mkIntConst(1);
    TermRef F = C.mkTrue();
    for (int64_t I = 0; I < 50; ++I) {
      Sum = C.mkAdd({X, Sum, C.mkIntConst(I)});
      F = C.mkAnd({C.mkGe(Sum, C.mkIntConst(I)),
                   C.mkEq(X, C.mkIntConst(I * 1000000007)), F});
    }
    return C.kidArenaBytes();
  };
  size_t Fast = BuildBytes();
  EXPECT_GT(Fast, 0u);
  size_t Slow;
  {
    ScopedForceHeap FH(true);
    Slow = BuildBytes();
  }
  // Identical trace => identical payload bytes, independent of the BigInt
  // representation held inside the interned Rational values.
  EXPECT_EQ(Fast, Slow);
}

TEST(FaultTest, GaugeTripOrdinalInvariantUnderRepresentation) {
  // Count interning steps until a fixed budget trips, both ways. The
  // charge formula reads sizes only, so the ordinal must match exactly.
  auto TripOrdinal = [] {
    TermContext C;
    ResourceGauge G(16 * 1024);
    C.setResourceGauge(&G);
    TermRef X = C.mkVar("x", Sort::Int);
    unsigned Ordinal = 0;
    try {
      for (unsigned I = 1; I < 10000; ++I) {
        C.mkGe(C.mkAdd({X, C.mkIntConst(int64_t(I) * 3000000000ll)}),
               C.mkIntConst(I));
        ++Ordinal;
      }
    } catch (const MucycError &E) {
      EXPECT_EQ(E.code(), ErrorCode::ResourceExhaustedMemory);
    }
    return Ordinal;
  };
  unsigned Fast = TripOrdinal();
  EXPECT_GT(Fast, 0u);
  EXPECT_LT(Fast, 9999u) << "budget never tripped; test lost its teeth";
  unsigned Slow;
  {
    ScopedForceHeap FH(true);
    Slow = TripOrdinal();
  }
  EXPECT_EQ(Fast, Slow);
}

TEST(FaultTest, MemLimitBreadcrumbInvariantUnderRepresentation) {
  // The end-to-end governance path: a metered solve on the diverging
  // Example 5 must fail with a byte-identical typed error whichever
  // arithmetic representation is in force.
  auto Breadcrumb = [] {
    TermContext Ctx;
    NormalizedChc N = paperExample5(Ctx);
    auto Opts = SolverOptions::parse("Solve");
    EXPECT_TRUE(Opts.has_value());
    Opts->MemLimitMb = 1;
    ChcSolver S(Ctx, N, *Opts);
    SolverResult R = S.solve();
    EXPECT_EQ(R.Status, ChcStatus::Unknown);
    EXPECT_EQ(R.Error.Code, ErrorCode::ResourceExhaustedMemory);
    return R.Error.Detail;
  };
  std::string Fast = Breadcrumb();
  std::string Slow;
  {
    ScopedForceHeap FH(true);
    Slow = Breadcrumb();
  }
  EXPECT_EQ(Fast, Slow);
}

TEST(ChaosTest, FaultScheduleInvariantUnderRepresentation) {
  // Chaos schedules are armed from seeds and consumed at gauge/injector
  // sites whose ordinals are representation-independent, so the full
  // chaos-resilience outcome (including every diagnostic string) must not
  // change when arithmetic is forced onto the heap.
  TermContext C;
  ChcSystem Sys = safeSystem(C);
  EngineRaceKnobs Knobs;
  Knobs.RefineBudget = 100;
  for (uint64_t Seed : {1ull, 2ull, 3ull}) {
    OracleOutcome Fast = checkChaosResilience(Sys, Knobs, Seed);
    ScopedForceHeap FH(true);
    OracleOutcome Slow = checkChaosResilience(Sys, Knobs, Seed);
    EXPECT_EQ(Fast.Status == OracleStatus::Fail,
              Slow.Status == OracleStatus::Fail);
    EXPECT_EQ(Fast.Check, Slow.Check) << "seed " << Seed;
    EXPECT_EQ(Fast.Detail, Slow.Detail) << "seed " << Seed;
  }
}
