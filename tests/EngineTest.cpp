//===- tests/EngineTest.cpp - EngineContext plumbing tests ----------------===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "bench_suite/Suite.h"
#include "solver/ChcSolve.h"
#include "solver/Engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <thread>

using namespace mucyc;

namespace {
struct EngineFixture : ::testing::Test {
  TermContext C;
  NormalizedChc N{paperExample5(C)};
  SolverOptions Opts;
};
} // namespace

TEST_F(EngineFixture, TupleRenamings) {
  EngineContext E(C, N, Opts);
  TermRef Z = C.varTerm(N.Z[0]);
  TermRef X = C.varTerm(N.X[0]);
  TermRef Y = C.varTerm(N.Y[0]);
  TermRef F = C.mkLe(Z, C.mkIntConst(7));
  EXPECT_EQ(E.zToX(F), C.mkLe(X, C.mkIntConst(7)));
  EXPECT_EQ(E.zToY(F), C.mkLe(Y, C.mkIntConst(7)));
  // Round trips.
  EXPECT_EQ(E.xToZ(E.zToX(F)), F);
  EXPECT_EQ(E.yToZ(E.zToY(F)), F);
}

TEST_F(EngineFixture, SatCountsChecks) {
  EngineContext E(C, N, Opts);
  uint64_t Before = E.Stats.SmtChecks;
  EXPECT_TRUE(E.sat({N.Init}).has_value());
  EXPECT_FALSE(E.sat({N.Init, N.Bad}).has_value());
  EXPECT_EQ(E.Stats.SmtChecks, Before + 2);
  EXPECT_FALSE(E.Aborted);
}

TEST_F(EngineFixture, ImpliesIsStrict) {
  EngineContext E(C, N, Opts);
  TermRef Z = C.varTerm(N.Z[0]);
  EXPECT_TRUE(E.implies(N.Init, C.mkGe(Z, C.mkIntConst(0))));
  EXPECT_FALSE(E.implies(C.mkGe(Z, C.mkIntConst(0)), N.Init));
}

TEST_F(EngineFixture, StepBudgetMetersRefinementsNotSmtChecks) {
  // Regression test: MaxRefineSteps used to be compared against
  // Stats.SmtChecks, so a refinement bound of 3 aborted after three SMT
  // queries even though zero refinement steps had happened. The budget
  // meters Stats.RefineCalls.
  Opts.MaxRefineSteps = 3;
  EngineContext E(C, N, Opts);
  // Ten distinct queries so every one is a real check rather than a query
  // cache hit (only full checks are at issue here).
  TermRef Z = C.varTerm(N.Z[0]);
  for (int I = 0; I < 10; ++I)
    EXPECT_TRUE(E.sat({N.Init, C.mkLe(Z, C.mkIntConst(100 + I))}).has_value())
        << "check " << I;
  EXPECT_GT(E.Stats.SmtChecks, Opts.MaxRefineSteps);
  EXPECT_FALSE(E.Aborted); // SMT checks alone never trip the budget.

  // Exceeding the refinement budget does.
  E.Stats.RefineCalls = 4;
  EXPECT_TRUE(E.expired());
  EXPECT_TRUE(E.Aborted);
  // Aborted sat() is conservative: no model and no unsat conclusion.
  EXPECT_FALSE(E.sat({N.Init}).has_value());
  EXPECT_FALSE(E.implies(N.Init, N.Init)); // implies() refuses when aborted.
}

TEST_F(EngineFixture, QueryCacheSplitsHitsFromChecks) {
  // Regression test for the SmtChecks/SmtCacheHits split: repeated
  // identical queries are served from the cache and counted as hits, not
  // as full checks.
  EngineContext E(C, N, Opts);
  for (int I = 0; I < 10; ++I)
    ASSERT_TRUE(E.sat({N.Init}).has_value()) << "check " << I;
  EXPECT_EQ(E.Stats.SmtChecks, 1u);
  EXPECT_EQ(E.Stats.SmtCacheHits, 9u);

  // Unsat verdicts are cached too.
  EXPECT_FALSE(E.sat({N.Init, N.Bad}).has_value());
  EXPECT_FALSE(E.sat({N.Init, N.Bad}).has_value());
  EXPECT_FALSE(E.Aborted);
  EXPECT_EQ(E.Stats.SmtChecks, 2u);
  EXPECT_EQ(E.Stats.SmtCacheHits, 10u);

  // A cache hit replays the original model verbatim.
  auto M1 = E.sat({N.Init});
  auto M2 = E.sat({N.Init});
  ASSERT_TRUE(M1.has_value() && M2.has_value());
  EXPECT_EQ(M1->toString(C), M2->toString(C));

  // --no-incremental restores the fresh-solver path: no hits, one check
  // per call.
  SolverOptions Fresh;
  Fresh.NoIncremental = true;
  EngineContext E2(C, N, Fresh);
  for (int I = 0; I < 3; ++I)
    EXPECT_TRUE(E2.sat({N.Init}).has_value());
  EXPECT_EQ(E2.Stats.SmtChecks, 3u);
  EXPECT_EQ(E2.Stats.SmtCacheHits, 0u);
}

TEST_F(EngineFixture, CancelFlagAborts) {
  std::atomic<bool> Flag{false};
  Opts.CancelFlag = &Flag;
  EngineContext E(C, N, Opts);
  EXPECT_FALSE(E.expired());
  EXPECT_TRUE(E.sat({N.Init}).has_value());
  Flag.store(true);
  EXPECT_TRUE(E.expired());
  EXPECT_TRUE(E.Aborted);
  EXPECT_FALSE(E.sat({N.Init}).has_value());
}

TEST_F(EngineFixture, DeadlineAborts) {
  Opts.TimeoutMs = 1; // Expires almost immediately.
  EngineContext E(C, N, Opts);
  // Spin until the millisecond passes (bounded by a 2 s safety net).
  auto Start = std::chrono::steady_clock::now();
  while (!E.expired() &&
         std::chrono::steady_clock::now() - Start < std::chrono::seconds(2))
    (void)E.sat({N.Init});
  EXPECT_TRUE(E.expired());
  EXPECT_TRUE(E.Aborted);
}

TEST_F(EngineFixture, ProjectionCountsCalls) {
  EngineContext E(C, N, Opts);
  auto M = E.sat({N.Init});
  ASSERT_TRUE(M.has_value());
  uint64_t Before = E.Stats.MbpCalls;
  TermRef P = E.project({}, N.Init, *M);
  EXPECT_TRUE(M->holds(C, P));
  EXPECT_EQ(E.Stats.MbpCalls, Before + 1);
}

TEST_F(EngineFixture, ConcatPreservesOrder) {
  std::vector<VarId> A{1, 2}, B{3};
  std::vector<VarId> R = EngineContext::concat(A, B);
  ASSERT_EQ(R.size(), 3u);
  EXPECT_EQ(R[0], 1u);
  EXPECT_EQ(R[2], 3u);
}

//===----------------------------------------------------------------------===
// One EngineContext per attempt: every check counted, bounded and kept
//===----------------------------------------------------------------------===

namespace {
using Clock = std::chrono::steady_clock;
using Builder = std::function<NormalizedChc(TermContext &)>;

SolverResult solveExample(const Builder &Build, const SolverOptions &Opts) {
  TermContext C;
  NormalizedChc N = Build(C);
  return ChcSolver(C, N, Opts).solve();
}

/// Solves with a cancel at 1 s; returns the result and the seconds from the
/// cancel to the return.
std::pair<SolverResult, double>
solveCancelledAfterOneSecond(const Builder &Build, SolverOptions Opts) {
  std::atomic<bool> Flag{false};
  Opts.CancelFlag = &Flag;
  Clock::time_point CancelAt;
  std::thread Canceller([&] {
    std::this_thread::sleep_for(std::chrono::seconds(1));
    CancelAt = Clock::now();
    Flag.store(true);
  });
  SolverResult R = solveExample(Build, Opts);
  auto Done = Clock::now();
  Canceller.join();
  return {R, std::chrono::duration<double>(Done - CancelAt).count()};
}
} // namespace

TEST(AttemptTest, InjectedFaultKeepsTheAttemptsCounts) {
  // The fault fires inside SmtSolver::check at the attempt's 20th check on
  // any solver; the typed throw ends the solve, and the result still
  // carries the checks and refinements made up to it.
  SolverOptions Opts = *SolverOptions::parse("Ret(T,MBP(1))");
  FaultInjector FI;
  FI.CheckTrip = 20;
  Opts.Faults = &FI;
  SolverResult R = solveExample(paperExample5, Opts);
  EXPECT_EQ(R.Status, ChcStatus::Unknown);
  EXPECT_EQ(R.Error.Code, ErrorCode::InvariantViolation);
  EXPECT_NE(R.Error.Detail.find("#20"), std::string::npos) << R.Error.Detail;
  EXPECT_EQ(R.Stats.SmtChecks, 20u);
  EXPECT_GT(R.Stats.RefineCalls, 0u);
}

TEST(AttemptTest, VerificationChecksAreCounted) {
  // Verification runs inside the attempt, so its checks are the attempt's.
  // Fresh contexts: a shared one would answer the second solve's
  // generalizations from its memo.
  SolverOptions Opts = *SolverOptions::parse("Ret(T,MBP(1))");
  SolverResult Plain = solveExample(paperExample5, Opts);
  Opts.VerifyResult = true;
  SolverResult Verified = solveExample(paperExample5, Opts);
  ASSERT_EQ(Plain.Status, ChcStatus::Sat);
  ASSERT_EQ(Verified.Status, ChcStatus::Sat);
  EXPECT_EQ(Verified.Stats.RefineCalls, Plain.Stats.RefineCalls);
  EXPECT_GT(Verified.Stats.SmtChecks, Plain.Stats.SmtChecks);
}

TEST(AttemptTest, SolveBaselineStopsAtTheDeadlineAndOnCancel) {
  // Solve diverges on Example 5, and most of its time goes to QE and
  // interpolation on throwaway solvers, which the engine's own expiry
  // poll never sees.
  SolverOptions Opts = *SolverOptions::parse("Solve");
  Opts.TimeoutMs = 2000;
  auto T0 = Clock::now();
  SolverResult R = solveExample(paperExample5, Opts);
  double Secs = std::chrono::duration<double>(Clock::now() - T0).count();
  EXPECT_EQ(R.Status, ChcStatus::Unknown);
  EXPECT_EQ(R.Error.Code, ErrorCode::Timeout) << R.Error.describe();
  EXPECT_LT(Secs, 2.5);
  EXPECT_GT(R.Stats.RefineCalls, 0u);

  // A cancel at 1 s: the attempt returns Cancelled within 50 ms.
  Opts.TimeoutMs = 0;
  auto [RC, Latency] = solveCancelledAfterOneSecond(paperExample5, Opts);
  EXPECT_EQ(RC.Error.Code, ErrorCode::Cancelled) << RC.Error.describe();
  EXPECT_LT(Latency, 0.05);
}

TEST(AttemptTest, YieldStopsOnCancel) {
  // Ind(Yld) diverges on treemax_unsafe_14; its cube generalizations,
  // weakenItp's among them, run on throwaway solvers.
  Builder Build;
  for (const BenchInstance &I : buildSuite())
    if (I.Name == "treemax_unsafe_14")
      Build = I.Build;
  ASSERT_TRUE(Build);
  auto [R, Latency] = solveCancelledAfterOneSecond(
      Build, *SolverOptions::parse("Ind(Yld(T,MBP(1)))"));
  EXPECT_EQ(R.Error.Code, ErrorCode::Cancelled) << R.Error.describe();
  EXPECT_LT(Latency, 0.05);
}
