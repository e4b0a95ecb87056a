//===- tests/SpacerTsTest.cpp - Fig. 1/15 transition-system tests ---------===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "bench_suite/Suite.h"
#include "solver/SpacerTs.h"
#include "solver/Verify.h"

#include <gtest/gtest.h>

using namespace mucyc;

namespace {
SolverResult run(const char *Cfg, NormalizedChc (*Build)(TermContext &),
                 uint64_t TimeoutMs = 20000) {
  TermContext C;
  NormalizedChc N = Build(C);
  auto Opts = SolverOptions::parse(Cfg);
  EXPECT_TRUE(Opts.has_value());
  Opts->TimeoutMs = TimeoutMs;
  return ChcSolver(C, N, *Opts).solve();
}
} // namespace

TEST(SpacerTsTest, SolvesPaperExamples) {
  EXPECT_EQ(run("SpacerTS(fig1)", paperExample5).Status, ChcStatus::Sat);
  EXPECT_EQ(run("SpacerTS(fig1)", paperExample4).Status, ChcStatus::Unsat);
}

TEST(SpacerTsTest, InvariantIsVerified) {
  TermContext C;
  NormalizedChc N = paperExample5(C);
  auto Opts = SolverOptions::parse("SpacerTS(fig1)");
  Opts->TimeoutMs = 20000;
  SolverResult R = ChcSolver(C, N, *Opts).solve();
  ASSERT_EQ(R.Status, ChcStatus::Sat);
  EXPECT_TRUE(verifyInvariant(C, N, R.Invariant));
}

TEST(SpacerTsTest, UnsatPieceIntersectsBad) {
  TermContext C;
  NormalizedChc N = paperExample4(C);
  auto Opts = SolverOptions::parse("SpacerTS(fig1)");
  Opts->TimeoutMs = 20000;
  SolverResult R = ChcSolver(C, N, *Opts).solve();
  ASSERT_EQ(R.Status, ChcStatus::Unsat);
  EXPECT_TRUE(SmtSolver::quickCheck(C, {R.CexPiece, N.Bad}).has_value());
}

TEST(SpacerTsTest, PerLevelUTerminatesOnAppendixC) {
  // The original Spacer's per-level U (Komuravelli et al. 2014/2016)
  // restores the finiteness of each U_i; it must refute Appendix C.
  SolverResult R = run("SpacerTS(fig1,Ulev)", appendixCSystem);
  EXPECT_EQ(R.Status, ChcStatus::Unsat);
}

TEST(SpacerTsTest, CumulativeUStallsOnAppendixC) {
  // Theorem 19: the Fig. 15 variant with cumulative U diverges. Bounded
  // run must come back Unknown (never a wrong answer).
  SolverResult R = run("SpacerTS(fig15)", appendixCSystem, 6000);
  EXPECT_NE(R.Status, ChcStatus::Sat);
}

TEST(SpacerTsTest, AgreesWithInductiveEnginesOnSmallSuite) {
  for (const BenchInstance &B : buildSmallSuite()) {
    TermContext C;
    NormalizedChc N = B.Build(C);
    auto Opts = SolverOptions::parse("SpacerTS(fig1)");
    Opts->TimeoutMs = 10000;
    SolverResult R = ChcSolver(C, N, *Opts).solve();
    if (R.Status != ChcStatus::Unknown)
      EXPECT_EQ(R.Status, B.Expected) << B.Name;
  }
}

TEST(SpacerTsTest, MaxDepthBoundsUnfolding) {
  TermContext C;
  std::vector<BenchInstance> Suite = buildSmallSuite();
  NormalizedChc N = Suite[1].Build(C); // counter_unsafe_3: needs depth ~4.
  auto Opts = SolverOptions::parse("SpacerTS(fig1)");
  Opts->MaxDepth = 2;
  SolverResult R = ChcSolver(C, N, *Opts).solve();
  EXPECT_EQ(R.Status, ChcStatus::Unknown);
}

TEST(SpacerTsTest, UnsatDepthCoversTheDerivationOfU) {
  // Successor steps deepen U without an Unfold: on these two instances the
  // counterexample piece first meets beta above the frame count, and the
  // reported depth must still let the verifier (and store admission,
  // which re-checks at Depth + 2) derive it.
  int Seen = 0;
  for (const BenchInstance &B : buildSuite()) {
    if (B.Name != "fibsum_unsafe_14" && B.Name != "mixed_unsafe_9")
      continue;
    ++Seen;
    TermContext C;
    NormalizedChc N = B.Build(C);
    auto Opts = SolverOptions::parse("SpacerTS(fig1)");
    ASSERT_TRUE(Opts.has_value());
    Opts->TimeoutMs = 60000;
    SolverResult R = ChcSolver(C, N, *Opts).solve();
    ASSERT_EQ(R.Status, ChcStatus::Unsat) << B.Name;
    VerifyDiag D;
    EXPECT_TRUE(verifyCexPiece(C, N, R.CexPiece, R.Depth + 2, &D))
        << B.Name << " at depth " << R.Depth << ": " << D.Message;
  }
  EXPECT_EQ(Seen, 2);
}
