//===- tests/VerifyTest.cpp - Ground-truth utility tests ------------------===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "bench_suite/Suite.h"
#include "chc/Chc.h"
#include "solver/Verify.h"

#include <gtest/gtest.h>

using namespace mucyc;

TEST(VerifyTest, BoundedReachGrowsMonotonically) {
  TermContext C;
  NormalizedChc N = paperExample4(C);
  TermRef Prev = boundedReach(C, N, 1);
  for (int K = 2; K <= 5; ++K) {
    TermRef Cur = boundedReach(C, N, K);
    EXPECT_TRUE(SmtSolver::implies(C, Prev, Cur));
    Prev = Cur;
  }
}

TEST(VerifyTest, BmcFindsKnownCounterexampleDepth) {
  TermContext C;
  NormalizedChc N = paperExample4(C);
  // 2 -> 1 -> -1 -> -5 -> -13: bad at derivation height 5.
  EXPECT_EQ(bmcStatus(C, N, 4), ChcStatus::Unknown);
  EXPECT_EQ(bmcStatus(C, N, 6), ChcStatus::Unsat);
}

TEST(VerifyTest, BmcConvergesOnFiniteSafeSystem) {
  TermContext C;
  std::vector<BenchInstance> Suite = buildSmallSuite();
  // counter_safe_3 converges exactly.
  NormalizedChc N = Suite[0].Build(C);
  EXPECT_EQ(bmcStatus(C, N, 12), ChcStatus::Sat);
}

TEST(VerifyTest, InvariantChecker) {
  TermContext C;
  NormalizedChc N = paperExample5(C);
  TermRef Z = C.varTerm(N.Z[0]);
  // 0 <= z is inductive and safe for x' = 2x from [2, 8] with bad z < -5.
  EXPECT_TRUE(verifyInvariant(C, N, C.mkGe(Z, C.mkIntConst(0))));
  // z >= 2 is not inductive (2*2=4 ok, but init 2 -> 4: still >= 2; in fact
  // z >= 2 IS inductive here: 2x >= 4 >= 2. Use a genuinely bad one:
  // z <= 100 is not inductive (128 -> 256 escapes... 8*2=16 <= 100, but
  // 64 -> 128 > 100).
  EXPECT_FALSE(verifyInvariant(C, N, C.mkLe(Z, C.mkIntConst(100))));
  // Unsafe invariant: true includes bad states.
  EXPECT_FALSE(verifyInvariant(C, N, C.mkTrue()));
  // Non-initial invariant: z >= 5 misses iota.
  EXPECT_FALSE(verifyInvariant(C, N, C.mkGe(Z, C.mkIntConst(5))));
}

TEST(VerifyTest, CexPieceChecker) {
  // Cheap system: counter to 3 with bad state z = 3.
  TermContext C;
  std::vector<BenchInstance> Suite = buildSmallSuite();
  NormalizedChc N = Suite[1].Build(C); // counter_unsafe_3.
  TermRef Z = C.varTerm(N.Z[0]);
  // z = 3 is reachable and bad.
  EXPECT_TRUE(verifyCexPiece(C, N, C.mkEq(Z, C.mkIntConst(3)), 6));
  // z = 2 is reachable but not bad.
  EXPECT_FALSE(verifyCexPiece(C, N, C.mkEq(Z, C.mkIntConst(2)), 6));
  // z = -1 is bad-free and unreachable.
  EXPECT_FALSE(verifyCexPiece(C, N, C.mkEq(Z, C.mkIntConst(-1)), 6));
  // Invalid piece.
  EXPECT_FALSE(verifyCexPiece(C, N, TermRef(), 6));
}

TEST(VerifyTest, CexPieceCheckerDeep) {
  // One expensive positive check on the paper's Example 4 dynamics.
  TermContext C;
  NormalizedChc N = paperExample4(C);
  TermRef Z = C.varTerm(N.Z[0]);
  EXPECT_TRUE(verifyCexPiece(C, N, C.mkEq(Z, C.mkIntConst(-13)), 6));
}

// A failed verification must name the violated proof rule — the fuzzer's
// failure reports and --verify output are only actionable with the clause.
TEST(VerifyTest, InvariantDiagNamesViolatedClause) {
  TermContext C;
  NormalizedChc N = paperExample5(C); // z' = 2z from [2,8], bad z < -5.
  TermRef Z = C.varTerm(N.Z[0]);
  VerifyDiag D;

  // z >= 5 misses the initial state z = 2.
  EXPECT_FALSE(verifyInvariant(C, N, C.mkGe(Z, C.mkIntConst(5)), &D));
  EXPECT_EQ(D.Failed, VerifyDiag::Rule::InitClause);
  EXPECT_FALSE(D.Message.empty());

  // z <= 100 holds initially but 64 -> 128 escapes: step clause.
  EXPECT_FALSE(verifyInvariant(C, N, C.mkLe(Z, C.mkIntConst(100)), &D));
  EXPECT_EQ(D.Failed, VerifyDiag::Rule::StepClause);

  // true is inductive but includes bad states: query clause.
  EXPECT_FALSE(verifyInvariant(C, N, C.mkTrue(), &D));
  EXPECT_EQ(D.Failed, VerifyDiag::Rule::QueryClause);

  // A passing check leaves the rule at None.
  VerifyDiag Ok;
  EXPECT_TRUE(verifyInvariant(C, N, C.mkGe(Z, C.mkIntConst(0)), &Ok));
  EXPECT_EQ(Ok.Failed, VerifyDiag::Rule::None);

  EXPECT_STREQ(verifyRuleName(VerifyDiag::Rule::StepClause), "step-clause");
}

TEST(VerifyTest, CexPieceDiagNamesViolatedRule) {
  TermContext C;
  std::vector<BenchInstance> Suite = buildSmallSuite();
  VerifyDiag D;
  {
    // counter_unsafe_3: z = 2 is reachable but not bad.
    NormalizedChc N = Suite[1].Build(C);
    TermRef Z = C.varTerm(N.Z[0]);
    EXPECT_FALSE(verifyCexPiece(C, N, C.mkEq(Z, C.mkIntConst(2)), 6, &D));
    EXPECT_EQ(D.Failed, VerifyDiag::Rule::NotBad);
    EXPECT_FALSE(D.Message.empty());
  }
  {
    // counter_safe_3: the bad region itself is never reachable, so the
    // piece intersects bad but misses every reach frame.
    NormalizedChc N = Suite[0].Build(C);
    EXPECT_FALSE(verifyCexPiece(C, N, C.mkTrue(), 6, &D));
    EXPECT_EQ(D.Failed, VerifyDiag::Rule::NotReachable);
  }
}

TEST(VerifyTest, CheckSolutionNamesOffendingClause) {
  TermContext C;
  ChcSystem Sys(C);
  PredId P = Sys.addPred("P", {Sort::Int});
  TermRef X = C.mkVar("x", Sort::Int);
  VarId XV = C.node(X).Var;
  // Clause #0: x = 0 => P(x).  Clause #1: P(x) => P(x + 1).
  Clause Fact;
  Fact.Constraint = C.mkEq(X, C.mkIntConst(0));
  Fact.Head = PredApp{P, {X}};
  Sys.addClause(std::move(Fact));
  Clause Step;
  Step.Constraint = C.mkTrue();
  Step.Body = {PredApp{P, {X}}};
  Step.Head = PredApp{P, {C.mkAdd(X, C.mkIntConst(1))}};
  Sys.addClause(std::move(Step));

  // P(x) := x <= 5 satisfies the fact but breaks the step at x = 5.
  ChcSolution Sol;
  Sol[P] = PredDef{{XV}, C.mkLe(X, C.mkIntConst(5))};
  std::string Why;
  EXPECT_FALSE(Sys.checkSolution(Sol, &Why));
  EXPECT_NE(Why.find("clause #1"), std::string::npos) << Why;
  EXPECT_NE(Why.find("P("), std::string::npos) << Why; // Clause text shown.

  // The genuine solution passes and leaves no diagnostic behind.
  Sol[P] = PredDef{{XV}, C.mkGe(X, C.mkIntConst(0))};
  EXPECT_TRUE(Sys.checkSolution(Sol, &Why));
}

TEST(VerifyTest, GroundTruthMatchesSuiteLabels) {
  // BMC agrees with the expected status on every small-suite instance that
  // it can decide within a modest bound.
  for (const BenchInstance &B : buildSmallSuite()) {
    TermContext C;
    NormalizedChc N = B.Build(C);
    ChcStatus S = bmcStatus(C, N, 4);
    if (S != ChcStatus::Unknown)
      EXPECT_EQ(S, B.Expected) << B.Name;
  }
}

TEST(VerifyTest, OnePassReachAgreesWithFromScratchUnrolling) {
  // verifyCexPiece unrolls the reach frames once; the check it runs at each
  // height must agree with the same check on boundedReach rebuilt from
  // scratch for that height, on every unsat instance of the suite.
  constexpr int MaxK = 4;
  int Instances = 0;
  for (const BenchInstance &B : buildSmallSuite()) {
    if (B.Expected != ChcStatus::Unsat)
      continue;
    ++Instances;
    TermContext C;
    NormalizedChc N = B.Build(C);
    ReachFrames Reach(C, N);
    bool Fixed = false;
    bool ReachedBad = false;
    for (int K = 1; K <= MaxK; ++K) {
      TermRef Scratch = boundedReach(C, N, K);
      EXPECT_TRUE(SmtSolver::equivalent(C, Reach.frame(), Scratch))
          << B.Name << " height " << K;
      bool Hit = SmtSolver::quickCheck(C, {Reach.frame(), N.Bad}).has_value();
      EXPECT_EQ(Hit,
                SmtSolver::quickCheck(C, {Scratch, N.Bad}).has_value())
          << B.Name << " height " << K;
      ReachedBad |= Hit;
      // The whole-space piece is verified exactly when bad is reachable
      // within the height.
      EXPECT_EQ(verifyCexPiece(C, N, C.mkTrue(), K), ReachedBad)
          << B.Name << " height " << K;
      if (K < MaxK && !Fixed) {
        Fixed = !Reach.next(); // Past a fixed point the frame stays put.
        EXPECT_EQ(Reach.height(), Fixed ? K : K + 1) << B.Name;
      }
    }
  }
  EXPECT_GT(Instances, 0);
}
