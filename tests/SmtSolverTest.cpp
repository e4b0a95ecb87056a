//===- tests/SmtSolverTest.cpp - DPLL(T) solver tests ---------------------===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "smt/SmtSolver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>

using namespace mucyc;

namespace {
struct SmtFixture : ::testing::Test {
  TermContext C;
  TermRef X = C.mkVar("x", Sort::Int);
  TermRef Y = C.mkVar("y", Sort::Int);
  TermRef XR = C.mkVar("xr", Sort::Real);
  TermRef A = C.mkVar("a", Sort::Bool);
  TermRef B = C.mkVar("b", Sort::Bool);
};
} // namespace

TEST_F(SmtFixture, LinearIntUnsat) {
  // x + y <= 5, x >= 3, y >= 3.
  auto M = SmtSolver::quickCheck(
      C, {C.mkLe(C.mkAdd(X, Y), C.mkIntConst(5)),
          C.mkGe(X, C.mkIntConst(3)), C.mkGe(Y, C.mkIntConst(3))});
  EXPECT_FALSE(M.has_value());
}

TEST_F(SmtFixture, LinearIntSatWithModel) {
  auto M = SmtSolver::quickCheck(
      C, {C.mkLe(C.mkAdd(X, Y), C.mkIntConst(5)),
          C.mkGe(X, C.mkIntConst(3))});
  ASSERT_TRUE(M.has_value());
  EXPECT_TRUE(M->holds(C, C.mkLe(C.mkAdd(X, Y), C.mkIntConst(5))));
  EXPECT_TRUE(M->holds(C, C.mkGe(X, C.mkIntConst(3))));
}

TEST_F(SmtFixture, IntegralityBranching) {
  // 2x = y and y = 5: no integer solution.
  auto M = SmtSolver::quickCheck(
      C, {C.mkEq(C.mkMul(Rational(2), X), Y), C.mkEq(Y, C.mkIntConst(5))});
  EXPECT_FALSE(M.has_value());
}

TEST_F(SmtFixture, ParityViaEqualities) {
  // y even and y odd via two quotient encodings: unsat even though the
  // rational relaxation is unbounded (the equality-elimination pipeline
  // must catch it structurally).
  TermRef Q1 = C.mkVar("q1", Sort::Int), Q2 = C.mkVar("q2", Sort::Int);
  auto M = SmtSolver::quickCheck(
      C, {C.mkEq(Y, C.mkMul(Rational(2), Q1)),
          C.mkEq(Y, C.mkAdd(C.mkMul(Rational(2), Q2), C.mkIntConst(1)))});
  EXPECT_FALSE(M.has_value());
}

TEST_F(SmtFixture, StrictRealBounds) {
  auto M = SmtSolver::quickCheck(C, {C.mkGt(XR, C.mkRealConst(Rational(1))),
                                     C.mkLt(XR, C.mkRealConst(Rational(2)))});
  ASSERT_TRUE(M.has_value());
  Rational V = M->value(C, C.node(XR).Var).R;
  EXPECT_GT(V, Rational(1));
  EXPECT_LT(V, Rational(2));
  // x > 1 and x < 1 is unsat.
  EXPECT_FALSE(SmtSolver::quickCheck(
                   C, {C.mkGt(XR, C.mkRealConst(Rational(1))),
                       C.mkLt(XR, C.mkRealConst(Rational(1)))})
                   .has_value());
}

TEST_F(SmtFixture, Divisibility) {
  TermRef Dv = C.mkDivides(BigInt(3), X);
  EXPECT_FALSE(
      SmtSolver::quickCheck(C, {Dv, C.mkEq(X, C.mkIntConst(7))}).has_value());
  auto M = SmtSolver::quickCheck(C, {Dv, C.mkEq(X, C.mkIntConst(9))});
  EXPECT_TRUE(M.has_value());
  // Negated divisibility.
  auto M2 = SmtSolver::quickCheck(
      C, {C.mkNot(Dv), C.mkGe(X, C.mkIntConst(3)), C.mkLe(X, C.mkIntConst(3))});
  EXPECT_FALSE(M2.has_value());
}

TEST_F(SmtFixture, DisequalitySplits) {
  auto M = SmtSolver::quickCheck(
      C, {C.mkNot(C.mkEq(X, C.mkIntConst(0))), C.mkLe(X, C.mkIntConst(0)),
          C.mkGe(X, C.mkIntConst(0))});
  EXPECT_FALSE(M.has_value());
  auto M2 = SmtSolver::quickCheck(C, {C.mkNot(C.mkEq(X, Y)),
                                      C.mkLe(C.mkSub(X, Y), C.mkIntConst(0)),
                                      C.mkGe(C.mkSub(X, Y), C.mkIntConst(-1))});
  ASSERT_TRUE(M2.has_value());
  EXPECT_TRUE(M2->holds(C, C.mkNot(C.mkEq(X, Y))));
}

TEST_F(SmtFixture, BooleanStructure) {
  EXPECT_FALSE(SmtSolver::quickCheck(
                   C, {C.mkOr(A, B), C.mkNot(A), C.mkNot(B)})
                   .has_value());
  auto M = SmtSolver::quickCheck(C, {C.mkIff(A, B), C.mkNot(A)});
  ASSERT_TRUE(M.has_value());
  EXPECT_FALSE(M->value(C, C.node(B).Var).B);
}

TEST_F(SmtFixture, MixedBoolArith) {
  // (a -> x >= 5) & (!a -> x <= -5) & x == 0: unsat.
  TermRef F = C.mkAnd({C.mkImplies(A, C.mkGe(X, C.mkIntConst(5))),
                       C.mkImplies(C.mkNot(A), C.mkLe(X, C.mkIntConst(-5))),
                       C.mkEq(X, C.mkIntConst(0))});
  EXPECT_FALSE(SmtSolver::quickCheck(C, {F}).has_value());
}

TEST_F(SmtFixture, AssumptionCores) {
  SmtSolver S(C);
  S.assertFormula(C.mkLe(C.mkAdd(X, Y), C.mkIntConst(5)));
  TermRef A1 = C.mkGe(X, C.mkIntConst(3));
  TermRef A2 = C.mkGe(Y, C.mkIntConst(3));
  TermRef A3 = C.mkLe(X, C.mkIntConst(100)); // Irrelevant.
  EXPECT_EQ(S.check({A1, A2, A3}), SmtStatus::Unsat);
  const auto &Core = S.unsatCore();
  EXPECT_GE(Core.size(), 1u);
  for (TermRef T : Core)
    EXPECT_NE(T, A3);
  // Re-checking with a satisfiable subset works on the same instance.
  EXPECT_EQ(S.check({A1}), SmtStatus::Sat);
}

TEST_F(SmtFixture, IncrementalAssertions) {
  SmtSolver S(C);
  S.assertFormula(C.mkGe(X, C.mkIntConst(0)));
  EXPECT_EQ(S.check(), SmtStatus::Sat);
  S.assertFormula(C.mkLe(X, C.mkIntConst(3)));
  EXPECT_EQ(S.check(), SmtStatus::Sat);
  S.assertFormula(C.mkNot(C.mkAnd(C.mkGe(X, C.mkIntConst(0)),
                                  C.mkLe(X, C.mkIntConst(3)))));
  EXPECT_EQ(S.check(), SmtStatus::Unsat);
}

//===----------------------------------------------------------------------===
// Scopes (push/pop via activation literals)
//===----------------------------------------------------------------------===

TEST_F(SmtFixture, PopRestoresSatAfterContradiction) {
  SmtSolver S(C);
  S.assertFormula(C.mkGe(X, C.mkIntConst(0)));
  EXPECT_EQ(S.check(), SmtStatus::Sat);
  S.push();
  S.assertFormula(C.mkLe(X, C.mkIntConst(-1))); // Contradicts the base.
  EXPECT_EQ(S.check(), SmtStatus::Unsat);
  EXPECT_EQ(S.numScopes(), 1u);
  S.pop();
  EXPECT_EQ(S.numScopes(), 0u);
  EXPECT_EQ(S.check(), SmtStatus::Sat);
  EXPECT_TRUE(S.model().holds(C, C.mkGe(X, C.mkIntConst(0))));
}

TEST_F(SmtFixture, NestedScopesPopInOrder) {
  SmtSolver S(C);
  S.assertFormula(C.mkGe(X, C.mkIntConst(0)));
  S.push();
  S.assertFormula(C.mkLe(X, C.mkIntConst(10)));
  S.push();
  S.assertFormula(C.mkGe(X, C.mkIntConst(11))); // Clashes with scope 1.
  EXPECT_EQ(S.check(), SmtStatus::Unsat);
  S.pop(); // Drop x >= 11.
  EXPECT_EQ(S.check(), SmtStatus::Sat);
  EXPECT_TRUE(S.model().holds(C, C.mkLe(X, C.mkIntConst(10))));
  S.pop(); // Drop x <= 10.
  S.assertFormula(C.mkGe(X, C.mkIntConst(11))); // Permanent now: fine.
  EXPECT_EQ(S.check(), SmtStatus::Sat);
}

TEST_F(SmtFixture, ScopedFalseIsRecoverable) {
  SmtSolver S(C);
  S.push();
  S.assertFormula(C.mkFalse());
  EXPECT_EQ(S.check(), SmtStatus::Unsat);
  // Even under assumptions the core never blames them for the scoped False.
  EXPECT_EQ(S.check({C.mkGe(X, C.mkIntConst(0))}), SmtStatus::Unsat);
  EXPECT_TRUE(S.unsatCore().empty());
  S.pop();
  EXPECT_EQ(S.check(), SmtStatus::Sat);
}

TEST_F(SmtFixture, CoresNeverMentionPoppedAssertions) {
  SmtSolver S(C);
  S.assertFormula(C.mkGe(C.mkAdd(X, Y), C.mkIntConst(10)));
  S.push();
  S.assertFormula(C.mkLe(X, C.mkIntConst(0))); // Popped below.
  S.pop();
  TermRef A1 = C.mkLe(X, C.mkIntConst(4));
  TermRef A2 = C.mkLe(Y, C.mkIntConst(4));
  TermRef A3 = C.mkGe(Y, C.mkIntConst(0)); // Irrelevant.
  EXPECT_EQ(S.check({A1, A2, A3}), SmtStatus::Unsat);
  const std::vector<TermRef> &Core = S.unsatCore();
  EXPECT_GE(Core.size(), 1u);
  for (TermRef T : Core) {
    EXPECT_TRUE(T == A1 || T == A2 || T == A3)
        << "core leaked a non-assumption: " << C.toString(T);
    EXPECT_NE(T, A3);
  }
}

TEST_F(SmtFixture, ModelValidAfterPop) {
  SmtSolver S(C);
  S.assertFormula(C.mkGe(X, C.mkIntConst(0)));
  S.push();
  S.assertFormula(C.mkGe(X, C.mkIntConst(50)));
  ASSERT_EQ(S.check(), SmtStatus::Sat);
  EXPECT_TRUE(S.model().holds(C, C.mkGe(X, C.mkIntConst(50))));
  S.pop();
  S.assertFormula(C.mkLe(X, C.mkIntConst(5))); // Only sat once 50 is gone.
  ASSERT_EQ(S.check(), SmtStatus::Sat);
  EXPECT_TRUE(S.model().holds(C, C.mkAnd(C.mkGe(X, C.mkIntConst(0)),
                                         C.mkLe(X, C.mkIntConst(5)))));
}

TEST_F(SmtFixture, CancelledCheckLeavesScopesUsable) {
  SmtSolver S(C);
  std::atomic<bool> Flag{true}; // Cancelled from the start.
  S.assertFormula(C.mkGe(X, C.mkIntConst(0)));
  S.push();
  S.assertFormula(C.mkLe(X, C.mkIntConst(-1)));
  S.setCancelFlag(&Flag);
  EXPECT_EQ(S.check(), SmtStatus::Unknown); // Interrupted, state intact.
  Flag.store(false);
  EXPECT_EQ(S.check(), SmtStatus::Unsat); // Same scope, real verdict now.
  S.pop();
  EXPECT_EQ(S.check(), SmtStatus::Sat);
  EXPECT_EQ(S.numScopes(), 0u);
}

TEST_F(SmtFixture, LearnedClausesSurvivePop) {
  // A small pigeonhole (4 pigeons, 3 holes) over Boolean structure forces
  // genuine CDCL learning; assert it inside a scope, pop, and the learned
  // clauses must still be in the database (each carries the popped
  // activation literal, so they are vacuously satisfied — retention is the
  // observable).
  SmtSolver S(C);
  std::vector<std::vector<TermRef>> P(4);
  for (int I = 0; I < 4; ++I)
    for (int H = 0; H < 3; ++H)
      P[I].push_back(
          C.mkVar("p" + std::to_string(I) + "_" + std::to_string(H),
                  Sort::Bool));
  S.push();
  for (int I = 0; I < 4; ++I)
    S.assertFormula(C.mkOr(P[I]));
  for (int H = 0; H < 3; ++H)
    for (int I = 0; I < 4; ++I)
      for (int J = I + 1; J < 4; ++J)
        S.assertFormula(C.mkOr(C.mkNot(P[I][H]), C.mkNot(P[J][H])));
  EXPECT_EQ(S.check(), SmtStatus::Unsat);
  uint64_t LearnedAtUnsat = S.satCore().numLearned();
  EXPECT_GT(LearnedAtUnsat, 0u);
  S.pop();
  EXPECT_GE(S.satCore().numLearned(), LearnedAtUnsat);
  EXPECT_EQ(S.check(), SmtStatus::Sat);
}

TEST_F(SmtFixture, ImpliesAndEquivalentHelpers) {
  TermRef F = C.mkAnd(C.mkGe(X, C.mkIntConst(1)), C.mkLe(X, C.mkIntConst(3)));
  TermRef G = C.mkGe(X, C.mkIntConst(0));
  EXPECT_TRUE(SmtSolver::implies(C, F, G));
  EXPECT_FALSE(SmtSolver::implies(C, G, F));
  EXPECT_TRUE(SmtSolver::equivalent(
      C, C.mkLt(X, C.mkIntConst(3)), C.mkLe(X, C.mkIntConst(2))));
}

//===----------------------------------------------------------------------===
// Atoms parsed once: a warm checker must answer exactly like a fresh one
//===----------------------------------------------------------------------===

TEST_F(SmtFixture, ParsedAtomsGiveFirstCheckAnswers) {
  // Int and Real atoms, with an equality (skipped when negated), a
  // coefficient needing gcd tightening and a strict Real bound.
  std::vector<TermRef> Atoms = {
      C.mkLe(C.mkAdd(X, Y), C.mkIntConst(3)),
      C.mkEq(C.mkSub(X, Y), C.mkIntConst(1)),
      C.mkLe(C.mkAdd(C.mkMul(Rational(2), X), C.mkMul(Rational(4), Y)),
             C.mkIntConst(7)),
      C.mkGe(Y, C.mkIntConst(-2)),
      C.mkLt(XR, C.mkRealConst(Rational(1, 2))),
      C.mkLe(C.mkRealConst(Rational(0)), XR)};
  // The warm checker reads one parse per atom for every vector.
  std::vector<ParsedAtom> Parsed;
  for (TermRef A : Atoms)
    Parsed.push_back(ParsedAtom::parse(C, A));
  ArithChecker Warm(C);
  for (unsigned Mask = 0; Mask < (1u << Atoms.size()); ++Mask) {
    std::vector<TheoryLit> WarmLits;
    for (size_t I = 0; I < Atoms.size(); ++I)
      WarmLits.push_back(TheoryLit{Atoms[I], ((Mask >> I) & 1) != 0,
                                   &Parsed[I]});
    for (int Round = 0; Round < 2; ++Round) {
      // A first check: fresh checker, freshly parsed atoms.
      std::vector<ParsedAtom> FreshParsed;
      for (TermRef A : Atoms)
        FreshParsed.push_back(ParsedAtom::parse(C, A));
      std::vector<TheoryLit> FreshLits = WarmLits;
      for (size_t I = 0; I < Atoms.size(); ++I)
        FreshLits[I].Parsed = &FreshParsed[I];
      ArithChecker Fresh(C);
      ArithChecker::Outcome Want = Fresh.check(FreshLits);
      ArithChecker::Outcome Got = Warm.check(WarmLits);
      ASSERT_EQ(Got.St, Want.St) << "mask " << Mask;
      EXPECT_EQ(Got.Core, Want.Core) << "mask " << Mask;
      if (Want.St == ArithChecker::Status::Feasible)
        EXPECT_EQ(Warm.arithModel(), Fresh.arithModel()) << "mask " << Mask;
    }
  }
}

TEST_F(SmtFixture, AtomsParsedInAPoppedScopeStaySound) {
  // Atoms registered (and parsed) inside a scope outlive its pop() and
  // feed every later round. A solver with learned state answers with its
  // own model or core, so compare with a fresh solver on status, and check
  // the warm model and core against the query itself.
  TermRef P1 = C.mkLe(C.mkAdd(X, Y), C.mkIntConst(4));
  TermRef P2 = C.mkGe(X, C.mkIntConst(3));
  TermRef P3 = C.mkGe(Y, C.mkIntConst(2));
  TermRef P4 = C.mkEq(C.mkMul(Rational(2), X), C.mkAdd(Y, C.mkIntConst(5)));
  std::vector<std::vector<TermRef>> Queries = {
      {P1, P2, P3},               // Unsat: x + y >= 5.
      {P1, C.mkNot(P3), P4},      // Sat.
      {C.mkNot(P1), P2, P4},      // Sat.
      {P4, C.mkNot(P2), P3, P1}}; // Unsat: 2x = y + 5 forces x >= 3.5.
  SmtSolver Warm(C);
  Warm.push();
  Warm.assertFormula(C.mkOr({P1, P2, P3, P4}));
  Warm.pop();
  for (const std::vector<TermRef> &Q : Queries) {
    SmtSolver Fresh(C);
    SmtStatus Want = Fresh.check(Q);
    ASSERT_EQ(Warm.check(Q), Want);
    if (Want == SmtStatus::Sat) {
      for (TermRef A : Q)
        EXPECT_TRUE(Warm.model().holds(C, A));
    } else {
      for (TermRef A : Warm.unsatCore())
        EXPECT_NE(std::find(Q.begin(), Q.end(), A), Q.end());
      EXPECT_FALSE(SmtSolver::quickCheck(C, Warm.unsatCore()).has_value());
    }
  }
}

//===----------------------------------------------------------------------===
// Property test: random formulas vs. brute-force grid evaluation
//===----------------------------------------------------------------------===

class SmtPropertyTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(SmtPropertyTest, AgreesWithGridSearch) {
  std::mt19937 Rng(GetParam());
  TermContext C;
  for (int Round = 0; Round < 80; ++Round) {
    int NumVars = 2;
    std::vector<TermRef> Vars;
    for (int I = 0; I < NumVars; ++I)
      Vars.push_back(C.mkFreshVar("p", Sort::Int));
    auto RndLin = [&]() {
      std::vector<TermRef> Parts;
      for (TermRef V : Vars)
        if (Rng() % 2)
          Parts.push_back(
              C.mkMul(Rational(static_cast<int64_t>(Rng() % 7) - 3), V));
      Parts.push_back(C.mkIntConst(static_cast<int64_t>(Rng() % 11) - 5));
      return C.mkAdd(Parts);
    };
    auto RndAtom = [&]() -> TermRef {
      switch (Rng() % 4) {
      case 0:
        return C.mkLe(RndLin(), RndLin());
      case 1:
        return C.mkLt(RndLin(), RndLin());
      case 2:
        return C.mkEq(RndLin(), RndLin());
      default:
        return C.mkDivides(BigInt(2 + Rng() % 3), RndLin());
      }
    };
    std::function<TermRef(int)> RndF = [&](int Depth) -> TermRef {
      if (Depth == 0 || Rng() % 3 == 0) {
        TermRef At = RndAtom();
        return Rng() % 3 == 0 ? C.mkNot(At) : At;
      }
      switch (Rng() % 3) {
      case 0:
        return C.mkAnd(RndF(Depth - 1), RndF(Depth - 1));
      case 1:
        return C.mkOr(RndF(Depth - 1), RndF(Depth - 1));
      default:
        return C.mkNot(RndF(Depth - 1));
      }
    };
    TermRef F = RndF(3);

    SmtSolver S(C);
    S.assertFormula(F);
    SmtStatus St = S.check();
    ASSERT_NE(St, SmtStatus::Unknown);

    bool BruteSat = false;
    Assignment A;
    for (int V0 = -7; V0 <= 7 && !BruteSat; ++V0)
      for (int V1 = -7; V1 <= 7 && !BruteSat; ++V1) {
        A[C.node(Vars[0]).Var] = Value::number(Rational(V0), Sort::Int);
        A[C.node(Vars[1]).Var] = Value::number(Rational(V1), Sort::Int);
        if (evalBool(C, F, A))
          BruteSat = true;
      }
    if (St == SmtStatus::Unsat)
      EXPECT_FALSE(BruteSat) << C.toString(F);
    else
      EXPECT_TRUE(S.model().holds(C, F)) << C.toString(F);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SmtPropertyTest,
                         ::testing::Values(21u, 22u, 23u, 24u));

namespace {
/// One random bound over \p Xs: x <= k or x >= k with k in [-3, 3].
TermRef randomBound(TermContext &C, std::mt19937 &Rng,
                    const std::vector<TermRef> &Xs) {
  TermRef X = Xs[Rng() % Xs.size()];
  TermRef K = C.mkIntConst(static_cast<int64_t>(Rng() % 7) - 3);
  return Rng() % 2 ? C.mkGe(X, K) : C.mkLe(X, K);
}
} // namespace

TEST(SmtMinimizeCore, EveryKeptElementIsNecessary) {
  // Seeded bound systems over four Int variables, 2 bounds asserted and 8
  // assumed. Whenever the assumptions are Unsat with the assertions, the
  // minimized core must be Unsat and lose that with any one element
  // deleted. The seed range is wide because misses are rare: a minimizer
  // that lets an unprobed element slip below its scan index returns a
  // non-minimal core on 10 of the 2,543 Unsat cases.
  unsigned UnsatCases = 0;
  for (unsigned Seed = 1; Seed <= 3000; ++Seed) {
    std::mt19937 Rng(Seed);
    TermContext C;
    std::vector<TermRef> Xs;
    for (int I = 0; I < 4; ++I)
      Xs.push_back(C.mkVar("x" + std::to_string(I), Sort::Int));
    std::vector<TermRef> Asserted, Assumed;
    for (int I = 0; I < 2; ++I)
      Asserted.push_back(randomBound(C, Rng, Xs));
    for (int I = 0; I < 8; ++I)
      Assumed.push_back(randomBound(C, Rng, Xs));

    SmtSolver S(C);
    for (TermRef F : Asserted)
      S.assertFormula(F);
    if (S.check(Assumed) != SmtStatus::Unsat)
      continue;
    ++UnsatCases;
    std::vector<TermRef> Core = S.minimizeCore(Assumed);
    auto StatusOf = [&](const std::vector<TermRef> &Asm) {
      SmtSolver Fresh(C);
      for (TermRef F : Asserted)
        Fresh.assertFormula(F);
      return Fresh.check(Asm);
    };
    ASSERT_EQ(StatusOf(Core), SmtStatus::Unsat) << "seed " << Seed;
    for (size_t I = 0; I < Core.size(); ++I) {
      std::vector<TermRef> Rest = Core;
      Rest.erase(Rest.begin() + static_cast<std::ptrdiff_t>(I));
      EXPECT_EQ(StatusOf(Rest), SmtStatus::Sat)
          << "seed " << Seed << ": " << C.toString(Core[I])
          << " is not needed";
    }
  }
  EXPECT_GT(UnsatCases, 500u);
}
