//===- tests/QeTest.cpp - Quantifier elimination tests --------------------===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "mbp/Qe.h"

#include "smt/SmtSolver.h"

#include <gtest/gtest.h>

#include <atomic>
#include <random>

using namespace mucyc;

namespace {

/// Checks psi == exists Elim. Phi. Soundness of the "phi => psi" direction
/// is exact (one SMT query); the converse is checked by enumerating models
/// of psi and completing them.
void expectExactQe(TermContext &C, TermRef Psi, TermRef Phi,
                   const std::vector<VarId> &Elim) {
  // No eliminated variable survives.
  for (VarId V : C.freeVars(Psi))
    EXPECT_TRUE(std::find(Elim.begin(), Elim.end(), V) == Elim.end());
  // phi => psi (projection covers everything).
  EXPECT_TRUE(SmtSolver::implies(C, Phi, Psi));
  // psi => exists Elim. phi, by sampling.
  SmtSolver Enum(C);
  Enum.assertFormula(Psi);
  for (int I = 0; I < 8; ++I) {
    if (Enum.check() != SmtStatus::Sat)
      return;
    std::vector<TermRef> Conj{Phi};
    std::vector<TermRef> Block;
    for (VarId V : C.freeVars(Psi)) {
      Value Val = Enum.model().value(C, V);
      TermRef Eq = Val.S == Sort::Bool
                       ? (Val.B ? C.varTerm(V) : C.mkNot(C.varTerm(V)))
                       : C.mkEq(C.varTerm(V), C.mkConst(Val.R, Val.S));
      Conj.push_back(Eq);
      Block.push_back(C.mkNot(Eq));
    }
    EXPECT_TRUE(SmtSolver::quickCheck(C, Conj).has_value());
    if (Block.empty())
      return;
    Enum.assertFormula(C.mkOr(Block));
  }
}

} // namespace

TEST(QeTest, IntervalProjection) {
  TermContext C;
  TermRef X = C.mkVar("x", Sort::Int), Y = C.mkVar("y", Sort::Int);
  // exists x. y <= x <= y + 4 is true.
  TermRef Phi = C.mkAnd(C.mkGe(X, Y), C.mkLe(X, C.mkAdd(Y, C.mkIntConst(4))));
  EXPECT_EQ(qeExists(C, {C.node(X).Var}, Phi), C.mkTrue());
}

TEST(QeTest, DivisibilityResidues) {
  TermContext C;
  TermRef X = C.mkVar("x", Sort::Int), Y = C.mkVar("y", Sort::Int);
  // exists x. y <= x <= y+1 /\ 2 | x: always true (one of two consecutive
  // integers is even).
  TermRef Phi = C.mkAnd({C.mkGe(X, Y), C.mkLe(X, C.mkAdd(Y, C.mkIntConst(1))),
                         C.mkDivides(BigInt(2), X)});
  TermRef Psi = qeExists(C, {C.node(X).Var}, Phi);
  EXPECT_TRUE(SmtSolver::equivalent(C, Psi, C.mkTrue()));
  // Tight window: exists x. y <= x <= y /\ 2 | x  ==  2 | y.
  TermRef Phi2 = C.mkAnd({C.mkGe(X, Y), C.mkLe(X, Y),
                          C.mkDivides(BigInt(2), X)});
  TermRef Psi2 = qeExists(C, {C.node(X).Var}, Phi2);
  EXPECT_TRUE(SmtSolver::equivalent(C, Psi2, C.mkDivides(BigInt(2), Y)));
}

TEST(QeTest, RealProjection) {
  TermContext C;
  TermRef X = C.mkVar("x", Sort::Real), Y = C.mkVar("y", Sort::Real),
          Z = C.mkVar("z", Sort::Real);
  TermRef Phi = C.mkAnd(C.mkGt(X, Y), C.mkLt(X, Z));
  TermRef Psi = qeExists(C, {C.node(X).Var}, Phi);
  EXPECT_TRUE(SmtSolver::equivalent(C, Psi, C.mkLt(Y, Z)));
}

TEST(QeTest, UnsatisfiableBody) {
  TermContext C;
  TermRef X = C.mkVar("x", Sort::Int);
  TermRef Phi = C.mkAnd(C.mkGe(X, C.mkIntConst(1)),
                        C.mkLe(X, C.mkIntConst(0)));
  EXPECT_EQ(qeExists(C, {C.node(X).Var}, Phi), C.mkFalse());
}

TEST(QeTest, NoVariablesToEliminate) {
  TermContext C;
  TermRef X = C.mkVar("x", Sort::Int);
  TermRef Phi = C.mkGe(X, C.mkIntConst(0));
  EXPECT_EQ(qeExists(C, {}, Phi), Phi);
}

TEST(QeTest, ForallDuality) {
  TermContext C;
  TermRef X = C.mkVar("x", Sort::Int), Y = C.mkVar("y", Sort::Int);
  // forall x. (x >= y => x >= 0)  ==  y >= 0.
  TermRef Phi = C.mkImplies(C.mkGe(X, Y), C.mkGe(X, C.mkIntConst(0)));
  TermRef Psi = qeForall(C, {C.node(X).Var}, Phi);
  EXPECT_TRUE(SmtSolver::equivalent(C, Psi, C.mkGe(Y, C.mkIntConst(0))));
}

TEST(QeTest, DisjunctiveInput) {
  TermContext C;
  TermRef X = C.mkVar("x", Sort::Int), Y = C.mkVar("y", Sort::Int);
  // exists x. (x = y /\ x >= 3) \/ (x = -y /\ x >= 3)  ==  y >= 3 \/ y <= -3.
  TermRef Phi = C.mkOr(C.mkAnd(C.mkEq(X, Y), C.mkGe(X, C.mkIntConst(3))),
                       C.mkAnd(C.mkEq(X, C.mkNeg(Y)),
                               C.mkGe(X, C.mkIntConst(3))));
  TermRef Psi = qeExists(C, {C.node(X).Var}, Phi);
  TermRef Expect = C.mkOr(C.mkGe(Y, C.mkIntConst(3)),
                          C.mkLe(Y, C.mkIntConst(-3)));
  EXPECT_TRUE(SmtSolver::equivalent(C, Psi, Expect));
}

TEST(ContextCancelTest, QeExistsRaisesCancelled) {
  TermContext C;
  TermRef X = C.mkVar("x", Sort::Int), Y = C.mkVar("y", Sort::Int);
  TermRef Phi = C.mkAnd(C.mkLe(X, Y), C.mkGe(X, C.mkIntConst(0)));
  std::atomic<bool> Flag{true};
  C.setCancelFlag(&Flag);
  ErrorCode Got = ErrorCode::None;
  try {
    qeExists(C, {C.node(X).Var}, Phi);
  } catch (const MucycError &E) {
    Got = E.code();
  }
  EXPECT_EQ(Got, ErrorCode::Cancelled);
  C.setCancelFlag(nullptr);
  EXPECT_TRUE(SmtSolver::equivalent(C, qeExists(C, {C.node(X).Var}, Phi),
                                    C.mkGe(Y, C.mkIntConst(0))));
}

class QePropertyTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(QePropertyTest, ProjectionIsExact) {
  std::mt19937 Rng(GetParam());
  TermContext C;
  for (int Round = 0; Round < 12; ++Round) {
    std::vector<TermRef> Vars;
    for (int I = 0; I < 3; ++I)
      Vars.push_back(C.mkFreshVar("q", Sort::Int));
    auto RndLin = [&]() {
      std::vector<TermRef> Parts;
      for (TermRef V : Vars)
        if (Rng() % 2)
          Parts.push_back(
              C.mkMul(Rational(static_cast<int64_t>(Rng() % 5) - 2), V));
      Parts.push_back(C.mkIntConst(static_cast<int64_t>(Rng() % 7) - 3));
      return C.mkAdd(Parts);
    };
    std::vector<TermRef> Lits;
    int N = 2 + Rng() % 3;
    for (int I = 0; I < N; ++I) {
      if (Rng() % 4 == 0)
        Lits.push_back(C.mkDivides(BigInt(2 + Rng() % 2), RndLin()));
      else
        Lits.push_back(C.mkLe(RndLin(), RndLin()));
    }
    // Mix in a disjunction now and then.
    TermRef Phi = Rng() % 3 == 0 && Lits.size() >= 2
                      ? C.mkOr(C.mkAnd({Lits[0], Lits[1]}),
                               C.mkAnd(std::vector<TermRef>(Lits.begin() + 1,
                                                            Lits.end())))
                      : C.mkAnd(Lits);
    std::vector<VarId> Elim{C.node(Vars[0]).Var};
    TermRef Psi = qeExists(C, Elim, Phi);
    expectExactQe(C, Psi, Phi, Elim);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QePropertyTest,
                         ::testing::Values(41u, 42u, 43u));
