//===- tests/ItpTest.cpp - Interpolation tests ----------------------------===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "itp/Interpolate.h"

#include "smt/SmtSolver.h"
#include "support/Error.h"

#include <gtest/gtest.h>

#include <functional>
#include <random>

using namespace mucyc;

namespace {
void expectInterpolant(TermContext &C, TermRef A, TermRef B, TermRef Theta) {
  EXPECT_TRUE(SmtSolver::implies(C, A, Theta));
  EXPECT_TRUE(SmtSolver::implies(C, Theta, B));
  // Vars of theta are confined to vars of B (the binding side for the
  // refinement call sites; see Interpolate.h).
  std::vector<VarId> BV = C.freeVars(B);
  for (VarId V : C.freeVars(Theta))
    EXPECT_TRUE(std::binary_search(BV.begin(), BV.end(), V));
}
} // namespace

TEST(ItpTest, CubeGeneralization) {
  TermContext C;
  TermRef X = C.mkVar("x", Sort::Int);
  // A = (0 <= x <= 8); blocked cube = (x >= 20 /\ x <= 30).
  TermRef A = C.mkAnd(C.mkGe(X, C.mkIntConst(0)), C.mkLe(X, C.mkIntConst(8)));
  std::vector<TermRef> Cube{C.mkGe(X, C.mkIntConst(20)),
                            C.mkLe(X, C.mkIntConst(30))};
  std::vector<TermRef> Small = generalizeBlockedCube(C, A, Cube);
  // Only the lower bound is needed to block.
  ASSERT_EQ(Small.size(), 1u);
  EXPECT_EQ(Small[0], Cube[0]);
}

TEST(ItpTest, CubeGeneralizationKeepsNecessaryLiterals) {
  TermContext C;
  TermRef X = C.mkVar("x", Sort::Int), Y = C.mkVar("y", Sort::Int);
  TermRef A = C.mkEq(X, Y);
  // Blocked cube needs both halves: x >= 1 /\ y <= 0.
  std::vector<TermRef> Cube{C.mkGe(X, C.mkIntConst(1)),
                            C.mkLe(Y, C.mkIntConst(0))};
  std::vector<TermRef> Small = generalizeBlockedCube(C, A, Cube);
  EXPECT_EQ(Small.size(), 2u);
}

TEST(ItpTest, WeakestReturnsB) {
  TermContext C;
  TermRef X = C.mkVar("x", Sort::Int);
  TermRef A = C.mkEq(X, C.mkIntConst(1));
  TermRef B = C.mkGe(X, C.mkIntConst(0));
  EXPECT_EQ(interpolate(C, A, B, ItpMode::WeakestB), B);
}

TEST(ItpTest, QeStrongestIsStrongest) {
  TermContext C;
  TermRef X = C.mkVar("x", Sort::Int), Y = C.mkVar("y", Sort::Int);
  // A(x, y) = (y = x + 1 /\ 0 <= x <= 3); B(y) = (y >= -10).
  TermRef A = C.mkAnd({C.mkEq(Y, C.mkAdd(X, C.mkIntConst(1))),
                       C.mkGe(X, C.mkIntConst(0)),
                       C.mkLe(X, C.mkIntConst(3))});
  TermRef B = C.mkGe(Y, C.mkIntConst(-10));
  TermRef Theta = interpolate(C, A, B, ItpMode::QeStrongest);
  expectInterpolant(C, A, B, Theta);
  // Strongest: equivalent to exists x. A == 1 <= y <= 4.
  TermRef Exact = C.mkAnd(C.mkGe(Y, C.mkIntConst(1)),
                          C.mkLe(Y, C.mkIntConst(4)));
  EXPECT_TRUE(SmtSolver::equivalent(C, Theta, Exact));
}

TEST(ItpTest, CubeGeneralizeMode) {
  TermContext C;
  TermRef X = C.mkVar("x", Sort::Int), Y = C.mkVar("y", Sort::Int);
  TermRef A = C.mkAnd(C.mkEq(Y, C.mkMul(Rational(2), X)),
                      C.mkGe(X, C.mkIntConst(0)));
  // B = not(y <= -4 /\ y >= -100): a blocked-cube complement.
  TermRef BadCube = C.mkAnd(C.mkLe(Y, C.mkIntConst(-4)),
                            C.mkGe(Y, C.mkIntConst(-100)));
  TermRef B = C.mkNot(BadCube);
  TermRef Theta = interpolate(C, A, B, ItpMode::CubeGeneralize);
  expectInterpolant(C, A, B, Theta);
  // Generalization should have dropped the irrelevant lower bound: the
  // interpolant is weaker than or equal to not(y <= -4).
  EXPECT_TRUE(SmtSolver::implies(C, C.mkGt(Y, C.mkIntConst(-4)), Theta));
}

TEST(ItpTest, ConjunctionDecomposition) {
  TermContext C;
  TermRef X = C.mkVar("x", Sort::Int), Y = C.mkVar("y", Sort::Int);
  TermRef A = C.mkAnd(C.mkEq(Y, C.mkAdd(X, C.mkIntConst(1))),
                      C.mkGe(X, C.mkIntConst(0)));
  // B is a conjunction of a pass-through part and a generalizable clause.
  TermRef B = C.mkAnd(C.mkGe(Y, C.mkIntConst(1)),
                      C.mkNot(C.mkAnd(C.mkLe(Y, C.mkIntConst(-5)),
                                      C.mkGe(Y, C.mkIntConst(-9)))));
  TermRef Theta = interpolate(C, A, B, ItpMode::CubeGeneralize);
  expectInterpolant(C, A, B, Theta);
}

class ItpPropertyTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(ItpPropertyTest, ContractHolds) {
  std::mt19937 Rng(GetParam());
  TermContext C;
  for (int Round = 0; Round < 40; ++Round) {
    TermRef X = C.mkFreshVar("ix", Sort::Int);
    TermRef Y = C.mkFreshVar("iy", Sort::Int);
    int64_t K1 = static_cast<int64_t>(Rng() % 9) - 4;
    int64_t K2 = static_cast<int64_t>(Rng() % 5) + 1;
    // A relates x and y; B constrains y so that A => B.
    TermRef A = C.mkAnd({C.mkEq(Y, C.mkAdd(X, C.mkIntConst(K1))),
                         C.mkGe(X, C.mkIntConst(0)),
                         C.mkLe(X, C.mkIntConst(K2))});
    TermRef BadCube =
        C.mkAnd(C.mkLe(Y, C.mkIntConst(K1 - 1 - static_cast<int64_t>(Rng() % 4))),
                C.mkGe(Y, C.mkIntConst(K1 - 50)));
    TermRef B = C.mkNot(BadCube);
    ASSERT_TRUE(SmtSolver::implies(C, A, B));
    for (ItpMode Mode : {ItpMode::CubeGeneralize, ItpMode::QeStrongest,
                         ItpMode::WeakestB}) {
      TermRef Theta = interpolate(C, A, B, Mode);
      EXPECT_TRUE(SmtSolver::implies(C, A, Theta));
      EXPECT_TRUE(SmtSolver::implies(C, Theta, B));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ItpPropertyTest, ::testing::Values(51u, 52u));

//===----------------------------------------------------------------------===
// Generalization memo
//===----------------------------------------------------------------------===

namespace {
/// A = (y = 2x /\ x >= 0 /\ 3 | z /\ z <= y), which blocks both cubes;
/// the divisibility atom gives every solver built on A fresh witnesses.
struct MemoInputs {
  TermRef A;
  std::vector<TermRef> Cube; ///< y <= -4 /\ y >= -100 /\ z >= 5.
  TermRef B;                 ///< not(Cube) /\ not(y <= -1 /\ z >= 0).
};

MemoInputs memoInputs(TermContext &C) {
  TermRef X = C.mkVar("x", Sort::Int), Y = C.mkVar("y", Sort::Int),
          Z = C.mkVar("z", Sort::Int);
  MemoInputs In;
  In.A = C.mkAnd({C.mkEq(Y, C.mkMul(Rational(2), X)),
                  C.mkGe(X, C.mkIntConst(0)), C.mkDivides(BigInt(3), Z),
                  C.mkLe(Z, Y)});
  In.Cube = {C.mkLe(Y, C.mkIntConst(-4)), C.mkGe(Y, C.mkIntConst(-100)),
             C.mkGe(Z, C.mkIntConst(5))};
  In.B = C.mkAnd(C.mkNot(C.mkAnd(In.Cube)),
                 C.mkNot(C.mkAnd(C.mkLe(Y, C.mkIntConst(-1)),
                                 C.mkGe(Z, C.mkIntConst(0)))));
  return In;
}

std::vector<std::string> render(const TermContext &C,
                                const std::vector<TermRef> &Ts) {
  std::vector<std::string> Out;
  for (TermRef T : Ts)
    Out.push_back(C.toString(T));
  return Out;
}

/// True when \p F raises an InvariantViolation.
bool raisesInvariantViolation(const std::function<void()> &F) {
  try {
    F();
  } catch (const MucycError &E) {
    return E.code() == ErrorCode::InvariantViolation;
  }
  return false;
}
} // namespace

TEST(ItpMemoTest, RepeatedGeneralizationBuildsNothing) {
  TermContext C;
  MemoInputs In = memoInputs(C);
  ResourceGauge G;
  C.setResourceGauge(&G);
  std::vector<TermRef> First = generalizeBlockedCube(C, In.A, In.Cube);
  size_t Terms = C.numTerms();
  uint64_t Used = G.used();
  EXPECT_EQ(generalizeBlockedCube(C, In.A, In.Cube), First);
  EXPECT_EQ(C.numTerms(), Terms);
  EXPECT_EQ(G.used(), Used);
  C.setResourceGauge(nullptr);
}

TEST(ItpMemoTest, RepeatedInterpolationBuildsNothing) {
  TermContext C;
  MemoInputs In = memoInputs(C);
  ResourceGauge G;
  C.setResourceGauge(&G);
  TermRef First = interpolate(C, In.A, In.B, ItpMode::CubeGeneralize);
  size_t Terms = C.numTerms();
  uint64_t Used = G.used();
  EXPECT_EQ(interpolate(C, In.A, In.B, ItpMode::CubeGeneralize), First);
  EXPECT_EQ(C.numTerms(), Terms);
  EXPECT_EQ(G.used(), Used);
  C.setResourceGauge(nullptr);
  expectInterpolant(C, In.A, In.B, First);
}

TEST(ItpMemoTest, HitsRenderLikeAFreshContext) {
  TermContext C;
  MemoInputs In = memoInputs(C);
  generalizeBlockedCube(C, In.A, In.Cube);
  interpolate(C, In.A, In.B, ItpMode::CubeGeneralize);
  std::vector<TermRef> Small = generalizeBlockedCube(C, In.A, In.Cube);
  TermRef Theta = interpolate(C, In.A, In.B, ItpMode::CubeGeneralize);

  TermContext Fresh;
  MemoInputs FreshIn = memoInputs(Fresh);
  EXPECT_EQ(render(C, Small),
            render(Fresh, generalizeBlockedCube(Fresh, FreshIn.A,
                                                FreshIn.Cube)));
  EXPECT_EQ(C.toString(Theta),
            Fresh.toString(interpolate(Fresh, FreshIn.A, FreshIn.B,
                                       ItpMode::CubeGeneralize)));
}

TEST(ItpMemoTest, ThrowingCallStoresNothing) {
  TermContext C;
  TermRef X = C.mkVar("x", Sort::Int);
  TermRef A = C.mkGe(X, C.mkIntConst(0));
  std::vector<TermRef> Cube{C.mkGe(X, C.mkIntConst(5))}; // Not blocked.
  EXPECT_TRUE(
      raisesInvariantViolation([&] { generalizeBlockedCube(C, A, Cube); }));
  EXPECT_TRUE(C.blockedCubeMemo().empty());
  EXPECT_TRUE(
      raisesInvariantViolation([&] { generalizeBlockedCube(C, A, Cube); }));
}

//===----------------------------------------------------------------------===
// The Itp precondition
//===----------------------------------------------------------------------===

TEST(ItpPreconditionTest, EveryModeRaisesWhenANotImpliesB) {
  TermContext C;
  TermRef X = C.mkVar("x", Sort::Int);
  TermRef A = C.mkAnd(C.mkGe(X, C.mkIntConst(0)), C.mkLe(X, C.mkIntConst(8)));
  TermRef B = C.mkGe(X, C.mkIntConst(5)); // x = 0 refutes A => B.
  for (ItpMode Mode : {ItpMode::CubeGeneralize, ItpMode::QeStrongest,
                       ItpMode::WeakestB})
    EXPECT_TRUE(raisesInvariantViolation([&] { interpolate(C, A, B, Mode); }))
        << "mode " << static_cast<int>(Mode);
}

TEST(ItpPreconditionTest, CubeGeneralizeRaisesOnARefutedNegatedCube) {
  TermContext C;
  TermRef X = C.mkVar("x", Sort::Int);
  TermRef A = C.mkAnd(C.mkGe(X, C.mkIntConst(0)), C.mkLe(X, C.mkIntConst(8)));
  // The first conjunct holds; x = 6 refutes the second.
  TermRef B = C.mkAnd(C.mkNot(C.mkAnd(C.mkLe(X, C.mkIntConst(-1)),
                                      C.mkGe(X, C.mkIntConst(-9)))),
                      C.mkNot(C.mkAnd(C.mkGe(X, C.mkIntConst(5)),
                                      C.mkLe(X, C.mkIntConst(10)))));
  EXPECT_TRUE(raisesInvariantViolation(
      [&] { interpolate(C, A, B, ItpMode::CubeGeneralize); }));
}

TEST(ItpPreconditionTest, CubeGeneralizeRaisesOnARefutedOtherConjunct) {
  TermContext C;
  TermRef X = C.mkVar("x", Sort::Int), Y = C.mkVar("y", Sort::Int);
  TermRef A = C.mkAnd(C.mkGe(X, C.mkIntConst(0)), C.mkLe(X, C.mkIntConst(8)));
  // The negated cube holds; x = 3 refutes the disjunction, which is not the
  // negation of a cube (one disjunct is a conjunction).
  TermRef NotACube =
      C.mkOr(C.mkGe(X, C.mkIntConst(5)),
             C.mkAnd(C.mkLe(X, C.mkIntConst(1)), C.mkGe(Y, C.mkIntConst(0))));
  TermRef B = C.mkAnd(C.mkNot(C.mkAnd(C.mkLe(X, C.mkIntConst(-1)),
                                      C.mkGe(X, C.mkIntConst(-9)))),
                      NotACube);
  EXPECT_TRUE(raisesInvariantViolation(
      [&] { interpolate(C, A, B, ItpMode::CubeGeneralize); }));
}
