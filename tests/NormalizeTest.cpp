//===- tests/NormalizeTest.cpp - Normalization to the paper's form --------===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "chc/Normalize.h"

#include "chc/Parser.h"
#include "solver/ChcSolve.h"

#include <gtest/gtest.h>

using namespace mucyc;

namespace {
/// Solves a textual system end to end through normalization and checks the
/// status; for Sat also verifies the lifted per-predicate solution.
void expectStatus(const std::string &Horn, ChcStatus Expected) {
  TermContext C;
  ParseResult R = parseChc(C, Horn);
  ASSERT_TRUE(R.Ok) << R.Error;
  SolverOptions Opts;
  Opts.TimeoutMs = 30000;
  Opts.VerifyResult = true;
  NormalizeResult NR = normalize(*R.System);
  SolverResult Res = ChcSolver(C, NR.Sys, Opts).solve();
  EXPECT_EQ(Res.Status, Expected);
  if (Res.Status == ChcStatus::Sat && Expected == ChcStatus::Sat) {
    EXPECT_TRUE(R.System->checkSolution(
        NR.liftSolution(*R.System, Res.Invariant)));
  }
}
} // namespace

TEST(NormalizeTest, SinglePredicateLinearSat) {
  expectStatus(R"((set-logic HORN)
(declare-fun P (Int) Bool)
(assert (forall ((x Int)) (=> (and (<= 0 x) (<= x 1)) (P x))))
(assert (forall ((x Int) (y Int))
  (=> (and (P x) (< x 3) (= y (+ x 1))) (P y))))
(assert (forall ((x Int)) (=> (and (P x) (> x 10)) false)))
)",
               ChcStatus::Sat);
}

TEST(NormalizeTest, SinglePredicateLinearUnsat) {
  expectStatus(R"((set-logic HORN)
(declare-fun P (Int) Bool)
(assert (forall ((x Int)) (=> (= x 0) (P x))))
(assert (forall ((x Int) (y Int)) (=> (and (P x) (= y (+ x 1))) (P y))))
(assert (forall ((x Int)) (=> (and (P x) (= x 4)) false)))
)",
               ChcStatus::Unsat);
}

TEST(NormalizeTest, TwoPredicates) {
  expectStatus(R"((set-logic HORN)
(declare-fun A (Int) Bool)
(declare-fun B (Int) Bool)
(assert (forall ((x Int)) (=> (= x 0) (A x))))
(assert (forall ((x Int) (y Int))
  (=> (and (A x) (< x 2) (= y (+ x 1))) (B y))))
(assert (forall ((x Int)) (=> (B x) (A x))))
(assert (forall ((x Int)) (=> (and (A x) (> x 5)) false)))
)",
               ChcStatus::Sat); // A and B stay within [0, 2].
}

TEST(NormalizeTest, TwoPredicatesUnsat) {
  expectStatus(R"((set-logic HORN)
(declare-fun A (Int) Bool)
(declare-fun B (Int) Bool)
(assert (forall ((x Int)) (=> (= x 0) (A x))))
(assert (forall ((x Int) (y Int)) (=> (and (A x) (= y (+ x 1))) (B y))))
(assert (forall ((x Int) (y Int)) (=> (and (B x) (= y (+ x 1))) (A y))))
(assert (forall ((x Int)) (=> (and (A x) (= x 4)) false)))
)",
               ChcStatus::Unsat);
}

TEST(NormalizeTest, NonlinearJoin) {
  expectStatus(R"((set-logic HORN)
(declare-fun P (Int) Bool)
(assert (forall ((z Int)) (=> (= z 1) (P z))))
(assert (forall ((x Int) (y Int) (z Int))
  (=> (and (P x) (P y) (= z (+ x y))) (P z))))
(assert (forall ((z Int)) (=> (and (P z) (< z 1)) false)))
)",
               ChcStatus::Sat);
}

TEST(NormalizeTest, TernaryBodyFold) {
  // Three body atoms force an intermediate packing tag.
  expectStatus(R"((set-logic HORN)
(declare-fun P (Int) Bool)
(assert (forall ((z Int)) (=> (= z 1) (P z))))
(assert (forall ((a Int) (b Int) (c Int) (z Int))
  (=> (and (P a) (P b) (P c) (= z (+ a (+ b c)))) (P z))))
(assert (forall ((z Int)) (=> (and (P z) (= z 3)) false)))
)",
               ChcStatus::Unsat); // 1+1+1 = 3 is derivable.
}

TEST(NormalizeTest, TernaryBodyFoldSat) {
  // Guarded ternary join: summands are capped at 2, so the reachable set
  // stays within [1, 6] and z = 10 is unreachable.
  expectStatus(R"((set-logic HORN)
(declare-fun P (Int) Bool)
(assert (forall ((z Int)) (=> (= z 1) (P z))))
(assert (forall ((a Int) (b Int) (c Int) (z Int))
  (=> (and (P a) (P b) (P c) (<= a 2) (<= b 2) (<= c 2)
           (= z (+ a (+ b c)))) (P z))))
(assert (forall ((z Int)) (=> (and (P z) (= z 10)) false)))
)",
               ChcStatus::Sat);
}

TEST(NormalizeTest, MixedArityPredicates) {
  expectStatus(R"((set-logic HORN)
(declare-fun Pair (Int Int) Bool)
(declare-fun One (Int) Bool)
(assert (forall ((x Int)) (=> (= x 0) (One x))))
(assert (forall ((x Int) (y Int)) (=> (and (One x) (= y x)) (Pair x y))))
(assert (forall ((x Int) (y Int)) (=> (and (Pair x y) (not (= x y))) false)))
)",
               ChcStatus::Sat);
}

TEST(NormalizeTest, GroundQueryUnsat) {
  expectStatus(R"((set-logic HORN)
(declare-fun P (Int) Bool)
(assert (forall ((x Int)) (=> (= x 0) (P x))))
(assert false)
)",
               ChcStatus::Unsat);
}

TEST(NormalizeTest, BooleanArguments) {
  expectStatus(R"((set-logic HORN)
(declare-fun P (Bool Int) Bool)
(assert (forall ((b Bool) (x Int)) (=> (and b (= x 0)) (P b x))))
(assert (forall ((b Bool) (x Int) (y Int))
  (=> (and (P b x) (= y (+ x 1)) (<= y 3)) (P b y))))
(assert (forall ((b Bool) (x Int)) (=> (and (P b x) (not b)) false)))
)",
               ChcStatus::Sat);
}

TEST(NormalizeTest, FastPathMakeNormalized) {
  TermContext C;
  TermRef X = C.mkVar("fx", Sort::Int), Y = C.mkVar("fy", Sort::Int),
          Z = C.mkVar("fz", Sort::Int);
  NormalizedChc N = makeNormalized(
      C, {C.node(X).Var}, {C.node(Y).Var}, {C.node(Z).Var},
      C.mkEq(Z, C.mkIntConst(0)), C.mkEq(Z, C.mkAdd(X, C.mkIntConst(1))),
      C.mkLt(Z, C.mkIntConst(0)));
  // Renaming helpers.
  TermRef F = C.mkLe(Z, C.mkIntConst(5));
  EXPECT_EQ(N.zToX(C, F), C.mkLe(X, C.mkIntConst(5)));
  EXPECT_EQ(N.zToY(C, F), C.mkLe(Y, C.mkIntConst(5)));
}

TEST(NormalizeTest, LayoutSharesSlotsBySort) {
  TermContext C;
  ParseResult R = parseChc(C, R"((set-logic HORN)
(declare-fun A (Int) Bool)
(declare-fun B (Int) Bool)
(assert (forall ((x Int)) (=> (= x 0) (A x))))
(assert (forall ((x Int)) (=> (A x) (B x))))
)");
  ASSERT_TRUE(R.Ok);
  NormalizeResult NR = normalize(*R.System);
  // Both unary Int predicates share the same slot; Z = [tag, one slot].
  EXPECT_EQ(NR.Sys.Z.size(), 2u);
  EXPECT_EQ(NR.Layout.at(0).Slots[0], NR.Layout.at(1).Slots[0]);
  EXPECT_NE(NR.Layout.at(0).Tag, NR.Layout.at(1).Tag);
}
