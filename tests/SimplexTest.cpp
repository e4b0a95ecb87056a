//===- tests/SimplexTest.cpp - General simplex tests ----------------------===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "smt/Simplex.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

using namespace mucyc;

TEST(SimplexTest, UnconstrainedIsFeasible) {
  Simplex S;
  S.addVar();
  EXPECT_TRUE(S.check());
}

TEST(SimplexTest, SimpleBounds) {
  Simplex S;
  auto X = S.addVar();
  EXPECT_TRUE(S.assertBound(X, true, DeltaRational(Rational(2)), 0));
  EXPECT_TRUE(S.assertBound(X, false, DeltaRational(Rational(5)), 1));
  EXPECT_TRUE(S.check());
  EXPECT_GE(S.value(X).real(), Rational(2));
  EXPECT_LE(S.value(X).real(), Rational(5));
}

TEST(SimplexTest, ImmediateBoundConflict) {
  Simplex S;
  auto X = S.addVar();
  EXPECT_TRUE(S.assertBound(X, true, DeltaRational(Rational(5)), 7));
  EXPECT_FALSE(S.assertBound(X, false, DeltaRational(Rational(2)), 9));
  auto &E = S.explanation();
  ASSERT_EQ(E.size(), 2u);
  EXPECT_TRUE((E[0] == 7 && E[1] == 9) || (E[0] == 9 && E[1] == 7));
}

TEST(SimplexTest, RowFeasibility) {
  // x + y <= 5, x >= 3, y >= 3: infeasible.
  Simplex S;
  auto X = S.addVar(), Y = S.addVar();
  auto Sum = S.addRowVar({{X, Rational(1)}, {Y, Rational(1)}});
  EXPECT_TRUE(S.assertBound(Sum, false, DeltaRational(Rational(5)), 0));
  EXPECT_TRUE(S.assertBound(X, true, DeltaRational(Rational(3)), 1));
  EXPECT_TRUE(S.assertBound(Y, true, DeltaRational(Rational(3)), 2));
  EXPECT_FALSE(S.check());
  // Explanation covers the three involved bounds.
  EXPECT_GE(S.explanation().size(), 2u);
}

TEST(SimplexTest, RowSatisfiableWithPivoting) {
  // x + y >= 4, x - y <= 0, x <= 1  =>  y >= 3 works.
  Simplex S;
  auto X = S.addVar(), Y = S.addVar();
  auto Sum = S.addRowVar({{X, Rational(1)}, {Y, Rational(1)}});
  auto Diff = S.addRowVar({{X, Rational(1)}, {Y, Rational(-1)}});
  EXPECT_TRUE(S.assertBound(Sum, true, DeltaRational(Rational(4)), 0));
  EXPECT_TRUE(S.assertBound(Diff, false, DeltaRational(Rational(0)), 1));
  EXPECT_TRUE(S.assertBound(X, false, DeltaRational(Rational(1)), 2));
  ASSERT_TRUE(S.check());
  Rational XV = S.value(X).real(), YV = S.value(Y).real();
  EXPECT_GE(XV + YV, Rational(4));
  EXPECT_LE(XV - YV, Rational(0));
  EXPECT_LE(XV, Rational(1));
}

TEST(SimplexTest, StrictBoundsViaDelta) {
  // x > 1 and x < 2 is satisfiable in the rationals.
  Simplex S;
  auto X = S.addVar();
  EXPECT_TRUE(
      S.assertBound(X, true, DeltaRational(Rational(1), Rational(1)), 0));
  EXPECT_TRUE(
      S.assertBound(X, false, DeltaRational(Rational(2), Rational(-1)), 1));
  ASSERT_TRUE(S.check());
  Rational V = S.value(X).materialize(S.suitableEpsilon());
  EXPECT_GT(V, Rational(1));
  EXPECT_LT(V, Rational(2));
}

TEST(SimplexTest, StrictConflict) {
  // x > 1 and x < 1: infeasible.
  Simplex S;
  auto X = S.addVar();
  EXPECT_TRUE(
      S.assertBound(X, true, DeltaRational(Rational(1), Rational(1)), 0));
  bool Ok =
      S.assertBound(X, false, DeltaRational(Rational(1), Rational(-1)), 1);
  EXPECT_TRUE(!Ok || !S.check());
}

TEST(SimplexTest, EqualityThroughRows) {
  // x = 3 via two bounds, row s = 2x: s must be 6.
  Simplex S;
  auto X = S.addVar();
  auto S2 = S.addRowVar({{X, Rational(2)}});
  EXPECT_TRUE(S.assertBound(X, true, DeltaRational(Rational(3)), 0));
  EXPECT_TRUE(S.assertBound(X, false, DeltaRational(Rational(3)), 1));
  ASSERT_TRUE(S.check());
  EXPECT_EQ(S.value(S2).real(), Rational(6));
}

TEST(SimplexTest, RowOfRowInlines) {
  // s1 = x + y; s2 = s1 + y = x + 2y.
  Simplex S;
  auto X = S.addVar(), Y = S.addVar();
  auto S1 = S.addRowVar({{X, Rational(1)}, {Y, Rational(1)}});
  auto S2 = S.addRowVar({{S1, Rational(1)}, {Y, Rational(1)}});
  EXPECT_TRUE(S.assertBound(X, true, DeltaRational(Rational(1)), 0));
  EXPECT_TRUE(S.assertBound(X, false, DeltaRational(Rational(1)), 1));
  EXPECT_TRUE(S.assertBound(Y, true, DeltaRational(Rational(2)), 2));
  EXPECT_TRUE(S.assertBound(Y, false, DeltaRational(Rational(2)), 3));
  ASSERT_TRUE(S.check());
  EXPECT_EQ(S.value(S2).real(), Rational(5));
}

TEST(SimplexTest, ChainedInfeasibility) {
  // x <= y (as y - x >= 0), y <= z, z <= x - 1: infeasible cycle.
  Simplex S;
  auto X = S.addVar(), Y = S.addVar(), Z = S.addVar();
  auto YX = S.addRowVar({{Y, Rational(1)}, {X, Rational(-1)}});
  auto ZY = S.addRowVar({{Z, Rational(1)}, {Y, Rational(-1)}});
  auto XZ = S.addRowVar({{X, Rational(1)}, {Z, Rational(-1)}});
  EXPECT_TRUE(S.assertBound(YX, true, DeltaRational(Rational(0)), 0));
  EXPECT_TRUE(S.assertBound(ZY, true, DeltaRational(Rational(0)), 1));
  EXPECT_TRUE(S.assertBound(XZ, true, DeltaRational(Rational(1)), 2));
  EXPECT_FALSE(S.check());
}

TEST(SimplexTest, RowsMayArriveOutOfKeyOrder) {
  // addRowVar reads a list, not a sorted map: the same forms listed in key
  // order and scrambled must build the same tableau, so pivots, values and
  // explanations agree step for step. 2x - y + 3z >= 4, x + y - z <= 1 and
  // z - 2x <= -1 are feasible; adding x <= 1/2 and y >= 0 is not
  // (2x + 3z <= 8x - 3 <= 1 < 4 + y), which takes pivots to find.
  auto Build = [](bool Scrambled) {
    Simplex S;
    auto X = S.addVar(), Y = S.addVar(), Z = S.addVar();
    std::vector<std::vector<std::pair<Simplex::VarIdx, Rational>>> Rows = {
        {{X, Rational(2)}, {Y, Rational(-1)}, {Z, Rational(3)}},
        {{X, Rational(1)}, {Y, Rational(1)}, {Z, Rational(-1)}},
        {{X, Rational(-2)}, {Z, Rational(1)}}};
    if (Scrambled)
      for (auto &R : Rows)
        std::reverse(R.begin(), R.end());
    auto R0 = S.addRowVar(Rows[0]), R1 = S.addRowVar(Rows[1]);
    auto R2 = S.addRowVar(Rows[2]);
    EXPECT_TRUE(S.assertBound(R0, true, DeltaRational(Rational(4)), 0));
    EXPECT_TRUE(S.assertBound(R1, false, DeltaRational(Rational(1)), 1));
    EXPECT_TRUE(S.assertBound(R2, false, DeltaRational(Rational(-1)), 2));
    bool Sat = S.check();
    std::vector<DeltaRational> Vals;
    for (Simplex::VarIdx V = 0; V < S.numVars(); ++V)
      Vals.push_back(S.value(V));
    EXPECT_TRUE(S.assertBound(X, false, DeltaRational(Rational(1, 2)), 3));
    EXPECT_TRUE(S.assertBound(Y, true, DeltaRational(Rational(0)), 4));
    bool SatAfter = S.check();
    return std::make_tuple(Sat, Vals, SatAfter, S.explanation());
  };
  auto Sorted = Build(false), Scrambled = Build(true);
  EXPECT_TRUE(std::get<0>(Sorted));
  EXPECT_FALSE(std::get<2>(Sorted));
  EXPECT_EQ(std::get<0>(Scrambled), std::get<0>(Sorted));
  EXPECT_EQ(std::get<1>(Scrambled), std::get<1>(Sorted));
  EXPECT_EQ(std::get<2>(Scrambled), std::get<2>(Sorted));
  EXPECT_EQ(std::get<3>(Scrambled), std::get<3>(Sorted));
}
