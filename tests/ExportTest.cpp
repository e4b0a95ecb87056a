//===- tests/ExportTest.cpp - Export / frontend round trips ---------------===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Full-pipeline round trips: each small-suite instance is exported to
/// SMT-LIB2 text, parsed back, pushed through preprocessing and the general
/// normalizer, and solved — the result must match the instance's ground
/// truth. This exercises parser + printer + preprocessor + normalizer +
/// solver together.
///
//===----------------------------------------------------------------------===//

#include "bench_suite/Suite.h"
#include "chc/Export.h"
#include "chc/Parser.h"
#include "chc/Preprocess.h"
#include "solver/ChcSolve.h"

#include <gtest/gtest.h>

using namespace mucyc;

TEST(ExportTest, ThreeClauseShape) {
  TermContext C;
  NormalizedChc N = paperExample5(C);
  ChcSystem Sys = chcFromNormalized(C, N);
  ASSERT_EQ(Sys.clauses().size(), 3u);
  EXPECT_TRUE(Sys.clauses()[0].isFact());
  EXPECT_EQ(Sys.clauses()[1].Body.size(), 2u);
  EXPECT_TRUE(Sys.clauses()[2].isQuery());
  EXPECT_FALSE(Sys.isLinear());
}

TEST(ExportTest, SmtLibParsesBack) {
  TermContext C;
  NormalizedChc N = paperExample10(C, 5);
  std::string Text = exportSmtLib(C, N);
  TermContext C2;
  ParseResult R = parseChc(C2, Text);
  ASSERT_TRUE(R.Ok) << R.Error << "\n" << Text;
  EXPECT_EQ(R.System->numPreds(), 1u);
  EXPECT_EQ(R.System->clauses().size(), 3u);
}

class ExportRoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(ExportRoundTripTest, SolveAfterReparse) {
  std::vector<BenchInstance> Suite = buildSmallSuite();
  const BenchInstance &B = Suite[GetParam()];
  TermContext C;
  NormalizedChc N = B.Build(C);
  std::string Text = exportSmtLib(C, N, "Reach");

  TermContext C2;
  ParseResult R = parseChc(C2, Text);
  ASSERT_TRUE(R.Ok) << R.Error;
  SolverOptions Opts = *SolverOptions::parse("Ret(T,MBP(1))");
  Opts.TimeoutMs = 20000;
  Opts.VerifyResult = true;
  ChcSystem Work = preprocess(*R.System);
  NormalizeResult NR = normalize(Work);
  SolverResult Res = ChcSolver(C2, NR.Sys, Opts).solve();
  if (Res.Status != ChcStatus::Unknown) {
    EXPECT_EQ(Res.Status, B.Expected) << B.Name;
    if (Res.Status == ChcStatus::Sat) {
      EXPECT_TRUE(R.System->checkSolution(
          NR.liftSolution(Work, Res.Invariant)))
          << B.Name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SmallSuite, ExportRoundTripTest,
                         ::testing::Range(0, 8));
