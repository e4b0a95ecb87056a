//===- tests/SolverTest.cpp - End-to-end engine tests ---------------------===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cross-product of refinement engines and the fast benchmark instances:
/// every configuration must return the correct status (verified against the
/// clauses / bounded reachability), within a timeout, or Unknown — never a
/// wrong answer.
///
//===----------------------------------------------------------------------===//

#include "bench_suite/Suite.h"
#include "solver/Refiner.h"
#include "solver/Verify.h"

#include <gtest/gtest.h>

#include <array>
#include <string_view>

using namespace mucyc;

namespace {
struct EngineCase {
  const char *Config;
  uint64_t TimeoutMs;
};

/// gtest has no printer for EngineCase, so it prints the raw bytes of a
/// case, and ctest keeps that print in the name of every matrix case: a
/// name holds the address of its config string. The loader moves the binary
/// by whole pages, so the low 12 bits of that address (the first byte and a
/// half of the print) are set by the link alone, and they used to move
/// whenever an object linked ahead of this one changed its read-only data.
/// The config strings therefore live in one page-aligned block, each at a
/// fixed offset: the one the linker last gave it, so that pinning renamed
/// no case. The address bits above the page offset still vary between runs.
struct PinnedConfig {
  size_t Offset;
  std::string_view Text;
};

constexpr PinnedConfig Pins[] = {
    {0x18C, "Ret(T,MBP(1))"},      {0x1B3, "Ret(F,MBP(0))"},
    {0x1D1, "Ret(F,Model)"},       {0x287, "Ret(T,MBP(2))"},
    {0x2AF, "Yld(F,MBP(0))"},      {0x2E7, "Ind(Ret(F,MBP(0)))"},
    {0x7DF, "Yld(T,MBP(1))"},      {0xDA5, "Cex(Ret(T,MBP(1)))"},
    {0xDB8, "Mon(Ret(T,MBP(1)))"}, {0xDCB, "Que(Ret(T,MBP(1)))"},
    {0xDDE, "SpacerTS(fig1)"},     {0xDED, "SpacerTS(fig15)"},
    {0xE8B, "Solve"}};

constexpr std::array<char, 4096> makeConfigPage() {
  std::array<char, 4096> Page{};
  size_t End = 0; // Pins are in offset order; each keeps its NUL.
  for (const PinnedConfig &P : Pins) {
    if (P.Offset < End || P.Offset + P.Text.size() >= Page.size())
      throw "config pins overlap or leave the page";
    P.Text.copy(Page.data() + P.Offset, P.Text.size());
    End = P.Offset + P.Text.size() + 1;
  }
  return Page;
}

alignas(4096) constexpr std::array<char, 4096> Page = makeConfigPage();

/// The pinned copy of \p Config; a config without a pin does not compile.
consteval const char *pinned(std::string_view Config) {
  for (const PinnedConfig &P : Pins)
    if (P.Text == Config)
      return Page.data() + P.Offset;
  throw "matrix config has no pin";
}
} // namespace

class EngineMatrixTest
    : public ::testing::TestWithParam<std::tuple<EngineCase, int>> {};

TEST_P(EngineMatrixTest, SolvesOrTimesOutHonestly) {
  auto [Case, Index] = GetParam();
  std::vector<BenchInstance> Suite = buildSmallSuite();
  ASSERT_LT(static_cast<size_t>(Index), Suite.size());
  const BenchInstance &B = Suite[Index];

  TermContext C;
  NormalizedChc N = B.Build(C);
  auto Opts = SolverOptions::parse(Case.Config);
  ASSERT_TRUE(Opts.has_value());
  Opts->TimeoutMs = Case.TimeoutMs;
  Opts->VerifyResult = true;
  ChcSolver S(C, N, *Opts);
  SolverResult R = S.solve();
  if (R.Status != ChcStatus::Unknown)
    EXPECT_EQ(R.Status, B.Expected) << B.Name << " with " << Case.Config;
  // Independently re-verify the artifacts.
  if (R.Status == ChcStatus::Sat)
    EXPECT_TRUE(verifyInvariant(C, N, R.Invariant));
  if (R.Status == ChcStatus::Unsat)
    EXPECT_TRUE(verifyCexPiece(C, N, R.CexPiece, R.Depth + 3));
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, EngineMatrixTest,
    ::testing::Combine(
        ::testing::Values(EngineCase{pinned("Ret(T,MBP(1))"), 12000},
                          EngineCase{pinned("Ret(F,MBP(0))"), 12000},
                          EngineCase{pinned("Ret(T,MBP(2))"), 12000},
                          EngineCase{pinned("Yld(T,MBP(1))"), 12000},
                          EngineCase{pinned("Yld(F,MBP(0))"), 12000},
                          EngineCase{pinned("Ret(F,Model)"), 8000},
                          EngineCase{pinned("Ind(Ret(F,MBP(0)))"), 12000},
                          EngineCase{pinned("Cex(Ret(T,MBP(1)))"), 12000},
                          EngineCase{pinned("Mon(Ret(T,MBP(1)))"), 12000},
                          EngineCase{pinned("Que(Ret(T,MBP(1)))"), 12000},
                          EngineCase{pinned("SpacerTS(fig1)"), 12000},
                          EngineCase{pinned("SpacerTS(fig15)"), 8000},
                          EngineCase{pinned("Solve"), 8000}),
        ::testing::Range(0, 12)),
    [](const ::testing::TestParamInfo<std::tuple<EngineCase, int>> &Info) {
      std::string Name = std::get<0>(Info.param).Config;
      for (char &Ch : Name)
        if (!isalnum(static_cast<unsigned char>(Ch)))
          Ch = '_';
      return Name + "_i" + std::to_string(std::get<1>(Info.param));
    });

/// The QE-based engines are slow; exercise them on the tiniest instances
/// only, but require definite answers there.
class SlowEngineTest : public ::testing::TestWithParam<const char *> {};

TEST_P(SlowEngineTest, CounterSystems) {
  auto Opts = SolverOptions::parse(GetParam());
  ASSERT_TRUE(Opts.has_value());
  Opts->TimeoutMs = 60000;
  Opts->VerifyResult = true;
  {
    TermContext C;
    std::vector<BenchInstance> Suite = buildSmallSuite();
    // counter_safe_3 and counter_unsafe_3 are entries 0 and 1.
    NormalizedChc N = Suite[0].Build(C);
    SolverResult R = ChcSolver(C, N, *Opts).solve();
    EXPECT_EQ(R.Status, Suite[0].Expected) << Suite[0].Name;
  }
  {
    TermContext C;
    std::vector<BenchInstance> Suite = buildSmallSuite();
    NormalizedChc N = Suite[1].Build(C);
    SolverResult R = ChcSolver(C, N, *Opts).solve();
    EXPECT_EQ(R.Status, Suite[1].Expected) << Suite[1].Name;
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, SlowEngineTest,
                         ::testing::Values("Naive", "NaiveMbp", "Ret(F,QE)"));

/// The generalized refinement problem (Definition 11): refineFull leaves a
/// trace whose root entails alpha \/ Gamma, and Gamma covers exactly the
/// unavoidable states.
TEST(RefinerTest, GeneralizedRefinementPostconditions) {
  TermContext C;
  NormalizedChc N = paperExample4(C); // UNSAT system.
  SolverOptions Opts = *SolverOptions::parse("Ret(T,MBP(1))");
  Opts.TimeoutMs = 20000;
  EngineContext E(C, N, Opts);
  auto Ref = makeRefiner(E);
  Trace T(C);
  for (int I = 0; I < 5; ++I)
    T.unfold();
  TermRef Alpha = C.mkNot(N.Bad);
  TermRef Gamma = Ref->refineFull(T, 0, Alpha);
  ASSERT_FALSE(E.Aborted);
  // Root entails alpha \/ Gamma afterwards.
  EXPECT_TRUE(E.implies(T.formula(0), C.mkOr(Alpha, Gamma)));
  // Gamma is non-empty (the system is unsafe at this depth) and every gamma
  // state is genuinely reachable and bad after intersection.
  EXPECT_NE(C.kind(Gamma), Kind::False);
  EXPECT_TRUE(verifyCexPiece(C, N, Gamma, 7));
}

TEST(RefinerTest, RefineSucceedsOnSafeSystem) {
  TermContext C;
  NormalizedChc N = paperExample5(C); // SAT system.
  SolverOptions Opts = *SolverOptions::parse("Yld(T,MBP(1))");
  Opts.TimeoutMs = 20000;
  EngineContext E(C, N, Opts);
  auto Ref = makeRefiner(E);
  Trace T(C);
  for (int I = 0; I < 3; ++I)
    T.unfold();
  TermRef Alpha = C.mkNot(N.Bad);
  std::optional<TermRef> Piece = Ref->refine(T, 0, Alpha);
  ASSERT_FALSE(E.Aborted);
  EXPECT_FALSE(Piece.has_value());
  EXPECT_TRUE(E.implies(T.formula(0), Alpha));
  // Trace invariants: iota flows into every level; steps flow up.
  for (int L = 0; L <= T.depth(); ++L)
    EXPECT_TRUE(E.implies(N.Init, T.formula(L)));
  for (int L = 0; L + 1 <= T.depth(); ++L) {
    TermRef Step = C.mkAnd({E.zToX(T.formula(L + 1)),
                            E.zToY(T.formula(L + 1)), N.Trans});
    EXPECT_TRUE(E.implies(Step, T.formula(L)));
  }
}

TEST(SolverTest, McCarthy91IsSat) {
  TermContext C;
  NormalizedChc N = mcCarthy91(C);
  SolverOptions Opts = *SolverOptions::parse("Ret(T,MBP(1))");
  Opts.TimeoutMs = 30000;
  Opts.VerifyResult = true;
  SolverResult R = ChcSolver(C, N, Opts).solve();
  EXPECT_EQ(R.Status, ChcStatus::Sat);
}

TEST(SolverTest, InvariantIsActuallyInductive) {
  TermContext C;
  NormalizedChc N = paperExample10(C, 5);
  SolverOptions Opts = *SolverOptions::parse("Ret(T,MBP(1))");
  Opts.TimeoutMs = 20000;
  SolverResult R = ChcSolver(C, N, Opts).solve();
  ASSERT_EQ(R.Status, ChcStatus::Sat);
  EXPECT_TRUE(verifyInvariant(C, N, R.Invariant));
}

TEST(SolverTest, StatsArePopulated) {
  TermContext C;
  NormalizedChc N = paperExample5(C);
  SolverOptions Opts = *SolverOptions::parse("Ret(T,MBP(1))");
  Opts.TimeoutMs = 20000;
  SolverResult R = ChcSolver(C, N, Opts).solve();
  EXPECT_GT(R.Stats.SmtChecks, 0u);
  EXPECT_GT(R.Stats.Unfolds, 0u);
  EXPECT_GT(R.Stats.ItpCalls, 0u);
  EXPECT_GT(R.Seconds, 0.0);
}

TEST(SolverTest, MaxDepthGivesUnknown) {
  TermContext C;
  // counter_unsafe needs depth ~4; cap below that.
  std::vector<BenchInstance> Suite = buildSmallSuite();
  NormalizedChc N = Suite[1].Build(C);
  SolverOptions Opts = *SolverOptions::parse("Ret(T,MBP(1))");
  Opts.MaxDepth = 2;
  SolverResult R = ChcSolver(C, N, Opts).solve();
  EXPECT_EQ(R.Status, ChcStatus::Unknown);
}
