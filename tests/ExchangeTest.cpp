//===- tests/ExchangeTest.cpp - Cooperative lemma exchange ----------------===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cooperative-portfolio lemma exchange, bottom to top: the bus's
/// dedup/self-filter/cursor semantics, publish with core-minimization,
/// import admission across two independent TermContexts (the serialized
/// wire format is the only thing that crosses), rejection of malformed and
/// unsound peer lemmas, both admission regimes (frame-relative placement
/// with deepest fallback, and Mon-style self-inductive conjoining), the
/// deletion-based minimizeCore contract, a concurrent publish/fetch stress
/// (the test the thread sanitizer leg watches), and a cooperative race
/// end to end.
///
//===----------------------------------------------------------------------===//

#include "bench_suite/Suite.h"
#include "chc/Export.h"
#include "runtime/Exchange.h"
#include "runtime/Portfolio.h"
#include "solver/Share.h"

#include <gtest/gtest.h>

#include <thread>

using namespace mucyc;

namespace {

/// A counter system in normal form: z starts at 0, steps by one, and the
/// bad states are unreachable — small enough that every admission query in
/// these tests is decided instantly.
///
///   iota: z == 0,  tau: z == x + 1,  beta: z < 0.
NormalizedChc counterSystem(TermContext &C) {
  TermRef X = C.mkFreshVar("ex!x", Sort::Int);
  TermRef Y = C.mkFreshVar("ex!y", Sort::Int);
  TermRef Z = C.mkFreshVar("ex!z", Sort::Int);
  return makeNormalized(
      C, {C.node(X).Var}, {C.node(Y).Var}, {C.node(Z).Var},
      C.mkEq(Z, C.mkIntConst(0)), C.mkEq(Z, C.mkAdd(X, C.mkIntConst(1))),
      C.mkLt(Z, C.mkIntConst(0)));
}

TermRef zTerm(TermContext &C, const NormalizedChc &N) {
  return C.varTerm(N.Z[0]);
}

/// An engine context wired to \p Port with sharing on.
SolverOptions shareOpts(LemmaChannel *Port) {
  SolverOptions O;
  O.ShareLemmas = true;
  O.Share = Port;
  return O;
}

//===----------------------------------------------------------------------===
// The bus
//===----------------------------------------------------------------------===

TEST(ExchangeTest, BusDedupSelfFilterCursor) {
  LemmaExchange X(3);
  ASSERT_EQ(X.members(), 3u);

  X.port(0)->publish(1, "alpha");
  X.port(0)->publish(1, "alpha"); // Dedup: logged once, bus-wide.
  X.port(1)->publish(2, "beta");
  X.port(2)->publish(0, "alpha"); // Dedup even across members.
  EXPECT_EQ(X.size(), 2u);

  // A member never re-imports its own lemmas.
  std::vector<SharedLemma> Got;
  uint64_t Cur = X.port(0)->fetch(0, 100, Got);
  ASSERT_EQ(Got.size(), 1u);
  EXPECT_EQ(Got[0].Text, "beta");
  EXPECT_EQ(Got[0].Level, 2);

  // The cursor is monotone: re-fetching from the advanced cursor is empty,
  // from zero replays the log (a retried member re-reads everything).
  Got.clear();
  EXPECT_EQ(X.port(0)->fetch(Cur, 100, Got), Cur);
  EXPECT_TRUE(Got.empty());
  Got.clear();
  X.port(2)->fetch(0, 100, Got);
  ASSERT_EQ(Got.size(), 2u); // alpha (from 0) and beta (from 1).

  // Max caps one fetch; the advanced cursor resumes past what was taken.
  Got.clear();
  uint64_t Mid = X.port(2)->fetch(0, 1, Got);
  ASSERT_EQ(Got.size(), 1u);
  Got.clear();
  X.port(2)->fetch(Mid, 1, Got);
  ASSERT_EQ(Got.size(), 1u);
  EXPECT_EQ(Got[0].Text, "beta");
}

//===----------------------------------------------------------------------===
// Publish
//===----------------------------------------------------------------------===

TEST(ExchangeTest, PublishCoreMinimizesDisjuncts) {
  TermContext C;
  NormalizedChc N = counterSystem(C);
  LemmaExchange X(2);
  EngineContext E(C, N, shareOpts(X.port(0)));
  TermRef Z = zTerm(C, N);

  // iota => (z >= 0 \/ z == 7) is valid, but the second disjunct carries no
  // weight: the minimized publication must be z >= 0 alone.
  TermRef Strong = C.mkGe(Z, C.mkIntConst(0));
  TermRef Weak = C.mkEq(Z, C.mkIntConst(7));
  sharePublishLemma(E, 1, N.Init, C.mkOr(Strong, Weak));

  EXPECT_EQ(E.Stats.LemmasPublished, 1u);
  EXPECT_EQ(E.Stats.CoreShrink, 1u);
  EXPECT_GT(E.Stats.SmtChecks, 0u); // Minimization probes are accounted.

  std::vector<SharedLemma> Got;
  X.port(1)->fetch(0, 10, Got);
  ASSERT_EQ(Got.size(), 1u);
  EXPECT_EQ(Got[0].Level, 1);
  EXPECT_EQ(Got[0].Text, serializeZFormula(C, N, Strong));

  // Re-publishing the same lemma term is a no-op (per-run dedup).
  sharePublishLemma(E, 1, N.Init, C.mkOr(Strong, Weak));
  EXPECT_EQ(E.Stats.LemmasPublished, 1u);
  EXPECT_EQ(X.size(), 1u);
}

TEST(ExchangeTest, PublishIsNoOpWhenSharingOff) {
  TermContext C;
  NormalizedChc N = counterSystem(C);
  EngineContext E(C, N, SolverOptions());
  sharePublishLemma(E, 0, N.Init, C.mkGe(zTerm(C, N), C.mkIntConst(0)));
  EXPECT_EQ(E.Stats.LemmasPublished, 0u);
  EXPECT_EQ(E.Stats.SmtChecks, 0u);
}

//===----------------------------------------------------------------------===
// Import
//===----------------------------------------------------------------------===

TEST(ExchangeTest, RoundTripAcrossContextsAdmitsAtTargetLevel) {
  // Publisher and importer build the counter system in PRIVATE contexts:
  // only the alpha-canonical wire text crosses between them.
  TermContext CP, CI;
  NormalizedChc NP = counterSystem(CP), NI = counterSystem(CI);
  LemmaExchange X(2);
  EngineContext EP(CP, NP, shareOpts(X.port(0)));
  EngineContext EI(CI, NI, shareOpts(X.port(1)));

  TermRef L = CP.mkGe(zTerm(CP, NP), CP.mkIntConst(0));
  sharePublishLemma(EP, 1, NP.Init, L);
  ASSERT_EQ(X.size(), 1u);

  // The importer's frames already hold z >= 0 at every level, so the
  // justification (b) at the target level succeeds and the lemma lands at
  // its hinted level 1, not the deepest.
  TermRef LI = CI.mkGe(zTerm(CI, NI), CI.mkIntConst(0));
  std::vector<std::pair<int, TermRef>> Added;
  shareImportRound(
      EI, ShareImportMode::FrameRelative, /*Depth=*/2,
      [&](int) { return LI; },
      [&](int K, TermRef T) { Added.push_back({K, T}); });

  ASSERT_EQ(Added.size(), 1u);
  EXPECT_EQ(Added[0].first, 1);
  EXPECT_EQ(Added[0].second, LI); // Hash-consed: the same term in CI.
  EXPECT_EQ(EI.Stats.LemmasImported, 1u);
  EXPECT_EQ(EI.Stats.LemmasRejected, 0u);

  // A second round sees nothing new: the cursor advanced past the entry.
  shareImportRound(
      EI, ShareImportMode::FrameRelative, 2, [&](int) { return LI; },
      [&](int K, TermRef T) { Added.push_back({K, T}); });
  EXPECT_EQ(Added.size(), 1u);
}

TEST(ExchangeTest, WeakFramesFallBackToDeepestLevel) {
  TermContext CP, CI;
  NormalizedChc NP = counterSystem(CP), NI = counterSystem(CI);
  LemmaExchange X(2);
  EngineContext EP(CP, NP, shareOpts(X.port(0)));
  EngineContext EI(CI, NI, shareOpts(X.port(1)));

  sharePublishLemma(EP, 0, NP.Init,
                    CP.mkGe(zTerm(CP, NP), CP.mkIntConst(0)));

  // With trivial (True) frames the level-0 justification (b) fails — tau
  // alone does not imply z >= 0 — but (a) iota => L still holds, so the
  // lemma is admitted at the deepest level, which answers only to iota.
  std::vector<std::pair<int, TermRef>> Added;
  shareImportRound(
      EI, ShareImportMode::FrameRelative, /*Depth=*/2,
      [&](int) { return CI.mkTrue(); },
      [&](int K, TermRef T) { Added.push_back({K, T}); });

  ASSERT_EQ(Added.size(), 1u);
  EXPECT_EQ(Added[0].first, 2);
  EXPECT_EQ(EI.Stats.LemmasImported, 1u);
}

TEST(ExchangeTest, ImporterRejectsUnsoundAndMalformedLemmas) {
  TermContext CP, CI;
  NormalizedChc NP = counterSystem(CP), NI = counterSystem(CI);
  LemmaExchange X(2);
  EngineContext EI(CI, NI, shareOpts(X.port(1)));

  // A buggy (or lying) peer: one entry is not even well-formed, one is a
  // formula iota refutes (z == 0 does not give z >= 1). Neither may reach
  // the importer's frames, whatever level the publisher claimed.
  X.port(0)->publish(0, "(this is not a z-formula");
  X.port(0)->publish(0, serializeZFormula(
                            CP, NP, CP.mkGe(zTerm(CP, NP), CP.mkIntConst(1))));

  unsigned Adds = 0;
  shareImportRound(
      EI, ShareImportMode::FrameRelative, /*Depth=*/1,
      [&](int) { return CI.mkTrue(); }, [&](int, TermRef) { ++Adds; });

  EXPECT_EQ(Adds, 0u);
  EXPECT_EQ(EI.Stats.LemmasImported, 0u);
  EXPECT_EQ(EI.Stats.LemmasRejected, 2u);
}

TEST(ExchangeTest, InductiveModeAdmitsOnlySelfInductiveLemmas) {
  TermContext CP, CI;
  NormalizedChc NP = counterSystem(CP), NI = counterSystem(CI);
  LemmaExchange X(2);
  EngineContext EP(CP, NP, shareOpts(X.port(0)));
  EngineContext EI(CI, NI, shareOpts(X.port(1)));

  TermRef ZP = zTerm(CP, NP);
  // z >= 0 is inductive for z' = z + 1; z <= 5 holds initially but is not
  // (z == 5 steps to 6). Mon traces may only conjoin the former.
  sharePublishLemma(EP, 0, NP.Init, CP.mkGe(ZP, CP.mkIntConst(0)));
  sharePublishLemma(EP, 0, NP.Init, CP.mkLe(ZP, CP.mkIntConst(5)));
  ASSERT_EQ(X.size(), 2u);

  std::vector<std::pair<int, TermRef>> Added;
  shareImportRound(
      EI, ShareImportMode::Inductive, /*Depth=*/3,
      [&](int) { return CI.mkTrue(); },
      [&](int K, TermRef T) { Added.push_back({K, T}); });

  ASSERT_EQ(Added.size(), 1u);
  EXPECT_EQ(Added[0].first, 0); // Conjoined everywhere, flagged by level 0.
  EXPECT_EQ(Added[0].second, CI.mkGe(zTerm(CI, NI), CI.mkIntConst(0)));
  EXPECT_EQ(EI.Stats.LemmasImported, 1u);
  EXPECT_EQ(EI.Stats.LemmasRejected, 1u);
}

//===----------------------------------------------------------------------===
// minimizeCore
//===----------------------------------------------------------------------===

TEST(ExchangeTest, MinimizeCoreReturnsUnsatSubset) {
  TermContext C;
  NormalizedChc N = counterSystem(C);
  EngineContext E(C, N, SolverOptions());
  TermRef V = C.mkFreshVar("mc!x", Sort::Int);
  SmtSolver S(C);
  S.assertFormula(C.mkGe(V, C.mkIntConst(10)));

  // {x < 0, x < 5, x < 100}: each of the first two alone contradicts the
  // assertion; the third does not. A minimal core is a single literal.
  std::vector<TermRef> As = {C.mkLt(V, C.mkIntConst(0)),
                             C.mkLt(V, C.mkIntConst(5)),
                             C.mkLt(V, C.mkIntConst(100))};
  unsigned Probes = 0;
  uint64_t Before = E.Stats.SmtChecks;
  std::vector<TermRef> Core = S.minimizeCore(As, &Probes);
  ASSERT_EQ(Core.size(), 1u);
  EXPECT_GT(Probes, 0u);
  // Every probe is one check of the attempt, counted by the gateway.
  EXPECT_EQ(E.Stats.SmtChecks - Before, Probes);
  // Subset of the assumptions, and still unsat against the assertions.
  EXPECT_TRUE(Core[0] == As[0] || Core[0] == As[1]);
  SmtSolver S2(C);
  S2.assertFormula(C.mkGe(V, C.mkIntConst(10)));
  S2.assertFormula(Core[0]);
  EXPECT_EQ(S2.check(), SmtStatus::Unsat);
}

//===----------------------------------------------------------------------===
// Concurrency (the thread-sanitizer leg drives this test)
//===----------------------------------------------------------------------===

TEST(ExchangeTest, ConcurrentPublishFetchStress) {
  constexpr size_t Members = 4;
  constexpr size_t PerMember = 200;
  LemmaExchange X(Members);

  // Every member hammers publish and fetch simultaneously; distinct texts
  // per member, so dedup never merges across writers and the final counts
  // are exact. Interleaved fetches must only ever see other members'
  // entries and never an entry twice through one cursor.
  std::vector<size_t> Fetched(Members, 0);
  std::vector<uint64_t> Curs(Members, 0);
  std::vector<std::thread> Ts;
  for (size_t M = 0; M < Members; ++M)
    Ts.emplace_back([&, M] {
      std::vector<SharedLemma> Got;
      for (size_t I = 0; I < PerMember; ++I) {
        X.port(M)->publish(static_cast<int>(I),
                           "m" + std::to_string(M) + "#" + std::to_string(I));
        Got.clear();
        Curs[M] = X.port(M)->fetch(Curs[M], 8, Got);
        for (const SharedLemma &SL : Got) {
          EXPECT_NE(SL.Text.rfind("m" + std::to_string(M) + "#", 0), 0u);
          ++Fetched[M];
        }
      }
    });
  for (std::thread &T : Ts)
    T.join();

  EXPECT_EQ(X.size(), Members * PerMember);
  // Drain what each member's cursor had not yet reached when its loop
  // ended (peers keep publishing after a fast member finishes), then the
  // exact count must hold: everything from everyone else, nothing twice.
  for (size_t M = 0; M < Members; ++M) {
    std::vector<SharedLemma> Got;
    Curs[M] = X.port(M)->fetch(Curs[M], Members * PerMember, Got);
    Fetched[M] += Got.size();
    EXPECT_EQ(Fetched[M], (Members - 1) * PerMember) << "member " << M;
  }
}

//===----------------------------------------------------------------------===
// End to end
//===----------------------------------------------------------------------===

TEST(ExchangeTest, CooperativeRaceAgreesWithGroundTruth) {
  // A full cooperative race through the runtime: verified answers only, and
  // sharing must not disturb the ground truth in either direction.
  auto Configs =
      parseConfigList("Ret(T,MBP(1)),Yld(T,MBP(1)),SpacerTS(fig1)");
  ASSERT_TRUE(Configs.has_value());
  for (SolverOptions &O : *Configs) {
    O.VerifyResult = true;
    O.ShareLemmas = true;
  }

  auto Race = [&](NormalizedChc (*Build)(TermContext &)) {
    SolveRequest Base = SolveRequest::fromBuilder(Build, SolverOptions());
    Base.DeadlineMs = 20000;
    return racePortfolio(Base, *Configs, /*Jobs=*/2);
  };
  PortfolioResult Sat = Race(paperExample5);
  ASSERT_NE(Sat.winner(), nullptr);
  EXPECT_EQ(Sat.winner()->Status, ChcStatus::Sat);

  PortfolioResult Unsat = Race(paperExample4);
  ASSERT_NE(Unsat.winner(), nullptr);
  EXPECT_EQ(Unsat.winner()->Status, ChcStatus::Unsat);

  // Imports never exceed what reached the bus times the reader count, and
  // the merged counters surface in the race result.
  EXPECT_LE(Sat.MergedStats.LemmasImported,
            Sat.SharedLemmas * (Configs->size() - 1));
  EXPECT_LE(Unsat.MergedStats.LemmasImported,
            Unsat.SharedLemmas * (Configs->size() - 1));
}

} // namespace
