//===- tests/RuntimeTest.cpp - Parallel runtime tests ---------------------===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Covers the runtime subsystem: cancellation-token hierarchy, thread-pool
// completion guarantees, scheduler determinism across worker counts,
// cancellation latency of a diverging engine, and portfolio races.
//
//===----------------------------------------------------------------------===//

#include "bench_suite/Suite.h"
#include "runtime/Cancel.h"
#include "runtime/Portfolio.h"
#include "runtime/Scheduler.h"
#include "runtime/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

using namespace mucyc;

namespace {

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

SolveRequest job(std::function<NormalizedChc(TermContext &)> Build,
                 const SolverOptions &Opts, uint64_t DeadlineMs) {
  SolveRequest R = SolveRequest::fromBuilder(std::move(Build), Opts);
  R.DeadlineMs = DeadlineMs;
  return R;
}

} // namespace

//===----------------------------------------------------------------------===//
// CancelToken
//===----------------------------------------------------------------------===//

TEST(CancelTokenTest, RequestPropagatesToDescendants) {
  auto Root = CancelToken::create();
  auto Child = Root->child();
  auto Grandchild = Child->child();
  EXPECT_FALSE(Root->cancelled());
  EXPECT_FALSE(Grandchild->cancelled());

  Root->request();
  EXPECT_TRUE(Root->cancelled());
  EXPECT_TRUE(Child->cancelled());
  EXPECT_TRUE(Grandchild->cancelled());
  // The raw flag observed by the compute layers agrees with the token.
  EXPECT_TRUE(Grandchild->flag()->load());
}

TEST(CancelTokenTest, ChildCancellationDoesNotPropagateUp) {
  auto Root = CancelToken::create();
  auto A = Root->child();
  auto B = Root->child();
  A->request();
  EXPECT_TRUE(A->cancelled());
  EXPECT_FALSE(Root->cancelled());
  EXPECT_FALSE(B->cancelled());
}

TEST(CancelTokenTest, ChildOfCancelledTokenIsBornCancelled) {
  auto Root = CancelToken::create();
  Root->request();
  auto Late = Root->child();
  EXPECT_TRUE(Late->cancelled());
}

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

TEST(ThreadPoolTest, RunsEveryPostedJob) {
  std::atomic<int> Count{0};
  {
    ThreadPool Pool(4);
    EXPECT_EQ(Pool.size(), 4u);
    for (int I = 0; I < 100; ++I)
      Pool.post([&Count] { Count.fetch_add(1); });
  } // Destructor finishes the queue before joining.
  EXPECT_EQ(Count.load(), 100);
}

TEST(ThreadPoolTest, DrainWaitsForCompletion) {
  std::atomic<int> Count{0};
  ThreadPool Pool(2);
  for (int I = 0; I < 32; ++I)
    Pool.post([&Count] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      Count.fetch_add(1);
    });
  Pool.drain();
  EXPECT_EQ(Count.load(), 32);
}

//===----------------------------------------------------------------------===//
// Scheduler
//===----------------------------------------------------------------------===//

TEST(SchedulerTest, ParallelResultsMatchSequential) {
  // The core determinism claim behind `--jobs N`: every job solves in a
  // private TermContext, and outcomes land in submission-order slots, so
  // one worker and eight workers must produce the identical sequence.
  //
  // Completed runs are bit-for-bit deterministic; a job that hits its
  // wall-clock deadline is not (its partial progress depends on how much
  // CPU it got). So the comparison batch is self-calibrated: a sequential
  // pre-pass selects instances that finish definitively and fast on this
  // machine, and the deadline is set far above the oversubscribed
  // worst case so the parallel pass completes them too.
  std::vector<BenchInstance> Suite = buildSmallSuite();
  const char *Configs[] = {"Ret(T,MBP(1))", "Yld(T,MBP(1))"};

  std::vector<BenchInstance> Fast;
  for (const BenchInstance &B : Suite) {
    bool AllFast = true;
    for (const char *Cfg : Configs) {
      auto Opts = SolverOptions::parse(Cfg);
      ASSERT_TRUE(Opts.has_value());
      SolveResponse O = Scheduler(1).run({job(B.Build, *Opts, 2000)})[0];
      if (O.Status == ChcStatus::Unknown || O.Seconds > 1.0)
        AllFast = false;
    }
    if (AllFast)
      Fast.push_back(B);
  }
  ASSERT_GE(Fast.size(), 4u) << "small suite unexpectedly slow";

  std::vector<SolveRequest> Batch;
  for (const char *Cfg : Configs) {
    auto Opts = SolverOptions::parse(Cfg);
    ASSERT_TRUE(Opts.has_value());
    for (const BenchInstance &B : Fast)
      Batch.push_back(job(B.Build, *Opts, 300000));
  }

  std::vector<SolveResponse> Seq = Scheduler(1).run(Batch);
  std::vector<SolveResponse> Par = Scheduler(8).run(Batch);
  ASSERT_EQ(Seq.size(), Batch.size());
  ASSERT_EQ(Par.size(), Batch.size());
  for (size_t I = 0; I < Batch.size(); ++I) {
    EXPECT_EQ(Seq[I].Status, Par[I].Status) << "job " << I;
    EXPECT_EQ(Seq[I].Depth, Par[I].Depth) << "job " << I;
    EXPECT_EQ(Seq[I].Stats.SmtChecks, Par[I].Stats.SmtChecks) << "job " << I;
  }
  // The suite has ground truth: parallel answers are also *correct*.
  for (size_t C = 0; C < 2; ++C)
    for (size_t I = 0; I < Fast.size(); ++I)
      EXPECT_EQ(Par[C * Fast.size() + I].Status, Fast[I].Expected)
          << Fast[I].Name;
}

TEST(SchedulerTest, PreCancelledBatchExpiresImmediately) {
  // A cancelled batch still fills every slot, but jobs expire on their
  // first budget check instead of running — even diverging ones.
  auto Tok = CancelToken::create();
  Tok->request();
  std::vector<SolveRequest> Batch;
  auto Opts = SolverOptions::parse("SpacerTS(fig15)");
  ASSERT_TRUE(Opts.has_value());
  for (int I = 0; I < 4; ++I)
    Batch.push_back(
        job([](TermContext &C) { return appendixCSystem(C); }, *Opts, 0));
  auto Start = std::chrono::steady_clock::now();
  std::vector<SolveResponse> Out = Scheduler(2).run(Batch, Tok);
  ASSERT_EQ(Out.size(), 4u);
  for (const SolveResponse &O : Out)
    EXPECT_EQ(O.Status, ChcStatus::Unknown);
  EXPECT_LT(secondsSince(Start), 5.0);
}

TEST(SchedulerTest, CancellationStopsDivergingJobQuickly) {
  // SpacerTS(fig15) on the Appendix C system diverges (that is the paper's
  // point); with no deadline, only cooperative cancellation can stop it.
  // The flag is polled every propagation/pivot round, so the engine must
  // wind down orders of magnitude faster than the 60 s safety net.
  auto Tok = CancelToken::create();
  auto Opts = SolverOptions::parse("SpacerTS(fig15)");
  ASSERT_TRUE(Opts.has_value());
  std::vector<SolveRequest> Batch{
      job([](TermContext &C) { return appendixCSystem(C); }, *Opts, 60000)};

  std::thread Killer([&Tok] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    Tok->request();
  });
  auto Start = std::chrono::steady_clock::now();
  std::vector<SolveResponse> Out = Scheduler(1).run(Batch, Tok);
  double Elapsed = secondsSince(Start);
  Killer.join();

  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(Out[0].Status, ChcStatus::Unknown);
  EXPECT_LT(Elapsed, 10.0); // Far below the 60 s deadline.
}

//===----------------------------------------------------------------------===//
// Portfolio
//===----------------------------------------------------------------------===//

TEST(PortfolioTest, ConfigListParsing) {
  std::vector<std::string> Parts =
      splitConfigList("Ret(T,MBP(1)), Yld(T,MBP(1)),SpacerTS(fig1)");
  ASSERT_EQ(Parts.size(), 3u);
  EXPECT_EQ(Parts[0], "Ret(T,MBP(1))"); // Commas inside parens survive.
  EXPECT_EQ(Parts[1], "Yld(T,MBP(1))");
  EXPECT_EQ(Parts[2], "SpacerTS(fig1)");

  auto Ok = parseConfigList("Ind(Ret(F,MBP(0))),Solve");
  ASSERT_TRUE(Ok.has_value());
  EXPECT_EQ(Ok->size(), 2u);
  EXPECT_FALSE(parseConfigList("Ret(T,MBP(1)),Bogus").has_value());
  EXPECT_FALSE(parseConfigList("").has_value());
}

TEST(PortfolioTest, RaceAgreesWithGroundTruth) {
  // Example 4 is UNSAT, Example 5 SAT; a mixed-engine race must return the
  // ground truth whichever member gets there first. Verification is on, so
  // the race only ever commits to checked answers.
  auto Configs =
      parseConfigList("Ret(T,MBP(1)),Yld(T,MBP(1)),SpacerTS(fig1)");
  ASSERT_TRUE(Configs.has_value());
  for (SolverOptions &O : *Configs)
    O.VerifyResult = true;

  PortfolioResult Unsat = racePortfolio(
      job([](TermContext &C) { return paperExample4(C); }, SolverOptions(),
          20000),
      *Configs, /*Jobs=*/2);
  ASSERT_NE(Unsat.winner(), nullptr);
  EXPECT_EQ(Unsat.winner()->Status, ChcStatus::Unsat);
  EXPECT_EQ(Unsat.Members[Unsat.WinnerIndex].Config,
            (*Configs)[Unsat.WinnerIndex].name());
  ASSERT_NE(Unsat.winner()->Ctx, nullptr);

  PortfolioResult Sat = racePortfolio(
      job([](TermContext &C) { return paperExample5(C); }, SolverOptions(),
          20000),
      *Configs, /*Jobs=*/2);
  ASSERT_NE(Sat.winner(), nullptr);
  EXPECT_EQ(Sat.winner()->Status, ChcStatus::Sat);
  // The winning invariant lives in the winner's context and is usable
  // after the race ends; the losers' contexts are released.
  ASSERT_NE(Sat.winner()->Ctx, nullptr);
  EXPECT_FALSE(Sat.winner()->Ctx->toString(Sat.winner()->Invariant).empty());
  for (size_t I = 0; I < Sat.Members.size(); ++I) {
    if (static_cast<int>(I) != Sat.WinnerIndex) {
      EXPECT_EQ(Sat.Members[I].Resp.Ctx, nullptr) << I;
    }
  }
  // Merged stats cover every member, so they dominate the winner's own.
  EXPECT_GE(Sat.MergedStats.SmtChecks, Sat.winner()->Stats.SmtChecks);
}

TEST(PortfolioTest, WinnerCancelsDivergingLoser) {
  // Race a diverging member (SpacerTS(fig15) on Appendix C — no deadline,
  // so only cancellation can stop it) against a member that solves the
  // system. The race must end shortly after the winner commits, with the
  // loser reporting Unknown + Cancelled.
  auto Configs = parseConfigList("SpacerTS(fig15),Ind(Yld(T,MBP(1)))");
  ASSERT_TRUE(Configs.has_value());

  auto Start = std::chrono::steady_clock::now();
  PortfolioResult R = racePortfolio(
      job([](TermContext &C) { return appendixCSystem(C); }, SolverOptions(),
          /*DeadlineMs=*/0),
      *Configs, /*Jobs=*/2);
  double Elapsed = secondsSince(Start);

  ASSERT_NE(R.winner(), nullptr);
  EXPECT_EQ(R.winner()->Status, ChcStatus::Unsat);
  EXPECT_EQ(R.WinnerIndex, 1);
  EXPECT_EQ(R.Members[0].Resp.Status, ChcStatus::Unknown);
  EXPECT_TRUE(R.Members[0].Cancelled);
  EXPECT_FALSE(R.Members[1].Cancelled);
  EXPECT_LT(Elapsed, 30.0); // Divergence is cut short, not ridden out.
}
