//===- tests/WorkerTest.cpp - Forked worker-process tier tests ------------===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Covers the crash-isolation tier: clean isolated solves matching inline
// verdicts, the x-crash test directives (segfault, abort, plain exit,
// wedge, CPU burn, allocation bomb) each classifying into the right
// WorkerCrashed* breadcrumb, the retry ladder recovering from a crashed
// worker with a degraded retry and climbing the same rungs inline and
// forked, cancellation reaching a forked worker, and the worker wire
// protocol (encode/decode round trip, in-process child serve).
//
//===----------------------------------------------------------------------===//

#include "runtime/Worker.h"

#include "bench_suite/Suite.h"
#include "chc/Export.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <thread>

using namespace mucyc;

namespace {

const char *CounterSat = R"((set-logic HORN)
(declare-fun Inv (Int) Bool)
(assert (forall ((x Int)) (=> (= x 0) (Inv x))))
(assert (forall ((x Int) (y Int))
  (=> (and (Inv x) (< x 5) (= y (+ x 1))) (Inv y))))
(assert (forall ((x Int)) (=> (and (Inv x) (> x 100)) false)))
(check-sat)
)";

const char *CounterUnsat = R"((set-logic HORN)
(declare-fun Inv (Int) Bool)
(assert (forall ((x Int)) (=> (= x 0) (Inv x))))
(assert (forall ((x Int) (y Int))
  (=> (and (Inv x) (= y (+ x 1))) (Inv y))))
(assert (forall ((x Int)) (=> (and (Inv x) (> x 2)) false)))
(check-sat)
)";

SolveRequest isolatedRequest(const char *Text, IsolateMode Mode) {
  SolveRequest Req = SolveRequest::fromText(Text, SolverOptions());
  Req.Opts.Isolate = Mode;
  Req.Opts.MaxRetries = 0;
  // Bound every engine run so a test instance can never hang the suite.
  Req.Opts.MaxRefineSteps = 2000;
  return Req;
}

} // namespace

//===----------------------------------------------------------------------===//
// Clean isolated solves
//===----------------------------------------------------------------------===//

TEST(WorkerTest, CrashIsolatedSolveMatchesInlineVerdict) {
  SolveResponse Inline = solveRequest(isolatedRequest(CounterSat,
                                                      IsolateMode::None));
  SolveResponse Isolated = solveRequest(isolatedRequest(CounterSat,
                                                        IsolateMode::Crash));
  EXPECT_EQ(Inline.Status, ChcStatus::Sat);
  EXPECT_EQ(Isolated.Status, ChcStatus::Sat);
  EXPECT_GE(Isolated.Attempts, 1u);
  EXPECT_FALSE(Isolated.Error.isError());

  SolveResponse Unsat = solveRequest(isolatedRequest(CounterUnsat,
                                                     IsolateMode::Crash));
  EXPECT_EQ(Unsat.Status, ChcStatus::Unsat);
}

TEST(WorkerTest, CrashModeAdmitsWorkerCertificateIntoParentStore) {
  ResultStore Store;
  SolveResponse Cold =
      solveRequest(isolatedRequest(CounterSat, IsolateMode::Crash), &Store, nullptr);
  ASSERT_EQ(Cold.Status, ChcStatus::Sat);
  ASSERT_FALSE(Cold.Fingerprint.empty());
  // The parent re-verified the child's certificate text and admitted it.
  EXPECT_GE(Store.counters().Inserts, 1u);
  // A resubmission is served warm without forking anything.
  SolveResponse Warm =
      solveRequest(isolatedRequest(CounterSat, IsolateMode::Crash), &Store, nullptr);
  EXPECT_EQ(Warm.Status, ChcStatus::Sat);
  EXPECT_EQ(Warm.Attempts, 0u);
  EXPECT_EQ(Warm.Cache, CacheSource::Memory);
}

//===----------------------------------------------------------------------===//
// Crash classification
//===----------------------------------------------------------------------===//

TEST(WorkerTest, SegfaultingWorkerYieldsTypedUnknown) {
  SolveRequest Req = isolatedRequest(CounterSat, IsolateMode::Crash);
  Req.TestCrash = "segv";
  SolveResponse R = solveRequest(Req);
  EXPECT_EQ(R.Status, ChcStatus::Unknown);
  EXPECT_EQ(R.Error.Code, ErrorCode::WorkerCrashedSignal);
  // The signal itself, also under a sanitizer runtime with its own SIGSEGV
  // handler (the directive restores the default disposition first).
  EXPECT_NE(R.Error.Detail.find("killed by signal " + std::to_string(SIGSEGV)),
            std::string::npos)
      << R.Error.Detail;
}

TEST(WorkerTest, AbortingAndExitingWorkersAreClassified) {
  SolveRequest Req = isolatedRequest(CounterSat, IsolateMode::Crash);
  Req.TestCrash = "abort";
  EXPECT_EQ(solveRequest(Req).Error.Code, ErrorCode::WorkerCrashedSignal);

  Req.TestCrash = "exit3";
  SolveResponse R = solveRequest(Req);
  EXPECT_EQ(R.Error.Code, ErrorCode::WorkerCrashedSignal);
  EXPECT_NE(R.Error.Detail.find("exit status 3"), std::string::npos);
}

TEST(WorkerTest, CrashLadderRecoversWithADegradedRetry) {
  // The directive fires on the first worker attempt only; with one retry
  // in the budget the respawned (degraded) worker answers clean.
  SolveRequest Req = isolatedRequest(CounterSat, IsolateMode::Crash);
  Req.TestCrash = "segv";
  Req.Opts.MaxRetries = 1;
  SolveResponse R = solveRequest(Req);
  EXPECT_EQ(R.Status, ChcStatus::Sat);
  EXPECT_GE(R.Attempts, 2u);
  EXPECT_GE(R.Stats.Degradations, 1u);
  EXPECT_GE(R.Stats.Retries, 1u);
}

TEST(WorkerTest, OneLadderClimbsTheSameRungsInlineAndForked) {
  // The Solve baseline diverges on Example 5 and trips the 1 MiB budget at
  // rungs 1 and 2; rung 3 switches to Ret, which proves it safe. Forked,
  // the first worker also segfaults before solving: the ladder must still
  // climb to the engine switch, exactly as it does inline (where the crash
  // directive is inert).
  TermContext C;
  std::string Text = exportSmtLib(C, paperExample5(C));
  for (IsolateMode Mode : {IsolateMode::None, IsolateMode::Crash}) {
    auto Opts = SolverOptions::parse("Solve");
    ASSERT_TRUE(Opts.has_value());
    Opts->MemLimitMb = 1;
    Opts->MaxRetries = 2;
    Opts->Isolate = Mode;
    SolveRequest Req = SolveRequest::fromText(Text, *Opts);
    Req.TestCrash = "segv";
    Req.DeadlineMs = 60000; // Safety net only.
    SolveResponse R = solveRequest(Req);
    const char *Name = isolateModeName(Mode);
    EXPECT_EQ(R.Status, ChcStatus::Sat) << Name << ": " << R.Error.describe();
    EXPECT_EQ(R.Attempts, 3u) << Name;
    EXPECT_EQ(R.Stats.Retries, 2u) << Name;
    EXPECT_EQ(R.Stats.Degradations, 2u) << Name;
  }
}

TEST(WorkerTest, WedgedWorkerIsKilledByTheWatchdog) {
  // "spin" never replies and never burns CPU, so only the deadline
  // watchdog can reap it.
  SolveRequest Req = isolatedRequest(CounterSat, IsolateMode::Crash);
  Req.TestCrash = "spin";
  Req.DeadlineMs = 200;
  SolveResponse R = solveRequest(Req);
  EXPECT_EQ(R.Status, ChcStatus::Unknown);
  EXPECT_EQ(R.Error.Code, ErrorCode::WorkerCrashedWedged);
}

TEST(WorkerTest, CpuBurnTripsHardRlimit) {
  SolveRequest Req = isolatedRequest(CounterSat, IsolateMode::Crash);
  Req.TestCrash = "burn";
  Req.Opts.HardCpuSec = 1;
  SolveResponse R = solveRequest(Req);
  EXPECT_EQ(R.Status, ChcStatus::Unknown);
  EXPECT_EQ(R.Error.Code, ErrorCode::WorkerCrashedRlimit);
}

TEST(WorkerTest, AllocationBombTripsMemRlimit) {
  SolveRequest Req = isolatedRequest(CounterSat, IsolateMode::Crash);
  Req.TestCrash = "oom";
  Req.Opts.HardMemMb = 128;
  SolveResponse R = solveRequest(Req);
  EXPECT_EQ(R.Status, ChcStatus::Unknown);
  EXPECT_EQ(R.Error.Code, ErrorCode::WorkerCrashedRlimit);
}

TEST(WorkerTest, CancellationReachesAForkedWorker) {
  std::atomic<bool> Cancel{false};
  std::thread Later([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    Cancel.store(true, std::memory_order_relaxed);
  });
  SolveRequest Req = isolatedRequest(CounterSat, IsolateMode::Crash);
  Req.TestCrash = "spin"; // Would wedge forever without the cancel.
  SolveResponse R = solveRequest(Req, nullptr, &Cancel);
  Later.join();
  EXPECT_EQ(R.Status, ChcStatus::Unknown);
  EXPECT_EQ(R.Error.Code, ErrorCode::Cancelled);
}

//===----------------------------------------------------------------------===//
// Worker wire protocol
//===----------------------------------------------------------------------===//

TEST(WorkerTest, RequestEncodingRoundTripsThroughChildServe) {
  SolveRequest Req = SolveRequest::fromText(CounterSat, SolverOptions());
  Req.Opts.MaxRefineSteps = 2000;
  Req.WantSolution = true;
  WireMessage M = encodeWorkerRequest(Req, /*TestCrash=*/"");
  EXPECT_EQ(M.Verb, "work");
  EXPECT_EQ(M.Body, CounterSat);

  // Drive the child entry point in-process: a complete "done" reply with a
  // serialized certificate the parent could re-verify.
  std::string Reply = workerChildServe(formatWireMessage(M));
  WireMessage R;
  std::string Err;
  ASSERT_TRUE(parseWireMessage(Reply, R, &Err)) << Err;
  EXPECT_EQ(R.Verb, "done");
  EXPECT_EQ(R.header("status"), "sat");
  EXPECT_FALSE(R.header("cert").empty());
  EXPECT_FALSE(R.header("zsorts").empty());
  EXPECT_FALSE(R.header("config").empty());
  EXPECT_NE(R.Body.find("(define-fun Inv "), std::string::npos) << R.Body;
}

TEST(WorkerTest, CrashDirectiveIsInertOutsideAForkedChild) {
  // x-crash must only fire inside a real worker child; an in-process test
  // of the child entry point survives it and solves normally.
  ASSERT_FALSE(inWorkerChild());
  SolveRequest Req = SolveRequest::fromText(CounterSat, SolverOptions());
  Req.Opts.MaxRefineSteps = 2000;
  WireMessage M = encodeWorkerRequest(Req, /*TestCrash=*/"segv");
  std::string Reply = workerChildServe(formatWireMessage(M));
  WireMessage R;
  ASSERT_TRUE(parseWireMessage(Reply, R, nullptr));
  EXPECT_EQ(R.header("status"), "sat");
}

TEST(WorkerTest, MalformedWorkFrameIsATypedInputError) {
  std::string Reply = workerChildServe("not a frame payload");
  WireMessage R;
  ASSERT_TRUE(parseWireMessage(Reply, R, nullptr));
  EXPECT_EQ(R.Verb, "done");
  EXPECT_EQ(R.header("status"), "unknown");
  EXPECT_EQ(R.header("error-code"), "input-error");
}
