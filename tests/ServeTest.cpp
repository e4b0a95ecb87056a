//===- tests/ServeTest.cpp - Solving service protocol tests ---------------===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Covers the serve layer: the wire codec (message format, length-prefixed
// framing, malformed / truncated / oversized frames), and a ServeDaemon
// driven over socketpairs — solve round trips with cache provenance,
// connections surviving bad frames, concurrent clients, mid-job client
// disconnect cancelling the job, and the daemon surviving a job that
// crashes under fault injection.
//
//===----------------------------------------------------------------------===//

#include "runtime/Serve.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include <csignal>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

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

const char *CounterSatRenamed = R"((set-logic HORN)
(declare-fun Reach (Int) Bool)
(assert (forall ((a Int)) (=> (= a 0) (Reach a))))
(assert (forall ((a Int) (b Int))
  (=> (and (Reach a) (< a 5) (= b (+ a 1))) (Reach b))))
(assert (forall ((a Int)) (=> (and (Reach a) (> a 100)) false)))
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

/// Paper Example 5 (x' = 2x): sat, but the Solve baseline diverges on it —
/// no finite exact reach set — so with no deadline it runs until cancelled.
const char *DivergesUnderSolve = R"((set-logic HORN)
(declare-fun P (Int) Bool)
(assert (forall ((x Int)) (=> (and (>= x 2) (<= x 8)) (P x))))
(assert (forall ((x Int) (y Int)) (=> (and (P x) (= y (* 2 x))) (P y))))
(assert (forall ((x Int)) (=> (and (P x) (< x (- 5))) false)))
(check-sat)
)";

/// A daemon plus one in-process "connection": the daemon side of a
/// socketpair is served on a background thread, the test drives the client
/// side with framed messages.
struct TestConn {
  int Client = -1;
  int Server = -1;
  std::thread Thread;

  explicit TestConn(ServeDaemon &D) {
    int Sp[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Sp), 0);
    Client = Sp[0];
    Server = Sp[1];
    Thread = std::thread([&D, Fd = Server] {
      D.serveConnection(Fd, Fd);
      // Mirror runSocket: when the daemon is done with a connection the
      // peer sees EOF (the slow-loris test waits on exactly that).
      ::shutdown(Fd, SHUT_RDWR);
    });
  }
  ~TestConn() { closeAndJoin(); }

  void closeAndJoin() {
    if (Client >= 0) {
      ::close(Client);
      Client = -1;
    }
    if (Thread.joinable())
      Thread.join();
    if (Server >= 0) {
      ::close(Server);
      Server = -1;
    }
  }

  /// One framed round trip; EXPECTs a well-formed reply.
  WireMessage roundTrip(const WireMessage &M) {
    EXPECT_TRUE(writeFrame(Client, formatWireMessage(M)));
    std::string Payload;
    EXPECT_EQ(readFrame(Client, Payload, 1u << 24), FrameStatus::Ok);
    WireMessage R;
    std::string Err;
    EXPECT_TRUE(parseWireMessage(Payload, R, &Err)) << Err;
    return R;
  }

  WireMessage solve(const char *Text,
                    std::map<std::string, std::string> Headers = {}) {
    WireMessage M;
    M.Verb = "solve";
    M.Headers = std::move(Headers);
    // Bound every engine run so a test instance can never hang the suite;
    // the budget is far above what these tiny systems need.
    M.Headers.emplace("max-refine-steps", "2000");
    M.Body = Text;
    return roundTrip(M);
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Wire codec
//===----------------------------------------------------------------------===//

TEST(WireCodecTest, FormatParseRoundTrip) {
  WireMessage M;
  M.Verb = "solve";
  M.Headers["config"] = "Yld(T,MBP(2))";
  M.Headers["deadline-ms"] = "1500";
  M.Body = "(set-logic HORN)\nbody with\nnewlines\n";
  WireMessage R;
  std::string Err;
  ASSERT_TRUE(parseWireMessage(formatWireMessage(M), R, &Err)) << Err;
  EXPECT_EQ(R.Verb, M.Verb);
  EXPECT_EQ(R.Headers, M.Headers);
  EXPECT_EQ(R.Body, M.Body);
  EXPECT_EQ(R.header("config"), "Yld(T,MBP(2))");
  EXPECT_EQ(R.header("absent", "dflt"), "dflt");
}

TEST(WireCodecTest, ParseRejectsEmptyAndSkipsJunkHeaders) {
  WireMessage R;
  std::string Err;
  EXPECT_FALSE(parseWireMessage("", R, &Err));
  EXPECT_FALSE(Err.empty());
  // Junk header lines (no ": ") are skipped, not fatal.
  ASSERT_TRUE(parseWireMessage("ping\ngarbage-line\na: b\n\nrest", R, &Err));
  EXPECT_EQ(R.Verb, "ping");
  EXPECT_EQ(R.header("a"), "b");
  EXPECT_EQ(R.Body, "rest");
}

TEST(WireCodecTest, FramesRoundTripOverASocket) {
  int Sp[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Sp), 0);
  std::string Sent(100000, 'x');
  Sent[0] = '\0'; // Binary-safe framing.
  ASSERT_TRUE(writeFrame(Sp[0], Sent));
  std::string Got;
  EXPECT_EQ(readFrame(Sp[1], Got, 1u << 20), FrameStatus::Ok);
  EXPECT_EQ(Got, Sent);
  ::close(Sp[0]);
  EXPECT_EQ(readFrame(Sp[1], Got, 1u << 20), FrameStatus::Eof);
  ::close(Sp[1]);
}

TEST(WireCodecTest, TruncatedFrameIsDetected) {
  int Sp[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Sp), 0);
  // Header promises 100 bytes, the peer dies after 10.
  unsigned char Hdr[4] = {0, 0, 0, 100};
  ASSERT_EQ(::write(Sp[0], Hdr, 4), 4);
  ASSERT_EQ(::write(Sp[0], "0123456789", 10), 10);
  ::close(Sp[0]);
  std::string Got;
  EXPECT_EQ(readFrame(Sp[1], Got, 1u << 20), FrameStatus::Truncated);
  ::close(Sp[1]);
}

TEST(WireCodecTest, OversizedFrameIsDrainedAndRejected) {
  int Sp[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Sp), 0);
  std::string Big(9000, 'y');
  std::thread Writer([&] {
    // The 9 KB payload exceeds the reader's socket buffer slack plus the
    // 1 KB limit; write from a thread so the drain can make progress.
    writeFrame(Sp[0], Big);
    writeFrame(Sp[0], "after");
  });
  std::string Got;
  EXPECT_EQ(readFrame(Sp[1], Got, 1024), FrameStatus::Oversized);
  // The stream is still framed: the next frame reads cleanly.
  EXPECT_EQ(readFrame(Sp[1], Got, 1024), FrameStatus::Ok);
  EXPECT_EQ(Got, "after");
  Writer.join();
  ::close(Sp[0]);
  ::close(Sp[1]);
}

//===----------------------------------------------------------------------===//
// Daemon over socketpairs
//===----------------------------------------------------------------------===//

TEST(ServeDaemonTest, PingStatsAndUnknownVerb) {
  ServeDaemon D(ServeOptions{});
  TestConn C(D);
  EXPECT_EQ(C.roundTrip([] {
             WireMessage M;
             M.Verb = "ping";
             return M;
           }()).Verb,
            "pong");
  WireMessage S = C.roundTrip([] {
    WireMessage M;
    M.Verb = "stats";
    return M;
  }());
  EXPECT_EQ(S.Verb, "stats");
  EXPECT_EQ(S.header("requests"), "0");
  WireMessage Bad;
  Bad.Verb = "frobnicate";
  WireMessage R = C.roundTrip(Bad);
  EXPECT_EQ(R.Verb, "error");
  EXPECT_NE(R.header("detail").find("unknown verb"), std::string::npos);
}

TEST(ServeDaemonTest, SolvesAndServesRenamedResubmissionFromCache) {
  ServeDaemon D(ServeOptions{});
  TestConn C(D);

  WireMessage Cold = C.solve(CounterSat);
  ASSERT_EQ(Cold.Verb, "result");
  EXPECT_EQ(Cold.header("status"), "sat");
  EXPECT_EQ(Cold.header("cache"), "cold");
  ASSERT_EQ(Cold.header("fingerprint").size(), 32u);

  // The acceptance scenario: an alpha-renamed resubmission on a warm daemon
  // is served from the store, Verify-certified, without running an engine.
  WireMessage Warm = C.solve(CounterSatRenamed);
  EXPECT_EQ(Warm.header("status"), "sat");
  EXPECT_EQ(Warm.header("cache"), "mem-hit");
  EXPECT_EQ(Warm.header("verified"), "1");
  EXPECT_EQ(Warm.header("attempts"), "0");
  EXPECT_EQ(Warm.header("fingerprint"), Cold.header("fingerprint"));

  WireMessage Unsat = C.solve(CounterUnsat);
  EXPECT_EQ(Unsat.header("status"), "unsat");

  EXPECT_EQ(D.stats().Requests.load(), 3u);
  EXPECT_EQ(D.stats().CacheHits.load(), 1u);
  EXPECT_EQ(D.stats().Definitive.load(), 3u);
}

TEST(ServeDaemonTest, SolveHeadersDriveOptionsAndErrors) {
  ServeDaemon D(ServeOptions{});
  TestConn C(D);

  WireMessage R = C.solve(CounterSat, {{"config", "NoSuchEngine"}});
  EXPECT_EQ(R.Verb, "error");
  EXPECT_NE(R.header("detail").find("unknown configuration"),
            std::string::npos);

  R = C.solve(CounterSat, {{"config", "Yld(T,MBP(1))"},
                           {"want-solution", "1"},
                           {"tags", "t=1"}});
  EXPECT_EQ(R.header("status"), "sat");
  EXPECT_EQ(R.header("tags"), "t=1");
  EXPECT_NE(R.Body.find("(define-fun Inv "), std::string::npos) << R.Body;

  // A malformed body is a typed input error on the response, not a dead
  // connection — and the daemon keeps serving afterwards.
  R = C.solve("(assert (not-a-horn");
  EXPECT_EQ(R.Verb, "result");
  EXPECT_EQ(R.header("status"), "unknown");
  EXPECT_NE(R.header("error").find("input-error"), std::string::npos);
  EXPECT_EQ(C.solve(CounterSat).header("status"), "sat");
}

TEST(ServeDaemonTest, ConnectionSurvivesBadAndOversizedFrames) {
  ServeOptions SO;
  SO.MaxFrameBytes = 4096;
  ServeDaemon D(SO);
  TestConn C(D);

  // Unparseable payload: error frame, connection stays up.
  ASSERT_TRUE(writeFrame(C.Client, ""));
  std::string Payload;
  ASSERT_EQ(readFrame(C.Client, Payload, 1u << 20), FrameStatus::Ok);
  WireMessage R;
  ASSERT_TRUE(parseWireMessage(Payload, R, nullptr));
  EXPECT_EQ(R.Verb, "error");

  // Oversized frame: drained, rejected, connection stays up.
  std::string Big = "solve\n\n" + std::string(8192, 'z');
  std::thread Writer([&] { writeFrame(C.Client, Big); });
  ASSERT_EQ(readFrame(C.Client, Payload, 1u << 20), FrameStatus::Ok);
  Writer.join();
  ASSERT_TRUE(parseWireMessage(Payload, R, nullptr));
  EXPECT_EQ(R.Verb, "error");
  EXPECT_NE(R.header("detail").find("size limit"), std::string::npos);
  EXPECT_EQ(D.stats().BadFrames.load(), 2u);

  // The framed stream is intact: a real request still solves.
  EXPECT_EQ(C.solve(CounterSat).header("status"), "sat");
}

TEST(ServeDaemonTest, TruncatedFrameClosesTheConnection) {
  ServeDaemon D(ServeOptions{});
  TestConn C(D);
  unsigned char Hdr[4] = {0, 0, 1, 0}; // Promise 256 bytes...
  ASSERT_EQ(::write(C.Client, Hdr, 4), 4);
  ASSERT_EQ(::write(C.Client, "short", 5), 5); // ...deliver 5, then die.
  ::close(C.Client);
  C.Client = -1;
  C.closeAndJoin(); // The serve thread must exit on its own.
  EXPECT_EQ(D.stats().BadFrames.load(), 1u);
}

TEST(ServeDaemonTest, ConcurrentClientsGetTheirOwnAnswers) {
  ServeOptions SO;
  SO.Jobs = 4;
  ServeDaemon D(SO);

  constexpr int NClients = 4, NRounds = 3;
  std::vector<std::unique_ptr<TestConn>> Conns;
  for (int I = 0; I < NClients; ++I)
    Conns.push_back(std::make_unique<TestConn>(D));

  std::vector<std::thread> Drivers;
  std::vector<int> Failures(NClients, 0);
  for (int I = 0; I < NClients; ++I)
    Drivers.emplace_back([&, I] {
      for (int Round = 0; Round < NRounds; ++Round) {
        // Odd clients ask the unsat system, even the sat one; a response
        // crossing connections would flip a verdict.
        const char *Text = (I % 2) ? CounterUnsat : CounterSat;
        const char *Want = (I % 2) ? "unsat" : "sat";
        WireMessage R = Conns[I]->solve(Text);
        if (R.header("status") != Want)
          ++Failures[I];
      }
    });
  for (std::thread &T : Drivers)
    T.join();
  for (int I = 0; I < NClients; ++I)
    EXPECT_EQ(Failures[I], 0) << "client " << I;
  EXPECT_EQ(D.stats().Requests.load(), unsigned(NClients * NRounds));
}

TEST(ServeDaemonTest, MidJobDisconnectCancelsTheJob) {
  ServeDaemon D(ServeOptions{});
  TestConn C(D);

  // A job that never finishes on its own: the Solve baseline diverging on
  // Example 5, no deadline, no refine-step budget. Send it, then vanish.
  WireMessage M;
  M.Verb = "solve";
  M.Headers["config"] = "Solve";
  M.Body = DivergesUnderSolve;
  ASSERT_TRUE(writeFrame(C.Client, formatWireMessage(M)));
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_EQ(D.stats().Cancelled.load(), 0u);

  ::close(C.Client);
  C.Client = -1;
  // The connection thread polls the socket while the job runs; the hangup
  // must cancel the job and let the thread exit. joinable join() hangs the
  // test on failure, so this *is* the assertion.
  C.closeAndJoin();
  EXPECT_EQ(D.stats().Cancelled.load(), 1u);
}

TEST(ServeDaemonTest, DaemonSurvivesCrashingJobs) {
  ServeDaemon D(ServeOptions{});
  TestConn C(D);

  // Fault injection with no retries: injected failures escape the engine
  // as typed errors. Whatever each seed does — crash to unknown or survive
  // to a verdict — the daemon must keep answering.
  for (uint64_t Seed = 1; Seed <= 5; ++Seed) {
    WireMessage R = C.solve(
        CounterUnsat, {{"chaos-seed", std::to_string(Seed)},
                       {"max-retries", "0"},
                       {"no-store", "1"}});
    ASSERT_EQ(R.Verb, "result") << "seed " << Seed;
    std::string St = R.header("status");
    EXPECT_TRUE(St == "unsat" || St == "unknown") << St;
    EXPECT_EQ(C.roundTrip([] {
               WireMessage P;
               P.Verb = "ping";
               return P;
             }()).Verb,
              "pong")
        << "daemon died after seed " << Seed;
  }
  // With the ladder enabled faults may still exhaust the retry budget, but
  // they must only ever degrade the verdict to unknown — never flip it.
  WireMessage R = C.solve(CounterUnsat, {{"chaos-seed", "1"},
                                         {"max-retries", "3"},
                                         {"no-store", "1"}});
  std::string St = R.header("status");
  EXPECT_TRUE(St == "unsat" || St == "unknown") << St;
  // And a clean job right after is entirely unaffected.
  EXPECT_EQ(C.solve(CounterUnsat, {{"no-store", "1"}}).header("status"),
            "unsat");
}

//===----------------------------------------------------------------------===//
// Overload hardening: deadline reads, admission control
//===----------------------------------------------------------------------===//

TEST(WireCodecTest, FrameSplitAcrossSingleByteWritesDecodes) {
  // Regression for the EINTR/partial-read path: a slow but live writer —
  // one byte at a time, each within the stall budget — must never be cut
  // off, however long the whole frame takes.
  int Sp[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Sp), 0);
  std::string Payload = "ping\nslow: writer\n\nbody bytes";
  std::string Framed;
  Framed.push_back(0);
  Framed.push_back(0);
  Framed.push_back(0);
  Framed.push_back(static_cast<char>(Payload.size()));
  Framed += Payload;
  std::thread Writer([&] {
    for (char C : Framed) {
      ASSERT_EQ(::write(Sp[0], &C, 1), 1);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  std::string Got;
  EXPECT_EQ(readFrameDeadline(Sp[1], Got, 1u << 20, /*StallTimeoutMs=*/500),
            FrameStatus::Ok);
  EXPECT_EQ(Got, Payload);
  Writer.join();
  ::close(Sp[0]);
  ::close(Sp[1]);
}

TEST(WireCodecTest, MidFrameSilenceTripsTheStallDeadline) {
  int Sp[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Sp), 0);
  unsigned char Hdr[4] = {0, 0, 0, 100}; // Promise 100 bytes...
  ASSERT_EQ(::write(Sp[0], Hdr, 4), 4);
  ASSERT_EQ(::write(Sp[0], "stuck", 5), 5); // ...then go silent, fd open.
  std::string Got;
  auto T0 = std::chrono::steady_clock::now();
  EXPECT_EQ(readFrameDeadline(Sp[1], Got, 1u << 20, /*StallTimeoutMs=*/150),
            FrameStatus::TimedOut);
  auto Ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - T0)
                .count();
  EXPECT_GE(Ms, 100);
  EXPECT_LT(Ms, 5000);
  ::close(Sp[0]);
  ::close(Sp[1]);
}

TEST(ServeDaemonTest, SlowLorisClientIsDisconnected) {
  ServeOptions SO;
  SO.ReadStallMs = 150;
  ServeDaemon D(SO);
  TestConn C(D);
  unsigned char Hdr[4] = {0, 0, 0, 50};
  ASSERT_EQ(::write(C.Client, Hdr, 4), 4); // Half a frame, then nothing.
  std::string Payload;
  ASSERT_EQ(readFrame(C.Client, Payload, 1u << 20), FrameStatus::Ok);
  WireMessage R;
  ASSERT_TRUE(parseWireMessage(Payload, R, nullptr));
  EXPECT_EQ(R.Verb, "error");
  EXPECT_NE(R.header("detail").find("read deadline"), std::string::npos);
  // The daemon closed its side; our next read sees EOF.
  EXPECT_EQ(readFrame(C.Client, Payload, 1u << 20), FrameStatus::Eof);
  EXPECT_EQ(D.stats().TimedOutConns.load(), 1u);
}

TEST(ServeDaemonTest, SlowButLiveWriterIsServedNormally) {
  ServeOptions SO;
  SO.ReadStallMs = 300;
  ServeDaemon D(SO);
  TestConn C(D);
  // A whole solve frame trickled a few bytes at a time: total time well
  // past the stall budget, every write well inside it.
  WireMessage M;
  M.Verb = "solve";
  M.Headers["max-refine-steps"] = "2000";
  M.Body = CounterUnsat;
  std::string Payload = formatWireMessage(M);
  std::string Framed;
  for (int I = 3; I >= 0; --I)
    Framed.push_back(static_cast<char>((Payload.size() >> (8 * I)) & 0xff));
  Framed += Payload;
  for (size_t I = 0; I < Framed.size(); I += 7) {
    size_t N = std::min<size_t>(7, Framed.size() - I);
    ASSERT_EQ(::write(C.Client, Framed.data() + I, N),
              static_cast<ssize_t>(N));
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::string Got;
  ASSERT_EQ(readFrame(C.Client, Got, 1u << 24), FrameStatus::Ok);
  WireMessage R;
  ASSERT_TRUE(parseWireMessage(Got, R, nullptr));
  EXPECT_EQ(R.header("status"), "unsat");
}

TEST(ServeDaemonTest, PendingBoundShedsWithTypedOverloadedFrame) {
  ServeOptions SO;
  SO.Jobs = 1;
  SO.MaxPending = 1;
  ServeDaemon D(SO);
  TestConn Busy(D);
  TestConn Shed(D);

  // Fill the single slot with a job that runs for a while: the diverging
  // system bounded by a deadline, so the test always terminates.
  WireMessage M;
  M.Verb = "solve";
  M.Headers["config"] = "Solve";
  M.Headers["deadline-ms"] = "2000";
  M.Body = DivergesUnderSolve;
  ASSERT_TRUE(writeFrame(Busy.Client, formatWireMessage(M)));
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  // The second solve must be refused, not queued behind the bound.
  WireMessage R = Shed.solve(CounterSat);
  EXPECT_EQ(R.Verb, "overloaded");
  EXPECT_NE(R.header("detail").find("pending"), std::string::npos);
  EXPECT_EQ(D.stats().Overloaded.load(), 1u);

  // The shed connection itself stays usable: ping still answers, and once
  // the busy job drains, solves are admitted again.
  WireMessage P;
  P.Verb = "ping";
  EXPECT_EQ(Shed.roundTrip(P).Verb, "pong");

  std::string Payload;
  ASSERT_EQ(readFrame(Busy.Client, Payload, 1u << 24), FrameStatus::Ok);
  EXPECT_EQ(Shed.solve(CounterSat).header("status"), "sat");
}

//===----------------------------------------------------------------------===//
// Worker isolation at the service boundary
//===----------------------------------------------------------------------===//

TEST(ServeDaemonTest, DaemonSurvivesCrashingIsolatedWorkers) {
  ServeDaemon D(ServeOptions{});
  TestConn C(D);

  // Each directive kills the forked worker a different way; every one must
  // come back as a typed unknown with a worker-crashed breadcrumb while
  // the daemon keeps answering.
  for (const char *How : {"segv", "abort", "exit3"}) {
    WireMessage R = C.solve(CounterSat, {{"isolate", "crash"},
                                         {"x-crash", How},
                                         {"max-retries", "0"},
                                         {"no-store", "1"}});
    ASSERT_EQ(R.Verb, "result") << How;
    EXPECT_EQ(R.header("status"), "unknown") << How;
    EXPECT_NE(R.header("error").find("worker-crashed"), std::string::npos)
        << How << ": " << R.header("error");
    WireMessage P;
    P.Verb = "ping";
    ASSERT_EQ(C.roundTrip(P).Verb, "pong") << "daemon died after " << How;
  }
  EXPECT_EQ(D.stats().WorkerCrashes.load(), 3u);

  // With a retry rung the crash ladder recovers to the real verdict.
  WireMessage R = C.solve(CounterSat, {{"isolate", "crash"},
                                       {"x-crash", "segv"},
                                       {"max-retries", "1"},
                                       {"no-store", "1"}});
  EXPECT_EQ(R.header("status"), "sat");

  WireMessage Bad = C.solve(CounterSat, {{"isolate", "sometimes"}});
  EXPECT_EQ(Bad.Verb, "error");
}

TEST(ServeDaemonTest, ConfigHeaderKeepsTheDaemonsIsolation) {
  // The daemon isolates by its own setting (mucyc-serve's default); a
  // request naming a configuration replaces the engine shape only, so its
  // solve still runs in a forked worker and the crash directive fires.
  ServeOptions SO;
  SO.BaseOpts.Isolate = IsolateMode::Crash;
  ServeDaemon D(SO);
  TestConn C(D);
  WireMessage R = C.solve(CounterSat, {{"config", "Ret(T,MBP(1))"},
                                       {"x-crash", "segv"},
                                       {"no-store", "1"}});
  ASSERT_EQ(R.Verb, "result");
  EXPECT_EQ(R.header("status"), "unknown");
  EXPECT_NE(R.header("error").find("worker-crashed"), std::string::npos)
      << R.header("error");
  EXPECT_EQ(D.stats().WorkerCrashes.load(), 1u);
}

//===----------------------------------------------------------------------===//
// Crash-restart durability against the real daemon binary
//===----------------------------------------------------------------------===//

#ifdef MUCYC_SERVE_BIN

namespace {

/// Connects to a UNIX socket, retrying while the daemon binds.
int connectRetrying(const std::string &Path, int TriesMs = 5000) {
  for (int Waited = 0; Waited < TriesMs; Waited += 50) {
    int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd < 0)
      return -1;
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    std::snprintf(Addr.sun_path, sizeof(Addr.sun_path), "%s", Path.c_str());
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) == 0)
      return Fd;
    ::close(Fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return -1;
}

/// Forks and execs mucyc-serve; returns the child pid.
pid_t spawnServe(const std::vector<std::string> &Args) {
  pid_t Pid = ::fork();
  if (Pid != 0)
    return Pid;
  std::vector<char *> Argv;
  Argv.push_back(const_cast<char *>(MUCYC_SERVE_BIN));
  for (const std::string &A : Args)
    Argv.push_back(const_cast<char *>(A.c_str()));
  Argv.push_back(nullptr);
  ::execv(MUCYC_SERVE_BIN, Argv.data());
  ::_exit(127);
}

WireMessage frameRoundTrip(int Fd, const WireMessage &M) {
  EXPECT_TRUE(writeFrame(Fd, formatWireMessage(M)));
  std::string Payload;
  EXPECT_EQ(readFrame(Fd, Payload, 1u << 24), FrameStatus::Ok);
  WireMessage R;
  EXPECT_TRUE(parseWireMessage(Payload, R, nullptr));
  return R;
}

} // namespace

TEST(ServeCrashRestartTest, StoreSurvivesSigkillAndQuarantinesTornEntry) {
  std::string Dir = (std::filesystem::temp_directory_path() /
                     ("mucyc-serve-crash-" + std::to_string(::getpid())))
                        .string();
  std::filesystem::remove_all(Dir);
  std::string Sock = Dir + ".sock";
  std::string StoreDir = Dir + "/store";
  ::unlink(Sock.c_str());

  pid_t Pid = spawnServe({"--socket", Sock, "--store-dir", StoreDir,
                          "--isolate", "crash", "--max-retries", "1",
                          "--max-refine-steps", "2000"});
  ASSERT_GT(Pid, 0);
  int Fd = connectRetrying(Sock);
  ASSERT_GE(Fd, 0) << "daemon never bound " << Sock;

  // Two verified entries reach the disk tier...
  WireMessage M;
  M.Verb = "solve";
  M.Body = CounterSat;
  WireMessage R1 = frameRoundTrip(Fd, M);
  ASSERT_EQ(R1.header("status"), "sat");
  M.Body = CounterUnsat;
  WireMessage R2 = frameRoundTrip(Fd, M);
  ASSERT_EQ(R2.header("status"), "unsat");

  // ...then the daemon dies hard, mid-"batch": SIGKILL, no atexit, no
  // flush, plus one torn in-flight entry the kill supposedly interrupted.
  ::kill(Pid, SIGKILL);
  int St = 0;
  ::waitpid(Pid, &St, 0);
  ASSERT_TRUE(WIFSIGNALED(St));
  ::close(Fd);
  std::ofstream(StoreDir + "/deadbeef00000000deadbeef00000000.mucyc-result")
      << "mucyc-result-v2\nstatus: sat\ndepth: 2\nconf"; // Torn mid-write.
  std::ofstream(StoreDir + "/inflight.mucyc-result.tmp") << "half";

  // Restart on the same store directory: previously verified entries are
  // served warm from disk, the torn one is quarantined, never served.
  pid_t Pid2 = spawnServe({"--socket", Sock, "--store-dir", StoreDir,
                           "--isolate", "crash", "--max-refine-steps",
                           "2000"});
  ASSERT_GT(Pid2, 0);
  Fd = connectRetrying(Sock);
  ASSERT_GE(Fd, 0);

  M.Body = CounterSat;
  WireMessage W1 = frameRoundTrip(Fd, M);
  EXPECT_EQ(W1.header("status"), "sat");
  EXPECT_EQ(W1.header("cache"), "disk-hit");
  EXPECT_EQ(W1.header("attempts"), "0");
  EXPECT_EQ(W1.header("fingerprint"), R1.header("fingerprint"));
  M.Body = CounterUnsat;
  WireMessage W2 = frameRoundTrip(Fd, M);
  EXPECT_EQ(W2.header("status"), "unsat");
  EXPECT_EQ(W2.header("cache"), "disk-hit");

  WireMessage S;
  S.Verb = "stats";
  WireMessage Stats = frameRoundTrip(Fd, S);
  EXPECT_EQ(Stats.header("store-recovered-intact"), "2");
  EXPECT_EQ(Stats.header("store-quarantined"), "1");
  EXPECT_EQ(Stats.header("store-tmp-swept"), "1");

  ::close(Fd);
  ::kill(Pid2, SIGTERM);
  ::waitpid(Pid2, &St, 0);
  std::filesystem::remove_all(Dir);
  ::unlink(Sock.c_str());
}

TEST(ServeCrashRestartTest, ConnectionCapShedsExcessClients) {
  std::string Dir = (std::filesystem::temp_directory_path() /
                     ("mucyc-serve-cap-" + std::to_string(::getpid())))
                        .string();
  std::string Sock = Dir + ".sock";
  ::unlink(Sock.c_str());

  pid_t Pid = spawnServe({"--socket", Sock, "--max-connections", "2"});
  ASSERT_GT(Pid, 0);
  int A = connectRetrying(Sock);
  ASSERT_GE(A, 0);
  int B = connectRetrying(Sock);
  ASSERT_GE(B, 0);
  // Give the daemon a beat to register both connection threads.
  WireMessage P;
  P.Verb = "ping";
  EXPECT_EQ(frameRoundTrip(A, P).Verb, "pong");
  EXPECT_EQ(frameRoundTrip(B, P).Verb, "pong");

  // The third connection is told why and cut, not silently dropped.
  int C = connectRetrying(Sock, 1000);
  ASSERT_GE(C, 0);
  std::string Payload;
  ASSERT_EQ(readFrame(C, Payload, 1u << 20), FrameStatus::Ok);
  WireMessage R;
  ASSERT_TRUE(parseWireMessage(Payload, R, nullptr));
  EXPECT_EQ(R.Verb, "overloaded");
  EXPECT_EQ(readFrame(C, Payload, 1u << 20), FrameStatus::Eof);
  ::close(C);

  // Closing one slot frees admission for a newcomer.
  ::close(A);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  int D = connectRetrying(Sock, 1000);
  ASSERT_GE(D, 0);
  EXPECT_EQ(frameRoundTrip(D, P).Verb, "pong");

  ::close(B);
  ::close(D);
  ::kill(Pid, SIGTERM);
  int St = 0;
  ::waitpid(Pid, &St, 0);
  ::unlink(Sock.c_str());
}

#endif // MUCYC_SERVE_BIN
