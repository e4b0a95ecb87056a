//===- runtime/Worker.cpp - Forked worker-process execution tier ----------===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/Worker.h"

#include "runtime/Recover.h"
#include "support/Fault.h"

#include <chrono>
#include <csignal>
#include <cstring>
#include <new>
#include <sstream>

#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace mucyc;

namespace {

/// Set once in the forked child, before any request processing.
std::atomic<bool> InChild{false};

/// Exit codes the child reserves for conditions a wait status cannot
/// otherwise express. Chosen high to stay clear of tool exit contracts.
constexpr int ExitRlimit = 87;   ///< bad_alloc under RLIMIT_AS.
constexpr int ExitInternal = 86; ///< Escaped exception in the child shell.

ErrorCode errorCodeFromName(const std::string &S) {
  static const ErrorCode All[] = {
      ErrorCode::ResourceExhaustedMemory, ErrorCode::ResourceExhaustedSteps,
      ErrorCode::ResourceExhaustedDepth,  ErrorCode::Cancelled,
      ErrorCode::Timeout,                 ErrorCode::InvariantViolation,
      ErrorCode::InputError,              ErrorCode::WorkerCrashedSignal,
      ErrorCode::WorkerCrashedRlimit,     ErrorCode::WorkerCrashedWedged,
  };
  for (ErrorCode C : All)
    if (S == errorCodeName(C))
      return C;
  return ErrorCode::InputError;
}

std::string formatStats(const SolveStats &S) {
  std::ostringstream Out;
  Out << S.SmtChecks << ' ' << S.SmtCacheHits << ' ' << S.SmtCacheEvicts << ' '
      << S.PoolRetires << ' ' << S.MbpCalls << ' ' << S.ItpCalls << ' '
      << S.RefineCalls << ' ' << S.Unfolds << ' ' << S.Retries << ' '
      << S.Degradations << ' ' << S.LemmasPublished << ' ' << S.LemmasImported
      << ' ' << S.LemmasRejected << ' ' << S.CoreShrink;
  return Out.str();
}

SolveStats parseStats(const std::string &Line) {
  SolveStats S;
  std::istringstream In(Line);
  In >> S.SmtChecks >> S.SmtCacheHits >> S.SmtCacheEvicts >> S.PoolRetires >>
      S.MbpCalls >> S.ItpCalls >> S.RefineCalls >> S.Unfolds >> S.Retries >>
      S.Degradations >> S.LemmasPublished >> S.LemmasImported >>
      S.LemmasRejected >> S.CoreShrink;
  return S;
}

/// Die the way the x-crash test directive asks. Only meaningful inside a
/// forked child; see workerChildServe.
[[noreturn]] void crashNow(const std::string &How) {
  if (How == "segv") {
    // Default disposition first: a sanitizer runtime's SIGSEGV handler
    // would otherwise turn the signal into an ordinary exit status.
    ::signal(SIGSEGV, SIG_DFL);
    ::raise(SIGSEGV);
  }
  else if (How == "abort")
    std::abort();
  else if (How == "exit3")
    ::_exit(3);
  else if (How == "spin")
    for (;;)
      ::pause(); // Never replies; the parent watchdog must reap us.
  else if (How == "burn") {
    volatile uint64_t X = 0; // Burn CPU until RLIMIT_CPU's SIGXCPU.
    for (;;)
      ++X;
  } else if (How == "oom")
    throw std::bad_alloc(); // The child shell maps this to ExitRlimit.
  ::_exit(ExitInternal); // Unknown directive: fail loudly.
}

} // namespace

bool mucyc::inWorkerChild() {
  return InChild.load(std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===
// Request / reply encoding
//===----------------------------------------------------------------------===

WireMessage mucyc::encodeWorkerRequest(const SolveRequest &Req,
                                       const std::string &TestCrash) {
  WireMessage M;
  M.Verb = "work";
  const SolverOptions &O = Req.Opts;
  M.Headers["config"] = O.name();
  auto PutU64 = [&](const char *K, uint64_t V) {
    if (V)
      M.Headers[K] = std::to_string(V);
  };
  PutU64("timeout-ms", O.TimeoutMs);
  PutU64("max-depth", static_cast<uint64_t>(O.MaxDepth));
  PutU64("max-refine-steps", O.MaxRefineSteps);
  PutU64("mem-limit-mb", O.MemLimitMb);
  PutU64("chaos-seed", O.ChaosSeed);
  if (O.NoIncremental)
    M.Headers["no-incremental"] = "1";
  if (O.VerifyResult)
    M.Headers["verify"] = "1";
  if (Req.WantSolution)
    M.Headers["want-solution"] = "1";
  if (!TestCrash.empty())
    M.Headers["x-crash"] = TestCrash;
  if (Req.Source) {
    if (Req.Source->format() == InputFormat::Btor2)
      M.Headers["format"] = "btor2";
    else if (Req.Source->format() == InputFormat::SmtLib2)
      M.Headers["format"] = "smtlib2";
    if (!Req.Source->preprocessing())
      M.Headers["no-preprocess"] = "1";
    M.Body = Req.Source->text();
  }
  return M;
}

namespace {

SolveRequest decodeWorkerRequest(const WireMessage &M) {
  auto U64 = [&](const char *Key) -> uint64_t {
    std::string V = M.header(Key);
    return V.empty() ? 0 : std::strtoull(V.c_str(), nullptr, 10);
  };
  SolverOptions O;
  if (auto Parsed = SolverOptions::parse(M.header("config", "Ret(T,MBP(1))")))
    O = *Parsed;
  O.TimeoutMs = U64("timeout-ms");
  O.MaxDepth = static_cast<int>(U64("max-depth"));
  O.MaxRefineSteps = U64("max-refine-steps");
  O.MemLimitMb = U64("mem-limit-mb");
  O.ChaosSeed = U64("chaos-seed");
  O.NoIncremental = M.header("no-incremental") == "1";
  O.VerifyResult = M.header("verify") == "1";

  InputFormat F = InputFormat::Auto;
  if (M.header("format") == "btor2")
    F = InputFormat::Btor2;
  else if (M.header("format") == "smtlib2")
    F = InputFormat::SmtLib2;
  SolveRequest Req = SolveRequest::fromText(
      M.Body, std::move(O), M.header("no-preprocess") != "1", F);
  Req.WantSolution = M.header("want-solution") == "1";
  return Req;
}

std::string replyFrame(const SolveResponse &Resp,
                       const ResultStore::Entry &Cert) {
  WireMessage R;
  R.Verb = "done";
  R.Headers["status"] = chcStatusName(Resp.Status);
  R.Headers["depth"] = std::to_string(Resp.Depth);
  R.Headers["stats"] = formatStats(Resp.Stats);
  if (Resp.Error.isError()) {
    R.Headers["error-code"] = errorCodeName(Resp.Error.Code);
    R.Headers["error-detail"] = Resp.Error.Detail;
  }
  if (Resp.VerifyFailed)
    R.Headers["verify-failed"] =
        Resp.VerifyNote.empty() ? "?" : Resp.VerifyNote;
  if (!Cert.Cert.empty()) {
    R.Headers["cert"] = Cert.Cert;
    std::string ZLine;
    for (size_t I = 0; I < Cert.ZSorts.size(); ++I)
      ZLine += std::string(I ? " " : "") + sortName(Cert.ZSorts[I]);
    R.Headers["zsorts"] = ZLine;
    R.Headers["config"] = Cert.Config;
  }
  R.Body = Resp.SolutionText;
  return formatWireMessage(R);
}

} // namespace

std::string mucyc::workerChildServe(const std::string &RequestPayload) {
  WireMessage M;
  std::string Err;
  if (!parseWireMessage(RequestPayload, M, &Err) || M.Verb != "work") {
    SolveResponse Bad;
    Bad.Error = ErrorInfo{ErrorCode::InputError, "bad worker request: " + Err};
    return replyFrame(Bad, ResultStore::Entry());
  }
  // The crash directive fires before any solving, and only in a real
  // forked child — an in-process test of this function must survive it.
  std::string XCrash = M.header("x-crash");
  if (!XCrash.empty() && inWorkerChild())
    crashNow(XCrash);

  // Exactly one attempt, under the options the parent's ladder chose. The
  // certificate travels back as text so the *parent* can re-verify and
  // admit it — the store is never written by code that might be crashing.
  SolveRequest Req = decodeWorkerRequest(M);
  ResultStore::Entry Cert;
  SolveResponse Resp = solveAttempt(Req, Req.Opts, &Cert);
  return replyFrame(Resp, Cert);
}

//===----------------------------------------------------------------------===
// Parent side: fork, sandbox, watchdog, reap, classify
//===----------------------------------------------------------------------===

namespace {

/// The child half of runWorkerAttempt: sandbox, serve one frame, exit.
[[noreturn]] void workerChildMain(int Fd, const SolverOptions &Opts) {
  InChild.store(true, std::memory_order_relaxed);
  if (Opts.HardMemMb) {
    struct rlimit R;
    R.rlim_cur = R.rlim_max = Opts.HardMemMb << 20;
    ::setrlimit(RLIMIT_AS, &R);
  }
  if (Opts.HardCpuSec) {
    struct rlimit R;
    R.rlim_cur = Opts.HardCpuSec;      // Soft: SIGXCPU, classifiable.
    R.rlim_max = Opts.HardCpuSec + 2;  // Hard backstop: SIGKILL.
    ::setrlimit(RLIMIT_CPU, &R);
  }
  try {
    std::string Payload;
    if (readFrame(Fd, Payload, 256u << 20) != FrameStatus::Ok)
      ::_exit(ExitInternal);
    std::string Reply = workerChildServe(Payload);
    if (!writeFrame(Fd, Reply))
      ::_exit(ExitInternal);
  } catch (const std::bad_alloc &) {
    ::_exit(ExitRlimit); // RLIMIT_AS (or genuine exhaustion) hit.
  } catch (...) {
    ::_exit(ExitInternal);
  }
  ::_exit(0);
}

SolveResponse crashedResponse(ErrorCode Code, std::string Detail) {
  SolveResponse Resp;
  Resp.Error = ErrorInfo{Code, std::move(Detail)};
  return Resp;
}

} // namespace

SolveResponse mucyc::runWorkerAttempt(const SolveRequest &Req,
                                      uint64_t DeadlineMs,
                                      const std::atomic<bool> *Cancel,
                                      const std::string &TestCrash,
                                      ResultStore::Entry *Cert) {
  // A worker that dies mid-read must surface as a write error, never a
  // parent-killing SIGPIPE.
  ::signal(SIGPIPE, SIG_IGN);

  int Sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, Sv) != 0)
    return crashedResponse(ErrorCode::WorkerCrashedSignal,
                           "socketpair failed for worker");

  // The chaos decision is taken before fork so the Nth-worker ordinal is a
  // pure function of the spawn sequence, not of child scheduling.
  bool ChaosKill = ServiceFaultPlan::global().killThisWorker();

  std::string Frame = formatWireMessage(encodeWorkerRequest(Req, TestCrash));

  pid_t Pid = ::fork();
  if (Pid < 0) {
    ::close(Sv[0]);
    ::close(Sv[1]);
    return crashedResponse(ErrorCode::WorkerCrashedSignal, "fork failed");
  }
  if (Pid == 0) {
    ::close(Sv[0]);
    workerChildMain(Sv[1], Req.Opts); // Never returns.
  }
  ::close(Sv[1]);

  if (ChaosKill)
    ::kill(Pid, SIGKILL);

  bool WroteOk = !ChaosKill && writeFrame(Sv[0], Frame);
  (void)WroteOk; // A failed write just means the child died first; the
                 // read below observes the same EOF either way.

  // Watchdog loop: wait for the reply to start arriving, reacting to
  // cancellation immediately and to a blown deadline with SIGKILL. The
  // grace covers reply serialization and scheduler jitter.
  constexpr uint64_t GraceMs = 2000;
  auto Start = std::chrono::steady_clock::now();
  bool KilledWedged = false, KilledCancel = false;
  for (;;) {
    if (Cancel && Cancel->load(std::memory_order_relaxed) && !KilledCancel &&
        !KilledWedged) {
      KilledCancel = true;
      ::kill(Pid, SIGKILL);
    }
    if (DeadlineMs && !KilledWedged && !KilledCancel) {
      uint64_t ElapsedMs =
          static_cast<uint64_t>(std::chrono::duration_cast<
                                    std::chrono::milliseconds>(
                                    std::chrono::steady_clock::now() - Start)
                                    .count());
      if (ElapsedMs > DeadlineMs + GraceMs) {
        KilledWedged = true;
        ::kill(Pid, SIGKILL);
      }
    }
    struct pollfd P;
    P.fd = Sv[0];
    P.events = POLLIN;
    P.revents = 0;
    int N = ::poll(&P, 1, 100);
    if (N < 0 && errno != EINTR)
      break;
    if (N > 0)
      break; // Readable (or hung up): collect the reply / the EOF.
  }

  // The child writes its whole frame then exits, so once bytes start
  // flowing a bounded stall covers the rest; a child that wedges mid-reply
  // is caught here rather than pinning this thread forever.
  std::string Reply;
  FrameStatus FS = readFrameDeadline(Sv[0], Reply, 256u << 20,
                                     /*StallTimeoutMs=*/10000);
  if (FS == FrameStatus::TimedOut && !KilledCancel) {
    KilledWedged = true;
    ::kill(Pid, SIGKILL);
  }
  ::close(Sv[0]);

  int St = 0;
  ::waitpid(Pid, &St, 0);

  // A complete, well-formed "done" frame wins regardless of exit status.
  WireMessage M;
  if (FS == FrameStatus::Ok && parseWireMessage(Reply, M, nullptr) &&
      M.Verb == "done" && !M.header("status").empty()) {
    SolveResponse Resp;
    std::string Status = M.header("status");
    Resp.Status = Status == "sat"     ? ChcStatus::Sat
                  : Status == "unsat" ? ChcStatus::Unsat
                                      : ChcStatus::Unknown;
    Resp.Depth = std::atoi(M.header("depth", "0").c_str());
    Resp.Stats = parseStats(M.header("stats"));
    if (!M.header("error-code").empty())
      Resp.Error = ErrorInfo{errorCodeFromName(M.header("error-code")),
                             M.header("error-detail")};
    if (!M.header("verify-failed").empty()) {
      Resp.VerifyFailed = true;
      Resp.VerifyNote = M.header("verify-failed");
    }
    Resp.SolutionText = M.Body;
    if (Cert) {
      Cert->Status = Resp.Status;
      Cert->Depth = Resp.Depth;
      Cert->Config = M.header("config");
      Cert->Cert = M.header("cert");
    }
    return Resp;
  }

  // No usable reply: classify the death.
  if (KilledCancel)
    return crashedResponse(ErrorCode::Cancelled, "worker cancelled");
  if (KilledWedged)
    return crashedResponse(
        ErrorCode::WorkerCrashedWedged,
        "watchdog killed wedged worker past deadline grace");
  if (WIFSIGNALED(St)) {
    int Sig = WTERMSIG(St);
    if (Sig == SIGXCPU)
      return crashedResponse(ErrorCode::WorkerCrashedRlimit,
                             "worker hit RLIMIT_CPU (SIGXCPU)");
    return crashedResponse(ErrorCode::WorkerCrashedSignal,
                           "worker killed by signal " + std::to_string(Sig));
  }
  if (WIFEXITED(St)) {
    int Code = WEXITSTATUS(St);
    if (Code == ExitRlimit)
      return crashedResponse(ErrorCode::WorkerCrashedRlimit,
                             "worker hit RLIMIT_AS (allocation failure)");
    if (Code == 0)
      return crashedResponse(ErrorCode::WorkerCrashedSignal,
                             "worker reply truncated or malformed");
    return crashedResponse(ErrorCode::WorkerCrashedSignal,
                           "worker exit status " + std::to_string(Code));
  }
  return crashedResponse(ErrorCode::WorkerCrashedSignal,
                         "worker vanished without a wait status");
}
