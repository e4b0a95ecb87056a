//===- runtime/Serve.cpp - Persistent solving service ---------------------===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/Serve.h"

#include "support/Fault.h"

#include <cerrno>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <set>
#include <sstream>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#ifndef POLLRDHUP
#define POLLRDHUP 0
#endif

using namespace mucyc;

//===----------------------------------------------------------------------===
// Wire codec
//===----------------------------------------------------------------------===

std::string mucyc::formatWireMessage(const WireMessage &M) {
  std::string Out = M.Verb + "\n";
  for (const auto &[K, V] : M.Headers)
    Out += K + ": " + V + "\n";
  Out += "\n";
  Out += M.Body;
  return Out;
}

bool mucyc::parseWireMessage(const std::string &Payload, WireMessage &M,
                             std::string *Err) {
  M = WireMessage();
  size_t Pos = 0;
  auto NextLine = [&](std::string &Line) -> bool {
    if (Pos >= Payload.size())
      return false;
    size_t Nl = Payload.find('\n', Pos);
    if (Nl == std::string::npos) {
      Line = Payload.substr(Pos);
      Pos = Payload.size();
    } else {
      Line = Payload.substr(Pos, Nl - Pos);
      Pos = Nl + 1;
    }
    return true;
  };
  if (!NextLine(M.Verb) || M.Verb.empty()) {
    if (Err)
      *Err = "empty message: missing verb line";
    return false;
  }
  std::string Line;
  while (NextLine(Line)) {
    if (Line.empty())
      break; // Blank line: the rest is the body.
    size_t Colon = Line.find(": ");
    if (Colon == std::string::npos)
      continue; // Junk header line: skip, keep the stream alive.
    M.Headers.emplace(Line.substr(0, Colon), Line.substr(Colon + 2));
  }
  M.Body = Payload.substr(Pos);
  return true;
}

FrameStatus mucyc::readFrame(int Fd, std::string &Payload, size_t MaxBytes) {
  return readFrameDeadline(Fd, Payload, MaxBytes, 0); // 0: no stall budget.
}

FrameStatus mucyc::readFrameDeadline(int Fd, std::string &Payload,
                                     size_t MaxBytes, int StallTimeoutMs,
                                     int IdleTimeoutMs) {
  // Every read waits behind poll() with a budget: the idle budget before
  // the frame's first byte, the stall budget between bytes mid-frame (0 =
  // wait forever, which is readFrame). Progress resets the clock, so a
  // slow-but-live writer (even 1 byte at a time) is never cut off.
  bool FirstByte = true;
  // -2 = I/O error, -3 = timed out, otherwise read() semantics.
  auto ReadSome = [&](void *Buf, size_t N) -> ssize_t {
    int Budget = FirstByte && IdleTimeoutMs ? IdleTimeoutMs : StallTimeoutMs;
    struct pollfd P;
    P.fd = Fd;
    P.events = POLLIN;
    P.revents = 0;
    for (;;) {
      int W = ::poll(&P, 1, Budget > 0 ? Budget : -1);
      if (W < 0) {
        if (errno == EINTR)
          continue;
        return -2;
      }
      if (W == 0)
        return -3;
      break;
    }
    for (;;) {
      ssize_t R = ::read(Fd, Buf, N);
      if (R < 0 && errno == EINTR)
        continue;
      if (R > 0)
        FirstByte = false;
      return R;
    }
  };
  auto Classify = [](ssize_t R, bool MidFrame) -> FrameStatus {
    if (R == -3)
      return FrameStatus::TimedOut;
    if (R < 0)
      return FrameStatus::IoError;
    return MidFrame ? FrameStatus::Truncated : FrameStatus::Eof;
  };

  unsigned char Hdr[4];
  size_t Got = 0;
  while (Got < 4) {
    ssize_t R = ReadSome(Hdr + Got, 4 - Got);
    if (R <= 0)
      return Classify(R, Got != 0);
    Got += static_cast<size_t>(R);
  }
  uint64_t Len = (uint64_t(Hdr[0]) << 24) | (uint64_t(Hdr[1]) << 16) |
                 (uint64_t(Hdr[2]) << 8) | uint64_t(Hdr[3]);
  if (Len > MaxBytes) {
    char Scratch[4096];
    uint64_t Left = Len;
    while (Left) {
      ssize_t R = ReadSome(Scratch,
                           Left < sizeof(Scratch) ? Left : sizeof(Scratch));
      if (R <= 0)
        return Classify(R, true);
      Left -= static_cast<uint64_t>(R);
    }
    return FrameStatus::Oversized;
  }
  Payload.resize(Len);
  size_t Off = 0;
  while (Off < Len) {
    ssize_t R = ReadSome(Payload.data() + Off, Len - Off);
    if (R <= 0)
      return Classify(R, true);
    Off += static_cast<size_t>(R);
  }
  return FrameStatus::Ok;
}

bool mucyc::writeFrame(int Fd, const std::string &Payload) {
  unsigned char Hdr[4] = {static_cast<unsigned char>(Payload.size() >> 24),
                          static_cast<unsigned char>(Payload.size() >> 16),
                          static_cast<unsigned char>(Payload.size() >> 8),
                          static_cast<unsigned char>(Payload.size())};
  auto WriteAll = [&](const void *Buf, size_t N) {
    const char *P = static_cast<const char *>(Buf);
    while (N) {
      ssize_t W = ::write(Fd, P, N);
      if (W < 0) {
        if (errno == EINTR)
          continue;
        return false;
      }
      P += W;
      N -= static_cast<size_t>(W);
    }
    return true;
  };
  // Chaos: cut the Nth frame short after the header and a partial payload
  // — the peer observes a half-frame followed by whatever the sender does
  // about the failure (for the daemon: connection close → Truncated).
  if (ServiceFaultPlan::global().shortThisWrite()) {
    WriteAll(Hdr, 4);
    WriteAll(Payload.data(), Payload.size() / 2);
    return false;
  }
  return WriteAll(Hdr, 4) && WriteAll(Payload.data(), Payload.size());
}

//===----------------------------------------------------------------------===
// Daemon
//===----------------------------------------------------------------------===

ServeDaemon::ServeDaemon(ServeOptions O)
    : Opts(std::move(O)), Store(Opts.StoreDir),
      Session(Opts.Jobs, &Store) {
  // A client that vanishes mid-write must surface as a write error, not a
  // process-killing SIGPIPE.
  ::signal(SIGPIPE, SIG_IGN);
}

ServeDaemon::~ServeDaemon() { stop(); }

namespace {

std::string errorFrame(const std::string &Detail) {
  WireMessage M;
  M.Verb = "error";
  M.Headers["detail"] = Detail;
  return formatWireMessage(M);
}

/// Typed shed response: the client should back off and retry elsewhere /
/// later, not treat this as a solver failure.
std::string overloadedFrame(const std::string &Detail, unsigned Pending) {
  WireMessage M;
  M.Verb = "overloaded";
  M.Headers["detail"] = Detail;
  M.Headers["pending"] = std::to_string(Pending);
  return formatWireMessage(M);
}

bool peerGone(int Fd) {
  struct pollfd P;
  P.fd = Fd;
  P.events = POLLRDHUP;
  P.revents = 0;
  if (::poll(&P, 1, 0) < 0)
    return false;
  return P.revents & (POLLHUP | POLLERR | POLLNVAL | POLLRDHUP);
}

} // namespace

std::string ServeDaemon::handleSolve(const WireMessage &M, int ConnFd) {
  Stats.Requests.fetch_add(1, std::memory_order_relaxed);

  // The config names the engine shape; runtime knobs stay at the daemon's
  // base values unless headers below override them.
  SolverOptions O = Opts.BaseOpts;
  std::string Config = M.header("config");
  if (!Config.empty() && !O.applyConfig(Config))
    return errorFrame("unknown configuration '" + Config + "'");
  auto U64 = [&](const char *Key, uint64_t Default) -> uint64_t {
    std::string V = M.header(Key);
    return V.empty() ? Default : std::strtoull(V.c_str(), nullptr, 10);
  };
  O.MemLimitMb = U64("mem-limit-mb", O.MemLimitMb);
  O.MaxRetries = static_cast<unsigned>(U64("max-retries", O.MaxRetries));
  O.ChaosSeed = U64("chaos-seed", O.ChaosSeed);
  O.MaxRefineSteps = U64("max-refine-steps", O.MaxRefineSteps);
  if (!M.header("no-incremental").empty())
    O.NoIncremental = M.header("no-incremental") == "1";
  if (!M.header("verify").empty())
    O.VerifyResult = M.header("verify") == "1";
  O.HardMemMb = U64("hard-mem-mb", O.HardMemMb);
  O.HardCpuSec = U64("hard-cpu-sec", O.HardCpuSec);
  if (!M.header("isolate").empty()) {
    auto IM = parseIsolateMode(M.header("isolate"));
    if (!IM)
      return errorFrame("bad isolate value '" + M.header("isolate") + "'");
    O.Isolate = *IM;
  }

  SolveRequest Req = SolveRequest::fromText(M.Body, O);
  Req.DeadlineMs = U64("deadline-ms", Opts.DefaultDeadlineMs);
  Req.Tags = M.header("tags");
  Req.WantSolution = M.header("want-solution") == "1";
  Req.NoStore = M.header("no-store") == "1";
  Req.KeepContext = false;
  Req.TestCrash = M.header("x-crash");

  // Run the job on the session pool; this connection thread meanwhile
  // watches the socket so a client that disconnects mid-job cancels it
  // instead of leaving a zombie burning a worker.
  std::mutex Mu;
  std::condition_variable Cv;
  bool Done = false;
  SolveResponse Resp;
  auto Tok = Session.newJobToken();
  if (!Session.trySubmit(std::move(Req), Tok,
                         [&](SolveResponse R) {
                           std::lock_guard<std::mutex> Lock(Mu);
                           Resp = std::move(R);
                           Done = true;
                           Cv.notify_all();
                         },
                         Opts.MaxPending)) {
    Stats.Overloaded.fetch_add(1, std::memory_order_relaxed);
    return overloadedFrame("pending-job bound reached; retry later",
                           Session.pending());
  }
  {
    bool CancelledByPeer = false;
    std::unique_lock<std::mutex> Lock(Mu);
    while (!Done) {
      Cv.wait_for(Lock, std::chrono::milliseconds(50));
      if (Done)
        break;
      if (ConnFd >= 0 && !CancelledByPeer && peerGone(ConnFd)) {
        CancelledByPeer = true;
        Stats.Cancelled.fetch_add(1, std::memory_order_relaxed);
        Tok->request();
      }
    }
  }

  if (Resp.Status != ChcStatus::Unknown)
    Stats.Definitive.fetch_add(1, std::memory_order_relaxed);
  if (Resp.Cache != CacheSource::None)
    Stats.CacheHits.fetch_add(1, std::memory_order_relaxed);
  if (Resp.Error.Code == ErrorCode::WorkerCrashedSignal ||
      Resp.Error.Code == ErrorCode::WorkerCrashedRlimit ||
      Resp.Error.Code == ErrorCode::WorkerCrashedWedged)
    Stats.WorkerCrashes.fetch_add(1, std::memory_order_relaxed);

  WireMessage R;
  R.Verb = "result";
  R.Headers["status"] = chcStatusName(Resp.Status);
  if (!Resp.Fingerprint.empty())
    R.Headers["fingerprint"] = Resp.Fingerprint;
  R.Headers["cache"] = cacheSourceName(Resp.Cache);
  R.Headers["verified"] = Resp.CacheVerified ? "1" : "0";
  R.Headers["attempts"] = std::to_string(Resp.Attempts);
  R.Headers["depth"] = std::to_string(Resp.Depth);
  {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%.6f", Resp.Seconds);
    R.Headers["seconds"] = Buf;
  }
  R.Headers["smt-checks"] = std::to_string(Resp.Stats.SmtChecks);
  if (Resp.Error.isError())
    R.Headers["error"] = Resp.Error.describe();
  if (Resp.VerifyFailed)
    R.Headers["verify-failed"] = Resp.VerifyNote;
  if (!Resp.Tags.empty())
    R.Headers["tags"] = Resp.Tags;
  R.Body = Resp.SolutionText;
  return formatWireMessage(R);
}

std::string ServeDaemon::handle(const WireMessage &M, int ConnFd) {
  if (M.Verb == "ping") {
    WireMessage R;
    R.Verb = "pong";
    return formatWireMessage(R);
  }
  if (M.Verb == "stats") {
    WireMessage R;
    R.Verb = "stats";
    auto Put = [&](const char *K, uint64_t V) {
      R.Headers[K] = std::to_string(V);
    };
    Put("connections", Stats.Connections.load());
    Put("requests", Stats.Requests.load());
    Put("definitive", Stats.Definitive.load());
    Put("cache-hits", Stats.CacheHits.load());
    Put("cancelled", Stats.Cancelled.load());
    Put("bad-frames", Stats.BadFrames.load());
    Put("overloaded", Stats.Overloaded.load());
    Put("timed-out-conns", Stats.TimedOutConns.load());
    Put("worker-crashes", Stats.WorkerCrashes.load());
    ResultStore::Counters C = Store.counters();
    Put("store-mem-hits", C.MemHits);
    Put("store-disk-hits", C.DiskHits);
    Put("store-misses", C.Misses);
    Put("store-inserts", C.Inserts);
    Put("store-rejects", C.Rejects);
    Put("store-write-errors", C.WriteErrors);
    const ResultStore::RecoveryReport &RR = Store.recovery();
    Put("store-recovered-intact", RR.Intact);
    Put("store-quarantined", RR.Quarantined);
    Put("store-tmp-swept", RR.TmpSwept);
    Put("workers", Session.workers());
    Put("pending", Session.pending());
    return formatWireMessage(R);
  }
  if (M.Verb == "solve")
    return handleSolve(M, ConnFd);
  return errorFrame("unknown verb '" + M.Verb + "'");
}

void ServeDaemon::serveConnection(int InFd, int OutFd) {
  std::string Payload;
  while (!Stopping.load(std::memory_order_relaxed)) {
    FrameStatus FS = readFrameDeadline(InFd, Payload, Opts.MaxFrameBytes,
                                       Opts.ReadStallMs, Opts.IdleTimeoutMs);
    if (FS == FrameStatus::Eof)
      return;
    if (FS == FrameStatus::TimedOut) {
      // Slow-loris or vanished client: don't let a half-frame pin this
      // thread. Best-effort goodbye, then close.
      Stats.TimedOutConns.fetch_add(1, std::memory_order_relaxed);
      writeFrame(OutFd, errorFrame("read deadline exceeded"));
      return;
    }
    if (FS == FrameStatus::Oversized) {
      Stats.BadFrames.fetch_add(1, std::memory_order_relaxed);
      if (!writeFrame(OutFd, errorFrame("frame exceeds size limit")))
        return;
      continue; // The stream is still framed; keep serving.
    }
    if (FS != FrameStatus::Ok) {
      // Truncated or I/O error: the framing is gone, close.
      Stats.BadFrames.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    WireMessage M;
    std::string Err;
    std::string Response;
    if (!parseWireMessage(Payload, M, &Err)) {
      Stats.BadFrames.fetch_add(1, std::memory_order_relaxed);
      Response = errorFrame(Err);
    } else {
      Response = handle(M, InFd);
    }
    if (!writeFrame(OutFd, Response))
      return;
  }
}

int ServeDaemon::runStdio() {
  Stats.Connections.fetch_add(1, std::memory_order_relaxed);
  serveConnection(0, 1);
  return 0;
}

int ServeDaemon::runSocket() {
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    std::perror("mucyc-serve: socket");
    return 1;
  }
  struct sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Opts.SocketPath.size() >= sizeof(Addr.sun_path)) {
    std::fprintf(stderr, "mucyc-serve: socket path too long\n");
    ::close(Fd);
    return 1;
  }
  std::strncpy(Addr.sun_path, Opts.SocketPath.c_str(),
               sizeof(Addr.sun_path) - 1);
  ::unlink(Opts.SocketPath.c_str());
  if (::bind(Fd, reinterpret_cast<struct sockaddr *>(&Addr), sizeof(Addr)) <
          0 ||
      ::listen(Fd, 64) < 0) {
    std::perror("mucyc-serve: bind/listen");
    ::close(Fd);
    return 1;
  }
  ListenFd.store(Fd);

  // Live connection fds, so stop() can shut them down and unblock their
  // reader threads before joining.
  std::set<int> LiveFds;
  std::mutex *FdsMu = &ThreadsMu;

  while (!Stopping.load(std::memory_order_relaxed)) {
    int Conn = ::accept(Fd, nullptr, nullptr);
    if (Conn < 0) {
      if (errno == EINTR)
        continue;
      break; // Listener closed by stop(), or a hard error.
    }
    Stats.Connections.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> Lock(*FdsMu);
      if (Stopping.load(std::memory_order_relaxed)) {
        ::close(Conn);
        break;
      }
      if (Opts.MaxConnections && LiveFds.size() >= Opts.MaxConnections) {
        // Shed at the door: a typed goodbye beats an unexplained hang
        // when every connection thread is taken.
        Stats.Overloaded.fetch_add(1, std::memory_order_relaxed);
        writeFrame(Conn, overloadedFrame("connection limit reached",
                                         Session.pending()));
        ::close(Conn);
        continue;
      }
      LiveFds.insert(Conn);
      ConnThreads.emplace_back([this, Conn, &LiveFds, FdsMu] {
        serveConnection(Conn, Conn);
        {
          std::lock_guard<std::mutex> Lock(*FdsMu);
          LiveFds.erase(Conn);
        }
        ::close(Conn);
      });
    }
  }

  // Unblock any connection thread still parked in read().
  {
    std::lock_guard<std::mutex> Lock(*FdsMu);
    for (int C : LiveFds)
      ::shutdown(C, SHUT_RDWR);
  }
  std::vector<std::thread> Threads;
  {
    std::lock_guard<std::mutex> Lock(ThreadsMu);
    Threads.swap(ConnThreads);
  }
  for (std::thread &T : Threads)
    T.join();
  int LFd = ListenFd.exchange(-1);
  if (LFd >= 0)
    ::close(LFd);
  ::unlink(Opts.SocketPath.c_str());
  return 0;
}

void ServeDaemon::stop() {
  Stopping.store(true, std::memory_order_relaxed);
  // Closing the listener kicks accept() out of its block; runSocket()'s
  // epilogue then shuts down live connections and joins.
  int Fd = ListenFd.exchange(-1);
  if (Fd >= 0) {
    ::shutdown(Fd, SHUT_RDWR);
    ::close(Fd);
  }
}
