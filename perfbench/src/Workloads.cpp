//===- perfbench/src/Workloads.cpp - fig2, btor2 and serve ----------------===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "Machines.h"
#include "Rename.h"

#include "bench_suite/Suite.h"
#include "chc/Export.h"
#include "runtime/Request.h"
#include "runtime/Serve.h"

#include <array>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace mucyc;

namespace perfbench {

namespace {

/// A configuration with its refine-step budget. Budgets are chosen so that
/// no pair comes near the safety deadline and a pass stays a few seconds.
struct ConfigSpec {
  const char *Name;
  const char *Tag; ///< Per-configuration metric suffix; "" for none.
  uint64_t Budget;
};

const ConfigSpec Fig2Configs[] = {
    {"SpacerTS(fig1)", "spacer_ts", 200},
    {"Ind(Yld(T,MBP(1)))", "ind_yld", 60},
    {"Ind(Ret(F,MBP(0)))", "ind_ret", 80},
    {"Ret(F,Model)", "ret_model", 20},
    {"Solve", "solve", 3},
};

const ConfigSpec Btor2Configs[] = {
    {"Ret(T,MBP(1))", "", 20},
    {"SpacerTS(fig1)", "spacer_ts", 20},
};

/// The daemon's default configuration, with the budget cold requests carry.
const ConfigSpec ServeConfig = {"Ret(T,MBP(1))", "", 30};

/// Reaching this is a failure, never a cut-off: the budgets above keep every
/// request far below it.
constexpr uint64_t SafetyDeadlineMs = 20000;

/// Set-up is repeated this often in each pass's process; setup_s is the
/// median over all of a run's set-ups.
constexpr unsigned SetupRepeats = 2;

/// With --seconds these fix how many passes (fig2, btor2) a run makes and
/// how often each serve system recurs warm; at --seconds 20: 5 fig2 passes
/// (5-9 s each on a 4-vCPU Xeon), 6 btor2 passes (5-7 s), 240 recurrences.
/// Per-pair means over the passes need a few passes, each in its own
/// process, to outvote one slow process; btor2's median pair sits at the
/// edge of a cluster and needs six. They scale the work, never cut it: the
/// counts depend only on --seconds.
constexpr double Fig2PassSeconds = 4.0;
constexpr double Btor2PassSeconds = 3.3;
constexpr double ServeRecurPerSecond = 12.0;

/// serve's stream is split over this many passes: pass 0 sends every cold
/// request among its share of the warm recurrences, and the later parts
/// send only warm recurrences to a daemon started on pass 0's store.
constexpr unsigned ServeStreamParts = 4;

/// After the stream, serve replays every cold request this often, each time
/// in a fresh process with a fresh daemon and store; cold_p50_ms is over
/// per-system medians of the 1 + ServeColdReplays cold requests.
constexpr unsigned ServeColdReplays = 4;

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T) {
  return std::chrono::duration<double>(Clock::now() - T).count();
}

SolverOptions optionsFor(const ConfigSpec &C) {
  auto O = SolverOptions::parse(C.Name);
  if (!O)
    throw std::runtime_error(std::string("bad configuration ") + C.Name);
  O->MaxRefineSteps = C.Budget;
  return *O;
}

std::string errorText(const SolveResponse &R) { return R.Error.describe(); }

bool budgetStop(const std::string &ErrorText) {
  return ErrorText.rfind("resource-exhausted-steps: refine-step budget", 0) ==
         0;
}

/// Folds an in-process response into the per-layer counters.
void countResponse(std::map<std::string, double> &C, const SolveResponse &R) {
  C["#responses"] += 1;
  C["solver.refine_calls"] += static_cast<double>(R.Stats.RefineCalls);
  C["solver.unfolds"] += static_cast<double>(R.Stats.Unfolds);
  C["solver.smt_checks"] += static_cast<double>(R.Stats.SmtChecks);
  C["#in_process.smt_checks"] += static_cast<double>(R.Stats.SmtChecks);
  C["solver.cache_hits"] += static_cast<double>(R.Stats.SmtCacheHits);
  C["solver.pool_retires"] += static_cast<double>(R.Stats.PoolRetires);
  C["runtime.attempts"] += R.Attempts;
  C["runtime.retries"] += static_cast<double>(R.Stats.Retries);
  C["runtime.degradations"] += static_cast<double>(R.Stats.Degradations);
  if (budgetStop(errorText(R)))
    C["solver.budget_stops"] += 1;
}

/// Folds a daemon `result` reply into the per-layer counters: the counts
/// its headers carry (the engine may have run in a forked worker).
void countReply(std::map<std::string, double> &C, const WireMessage &Reply) {
  C["#responses"] += 1;
  C["runtime.attempts"] += std::strtod(Reply.header("attempts", "0").c_str(),
                                       nullptr);
  C["solver.smt_checks"] +=
      std::strtod(Reply.header("smt-checks", "0").c_str(), nullptr);
  if (budgetStop(Reply.header("error")))
    C["solver.budget_stops"] += 1;
}

/// Seeded permutation of 0..N-1 (Fisher-Yates).
std::vector<size_t> permutation(size_t N, uint64_t Seed) {
  std::vector<size_t> P(N);
  for (size_t I = 0; I < N; ++I)
    P[I] = I;
  Rng R(Seed);
  for (size_t I = N; I > 1; --I)
    std::swap(P[I - 1], P[R.below(I)]);
  return P;
}

uint64_t mix(uint64_t A, uint64_t B) {
  return Rng(A * 0x9e3779b97f4a7c15ull ^ (B + 0x632be59bd9b4e019ull)).next();
}

/// SMT-LIB2 text of every suite instance, in suite order.
struct ExportedSuite {
  std::vector<std::string> Names, Expected, Texts;
};

ExportedSuite exportSuite() {
  ExportedSuite S;
  for (const BenchInstance &B : buildSuite()) {
    TermContext Ctx;
    NormalizedChc N = B.Build(Ctx);
    S.Names.push_back(B.Name);
    S.Expected.push_back(chcStatusName(B.Expected));
    S.Texts.push_back("; " + B.Name + "\n" + exportSmtLib(Ctx, N));
  }
  return S;
}

/// The fixed warm-up pass every workload's set-up ends with: each layer
/// once, through the same entry points the workloads use, so code paths
/// and allocator pools are warm before timing and every layer has spans in
/// the traced run. Solves two paper examples as text under each Fig. 2
/// configuration, one store round trip (cold insert, then a hit), and one
/// BTOR2 machine under each btor2 configuration.
void warmUp(RunReport &Rep, const ExportedSuite &Suite,
            const std::vector<Machine> &Machines, const std::string &Dir) {
  auto Text = [&](const char *Name) -> const std::string & {
    for (size_t I = 0; I < Suite.Names.size(); ++I)
      if (Suite.Names[I] == Name)
        return Suite.Texts[I];
    throw std::runtime_error(std::string("suite lacks ") + Name);
  };
  auto Run = [&](const std::string &T, const ConfigSpec &C, uint64_t Budget,
                 ResultStore *Store) {
    SolverOptions O = optionsFor(C);
    O.MaxRefineSteps = Budget;
    SolveRequest R = SolveRequest::fromText(T, O);
    R.DeadlineMs = SafetyDeadlineMs;
    trace::RequestScope Scope(Rep.Requests.add(C.Tag));
    SolveResponse Resp = solveRequest(R, Store, nullptr);
    countResponse(Rep.Counters, Resp);
  };
  for (const ConfigSpec &C : Fig2Configs)
    for (const char *Name : {"paper_ex4", "paper_ex5"})
      Run(Text(Name), C, std::min<uint64_t>(C.Budget, 3), nullptr);
  {
    ResultStore Store(Dir + "/warmup-store");
    for (int I = 0; I < 2; ++I)
      Run(Text("counter_safe_3"), ServeConfig, ServeConfig.Budget, &Store);
    Rep.Counters["runtime.store_rejects"] +=
        static_cast<double>(Store.counters().Rejects);
  }
  std::filesystem::remove_all(Dir + "/warmup-store");
  for (const ConfigSpec &C : Btor2Configs)
    Run(Machines.front().Text, C, C.Budget, nullptr);
}

//===----------------------------------------------------------------------===
// fig2 and btor2: pairs one at a time, in seeded order, no store
//===----------------------------------------------------------------------===

struct Pair {
  std::string Name;
  std::string Expected;
  const ConfigSpec *Config;
  std::function<SolveRequest()> Make;
};

/// Runs pass \p O.Pass over \p Pairs, in an order seeded by the seed and
/// the pass. The traced run re-verifies every definitive pass-0 answer of a
/// programmatic request at depth + 2 (what `mucyc --verify` does), outside
/// the timed region, as audit work; \p LastSys / \p LastCtx name the system
/// the last such request made.
void runPairs(RunReport &Rep, const RunOptions &O, std::vector<Pair> &Pairs,
              NormalizedChc *LastSys, TermContext **LastCtx) {
  auto Start = Clock::now();
  for (size_t I : permutation(Pairs.size(), mix(O.Seed, O.Pass))) {
    Pair &P = Pairs[I];
    SolveRequest R = P.Make();
    R.DeadlineMs = SafetyDeadlineMs;
    uint32_t Id = Rep.Requests.add(P.Config->Tag);
    if (LastCtx)
      *LastCtx = nullptr;
    SolveResponse Resp;
    double Secs;
    {
      trace::RequestScope Scope(Id);
      auto T0 = Clock::now();
      Resp = solveRequest(R, nullptr, nullptr);
      Secs = secondsSince(T0);
    }
    std::string Got = chcStatusName(Resp.Status);
    std::string Err = errorText(Resp);
    Outcome Out;
    Out.Key = P.Name + "|" + P.Config->Name;
    Out.Pass = O.Pass;
    Out.Warm = false; // No store: every request runs an engine.
    Out.Seconds = Secs;
    Out.Fail = classifyVerdict(P.Expected, Got, Err);
    Out.Solved = Got == P.Expected;
    Out.Line = Out.Key + "|" + Got + "|refine=" +
               std::to_string(Resp.Stats.RefineCalls) + "|smt=" +
               std::to_string(Resp.Stats.SmtChecks);
    std::fprintf(stderr, "pair %u %s %.4f\n", O.Pass, Out.Line.c_str(), Secs);
    if (Out.Fail != Failure::None)
      std::fprintf(stderr, "FAILED %s: %s (got %s, expected %s) %s\n",
                   Out.Key.c_str(), failureName(Out.Fail), Got.c_str(),
                   P.Expected.c_str(), Err.c_str());
    Rep.Outcomes.push_back(Out);
    countResponse(Rep.Counters, Resp);

    bool Definitive =
        Resp.Status == ChcStatus::Sat || Resp.Status == ChcStatus::Unsat;
    if (O.Traced && O.Pass == 0 && Definitive && LastCtx && *LastCtx &&
        Resp.Ctx.get() == *LastCtx) {
      trace::RequestScope Audit(
          Rep.Requests.add("", RequestTable::Kind::Audit));
      VerifyDiag D;
      bool Ok = Resp.Status == ChcStatus::Sat
                    ? verifyInvariant(*Resp.Ctx, *LastSys, Resp.Invariant, &D)
                    : verifyCexPiece(*Resp.Ctx, *LastSys, Resp.CexPiece,
                                     Resp.Depth + 2, &D);
      if (!Ok) {
        Rep.Counters["solver.verify_rejected"] += 1;
        std::fprintf(stderr, "verify rejected %s (%s): %s\n",
                     Out.Key.c_str(), verifyRuleName(D.Failed),
                     D.Message.c_str());
      }
    }
  }
  Rep.TimedWallSeconds = secondsSince(Start);
}

unsigned passesFor(unsigned Seconds, double PassSeconds) {
  return std::max(2u, static_cast<unsigned>(Seconds / PassSeconds));
}

RunReport runFig2(const RunOptions &O) {
  RunReport Rep;
  std::vector<BenchInstance> Suite;
  std::vector<Pair> Pairs;
  NormalizedChc LastSys;
  TermContext *LastCtx = nullptr;
  for (unsigned S = 0; S < SetupRepeats; ++S) {
    auto T0 = Clock::now();
    Suite = buildSuite();
    Pairs.clear();
    for (const ConfigSpec &C : Fig2Configs)
      for (const BenchInstance &B : Suite) {
        const BenchInstance *BP = &B;
        const ConfigSpec *CP = &C;
        Pairs.push_back(
            {B.Name, chcStatusName(B.Expected), CP, [BP, CP, &LastSys,
                                                     &LastCtx] {
               SolveRequest R = SolveRequest::fromBuilder(
                   [BP, &LastSys, &LastCtx](TermContext &Ctx) {
                     NormalizedChc N = BP->Build(Ctx);
                     LastSys = N;
                     LastCtx = &Ctx;
                     return N;
                   },
                   optionsFor(*CP));
               return R;
             }});
      }
    warmUp(Rep, exportSuite(), buildMachines(), O.RunDir);
    Rep.SetupSeconds.push_back(secondsSince(T0));
  }
  runPairs(Rep, O, Pairs, &LastSys, &LastCtx);
  return Rep;
}

RunReport runBtor2(const RunOptions &O) {
  RunReport Rep;
  std::vector<Pair> Pairs;
  for (unsigned S = 0; S < SetupRepeats; ++S) {
    auto T0 = Clock::now();
    std::vector<Machine> Machines = buildMachines();
    Pairs.clear();
    for (const ConfigSpec &C : Btor2Configs)
      for (const Machine &M : Machines) {
        const ConfigSpec *CP = &C;
        std::string Text = M.Text;
        Pairs.push_back({M.Name, M.Expected, CP, [CP, Text] {
                           return SolveRequest::fromText(Text,
                                                         optionsFor(*CP));
                         }});
      }
    warmUp(Rep, exportSuite(), Machines, O.RunDir);
    Rep.SetupSeconds.push_back(secondsSince(T0));
  }
  runPairs(Rep, O, Pairs, nullptr, nullptr);
  return Rep;
}

//===----------------------------------------------------------------------===
// serve: an in-process daemon driven by two closed-loop connections
//===----------------------------------------------------------------------===

int connectUnix(const std::string &Path) {
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::snprintf(Addr.sun_path, sizeof(Addr.sun_path), "%s", Path.c_str());
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

/// One wire round trip; false when the connection broke or the reply did
/// not decode.
bool roundTrip(int Fd, const WireMessage &M, WireMessage &Reply) {
  if (!writeFrame(Fd, formatWireMessage(M)))
    return false;
  std::string Payload;
  if (readFrame(Fd, Payload, 64u << 20) != FrameStatus::Ok)
    return false;
  return parseWireMessage(Payload, Reply, nullptr);
}

/// The daemon the way `mucyc-serve` runs it: crash isolation, a disk store,
/// default admission; two scheduler workers for the two connections.
class Daemon {
public:
  explicit Daemon(const std::string &Dir) {
    ServeOptions SO;
    SO.SocketPath = Dir + "/serve.sock";
    SO.StoreDir = Dir + "/store";
    SO.Jobs = 2;
    SO.BaseOpts.Isolate = IsolateMode::Crash;
    Socket = SO.SocketPath;
    D = std::make_unique<ServeDaemon>(std::move(SO));
    Thread = std::thread([this] { D->runSocket(); });
  }
  ~Daemon() {
    D->stop();
    Thread.join();
  }
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  /// Connects, retrying while the listener comes up; pings once.
  int connect() {
    for (int Try = 0; Try < 500; ++Try) {
      int Fd = connectUnix(Socket);
      if (Fd >= 0) {
        WireMessage Ping, Pong;
        Ping.Verb = "ping";
        if (roundTrip(Fd, Ping, Pong) && Pong.Verb == "pong")
          return Fd;
        ::close(Fd);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    throw std::runtime_error("daemon did not come up on " + Socket);
  }

  ServeDaemon &daemon() { return *D; }

private:
  std::string Socket;
  std::unique_ptr<ServeDaemon> D;
  std::thread Thread; // Last: joined before the members it uses go away.
};

/// One request of the serve plan. Warm copies carry the seed of their
/// renaming; their text is rendered just before the round trip, and only
/// for systems whose cold answer was definitive.
struct ServeRequest {
  size_t System;
  bool Warm;
  uint64_t RenameSeed;
  uint32_t Id = NoRequest;
};

/// The requests each of the two connections sends in pass \p Pass.
///
/// Systems alternate between the connections in suite order, so both carry
/// the same systems whatever the seed. The stream gives each system one
/// cold request and \p Recur warm recurrences, each under a fresh seeded
/// alpha-renaming, split evenly over the stream's parts: in part 0 each
/// connection sends a seeded shuffle of 1 + Recur / parts copies of each of
/// its systems, the first copy of a system being its cold request; later
/// parts shuffle Recur / parts warm copies. The passes after the stream
/// replay each connection's cold requests alone, in a seeded order. The
/// mix of systems is fixed; the seed only orders it and picks renamings.
std::array<std::vector<ServeRequest>, 2>
planServe(size_t NumSystems, uint64_t Seed, unsigned Pass, size_t Recur) {
  std::array<std::vector<ServeRequest>, 2> Plan;
  Rng R(mix(Seed, 202 + Pass));
  for (size_t C = 0; C < 2; ++C) {
    std::vector<size_t> Mine;
    for (size_t Sys = C; Sys < NumSystems; Sys += 2)
      Mine.push_back(Sys);
    if (Pass >= ServeStreamParts) {
      for (size_t K : permutation(Mine.size(), mix(Seed, 300 + 2 * Pass + C)))
        Plan[C].push_back({Mine[K], false, 0});
      continue;
    }
    size_t Copies1 = Recur / ServeStreamParts + (Pass == 0 ? 1 : 0);
    std::vector<size_t> Copies;
    for (size_t Sys : Mine)
      Copies.insert(Copies.end(), Copies1, Sys);
    std::vector<bool> Sent(NumSystems, Pass > 0);
    for (size_t K : permutation(Copies.size(), mix(Seed, 101 + 2 * Pass + C))) {
      size_t Sys = Copies[K];
      bool Warm = Sent[Sys];
      Sent[Sys] = true;
      Plan[C].push_back({Sys, Warm, Warm ? R.next() : 0});
    }
  }
  return Plan;
}

RunReport runServe(const RunOptions &O) {
  RunReport Rep;
  size_t Recur = static_cast<size_t>(ServeRecurPerSecond * O.Seconds);
  // The later stream parts start their daemon on the store pass 0 filled;
  // every other pass starts on an empty one.
  bool Continues = O.Pass > 0 && O.Pass < ServeStreamParts;
  const std::string ColdFile = O.RunDir + "/cold-answers";
  std::unique_ptr<Daemon> D;
  int Fds[2] = {-1, -1};
  // Stops the running daemon, folding in its counters, and with \p Start
  // starts one and connects both clients.
  auto Restart = [&](bool Start) {
    if (D) {
      for (int &Fd : Fds)
        ::close(Fd);
      Rep.Counters["runtime.serve_shed"] +=
          static_cast<double>(D->daemon().stats().Overloaded.load());
      Rep.Counters["runtime.store_rejects"] +=
          static_cast<double>(D->daemon().store().counters().Rejects);
      D.reset();
    }
    if (Start) {
      if (!Continues)
        std::filesystem::remove_all(O.RunDir + "/store");
      D = std::make_unique<Daemon>(O.RunDir);
      for (int &Fd : Fds)
        Fd = D->connect();
    }
  };
  ExportedSuite Suite;
  std::array<std::vector<ServeRequest>, 2> Plan;
  // Pass 0's cold answers: only definitively answered systems recur, and a
  // warm answer must repeat its system's cold one.
  std::vector<std::string> ColdStatus;
  for (unsigned S = 0; S < SetupRepeats; ++S) {
    Restart(false);
    auto T0 = Clock::now();
    Suite = exportSuite();
    Plan = planServe(Suite.Texts.size(), O.Seed, O.Pass, Recur);
    ColdStatus.assign(Suite.Texts.size(), "");
    if (Continues) {
      std::ifstream In(ColdFile);
      for (std::string &St : ColdStatus)
        if (!(In >> St))
          throw std::runtime_error("serve: pass 0 left no cold answers");
    }
    Restart(true);
    warmUp(Rep, Suite, buildMachines(), O.RunDir);
    Rep.SetupSeconds.push_back(secondsSince(T0));
  }
  for (auto &Conn : Plan)
    for (ServeRequest &Q : Conn)
      Q.Id = Rep.Requests.add(ServeConfig.Tag, RequestTable::Kind::Daemon);
  std::mutex ColdMu;
  struct ConnState {
    std::vector<Outcome> Outs;
    std::map<std::string, double> Counters;
    unsigned WarmMismatch = 0;
  };
  ConnState Conns[2];
  auto Client = [&](size_t C) {
    ConnState &K = Conns[C];
    bool Broken = false;
    for (const ServeRequest &Q : Plan[C]) {
      std::string Cold;
      {
        std::lock_guard<std::mutex> Lock(ColdMu);
        Cold = ColdStatus[Q.System];
      }
      if (Q.Warm && Cold != "sat" && Cold != "unsat")
        continue; // Only definitively answered systems recur.
      Outcome Out;
      Out.Key = Suite.Names[Q.System];
      Out.Pass = O.Pass;
      Out.Warm = Q.Warm;
      WireMessage M, Reply;
      M.Verb = "solve";
      M.Headers["max-refine-steps"] = std::to_string(ServeConfig.Budget);
      M.Headers["deadline-ms"] = std::to_string(SafetyDeadlineMs);
      M.Headers["tags"] = "pb:" + std::to_string(Q.Id);
      M.Body = Q.Warm ? alphaRename(Suite.Texts[Q.System], Q.RenameSeed)
                      : Suite.Texts[Q.System];
      auto T0 = Clock::now();
      bool Ok = !Broken && roundTrip(Fds[C], M, Reply);
      Out.Seconds = secondsSince(T0);
      if (!Ok) {
        Broken = true;
        Out.Fail = Failure::Broken;
      } else if (Reply.Verb == "overloaded") {
        Out.Fail = Failure::Overloaded;
      } else if (Reply.Verb != "result") {
        Out.Fail = Failure::ServeError;
      } else {
        countReply(K.Counters, Reply);
        std::string Got = Reply.header("status");
        Out.Fail = classifyVerdict(Suite.Expected[Q.System], Got,
                                   Reply.header("error"));
        Out.Solved = Got == Suite.Expected[Q.System];
        Out.ServeWaitSeconds =
            Out.Seconds - std::strtod(Reply.header("seconds", "0").c_str(),
                                      nullptr);
        if (!Q.Warm) {
          Out.Line = Out.Key + "|cold|" + Got + "|smt=" +
                     Reply.header("smt-checks") + "|depth=" +
                     Reply.header("depth");
          std::lock_guard<std::mutex> Lock(ColdMu);
          ColdStatus[Q.System] = Got;
          std::fprintf(stderr, "cold %u %s %.4f\n", O.Pass, Out.Line.c_str(),
                       Out.Seconds);
        } else if (Got != Cold || Reply.header("cache") == "cold") {
          ++K.WarmMismatch;
        }
      }
      if (Out.Fail != Failure::None)
        std::fprintf(stderr, "FAILED %s (%s): %s %s\n", Out.Key.c_str(),
                     Q.Warm ? "warm" : "cold", failureName(Out.Fail),
                     Reply.header("error", Reply.header("detail")).c_str());
      K.Outs.push_back(Out);
    }
  };
  auto Start = Clock::now();
  std::thread T1(Client, 0), T2(Client, 1);
  T1.join();
  T2.join();
  Rep.TimedWallSeconds = secondsSince(Start);
  Restart(false);

  unsigned WarmMismatch = 0;
  for (ConnState &K : Conns) {
    Rep.Outcomes.insert(Rep.Outcomes.end(), K.Outs.begin(), K.Outs.end());
    for (const auto &[Name, V] : K.Counters)
      Rep.Counters[Name] += V;
    WarmMismatch += K.WarmMismatch;
  }
  if (O.Pass < ServeStreamParts)
    Rep.DigestLines.push_back("warm-mismatches." + std::to_string(O.Pass) +
                              "=" + std::to_string(WarmMismatch));
  if (O.Pass == 0) {
    std::ofstream Out(ColdFile);
    for (const std::string &St : ColdStatus)
      Out << (St.empty() ? "-" : St) << "\n";
  }
  return Rep;
}

} // namespace

const std::vector<std::string> &fig2ConfigTags() {
  static const std::vector<std::string> Tags = [] {
    std::vector<std::string> T;
    for (const ConfigSpec &C : Fig2Configs)
      T.push_back(C.Tag);
    return T;
  }();
  return Tags;
}

WorkloadShape workloadShape(const RunOptions &O) {
  if (O.Workload == "fig2")
    return {passesFor(O.Seconds, Fig2PassSeconds), 1, 1};
  if (O.Workload == "btor2")
    return {passesFor(O.Seconds, Btor2PassSeconds), 1, 1};
  if (O.Workload == "serve")
    return {ServeStreamParts + ServeColdReplays, 2, ServeStreamParts};
  throw std::runtime_error("unknown workload '" + O.Workload + "'");
}

RunReport runWorkload(const RunOptions &O) {
  if (O.Workload == "fig2")
    return runFig2(O);
  if (O.Workload == "btor2")
    return runBtor2(O);
  if (O.Workload == "serve")
    return runServe(O);
  throw std::runtime_error("unknown workload '" + O.Workload + "'");
}

} // namespace perfbench
