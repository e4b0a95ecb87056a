//===- perfbench/src/Main.cpp - Benchmark program entry point -------------===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//
//
//   perfbench --workload fig2|btor2|serve --seed N --seconds S --trace 0|1
//             --run-dir DIR
//
// Runs one workload and prints one JSON object as the last line of stdout:
// the end-to-end metrics, the failure tally, the work digest, noise
// diagnostics and, with --trace 1 in the traced build, the per-layer
// metrics with their sample counts. perfbench/run.py builds both programs and
// turns this into the benchmark's result line. Exit status: 0, or 1 when a
// definitive verdict contradicted ground truth, or 2 on a usage or set-up
// error.
//
// Each pass of the run is made by a fresh process: this program starts
// itself once per pass with --pass K (the child sets up, runs pass K and
// prints its outcomes, counters and, when traced, its folded spans, one
// record a line) and merges what the children print. A process keeps one
// speed for its whole life that the next process need not share, so one
// process per pass lets a run's passes outvote an unlucky process.
//
//===----------------------------------------------------------------------===//

#include "Stats.h"
#include "Trace.h"
#include "Workloads.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace perfbench;

namespace {

/// Host steal time so far, in seconds, from the aggregate line of
/// /proc/stat (8th field); 0 when unreadable.
double stealSeconds() {
  std::ifstream In("/proc/stat");
  std::string Cpu;
  unsigned long long F[8] = {};
  if (!(In >> Cpu) || Cpu != "cpu")
    return 0;
  for (unsigned long long &V : F)
    In >> V;
  return static_cast<double>(F[7]) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// CPU seconds of the pass processes (and their own children) waited for.
double childCpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_CHILDREN, &U);
  return static_cast<double>(U.ru_utime.tv_sec + U.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(U.ru_utime.tv_usec + U.ru_stime.tv_usec);
}

/// Peak resident set of this process (VmHWM), in MB. Forked workers are
/// separate processes and do not count.
double peakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

std::string num(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.12g", V);
  return Buf;
}

/// Request latencies in ms: all, warm and cold. On serve, all and warm are
/// the stream's requests as observed, and cold is each system's median over
/// its five cold requests (the stream's and the replays on fresh stores),
/// which keeps one slow fork out. fig2 and btor2 repeat identical passes
/// over the same pairs, each pass in its own process; a pair's latency
/// there is its mean over the passes. A process's speed shifts all of its
/// pass's pairs alike, and over six runs of five passes the mean gave a
/// steadier p50 than the median (interquartile spread 0.15 against 0.32 on
/// fig2). They have no store, so every request is cold, and warm reports
/// the same requests (the format asks every workload for every metric).
struct Latencies {
  std::vector<double> All, Warm, Cold;
};

Latencies latencies(const std::vector<Outcome> &Outcomes, bool Serve,
                    unsigned WorkPasses) {
  Latencies L;
  std::map<std::string, std::vector<double>> ByKey; // serve: cold only
  for (const Outcome &O : Outcomes) {
    double Ms = O.Seconds * 1000;
    if (!Serve || !O.Warm)
      ByKey[O.Key].push_back(Ms);
    if (Serve && O.Pass < WorkPasses) {
      L.All.push_back(Ms);
      if (O.Warm)
        L.Warm.push_back(Ms);
    }
  }
  for (const auto &[Key, Ms] : ByKey) {
    if (Serve)
      L.Cold.push_back(median(Ms));
    else
      L.All.push_back(mean(Ms));
  }
  if (!Serve)
    L.Warm = L.Cold = L.All;
  return L;
}

std::string tailJson(const std::vector<double> &Ms) {
  TailPercentile T = tailPercentile(Ms.size());
  return "{\"percentile\": " + num(T.Percentile) +
         ", \"value_ms\": " + num(T.Percentile ? percentile(Ms, T.Percentile) : 0) +
         ", \"samples\": " + std::to_string(T.Samples) + "}";
}

void usage() {
  std::fprintf(stderr, "usage: perfbench --workload fig2|btor2|serve "
                       "--seed N --seconds S --trace 0|1 --run-dir DIR "
                       "[--pass K]\n");
}

//===----------------------------------------------------------------------===
// Child: one pass, printed one record a line
//===----------------------------------------------------------------------===
//
//   setup <s> | timed <s> | rss <MB> | digest <line>
//   counter <name> <value> | layer <name> <value> <samples>
//   outcome <pass> <warm> <fail> <solved> <seconds> <wait-seconds>
//           TAB <key> TAB <line>

int runChild(const RunOptions &O) {
  RunReport R;
  try {
    R = runWorkload(O);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench: %s\n", E.what());
    return 2;
  }
  std::string Out;
  auto Rec = [&](const std::string &Line) { Out += Line + "\n"; };
  for (double S : R.SetupSeconds)
    Rec("setup " + num(S));
  Rec("timed " + num(R.TimedWallSeconds));
  Rec("rss " + num(peakRssMb()));
  for (const std::string &L : R.DigestLines)
    Rec("digest " + L);
  for (const auto &[K, V] : R.Counters)
    Rec("counter " + K + " " + num(V));
  if (O.Traced)
    for (const auto &[K, V] :
         summarizeSpans(trace::collect(), R.Requests, fig2ConfigTags()))
      Rec("layer " + K + " " + num(V.Value) + " " + std::to_string(V.Samples));
  bool Wrong = false;
  for (const Outcome &X : R.Outcomes) {
    Wrong |= X.Fail == Failure::WrongVerdict;
    Rec("outcome " + std::to_string(X.Pass) + " " + (X.Warm ? "1" : "0") +
        " " + std::to_string(static_cast<int>(X.Fail)) + " " +
        (X.Solved ? "1" : "0") + " " + num(X.Seconds) + " " +
        num(X.ServeWaitSeconds) + "\t" + X.Key + "\t" + X.Line);
  }
  std::fwrite(Out.data(), 1, Out.size(), stdout);
  return Wrong ? 1 : 0;
}

//===----------------------------------------------------------------------===
// Parent: one child per pass, merged
//===----------------------------------------------------------------------===

/// A run's passes merged from their processes' records.
struct Merged {
  std::vector<double> SetupSeconds;
  double TimedSeconds = 0, PeakRssMb = 0;
  std::vector<std::string> DigestLines;
  std::map<std::string, double> Counters;
  std::map<std::string, LayerValue> Layers;
  std::vector<Outcome> Outcomes;
};

/// Folds one child's records into \p M; false on a malformed record.
bool mergeRecords(const std::string &Text, Merged &M) {
  std::istringstream In(Text);
  std::string Line;
  while (std::getline(In, Line)) {
    std::istringstream F(Line);
    std::string Kind, Name;
    F >> Kind;
    double V = 0;
    if (Kind == "setup" && F >> V) {
      M.SetupSeconds.push_back(V);
    } else if (Kind == "timed" && F >> V) {
      M.TimedSeconds += V;
    } else if (Kind == "rss" && F >> V) {
      M.PeakRssMb = std::max(M.PeakRssMb, V);
    } else if (Kind == "digest") {
      M.DigestLines.push_back(Line.substr(7));
    } else if (Kind == "counter" && F >> Name >> V) {
      M.Counters[Name] += V;
    } else if (Kind == "layer" && F >> Name >> V) {
      uint64_t N = 0;
      if (!(F >> N))
        return false;
      M.Layers[Name].Value += V;
      M.Layers[Name].Samples += N;
    } else if (Kind == "outcome") {
      Outcome X;
      int Warm = 0, Fail = 0, Solved = 0;
      if (!(F >> X.Pass >> Warm >> Fail >> Solved >> X.Seconds >>
            X.ServeWaitSeconds) ||
          Fail < 0 || Fail >= NumFailureKinds)
        return false;
      X.Warm = Warm;
      X.Fail = static_cast<Failure>(Fail);
      X.Solved = Solved;
      size_t Tab = Line.find('\t');
      size_t Tab2 = Tab == std::string::npos ? Tab : Line.find('\t', Tab + 1);
      if (Tab2 == std::string::npos)
        return false;
      X.Key = Line.substr(Tab + 1, Tab2 - Tab - 1);
      X.Line = Line.substr(Tab2 + 1);
      M.Outcomes.push_back(std::move(X));
    } else {
      return false;
    }
  }
  return true;
}

/// Runs this program as a child for pass \p O.Pass and returns its exit
/// status (-1 when it could not start or died by a signal); its stdout
/// lands in \p Out.
int runPassProcess(const RunOptions &O, std::string &Out) {
  std::vector<std::string> Args = {
      "perfbench",      "--workload", O.Workload,
      "--seed",         std::to_string(O.Seed),
      "--seconds",      std::to_string(O.Seconds),
      "--trace",        O.Traced ? "1" : "0",
      "--run-dir",      O.RunDir,
      "--pass",         std::to_string(O.Pass)};
  std::vector<char *> Argv;
  for (std::string &A : Args)
    Argv.push_back(A.data());
  Argv.push_back(nullptr);
  int Pipe[2];
  if (::pipe(Pipe) != 0)
    return -1;
  std::fflush(nullptr);
  pid_t Pid = ::fork();
  if (Pid < 0) {
    ::close(Pipe[0]);
    ::close(Pipe[1]);
    return -1;
  }
  if (Pid == 0) {
    ::dup2(Pipe[1], STDOUT_FILENO);
    ::close(Pipe[0]);
    ::close(Pipe[1]);
    ::execv("/proc/self/exe", Argv.data());
    ::_exit(127);
  }
  ::close(Pipe[1]);
  char Buf[1 << 16];
  ssize_t N;
  while ((N = ::read(Pipe[0], Buf, sizeof(Buf))) != 0) {
    if (N > 0)
      Out.append(Buf, static_cast<size_t>(N));
    else if (errno != EINTR)
      break;
  }
  ::close(Pipe[0]);
  int Status = 0;
  while (::waitpid(Pid, &Status, 0) < 0 && errno == EINTR) {
  }
  return WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
}

} // namespace

int main(int Argc, char **Argv) {
  RunOptions O;
  bool Child = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc) {
      usage();
      return 2;
    }
    std::string V = Argv[++I];
    if (A == "--workload")
      O.Workload = V;
    else if (A == "--seed")
      O.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (A == "--seconds")
      O.Seconds = static_cast<unsigned>(std::strtoul(V.c_str(), nullptr, 10));
    else if (A == "--trace")
      O.Traced = V == "1";
    else if (A == "--run-dir")
      O.RunDir = V;
    else if (A == "--pass") {
      O.Pass = static_cast<unsigned>(std::strtoul(V.c_str(), nullptr, 10));
      Child = true;
    } else {
      usage();
      return 2;
    }
  }
  if (O.Workload.empty() || O.RunDir.empty()) {
    usage();
    return 2;
  }
  if (Child)
    return runChild(O);

  WorkloadShape Shape;
  try {
    Shape = workloadShape(O);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench: %s\n", E.what());
    return 2;
  }
  double Steal0 = stealSeconds();
  double Cpu0 = childCpuSeconds();
  auto Wall0 = std::chrono::steady_clock::now();
  Merged M;
  for (unsigned P = 0; P < Shape.Passes; ++P) {
    RunOptions PO = O;
    PO.Pass = P;
    std::string Out;
    int Status = runPassProcess(PO, Out);
    if ((Status != 0 && Status != 1) || !mergeRecords(Out, M)) {
      std::fprintf(stderr, "perfbench: pass %u failed (status %d)\n", P,
                   Status);
      return 2;
    }
  }
  double Wall = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                              Wall0)
                    .count();

  FailureTally Tally;
  uint64_t Solved = 0;
  for (const Outcome &Out : M.Outcomes) {
    Tally.add(Out.Fail);
    // Later passes repeat work: solved counts the work passes.
    if (Out.Solved && Out.Pass < Shape.WorkPasses)
      ++Solved;
  }

  // The digest: pass 0's lines, plus a count of later lines that differ
  // from pass 0's line for the same key.
  std::map<std::string, std::string> FirstLine;
  std::vector<std::string> Digest = M.DigestLines;
  for (const Outcome &Out : M.Outcomes)
    if (Out.Pass == 0 && !Out.Line.empty()) {
      FirstLine[Out.Key] = Out.Line;
      Digest.push_back(Out.Line);
    }
  unsigned Drift = 0;
  for (const Outcome &Out : M.Outcomes)
    if (Out.Pass != 0 && !Out.Line.empty() && FirstLine[Out.Key] != Out.Line)
      ++Drift;
  if (Drift)
    Digest.push_back("pass-drift=" + std::to_string(Drift));

  bool Serve = O.Workload == "serve";
  Latencies Lat = latencies(M.Outcomes, Serve, Shape.WorkPasses);
  const std::vector<double> &All = Lat.All, &Warm = Lat.Warm, &Cold = Lat.Cold;
  std::vector<double> PassTotals(Shape.Passes, 0);
  for (const Outcome &Out : M.Outcomes)
    PassTotals[Out.Pass] += Out.Seconds;
  // serve: the stream's requests; fig2/btor2: one pass of per-pair means.
  double SolveTotal = 0;
  for (double Ms : All)
    SolveTotal += Ms / 1000;
  // Requests completed per second of the connections' busy time: each
  // connection has one request in flight at a time.
  double ReqPerSec = static_cast<double>(All.size() * Shape.Connections) /
                     std::max(1e-9, SolveTotal);
  // serve: the share of the stream's busy time spent on cold requests.
  double ColdSeconds = 0;
  for (const Outcome &Out : M.Outcomes)
    if (Serve && Out.Pass < Shape.WorkPasses && !Out.Warm)
      ColdSeconds += Out.Seconds;
  double EngineShare = ColdSeconds / std::max(1e-9, SolveTotal);

  std::ostringstream J;
  J << "{\"workload\": \"" << O.Workload << "\", \"seed\": " << O.Seed
    << ", \"passes\": " << Shape.Passes << ", \"attempted\": " << Tally.Attempted
    << ", \"failed\": " << Tally.Failed << ", \"wrong\": " << Tally.Wrong
    << ", \"failures\": {";
  for (int K = 1; K < NumFailureKinds; ++K)
    J << (K > 1 ? ", " : "") << "\"" << failureName(static_cast<Failure>(K))
      << "\": " << Tally.ByKind[K];
  J << "}, \"digest\": \"" << orderFreeDigest(Digest)
    << "\", \"e2e\": {"
    << "\"solved\": " << Solved
    << ", \"solve_total_s\": " << num(SolveTotal)
    << ", \"latency_p50_ms\": " << num(percentile(All, 50))
    << ", \"latency_p90_ms\": " << num(percentile(All, 90))
    << ", \"req_per_s\": " << num(ReqPerSec)
    << ", \"warm_p50_ms\": " << num(percentile(Warm, 50))
    << ", \"warm_p99_ms\": " << num(percentile(Warm, 99))
    << ", \"cold_p50_ms\": " << num(percentile(Cold, 50))
    << ", \"peak_rss_mb\": " << num(M.PeakRssMb)
    << ", \"setup_s\": " << num(median(M.SetupSeconds)) << "}"
    << ", \"tails\": {\"all\": " << tailJson(All)
    << ", \"warm\": " << tailJson(Warm) << ", \"cold\": " << tailJson(Cold)
    << "}, \"pass_s\": [";
  for (size_t I = 0; I < PassTotals.size(); ++I)
    J << (I ? ", " : "") << num(PassTotals[I]);
  J << "], \"setup_samples_s\": [";
  for (size_t I = 0; I < M.SetupSeconds.size(); ++I)
    J << (I ? ", " : "") << num(M.SetupSeconds[I]);
  J << "], \"configs\": {";
  if (!Serve) {
    // Fig. 2's view: instances solved and seconds per configuration.
    std::map<std::string, std::vector<double>> Secs;
    std::map<std::string, unsigned> Got;
    for (const Outcome &Out : M.Outcomes) {
      std::string Cfg = Out.Key.substr(Out.Key.find('|') + 1);
      auto &V = Secs[Cfg];
      V.resize(Shape.Passes, 0);
      V[Out.Pass] += Out.Seconds;
      Got[Cfg] += Out.Solved && Out.Pass == 0;
    }
    bool First = true;
    for (const auto &[Cfg, V] : Secs) {
      J << (First ? "" : ", ") << "\"" << Cfg << "\": {\"solved\": "
        << Got[Cfg] << ", \"seconds\": " << num(median(V)) << "}";
      First = false;
    }
  }
  double RequestSeconds = 0;
  for (const Outcome &Out : M.Outcomes)
    RequestSeconds += Out.Seconds;
  J << "}, \"timed_s\": " << num(M.TimedSeconds)
    << ", \"request_s\": " << num(RequestSeconds)
    << ", \"engine_share\": " << num(EngineShare)
    << ", \"noise\": {\"wall_s\": " << num(Wall)
    << ", \"cpu_s\": " << num(childCpuSeconds() - Cpu0)
    << ", \"steal_s\": " << num(stealSeconds() - Steal0) << "}";

  if (O.Traced) {
    std::map<std::string, LayerValue> &L = M.Layers;
    auto Get = [&](const std::string &K) { return L[K].Value; };
    uint64_t Responses = static_cast<uint64_t>(M.Counters["#responses"]);
    for (const char *K :
         {"solver.refine_calls", "solver.unfolds", "solver.smt_checks",
          "solver.cache_hits", "solver.pool_retires", "solver.budget_stops",
          "solver.verify_rejected", "runtime.attempts", "runtime.retries",
          "runtime.degradations", "runtime.store_rejects",
          "runtime.serve_shed"})
      L[K] = LayerValue{M.Counters[K], Responses};
    auto Ratio = [&](double A, double B, uint64_t N) {
      return LayerValue{B > 0 ? A / B : 0, N};
    };
    L["solver.cache_hit_ratio"] =
        Ratio(Get("solver.cache_hits"),
              Get("solver.cache_hits") + Get("solver.smt_checks"), Responses);
    L["smt.theory_rounds_per_check"] =
        Ratio(Get("smt.theory_calls"), Get("smt.check_calls"),
              L["smt.check_calls"].Samples);
    // Over the requests solved in this process, whose SMT entry calls and
    // SolveStats the benchmark both sees (on serve: the warm-up only).
    L["smt.unreported_ratio"] =
        Ratio(Get("smt.in_process_check_calls"),
              M.Counters["#in_process.smt_checks"],
              L["smt.in_process_check_calls"].Samples);
    L["runtime.store_hit_ratio"] =
        Ratio(Get("runtime.store_hits"), Get("runtime.store_lookups"),
              L["runtime.store_lookups"].Samples);
    std::vector<double> WaitMs; // The stream's answered requests.
    if (Serve)
      for (const Outcome &Out : M.Outcomes)
        if (Out.Pass < Shape.WorkPasses && Out.Fail == Failure::None)
          WaitMs.push_back(Out.ServeWaitSeconds * 1000);
    L["runtime.serve_wait_p50_ms"] =
        LayerValue{percentile(WaitMs, 50), WaitMs.size()};
    L["runtime.serve_wait_p99_ms"] =
        LayerValue{percentile(WaitMs, 99), WaitMs.size()};
    J << ", \"layers\": {";
    bool First = true;
    for (const auto &[K, V] : L) {
      J << (First ? "" : ", ") << "\"" << K << "\": [" << num(V.Value) << ", "
        << V.Samples << "]";
      First = false;
    }
    J << "}";
  }
  J << "}";
  std::printf("%s\n", J.str().c_str());
  return Tally.Wrong ? 1 : 0;
}
