//===- bench/ts_suite.cpp - Hardware-workload baseline --------------------===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The BTOR2 frontend's benchmark family: saturating / free-running /
// wrap-around counters at widths 8-64 and clocked FIFO occupancy trackers
// at depths 4-32, generated as BTOR2 text and pushed through the real
// frontend (parse -> bounded-integer lowering -> {iota, tau, beta}
// encoding) before solving. Emits per-instance rows and a summary to
// BENCH_ts.json so later perf PRs have a hardware-workload trajectory to
// compare against, exactly like BENCH_portfolio.json / BENCH_arith.json.
//
//   ts_suite [--timeout-ms N] [--config NAME] [--json FILE]
//
// Exit status: 0 when no definitive verdict contradicts the family's
// expected answer, 1 otherwise (an Unknown under timeout is not a failure
// — it shows up as unsolved in the JSON).
//
//===----------------------------------------------------------------------===//

#include "runtime/Request.h"

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace mucyc;

namespace {

std::string num(unsigned long long V) { return std::to_string(V); }

/// All-ones value of width W as a decimal string (2^64 - 1 fits uint64_t).
unsigned long long onesOf(unsigned W) {
  return W >= 64 ? ~0ull : (1ull << W) - 1;
}

/// Counter at width W. Mode "safe": saturates 5 below the top, bad one
/// above the saturation point (unreachable — interval invariant). Mode
/// "unsafe": free-running from 0, bad at 5 (reachable at depth 5). Mode
/// "wrap": starts 2 below the top and increments, bad at 1 — reachable
/// only through the wrap-around case split, so a broken modular lowering
/// flips this family's verdict.
std::string counterBtor2(unsigned W, const std::string &Mode) {
  unsigned long long Top = onesOf(W);
  std::string T;
  T += "1 sort bitvec " + num(W) + "\n";
  T += "2 state 1 c\n";
  T += "8 sort bitvec 1\n";
  if (Mode == "safe") {
    unsigned long long Sat = Top - 5, Bad = Top - 4;
    T += "3 zero 1\n";
    T += "4 init 1 2 3\n";
    T += "5 constd 1 " + num(Sat) + "\n";
    T += "9 ult 8 2 5\n";
    T += "10 inc 1 2\n";
    T += "11 ite 1 9 10 2\n";
    T += "12 next 1 2 11\n";
    T += "13 constd 1 " + num(Bad) + "\n";
    T += "14 eq 8 2 13\n";
    T += "15 bad 14\n";
  } else if (Mode == "unsafe") {
    T += "3 zero 1\n";
    T += "4 init 1 2 3\n";
    T += "10 inc 1 2\n";
    T += "12 next 1 2 10\n";
    T += "13 constd 1 5\n";
    T += "14 eq 8 2 13\n";
    T += "15 bad 14\n";
  } else { // wrap
    T += "3 constd 1 " + num(Top - 1) + "\n";
    T += "4 init 1 2 3\n";
    T += "10 inc 1 2\n";
    T += "12 next 1 2 10\n";
    T += "13 constd 1 1\n";
    T += "14 eq 8 2 13\n";
    T += "15 bad 14\n";
  }
  return T;
}

/// FIFO occupancy tracker of depth D: push/pop inputs, environment
/// constraints forbid pushing when full and popping when empty, bad is an
/// occupancy overflow. Safe with invariant cnt <= D.
std::string fifoBtor2(unsigned D) {
  std::string T;
  T += "1 sort bitvec 8\n";
  T += "2 sort bitvec 1\n";
  T += "3 state 1 cnt\n";
  T += "4 input 2 push\n";
  T += "5 input 2 pop\n";
  T += "6 zero 1\n";
  T += "7 init 1 3 6\n";
  T += "8 constd 1 " + num(D) + "\n";
  // cnt' = cnt + push - pop, expressed with ites.
  T += "9 inc 1 3\n";
  T += "10 dec 1 3\n";
  T += "11 ite 1 5 10 3\n";  // pop ? cnt-1 : cnt
  T += "12 ite 1 5 3 9\n";   // pop ? cnt   : cnt+1
  T += "13 ite 1 4 12 11\n"; // push ? (pop ? cnt : cnt+1) : (pop ? cnt-1 : cnt)
  T += "14 next 1 3 13\n";
  // No push when full, no pop when empty.
  T += "15 ugte 2 3 8\n";
  T += "16 and 2 4 15\n";
  T += "17 not 2 16\n";
  T += "18 constraint 17\n";
  T += "19 zero 1\n";
  T += "20 eq 2 3 19\n";
  T += "21 and 2 5 20\n";
  T += "22 not 2 21\n";
  T += "23 constraint 22\n";
  T += "24 ugt 2 3 8\n";
  T += "25 bad 24\n";
  return T;
}

struct Row {
  std::string Name;
  std::string Family;
  ChcStatus Expected;
  std::string Text;
};

} // namespace

int main(int Argc, char **Argv) {
  uint64_t TimeoutMs = 10000;
  std::string Config = "Ret(T,MBP(1))";
  std::string JsonPath = "BENCH_ts.json";
  for (int I = 1; I < Argc; ++I) {
    if (!std::strcmp(Argv[I], "--timeout-ms") && I + 1 < Argc)
      TimeoutMs = std::strtoull(Argv[++I], nullptr, 10);
    else if (!std::strcmp(Argv[I], "--config") && I + 1 < Argc)
      Config = Argv[++I];
    else if (!std::strcmp(Argv[I], "--json") && I + 1 < Argc)
      JsonPath = Argv[++I];
    else {
      std::fprintf(stderr, "usage: ts_suite [--timeout-ms N] "
                           "[--config NAME] [--json FILE]\n");
      return 1;
    }
  }
  auto Opts = SolverOptions::parse(Config);
  if (!Opts) {
    std::fprintf(stderr, "bad config: %s\n", Config.c_str());
    return 1;
  }
  Opts->TimeoutMs = TimeoutMs;

  std::vector<Row> Rows;
  for (unsigned W : {8u, 16u, 32u, 64u}) {
    Rows.push_back({"counter_safe_w" + num(W), "counter", ChcStatus::Sat,
                    counterBtor2(W, "safe")});
    Rows.push_back({"counter_unsafe_w" + num(W), "counter",
                    ChcStatus::Unsat, counterBtor2(W, "unsafe")});
    Rows.push_back({"counter_wrap_w" + num(W), "counter", ChcStatus::Unsat,
                    counterBtor2(W, "wrap")});
  }
  for (unsigned D : {4u, 8u, 16u, 32u})
    Rows.push_back(
        {"fifo_d" + num(D), "fifo", ChcStatus::Sat, fifoBtor2(D)});

  std::printf("%-20s %-8s %-8s %9s %10s\n", "instance", "expect", "got",
              "seconds", "smt-checks");
  unsigned Solved = 0;
  bool Sound = true;
  double Wall = 0;
  std::string Json;
  for (const Row &B : Rows) {
    SolveResponse R = solveRequest(SolveRequest::fromText(
        B.Text, *Opts, /*Preprocess=*/true, InputFormat::Btor2));
    if (R.Error.Code == ErrorCode::InputError) {
      std::fprintf(stderr, "%s: generated text failed to parse: %s\n",
                   B.Name.c_str(), R.Error.Detail.c_str());
      return 1;
    }
    Wall += R.Seconds;
    if (R.Status == B.Expected)
      ++Solved;
    else if (R.Status != ChcStatus::Unknown)
      Sound = false;
    std::printf("%-20s %-8s %-8s %9.3f %10llu%s\n", B.Name.c_str(),
                chcStatusName(B.Expected), chcStatusName(R.Status),
                R.Seconds, static_cast<unsigned long long>(R.Stats.SmtChecks),
                R.Status != B.Expected && R.Status != ChcStatus::Unknown
                    ? "   <- WRONG"
                    : "");
    std::fflush(stdout);
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "    {\"name\": \"%s\", \"family\": \"%s\", "
                  "\"expected\": \"%s\", \"got\": \"%s\", "
                  "\"seconds\": %.4f, \"smt_checks\": %llu}",
                  B.Name.c_str(), B.Family.c_str(),
                  chcStatusName(B.Expected), chcStatusName(R.Status),
                  R.Seconds,
                  static_cast<unsigned long long>(R.Stats.SmtChecks));
    if (!Json.empty())
      Json += ",\n";
    Json += Buf;
  }

  std::printf("solved %u/%zu in %.3f s%s\n", Solved, Rows.size(), Wall,
              Sound ? "" : "  [UNSOUND VERDICT]");

  std::FILE *F = std::fopen(JsonPath.c_str(), "w");
  if (F) {
    std::fprintf(F,
                 "{\n  \"config\": \"%s\",\n  \"timeout_ms\": %llu,\n"
                 "  \"instances\": [\n%s\n  ],\n  \"solved\": %u,\n"
                 "  \"total\": %zu,\n  \"wall_seconds\": %.4f,\n"
                 "  \"sound\": %s\n}\n",
                 Config.c_str(),
                 static_cast<unsigned long long>(TimeoutMs), Json.c_str(),
                 Solved, Rows.size(), Wall, Sound ? "true" : "false");
    std::fclose(F);
  } else {
    std::fprintf(stderr, "cannot write %s\n", JsonPath.c_str());
  }
  return Sound ? 0 : 1;
}
