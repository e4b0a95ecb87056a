//===- perfbench/src/Machines.cpp - The BTOR2 hardware machines -----------===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Same generators as bench/ts_suite.cpp, so the btor2 workload solves the
// machines BENCH_ts.json reports on.
//
//===----------------------------------------------------------------------===//

#include "Machines.h"

namespace perfbench {

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

} // namespace

std::vector<Machine> buildMachines() {
  std::vector<Machine> Ms;
  for (unsigned W : {8u, 16u, 32u, 64u}) {
    Ms.push_back({"counter_safe_w" + num(W), "sat", counterBtor2(W, "safe")});
    Ms.push_back(
        {"counter_unsafe_w" + num(W), "unsat", counterBtor2(W, "unsafe")});
    Ms.push_back({"counter_wrap_w" + num(W), "unsat", counterBtor2(W, "wrap")});
  }
  for (unsigned D : {4u, 8u, 16u, 32u})
    Ms.push_back({"fifo_d" + num(D), "sat", fifoBtor2(D)});
  return Ms;
}

} // namespace perfbench
