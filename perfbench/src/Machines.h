//===- perfbench/src/Machines.h - The BTOR2 hardware machines ---*- C++ -*-===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sixteen machines of bench/ts_suite.cpp, generated as BTOR2 text:
/// counters at widths 8/16/32/64 in safe/unsafe/wrap modes and FIFO
/// occupancy trackers at depths 4-32, each with its ground-truth verdict.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_MACHINES_H
#define PERFBENCH_MACHINES_H

#include <string>
#include <vector>

namespace perfbench {

struct Machine {
  std::string Name;
  std::string Expected; ///< "sat" (safe) or "unsat" (bad reachable).
  std::string Text;     ///< BTOR2.
};

std::vector<Machine> buildMachines();

} // namespace perfbench

#endif // PERFBENCH_MACHINES_H
