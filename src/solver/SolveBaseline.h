//===- solver/SolveBaseline.h - Unroll-and-check baseline -------*- C++ -*-===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Solve configuration of Section 7.2: an Unno-Kobayashi-style method
/// that iteratively expands the CHCs, solves the recursion-free expansion
/// (disregarding any previous trace), and checks whether the obtained
/// solution is inductive. Our recursion-free solver computes the exact
/// per-level reach sets with QE and generalizes them level by level with
/// interpolation before the inductiveness check.
///
//===----------------------------------------------------------------------===//

#ifndef MUCYC_SOLVER_SOLVEBASELINE_H
#define MUCYC_SOLVER_SOLVEBASELINE_H

#include "solver/ChcSolve.h"

namespace mucyc {

/// Runs the baseline in the attempt's context.
SolverResult runSolveBaseline(EngineContext &E);

} // namespace mucyc

#endif // MUCYC_SOLVER_SOLVEBASELINE_H
