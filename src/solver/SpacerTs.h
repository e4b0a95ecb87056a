//===- solver/SpacerTs.h - Spacer as an abstract transition system -*- C++ -*-===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The classical description of Spacer (Fig. 1 of the paper, after
/// Komuravelli et al. 2015), executed with a Z3-like rule order: a linear
/// monotone trace of frames, a DFS stack of queries, and a (cumulative or
/// per-level) under-approximation U of the reachable states.
///
/// Two switches reproduce the paper's divergence analysis (Sections 3.3,
/// 5.2, Appendix C):
///  * Fig15: use the PLDI-reviewer "fix" arguments — (DecideMust')/
///    (DecideMay') without the frame, (Successor') without the query — which
///    repairs the loop-invariance issue but keeps cumulative U, the second
///    source of divergence.
///  * ULevels: manage U per level as in the original Spacer (Komuravelli et
///    al. 2014/2016), restoring the finiteness of each U_i.
///
//===----------------------------------------------------------------------===//

#ifndef MUCYC_SOLVER_SPACERTS_H
#define MUCYC_SOLVER_SPACERTS_H

#include "solver/ChcSolve.h"

namespace mucyc {

/// Runs the Fig. 1 / Fig. 15 transition system in the attempt's context.
SolverResult runSpacerTs(EngineContext &E);

} // namespace mucyc

#endif // MUCYC_SOLVER_SPACERTS_H
