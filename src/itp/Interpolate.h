//===- itp/Interpolate.h - Craig interpolation ------------------*- C++ -*-===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Interpolation Itp(A, B) in the paper's sense (Section 2.1): given
/// |= A => B, produce theta with |= A => theta, |= theta => B, and the free
/// variables of theta contained in those of B. (The paper additionally
/// requires containment in vars(A); the refinement procedures only ever call
/// Itp with vars(B) a subset of the shared tuple, so the B-side containment
/// is the binding one. We check the A-side containment where it matters —
/// never, in practice — via the Strict flag in tests.)
///
/// mucyc has no proof-producing SMT core, so interpolants come from two
/// sources that together cover every call site:
///
///  * CubeGeneralize (default): decompose B into conjuncts. A conjunct that
///    is the negation of a cube — which is exactly what the refinement
///    queries look like, since queries are MBP outputs — is generalized by
///    unsat-core-guided literal dropping: find a minimal subcube c of the
///    blocked cube with A /\ c unsatisfiable and emit not(c). This is the
///    classical PDR lemma generalization, and it is exactly
///    SmtSolver::minimizeCore over the cube literals on a fresh solver
///    asserting A. Other conjuncts pass through unchanged (sound because
///    A => B).
///  * QeStrongest: the strongest interpolant, QE(exists (vars(A)\vars(B)). A).
///
/// The precondition |= A => B is checked in every build and raises
/// InvariantViolation when it fails. QeStrongest and WeakestB check it with
/// one implication. CubeGeneralize checks it one conjunct at a time: a
/// negated cube by the first check of its generalization, which already
/// asks whether A blocks the cube, and the other conjuncts together by one
/// implication.
///
/// Generalizations are memoized on the TermContext (blockedCubeMemo()),
/// keyed by A and the ordered cube literals. A generalization runs a fresh
/// solver with fixed budgets, so it is a function of its hash-consed
/// inputs: a repeated call returns exactly what a rebuild would, skipping
/// only the rebuild's gauge charges and the fresh witness variables of
/// divisibility atoms. A call that throws stores nothing, and one that
/// sees the context's cancel flag set or its deadline passed throws
/// Cancelled or Timeout.
///
//===----------------------------------------------------------------------===//

#ifndef MUCYC_ITP_INTERPOLATE_H
#define MUCYC_ITP_INTERPOLATE_H

#include "term/Term.h"

namespace mucyc {

enum class ItpMode {
  CubeGeneralize, ///< PDR-style lemma generalization (default).
  QeStrongest,    ///< Strongest interpolant via quantifier elimination.
  WeakestB,       ///< Returns B itself (weakest valid interpolant).
};

/// Computes an interpolant of A and B. Requires |= A => B (checked in every
/// build; raises InvariantViolation when it fails).
TermRef interpolate(TermContext &Ctx, TermRef A, TermRef B,
                    ItpMode Mode = ItpMode::CubeGeneralize);

/// Generalizes a blocked cube: given |= A => not(/\ Lits), returns a subset
/// S of Lits with |= A => not(/\ S), shrunk by SmtSolver::minimizeCore
/// until no single literal can be dropped. Raises InvariantViolation when
/// A does not block the cube, Cancelled or Timeout when the context's
/// cancel flag is set or its deadline has passed, and
/// ResourceExhaustedSteps when the first check runs out of budget. A
/// repeated A and literal list is answered from Ctx.blockedCubeMemo().
std::vector<TermRef> generalizeBlockedCube(TermContext &Ctx, TermRef A,
                                           const std::vector<TermRef> &Lits);

} // namespace mucyc

#endif // MUCYC_ITP_INTERPOLATE_H
