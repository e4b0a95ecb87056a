//===- itp/Interpolate.cpp - Craig interpolation --------------------------===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "itp/Interpolate.h"

#include "mbp/Qe.h"
#include "smt/SmtSolver.h"
#include "support/Error.h"

#include <algorithm>

using namespace mucyc;

std::vector<TermRef>
mucyc::generalizeBlockedCube(TermContext &Ctx, TermRef A,
                             const std::vector<TermRef> &Lits) {
  // The result is a function of the hash-consed inputs alone (a fresh
  // solver, fixed budgets), so a repeated call is answered from the
  // context's memo before any solver is built.
  std::vector<TermRef> Key;
  Key.reserve(Lits.size() + 1);
  Key.push_back(A);
  Key.insert(Key.end(), Lits.begin(), Lits.end());
  TermContext::TermListMemo &Memo = Ctx.blockedCubeMemo();
  if (auto It = Memo.find(Key); It != Memo.end())
    return It->second;

  // minimizeCore's first check asks whether A blocks the cube; its
  // deletion loop then shrinks that check's core.
  SmtSolver S(Ctx);
  S.assertFormula(A);
  std::vector<TermRef> Core = S.minimizeCore(Lits);
  // A probe cut short by the cancel flag or the deadline keeps its literal
  // unproven, so a call that saw either throws rather than return (and
  // store) a core that depends on when the attempt was stopped.
  if (S.minimizeStatus() == SmtStatus::Unknown || Ctx.stopRequested())
    SmtSolver::raiseUnknown(
        Ctx, "lemma budget exhausted while checking a blocked cube");
  MUCYC_INVARIANT(S.minimizeStatus() == SmtStatus::Unsat,
                  "cube is not blocked by A");
  // Stored only once the deletion loop is done: a call that throws leaves
  // no entry behind.
  Memo.emplace(std::move(Key), Core);
  return Core;
}

namespace {

/// If F is (syntactically) the negation of a cube, returns the cube's
/// literals: F = not(l1 /\ ... /\ ln) or F = (not l1 \/ ... \/ not ln).
std::optional<std::vector<TermRef>> negatedCube(TermContext &Ctx, TermRef F) {
  const TermNode &N = Ctx.node(F);
  std::vector<TermRef> Lits;
  if (N.K == Kind::Not && Ctx.kind(N.Kids[0]) == Kind::And) {
    for (TermRef Kid : Ctx.node(N.Kids[0]).Kids) {
      if (!Ctx.isLiteral(Kid))
        return std::nullopt;
      Lits.push_back(Kid);
    }
    return Lits;
  }
  if (N.K == Kind::Or) {
    for (TermRef Kid : N.Kids) {
      if (!Ctx.isLiteral(Kid))
        return std::nullopt;
      Lits.push_back(Ctx.mkNot(Kid));
    }
    return Lits;
  }
  if (Ctx.isLiteral(F))
    return std::vector<TermRef>{Ctx.mkNot(F)};
  return std::nullopt;
}

/// The Itp precondition |= A => B, checked in every build.
void requireImplies(TermContext &Ctx, TermRef A, TermRef B) {
  MUCYC_INVARIANT(SmtSolver::implies(Ctx, A, B),
                  "Itp precondition A => B violated");
}

} // namespace

TermRef mucyc::interpolate(TermContext &Ctx, TermRef A, TermRef B,
                           ItpMode Mode) {
  switch (Mode) {
  case ItpMode::WeakestB:
    requireImplies(Ctx, A, B);
    return B;
  case ItpMode::QeStrongest: {
    requireImplies(Ctx, A, B);
    std::vector<VarId> BVars = Ctx.freeVars(B);
    std::vector<VarId> Elim;
    for (VarId V : Ctx.freeVars(A))
      if (!std::binary_search(BVars.begin(), BVars.end(), V))
        Elim.push_back(V);
    return qeExists(Ctx, Elim, A);
  }
  case ItpMode::CubeGeneralize: {
    // Decompose B into conjuncts and generalize the clause-like ones. The
    // precondition is proved one conjunct at a time: a negated cube by the
    // generalization's first check (which raises when A does not block
    // the cube), the other conjuncts together by one implication check.
    std::vector<TermRef> Conjuncts;
    if (Ctx.kind(B) == Kind::And)
      Conjuncts = Ctx.node(B).Kids;
    else
      Conjuncts = {B};
    std::vector<TermRef> Out, Rest;
    Out.reserve(Conjuncts.size());
    for (TermRef Bj : Conjuncts) {
      if (auto Cube = negatedCube(Ctx, Bj)) {
        std::vector<TermRef> Small = generalizeBlockedCube(Ctx, A, *Cube);
        Out.push_back(Ctx.mkNot(Ctx.mkAnd(std::move(Small))));
      } else {
        Out.push_back(Bj); // Valid since A => Bj, checked below.
        Rest.push_back(Bj);
      }
    }
    if (!Rest.empty())
      requireImplies(Ctx, A, Ctx.mkAnd(std::move(Rest)));
    return Ctx.mkAnd(std::move(Out));
  }
  }
  raiseError(ErrorCode::InvariantViolation, "unknown interpolation mode");
}
