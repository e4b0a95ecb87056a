//===- mbp/Qe.cpp - Quantifier elimination via MBP ------------------------===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "mbp/Qe.h"

#include "mbp/Mbp.h"
#include "smt/SmtSolver.h"

using namespace mucyc;

TermRef mucyc::qeExists(TermContext &Ctx, const std::vector<VarId> &Elim,
                        TermRef Phi) {
  if (Elim.empty())
    return Phi;
  // Algorithm 1. Incremental: phi /\ not(psi) is maintained by asserting the
  // negation of each new disjunct.
  SmtSolver Solver(Ctx);
  Solver.assertFormula(Phi);
  std::vector<TermRef> Disjuncts;
  while (true) {
    SmtStatus St = Solver.check();
    if (St == SmtStatus::Unknown)
      SmtSolver::raiseUnknown(
          Ctx, "lemma budget exhausted during quantifier elimination");
    if (St == SmtStatus::Unsat)
      break;
    TermRef Theta =
        mbp(Ctx, MbpStrategy::LazyProject, Elim, Phi, Solver.model());
    Disjuncts.push_back(Theta);
    Solver.assertFormula(Ctx.mkNot(Theta));
  }
  return Ctx.mkOr(std::move(Disjuncts));
}

TermRef mucyc::qeForall(TermContext &Ctx, const std::vector<VarId> &Elim,
                        TermRef Phi) {
  return Ctx.mkNot(qeExists(Ctx, Elim, Ctx.mkNot(Phi)));
}
