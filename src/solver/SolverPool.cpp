//===- solver/SolverPool.cpp - Incremental solver reuse -------------------===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "solver/SolverPool.h"

using namespace mucyc;

SmtSolver &SolverPool::solverFor(TermRef Base) {
  uint32_t Key = Base.isValid() ? Base.Idx : UINT32_MAX;
  std::unique_ptr<SmtSolver> &Slot = Pool[Key];
  if (Slot && Slot->numAtoms() > AtomLimit) {
    Slot.reset();
    ++Retires;
  }
  if (!Slot) {
    Slot = std::make_unique<SmtSolver>(Ctx);
    if (Base.isValid())
      Slot->assertFormula(Base);
  }
  return *Slot;
}

SolverPool::Result SolverPool::check(TermRef Base,
                                     const std::vector<TermRef> &Rest) {
  SmtSolver &S = solverFor(Base);
  Result R;
  R.St = S.check(Rest);
  if (R.St == SmtStatus::Sat)
    R.M = S.model();
  return R;
}
