//===- smt/SmtSolver.cpp - Lazy DPLL(T) solver ----------------------------===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "smt/SmtSolver.h"

#include <algorithm>

using namespace mucyc;

TermRef SmtSolver::eliminateDivides(TermRef F, unsigned Depth) {
  // Builders keep formulas flat (and/or splice their kids), so legitimate
  // nesting is shallow; anything this deep would overflow the stack first.
  if (Depth > 8192)
    raiseError(ErrorCode::ResourceExhaustedDepth,
               "formula nesting exceeds divide-elimination depth guard");
  const TermNode &N = Ctx.node(F);
  switch (N.K) {
  case Kind::Divides: {
    auto It = DividesRewrite.find(F.Idx);
    if (It != DividesRewrite.end())
      return It->second;
    // (d | t)  becomes  (r = 0)  with fresh q, r constrained by
    // t = d*q + r  and  0 <= r <= d-1. The witnesses exist for any t, so
    // this is an equisatisfiable conservative extension under both
    // polarities of the atom.
    assert(N.Val.isInt());
    TermRef T = N.Kids[0];
    TermRef Q = Ctx.mkFreshVar("div!q", Sort::Int);
    TermRef R = Ctx.mkFreshVar("div!r", Sort::Int);
    TermRef D = Ctx.mkConst(N.Val, Sort::Int);
    TermRef Def =
        Ctx.mkEq(T, Ctx.mkAdd(Ctx.mkMul(N.Val, Q), R));
    TermRef Range = Ctx.mkAnd(Ctx.mkGe(R, Ctx.mkIntConst(0)),
                              Ctx.mkLt(R, D));
    assertPermanent(Ctx.mkAnd(Def, Range));
    TermRef Repl = Ctx.mkEq(R, Ctx.mkIntConst(0));
    DividesRewrite.emplace(F.Idx, Repl);
    return Repl;
  }
  case Kind::Not:
    return Ctx.mkNot(eliminateDivides(N.Kids[0], Depth + 1));
  case Kind::And:
  case Kind::Or: {
    std::vector<TermRef> Kids;
    Kids.reserve(N.Kids.size());
    for (TermRef Kid : N.Kids)
      Kids.push_back(eliminateDivides(Kid, Depth + 1));
    return N.K == Kind::And ? Ctx.mkAnd(std::move(Kids))
                            : Ctx.mkOr(std::move(Kids));
  }
  default:
    return F;
  }
}

void SmtSolver::assertPermanent(TermRef F) {
  if (Ctx.kind(F) == Kind::True)
    return;
  if (Ctx.kind(F) == Kind::False) {
    TriviallyUnsat = true;
    return;
  }
  if (!Sat.addClause({Enc.encode(F)}))
    TriviallyUnsat = true;
}

void SmtSolver::assertFormula(TermRef F) {
  F = eliminateDivides(F);
  if (Scopes.empty())
    return assertPermanent(F);
  if (Ctx.kind(F) == Kind::True)
    return;
  // Guarded assertion: (F \/ not a_k). Asserting False inside a scope
  // degenerates to the unit (not a_k), which conflicts with the scope's
  // assumption while it is open and becomes the pop() retraction unit
  // afterwards — the scope is unsat now and harmless once popped.
  SatLit Guard(Scopes.back().ActVar, /*Negated=*/true);
  if (Ctx.kind(F) == Kind::False) {
    Sat.addClause({Guard});
    return;
  }
  Sat.addClause({Enc.encode(F), Guard});
}

void SmtSolver::push() { Scopes.push_back(Scope{Sat.newVar()}); }

void SmtSolver::pop() {
  assert(!Scopes.empty() && "pop without matching push");
  // Fix the activation variable false at the root: every clause guarded by
  // this scope — original or learned — is satisfied through the guard
  // literal from now on, so the clause database stays sound verbatim.
  // Activation variables are never reused.
  Sat.addClause({SatLit(Scopes.back().ActVar, /*Negated=*/true)});
  Scopes.pop_back();
}

SmtStatus SmtSolver::check(const std::vector<TermRef> &Assumptions) {
  // The one place a check is counted: first the attempt's count, then the
  // fault-injection ordinal, which may throw.
  const TermContext::Governance &Gov = Ctx.governance();
  if (Gov.Checks)
    ++*Gov.Checks;
  if (Gov.Faults)
    Gov.Faults->onSmtCheck();
  Core.clear();
  if (TriviallyUnsat)
    return SmtStatus::Unsat;
  // Whatever flag the context carries now governs this check, down to the
  // CDCL core and the theory layer; the deadline is polled with it.
  Sat.setCancelFlag(Gov.Cancel);
  Checker.setCancelFlag(Gov.Cancel);

  // Assume the activation literal of every open scope, then the user
  // assumptions. Core extraction below filters through AsmMap, so
  // activation literals never leak into unsatCore().
  std::vector<SatLit> AsmLits;
  std::vector<std::pair<SatLit, TermRef>> AsmMap;
  for (const Scope &Sc : Scopes)
    AsmLits.push_back(SatLit(Sc.ActVar, /*Negated=*/false));
  for (TermRef A : Assumptions) {
    TermRef E = eliminateDivides(A);
    if (Ctx.kind(E) == Kind::True)
      continue;
    if (Ctx.kind(E) == Kind::False) {
      Core = {A};
      return SmtStatus::Unsat;
    }
    SatLit L = Enc.encode(E);
    AsmLits.push_back(L);
    AsmMap.emplace_back(L, A);
  }

  std::vector<TheoryLit> Lits;
  std::vector<SatLit> LitSat;
  for (uint64_t Iter = 0; Iter < LemmaBudget; ++Iter) {
    if (Ctx.stopRequested())
      return SmtStatus::Unknown;
    SatSolver::Result SatRes = Sat.solve(AsmLits);
    if (SatRes == SatSolver::Result::Interrupted)
      return SmtStatus::Unknown;
    if (SatRes == SatSolver::Result::Unsat) {
      for (SatLit L : Sat.conflictCore())
        for (const auto &[AL, AT] : AsmMap)
          if (AL == L && std::find(Core.begin(), Core.end(), AT) == Core.end())
            Core.push_back(AT);
      return SmtStatus::Unsat;
    }

    // Extract theory literals from the propositional model.
    Lits.clear();
    LitSat.clear();
    for (const Tseitin::Atom &A : Enc.atoms()) {
      if (A.Parsed.S == Sort::Bool)
        continue; // Boolean variable: no theory content.
      bool Pos = Sat.modelValue(A.SatVar);
      Lits.push_back(TheoryLit{A.Term, Pos, &A.Parsed});
      LitSat.push_back(SatLit(A.SatVar, /*Negated=*/!Pos));
    }

    ArithChecker::Outcome Out = Checker.check(Lits);
    switch (Out.St) {
    case ArithChecker::Status::Feasible: {
      Assignment Assign = Checker.arithModel();
      for (const Tseitin::Atom &A : Enc.atoms())
        if (A.Parsed.S == Sort::Bool)
          Assign[A.Parsed.BoolVar] = Value::boolean(Sat.modelValue(A.SatVar));
      LastModel = Model(std::move(Assign));
      return SmtStatus::Sat;
    }
    case ArithChecker::Status::Infeasible: {
      // Block this theory-inconsistent combination.
      std::vector<SatLit> Blocking;
      Blocking.reserve(Out.Core.size());
      for (size_t I : Out.Core)
        Blocking.push_back(~LitSat[I]);
      if (!Sat.addClause(std::move(Blocking))) {
        TriviallyUnsat = true;
        return SmtStatus::Unsat;
      }
      break;
    }
    case ArithChecker::Status::Unknown:
      return SmtStatus::Unknown;
    }
  }
  return SmtStatus::Unknown;
}

std::vector<TermRef>
SmtSolver::minimizeCore(const std::vector<TermRef> &Assumptions,
                        unsigned *Probes) {
  unsigned Spent = 1;
  std::vector<TermRef> Cur = Assumptions;
  MinimizeStatus = check(Cur);
  if (MinimizeStatus == SmtStatus::Unsat) {
    // Seed from the solver's own core — already a (not necessarily
    // minimal) subset.
    Cur = unsatCore();
    std::vector<TermRef> Necessary;
    for (size_t I = 0; I < Cur.size();) {
      if (std::find(Necessary.begin(), Necessary.end(), Cur[I]) !=
          Necessary.end()) {
        ++I;
        continue;
      }
      std::vector<TermRef> Probe;
      Probe.reserve(Cur.size() - 1);
      for (size_t J = 0; J < Cur.size(); ++J)
        if (J != I)
          Probe.push_back(Cur[J]);
      ++Spent;
      SmtStatus St = check(Probe);
      if (St == SmtStatus::Unsat) {
        // Every element dropped here is redundant; the scan restarts on
        // the (possibly even smaller) refreshed core.
        Cur = unsatCore();
        I = 0;
        continue;
      }
      if (St == SmtStatus::Sat)
        Necessary.push_back(Cur[I]);
      ++I;
    }
  }
  if (Probes)
    *Probes = Spent;
  // Restore order as in the original assumption list (cosmetic: callers
  // rebuild clauses from the subset and want stable renderings).
  std::vector<TermRef> Out;
  Out.reserve(Cur.size());
  for (TermRef A : Assumptions)
    if (std::find(Cur.begin(), Cur.end(), A) != Cur.end() &&
        std::find(Out.begin(), Out.end(), A) == Out.end())
      Out.push_back(A);
  return Out;
}

std::optional<Model> SmtSolver::quickCheck(TermContext &Ctx,
                                           const std::vector<TermRef> &Conj) {
  SmtSolver S(Ctx);
  for (TermRef F : Conj)
    S.assertFormula(F);
  SmtStatus St = S.check();
  if (St == SmtStatus::Unknown)
    raiseUnknown(Ctx, "lemma budget exhausted in quickCheck");
  if (St == SmtStatus::Sat)
    return S.model();
  return std::nullopt;
}

bool SmtSolver::implies(TermContext &Ctx, TermRef A, TermRef B) {
  return !quickCheck(Ctx, {A, Ctx.mkNot(B)}).has_value();
}

bool SmtSolver::equivalent(TermContext &Ctx, TermRef F, TermRef G) {
  return implies(Ctx, F, G) && implies(Ctx, G, F);
}

ErrorInfo SmtSolver::unknownError(const TermContext &Ctx, const char *Detail) {
  if (Ctx.cancelRequested())
    return {ErrorCode::Cancelled, "cancelled during SMT check"};
  if (Ctx.deadlinePassed())
    return {ErrorCode::Timeout, "deadline expired during SMT check"};
  return {ErrorCode::ResourceExhaustedSteps, Detail};
}

void SmtSolver::raiseUnknown(const TermContext &Ctx, const char *Detail) {
  ErrorInfo I = unknownError(Ctx, Detail);
  raiseError(I.Code, std::move(I.Detail));
}
