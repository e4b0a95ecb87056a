//===- smt/SmtSolver.cpp - Lazy DPLL(T) solver ----------------------------===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "smt/SmtSolver.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

using namespace mucyc;

#ifndef NDEBUG
namespace {
/// MUCYC_VERIFY_CORES, read once per process.
bool verifyCores() {
  static const bool On = std::getenv("MUCYC_VERIFY_CORES") != nullptr;
  return On;
}
} // namespace
#endif

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

void SmtSolver::setCancelFlag(const std::atomic<bool> *Flag) {
  CancelFlag = Flag;
  Sat.setCancelFlag(Flag);
  Checker.setCancelFlag(Flag);
}

SmtStatus SmtSolver::check(const std::vector<TermRef> &Assumptions) {
  Core.clear();
  if (TriviallyUnsat)
    return SmtStatus::Unsat;

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
    if (CancelFlag && CancelFlag->load(std::memory_order_relaxed))
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
#ifndef NDEBUG
      if (verifyCores()) {
        static bool InVerify = false;
        if (!InVerify) {
          InVerify = true;
          std::vector<TermRef> CoreTerms;
          for (size_t I : Out.Core)
            CoreTerms.push_back(Lits[I].Pos ? Lits[I].Atom
                                            : Ctx.mkNot(Lits[I].Atom));
          if (quickCheck(Ctx, CoreTerms)) {
            std::fprintf(stderr, "[smt] BOGUS theory core:\n");
            for (TermRef T : CoreTerms)
              std::fprintf(stderr, "  %s\n", Ctx.toString(T).c_str());
            assert(false && "satisfiable theory core");
          }
          InVerify = false;
        }
      }
#endif
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
  if (check(Cur) == SmtStatus::Unsat) {
    // Seed from the solver's own core — already a (not necessarily
    // minimal) subset.
    Cur = unsatCore();
    // Deletion loop: drop one element; if the rest stays Unsat, the
    // element is permanently redundant and the probe's core reseeds the
    // working set. A Sat or Unknown probe puts the element back.
    for (size_t I = 0; I < Cur.size();) {
      std::vector<TermRef> Probe;
      Probe.reserve(Cur.size() - 1);
      for (size_t J = 0; J < Cur.size(); ++J)
        if (J != I)
          Probe.push_back(Cur[J]);
      ++Spent;
      if (check(Probe) == SmtStatus::Unsat) {
        // Keep the probe's core members in Probe order. unsatCore() lists
        // the failed assumption first and the rest in trail order, so
        // adopting it as-is could move an unprobed element below I, where
        // it would never be tested. The elements before I were probed
        // (all necessary unless a probe came back Unknown); I becomes the
        // number of them that survive.
        const std::vector<TermRef> &Sub = unsatCore();
        std::vector<TermRef> Next;
        size_t NextI = 0;
        for (size_t J = 0; J < Probe.size(); ++J)
          if (std::find(Sub.begin(), Sub.end(), Probe[J]) != Sub.end()) {
            Next.push_back(Probe[J]);
            NextI += J < I;
          }
        Cur = std::move(Next);
        I = NextI;
      } else {
        ++I;
      }
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
  // quickCheck has no in-band Unknown: a blown lemma budget here is a
  // recoverable resource trip, not a programmer error.
  if (St == SmtStatus::Unknown)
    raiseError(ErrorCode::ResourceExhaustedSteps,
               "lemma budget exhausted in quickCheck");
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
