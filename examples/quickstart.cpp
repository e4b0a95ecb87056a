//===- examples/quickstart.cpp - First steps with mucyc -------------------===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Quickstart: build a CHC system with the programmatic API, solve it through
// the runtime's one job API (SolveRequest / solveRequest) with the paper's
// flagship configuration Ret(T, MBP(1)) (Algorithm 5 with counterexample
// accumulation and the Remark 16 snapshot refresh), and inspect the result.
//
// The system is the classic bounded counter:
//
//     x = 0                 => P(x)
//     P(x) /\ x < 5 /\ x'=x+1 => P(x')
//     P(x) /\ x > 5         => false        (assertion: x stays <= 5)
//
//===----------------------------------------------------------------------===//

#include "chc/Preprocess.h"
#include "runtime/Request.h"

#include <cstdio>
#include <optional>

using namespace mucyc;

namespace {

/// Builds the bounded counter in \p Ctx.
ChcSystem counterSystem(TermContext &Ctx) {
  ChcSystem Sys(Ctx);
  PredId P = Sys.addPred("P", {Sort::Int});
  TermRef X = Ctx.mkVar("x", Sort::Int);
  TermRef XNext = Ctx.mkVar("x_next", Sort::Int);

  Clause Init;
  Init.Constraint = Ctx.mkEq(X, Ctx.mkIntConst(0));
  Init.Head = PredApp{P, {X}};
  Sys.addClause(Init);

  Clause Step;
  Step.Body.push_back(PredApp{P, {X}});
  Step.Constraint = Ctx.mkAnd(Ctx.mkLt(X, Ctx.mkIntConst(5)),
                              Ctx.mkEq(XNext, Ctx.mkAdd(X, Ctx.mkIntConst(1))));
  Step.Head = PredApp{P, {XNext}};
  Sys.addClause(Step);

  Clause Query;
  Query.Body.push_back(PredApp{P, {X}});
  Query.Constraint = Ctx.mkGt(X, Ctx.mkIntConst(5));
  Sys.addClause(Query);
  return Sys;
}

} // namespace

int main() {
  // 1. The request solves in a private term context of its own, so its
  //    builder constructs the clauses there, runs the frontend (preprocess,
  //    normalize) and keeps what solution lifting needs.
  std::optional<ChcSystem> Orig, Work;
  std::optional<NormalizeResult> NR;
  auto Build = [&](TermContext &Ctx) {
    Orig.emplace(counterSystem(Ctx));
    Work.emplace(preprocess(*Orig));
    NR.emplace(normalize(*Work));
    return NR->Sys;
  };

  // 2. Pick a configuration (paper names work verbatim) and solve.
  SolverOptions Opts = *SolverOptions::parse("Ret(T,MBP(1))");
  Opts.TimeoutMs = 30000;
  Opts.VerifyResult = true; // Double-check the answer before returning it.
  SolveResponse R = solveRequest(SolveRequest::fromBuilder(Build, Opts));

  // 3. Inspect. The response keeps the context the system and the
  //    certificate live in.
  if (Orig)
    std::printf("System:\n%s\n", Orig->toString().c_str());
  std::printf("status    : %s\n", chcStatusName(R.Status));
  std::printf("depth     : %d\n", R.Depth);
  std::printf("SMT checks: %llu, MBP calls: %llu, interpolations: %llu\n",
              static_cast<unsigned long long>(R.Stats.SmtChecks),
              static_cast<unsigned long long>(R.Stats.MbpCalls),
              static_cast<unsigned long long>(R.Stats.ItpCalls));

  if (R.Status == ChcStatus::Sat) {
    ChcSolution Solution = NR->liftSolution(*Work, R.Invariant);
    for (const auto &[Pred, Def] : Solution) {
      std::printf("%s(", Orig->pred(Pred).Name.c_str());
      for (size_t I = 0; I < Def.Params.size(); ++I)
        std::printf("%s%s", I ? ", " : "",
                    R.Ctx->varInfo(Def.Params[I]).Name.c_str());
      std::printf(") := %s\n", R.Ctx->toString(Def.Body).c_str());
    }
    std::printf("solution checks against all clauses: %s\n",
                Orig->checkSolution(Solution) ? "yes" : "NO (bug!)");
  } else if (R.Status == ChcStatus::Unsat) {
    std::printf("counterexample region: %s\n",
                R.CexPiece.isValid() ? R.Ctx->toString(R.CexPiece).c_str()
                                     : "-");
  }
  return R.Status == ChcStatus::Sat ? 0 : 1;
}
