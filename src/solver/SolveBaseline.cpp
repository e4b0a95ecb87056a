//===- solver/SolveBaseline.cpp - Unroll-and-check baseline ---------------===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "solver/SolveBaseline.h"

#include "mbp/Qe.h"

using namespace mucyc;

SolverResult mucyc::runSolveBaseline(EngineContext &E) {
  TermContext &F = E.F;
  const NormalizedChc &N = E.N;
  SolverResult R;
  std::vector<VarId> Elim = EngineContext::concat(N.X, N.Y);

  auto Post = [&](TermRef Phi) {
    TermRef Step = F.mkAnd({N.zToX(F, Phi), N.zToY(F, Phi), N.Trans});
    return qeExists(F, Elim, Step);
  };

  // Exact reach sets by tree height: Exact[h] = states derivable with trees
  // of height <= h+1.
  std::vector<TermRef> Exact{N.Init};
  TermRef Alpha = F.mkNot(N.Bad);

  for (int K = 1; !E.expired(); ++K) {
    // One unroll-and-check round per depth counts as a refinement step so
    // MaxRefineSteps bounds this engine too.
    ++E.Stats.RefineCalls;
    R.Depth = K;
    // Bounded check on the exact sets (the recursion-free expansion).
    TermRef Top = Exact.back();
    if (E.sat({Top, N.Bad})) {
      R.Status = ChcStatus::Unsat;
      R.CexPiece = F.mkAnd(Top, N.Bad);
      break;
    }
    if (E.Aborted)
      break;

    // Solve the recursion-free system with generalization: bottom-up
    // interpolant chain zeta_h with iota \/ post(zeta_{h-1}) => zeta_h and
    // zeta_h => alpha; falls back to the exact sets when the chain breaks
    // (the generalization overshot).
    std::vector<TermRef> Zeta;
    Zeta.reserve(Exact.size());
    bool ChainOk = true;
    for (size_t H = 0; H < Exact.size() && ChainOk && !E.expired(); ++H) {
      TermRef A = H == 0 ? N.Init : F.mkOr(N.Init, Post(Zeta[H - 1]));
      if (!E.implies(A, Alpha)) {
        ChainOk = false;
        break;
      }
      Zeta.push_back(E.itp(A, Alpha));
    }
    if (E.Aborted)
      break;
    if (!ChainOk)
      Zeta = Exact; // Pure exact mode for this depth.

    // Inductiveness check: some suffix conjunction closed under the step.
    for (size_t I = 0; I < Zeta.size() && !E.expired(); ++I) {
      std::vector<TermRef> Conj(Zeta.begin() + I, Zeta.end());
      TermRef Inv = F.mkAnd(std::move(Conj));
      if (!E.implies(N.Init, Inv))
        continue;
      if (!E.implies(F.mkAnd({N.zToX(F, Inv), N.zToY(F, Inv), N.Trans}),
                     Inv))
        continue;
      if (E.sat({Inv, N.Bad}))
        continue;
      if (E.Aborted)
        break;
      R.Status = ChcStatus::Sat;
      R.Invariant = Inv;
      break;
    }
    if (R.Status == ChcStatus::Sat || E.Aborted)
      break;
    if (E.Opts.MaxDepth && K >= E.Opts.MaxDepth)
      break;

    // Expand one level.
    TermRef Next = F.mkOr(N.Init, Post(Exact.back()));
    if (E.implies(Next, Exact.back())) {
      // Exact convergence: safe.
      R.Status = ChcStatus::Sat;
      R.Invariant = Exact.back();
      break;
    }
    if (E.Aborted)
      break;
    Exact.push_back(F.mkOr(Exact.back(), Next));
  }
  return R;
}
