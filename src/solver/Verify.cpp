//===- solver/Verify.cpp - Independent answer checking --------------------===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "solver/Verify.h"

using namespace mucyc;

const char *mucyc::verifyRuleName(VerifyDiag::Rule R) {
  switch (R) {
  case VerifyDiag::Rule::None:
    return "none";
  case VerifyDiag::Rule::InitClause:
    return "init-clause";
  case VerifyDiag::Rule::StepClause:
    return "step-clause";
  case VerifyDiag::Rule::QueryClause:
    return "query-clause";
  case VerifyDiag::Rule::NotBad:
    return "not-bad";
  case VerifyDiag::Rule::NotReachable:
    return "not-reachable";
  }
  return "?";
}

namespace {

void setDiag(VerifyDiag *Diag, VerifyDiag::Rule R, std::string Msg) {
  if (!Diag)
    return;
  Diag->Failed = R;
  Diag->Message = std::move(Msg);
}

} // namespace

bool mucyc::verifyInvariant(TermContext &F, const NormalizedChc &N,
                            TermRef Inv, VerifyDiag *Diag) {
  setDiag(Diag, VerifyDiag::Rule::None, "");
  if (!Inv.isValid()) {
    setDiag(Diag, VerifyDiag::Rule::InitClause,
            "no invariant was produced for a sat answer");
    return false;
  }
  // Each check is phrased as "find a witness of the violation" so a
  // failure can report the clause together with a concrete counter-model.
  // iota(z) => Inv(z).
  if (auto M = SmtSolver::quickCheck(F, {N.Init, F.mkNot(Inv)})) {
    setDiag(Diag, VerifyDiag::Rule::InitClause,
            "invariant violates the init clause iota(z) => P(z): initial "
            "state " + M->toString(F) + " is outside the invariant");
    return false;
  }
  // Inv(x) /\ Inv(y) /\ tau(x, y, z) => Inv(z).
  if (auto M = SmtSolver::quickCheck(
          F, {N.zToX(F, Inv), N.zToY(F, Inv), N.Trans, F.mkNot(Inv)})) {
    setDiag(Diag, VerifyDiag::Rule::StepClause,
            "invariant violates the step clause P(x) /\\ P(y) /\\ "
            "tau(x,y,z) => P(z): counter-model " + M->toString(F) +
                " steps out of the invariant");
    return false;
  }
  // Inv(z) /\ beta(z) => false.
  if (auto M = SmtSolver::quickCheck(F, {Inv, N.Bad})) {
    setDiag(Diag, VerifyDiag::Rule::QueryClause,
            "invariant violates the query clause P(z) /\\ beta(z) => "
            "false: bad state " + M->toString(F) +
                " satisfies the invariant");
    return false;
  }
  return true;
}

bool mucyc::verifyCexPiece(TermContext &F, const NormalizedChc &N,
                           TermRef Gamma, int MaxK, VerifyDiag *Diag) {
  setDiag(Diag, VerifyDiag::Rule::None, "");
  if (!Gamma.isValid()) {
    setDiag(Diag, VerifyDiag::Rule::NotBad,
            "no counterexample piece was produced for an unsat answer");
    return false;
  }
  // Some state in Gamma must be bad...
  if (!SmtSolver::quickCheck(F, {Gamma, N.Bad})) {
    setDiag(Diag, VerifyDiag::Rule::NotBad,
            "counterexample piece violates the query clause P(z) /\\ "
            "beta(z) => false: no state of gamma satisfies beta");
    return false;
  }
  // ...and Gamma /\ Bad must be reachable. Unroll once (one exact
  // post-image per height) and stop at the first height that witnesses the
  // intersection or at a fixed point, past which every frame is the same.
  ReachFrames Reach(F, N);
  for (int K = 1; K <= MaxK; ++K) {
    if (SmtSolver::quickCheck(F, {Reach.frame(), Gamma, N.Bad}).has_value())
      return true;
    if (K == MaxK || !Reach.next())
      break;
  }
  setDiag(Diag, VerifyDiag::Rule::NotReachable,
          "counterexample piece is not derivable: gamma /\\ beta misses "
          "every reach frame up to height " + std::to_string(MaxK));
  return false;
}
