//===- solver/ChcSolve.cpp - Top-level CHC solving ------------------------===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "solver/ChcSolve.h"

#include "chc/Preprocess.h"
#include "mbp/Qe.h"
#include "solver/Refiner.h"
#include "solver/Share.h"
#include "solver/SolveBaseline.h"
#include "solver/SpacerTs.h"
#include "solver/Verify.h"

#include <chrono>

using namespace mucyc;

const char *mucyc::chcStatusName(ChcStatus S) {
  switch (S) {
  case ChcStatus::Sat:
    return "sat";
  case ChcStatus::Unsat:
    return "unsat";
  case ChcStatus::Unknown:
    return "unknown";
  }
  return "?";
}

std::unique_ptr<Refiner> mucyc::makeRefiner(EngineContext &E) {
  switch (E.Opts.Engine) {
  case EngineKind::Naive:
    return std::make_unique<NaiveRefiner>(E);
  case EngineKind::NaiveMbp:
    return std::make_unique<NaiveMbpRefiner>(E);
  case EngineKind::Ret:
    return std::make_unique<IndSpacerRefiner>(E);
  case EngineKind::Yld:
    return std::make_unique<YieldRefiner>(E);
  default:
    raiseError(ErrorCode::InvariantViolation,
               "engine without a refiner dispatched to solveInductive");
  }
}

SolverResult ChcSolver::solveInductive() {
  SolverResult R;
  EngineContext E(F, N, Opts);
  std::unique_ptr<Refiner> Ref = makeRefiner(E);
  Trace T(F);
  TermRef Alpha = F.mkNot(N.Bad);

  while (true) {
    // Algorithm 2 line 4: unfold.
    T.unfold();
    ++E.Stats.Unfolds;
    if (Opts.OptInduction && T.depth() >= 1)
      (void)0; // Unfold-time induction runs inside the refiners.

    // Cooperative portfolio: admit peers' lemmas at the unfold boundary.
    // Mon traces maintain cell[d+1] => cell[d], so they only take lemmas
    // inductive on their own, conjoined monotonically everywhere; plain
    // traces admit per level against the live cells.
    shareImportRound(
        E,
        E.Opts.OptMonotone ? ShareImportMode::Inductive
                           : ShareImportMode::FrameRelative,
        T.depth(), [&](int I) { return T.formula(I); },
        [&](int K, TermRef L) {
          T.strengthen(K, L, /*Monotone=*/E.Opts.OptMonotone);
        });
    if (E.Aborted)
      break;

    // Line 5: refine against the assertion. Any counterexample piece
    // witnesses a reachable bad state, so UNSAT follows immediately.
    std::optional<TermRef> Gamma = Ref->refine(T, 0, Alpha);
    if (E.Aborted)
      break;
    if (Gamma) {
      R.Status = ChcStatus::Unsat;
      R.CexPiece = *Gamma;
      break;
    }

    // Lines 9-11: invariant extraction. Inv_i = /\_{j<=i} cell[j]; it is a
    // solution when it implies the next level.
    std::vector<TermRef> Prefix;
    bool Found = false;
    for (int I = 0; I + 1 <= T.depth() && !Found; ++I) {
      Prefix.push_back(T.formula(I));
      TermRef Inv = F.mkAnd(Prefix);
      if (E.implies(Inv, T.formula(I + 1))) {
        R.Status = ChcStatus::Sat;
        R.Invariant = Inv;
        Found = true;
      }
      if (E.Aborted)
        break;
    }
    // Depth-0 corner: a single cell that already excludes bad states and is
    // closed (no transitions can occur from an empty system) is handled by
    // the general check above once depth >= 1.
    if (Found || E.Aborted)
      break;
    if (Opts.MaxDepth && T.depth() >= Opts.MaxDepth)
      break;
  }
  R.Depth = T.depth();
  R.Stats = E.Stats;
  if (R.Status == ChcStatus::Unknown)
    R.Error = E.AbortInfo;
  return R;
}

namespace {
/// Installs the run's resource gauge and fault injector on the term context
/// for the duration of one solving attempt, uninstalling on every exit path
/// (the gauge lives on the solve() stack frame; the context outlives it).
struct GovernanceScope {
  GovernanceScope(TermContext &F, ResourceGauge *G, FaultInjector *FI)
      : F(F) {
    if (G)
      F.setResourceGauge(G);
    if (FI)
      F.setFaultInjector(FI);
  }
  ~GovernanceScope() {
    F.setResourceGauge(nullptr);
    F.setFaultInjector(nullptr);
  }
  TermContext &F;
};
} // namespace

SolverResult ChcSolver::solve() {
  auto Start = std::chrono::steady_clock::now();
  SolverResult R;

  // Resource governance for this attempt. The gauge meters cumulative
  // allocation (term nodes, CDCL clauses, simplex rows) against MemLimitMb;
  // the injector fires seed-derived deterministic faults. Both are
  // installed on the context so every solver the attempt creates inherits
  // them, and uninstalled before verification/lifting below.
  ResourceGauge Gauge(Opts.MemLimitMb << 20);
  FaultInjector SeededFaults;
  if (!Opts.Faults && Opts.ChaosSeed) {
    SeededFaults = FaultInjector::fromSeed(Opts.ChaosSeed);
    Opts.Faults = &SeededFaults;
  }
  {
    GovernanceScope Scope(F, Opts.MemLimitMb ? &Gauge : nullptr, Opts.Faults);
    try {
      switch (Opts.Engine) {
      case EngineKind::SpacerTs:
        R = runSpacerTs(F, N, Opts);
        break;
      case EngineKind::Solve:
        R = runSolveBaseline(F, N, Opts);
        break;
      default:
        R = solveInductive();
        break;
      }
    } catch (const MucycError &E) {
      // The error boundary: a typed throw anywhere below (budget trip,
      // injected fault, invariant violation) lands here. The attempt's
      // engines and solvers are torn down by the unwind; the term context
      // only ever grew, so it stays consistent for a caller that retries
      // in a fresh context or reads the partial stats.
      R = SolverResult();
      R.Status = ChcStatus::Unknown;
      R.Error = E.info();
    }
  }
  if (Opts.Faults == &SeededFaults)
    Opts.Faults = nullptr;
  R.Seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            Start)
                  .count();
  if (Opts.VerifyResult && !R.Error.isError()) {
    VerifyDiag Diag;
    if (R.Status == ChcStatus::Sat &&
        !verifyInvariant(F, N, R.Invariant, &Diag)) {
      R.Status = ChcStatus::Unknown;
      R.VerifyFailed = true;
      R.VerifyNote = std::string(verifyRuleName(Diag.Failed)) + ": " +
                     Diag.Message;
    }
    if (R.Status == ChcStatus::Unsat &&
        !verifyCexPiece(F, N, R.CexPiece, R.Depth + 2, &Diag)) {
      R.Status = ChcStatus::Unknown;
      R.VerifyFailed = true;
      R.VerifyNote = std::string(verifyRuleName(Diag.Failed)) + ": " +
                     Diag.Message;
    }
  }
  return R;
}

SolverResult mucyc::solveChcSystem(ChcSystem &Sys, const SolverOptions &Opts,
                                   bool Preprocess, ChcSolution *SolutionOut) {
  ChcSystem Work = Preprocess ? preprocess(Sys) : Sys;
  NormalizeResult NR = normalize(Work);
  ChcSolver Solver(Sys.ctx(), NR.Sys, Opts);
  SolverResult R = Solver.solve();
  if (R.Status == ChcStatus::Sat && SolutionOut) {
    // Lift through the preprocessed system's layout; predicates eliminated
    // by preprocessing have no definition here (they were resolved away).
    *SolutionOut = NR.liftSolution(Work, R.Invariant);
  }
  return R;
}

//===----------------------------------------------------------------------===
// Ground truth
//===----------------------------------------------------------------------===

namespace {
/// Accumulates \p New into the disjunct set, skipping disjuncts already
/// implied by the union (keeps the exact-reach formulas from ballooning).
void addDisjuncts(TermContext &F, std::vector<TermRef> &Disjuncts,
                  TermRef New) {
  std::vector<TermRef> Parts = F.kind(New) == Kind::Or
                                   ? F.node(New).Kids
                                   : std::vector<TermRef>{New};
  for (TermRef P : Parts) {
    if (SmtSolver::implies(F, P, F.mkOr(Disjuncts)))
      continue;
    Disjuncts.push_back(P);
  }
}
} // namespace

ReachFrames::ReachFrames(TermContext &F, const NormalizedChc &N)
    : F(F), N(N), Disjuncts{N.Init}, Elim(EngineContext::concat(N.X, N.Y)) {}

TermRef ReachFrames::frame() const { return F.mkOr(Disjuncts); }

bool ReachFrames::next() {
  TermRef R = frame();
  TermRef Step = F.mkAnd({N.zToX(F, R), N.zToY(F, R), N.Trans});
  TermRef Post = qeExists(F, Elim, Step);
  size_t Before = Disjuncts.size();
  addDisjuncts(F, Disjuncts, Post);
  if (Disjuncts.size() == Before)
    return false;
  ++Height;
  return true;
}

TermRef mucyc::boundedReach(TermContext &F, const NormalizedChc &N, int K) {
  ReachFrames Reach(F, N);
  while (Reach.height() < K && Reach.next()) {
  }
  return Reach.frame();
}

ChcStatus mucyc::bmcStatus(TermContext &F, const NormalizedChc &N, int MaxK) {
  ReachFrames Reach(F, N);
  for (int H = 1; H <= MaxK; ++H) {
    if (SmtSolver::quickCheck(F, {Reach.frame(), N.Bad}))
      return ChcStatus::Unsat;
    if (!Reach.next())
      return ChcStatus::Sat; // Converged safely.
  }
  return ChcStatus::Unknown;
}
