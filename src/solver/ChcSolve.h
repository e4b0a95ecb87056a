//===- solver/ChcSolve.h - Top-level CHC solving ----------------*- C++ -*-===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Algorithm 2: the outer loop that unfolds approximations, refines traces,
/// and extracts invariants — dispatching to the configured refinement
/// engine (Algorithms 3-6), the Fig. 1/15 transition system, or the Solve
/// baseline. This is the solving entry point on a normalized system; the
/// full pipeline (parse, preprocess, normalize, solve, lift the solution)
/// runs through solveRequest() (runtime/Request.h).
///
//===----------------------------------------------------------------------===//

#ifndef MUCYC_SOLVER_CHCSOLVE_H
#define MUCYC_SOLVER_CHCSOLVE_H

#include "chc/Normalize.h"
#include "solver/Engine.h"
#include "solver/Trace.h"

namespace mucyc {

enum class ChcStatus { Sat, Unsat, Unknown };

const char *chcStatusName(ChcStatus S);

struct SolverResult {
  ChcStatus Status = ChcStatus::Unknown;
  /// Sat: an inductive invariant phi(z) with iota => phi, phi closed under
  /// tau, and phi /\ beta unsatisfiable.
  TermRef Invariant;
  /// Unsat: a non-empty region gamma(z) of reachable bad states.
  TermRef CexPiece;
  /// Depth of the approximation at which the answer was found.
  int Depth = 0;
  SolveStats Stats;
  double Seconds = 0;
  /// Set when SolverOptions::VerifyResult demoted a definitive answer to
  /// Unknown because the independent check refuted it. This is always a
  /// bug in the engine (or the substrate it ran on); VerifyNote names the
  /// violated clause.
  bool VerifyFailed = false;
  std::string VerifyNote;
  /// Why an Unknown result is Unknown: budget trip, cancellation, timeout,
  /// invariant violation, or an injected fault. None for definitive
  /// answers. The runtime retry ladder keys off errorRecoverable(Code).
  ErrorInfo Error;
};

/// Solver for systems in the paper's normalized form.
class ChcSolver {
public:
  ChcSolver(TermContext &F, const NormalizedChc &N, SolverOptions Opts)
      : F(F), N(N), Opts(std::move(Opts)) {}

  SolverResult solve();

private:
  SolverResult solveInductive(EngineContext &E);

  TermContext &F;
  NormalizedChc N;
  SolverOptions Opts;
};

//===----------------------------------------------------------------------===
// Ground-truth utilities (used by Verify and the test-suite)
//===----------------------------------------------------------------------===

/// Exact reach frames R_1 = iota, R_{h+1} = iota \/ QE(exists xy. R_h(x)
/// /\ R_h(y) /\ tau), built one post-image per height and kept as a
/// subsumption-pruned disjunct set. A caller that visits every height up
/// to K pays K-1 post-images, where one boundedReach call per height pays
/// K(K-1)/2.
class ReachFrames {
public:
  ReachFrames(TermContext &F, const NormalizedChc &N);

  /// R_h for the current height h (1 after construction).
  TermRef frame() const;
  int height() const { return Height; }

  /// Advances to R_{h+1}. Returns false, leaving the frame as it is, when
  /// R_h is a fixed point: every later frame equals it.
  bool next();

private:
  TermContext &F;
  const NormalizedChc &N;
  std::vector<TermRef> Disjuncts;
  std::vector<VarId> Elim;
  int Height = 1;
};

/// Exact states reachable by derivation trees of height <= K (QE-based).
TermRef boundedReach(TermContext &F, const NormalizedChc &N, int K);

/// Bounded model checking: Unsat if a bad state is derivable within height
/// MaxK, Sat if the exact reach set converges safely first, else Unknown.
ChcStatus bmcStatus(TermContext &F, const NormalizedChc &N, int MaxK);

/// Diagnostic for a failed verification: names which of the normalized
/// system's clauses the candidate answer violates, with a witness model.
/// Fuzz failure reports and --verify error output both need the clause,
/// not just a boolean.
struct VerifyDiag {
  enum class Rule {
    None,         ///< Verification passed (or no answer to check).
    InitClause,   ///< Sat: iota(z) => phi(z) fails.
    StepClause,   ///< Sat: phi(x) /\ phi(y) /\ tau => phi(z) fails.
    QueryClause,  ///< Sat: phi(z) /\ beta(z) satisfiable.
    NotBad,       ///< Unsat: no state of gamma satisfies beta.
    NotReachable, ///< Unsat: gamma /\ beta unreachable within the bound.
  };
  Rule Failed = Rule::None;
  /// Human-readable: clause name plus the witness assignment.
  std::string Message;
};

/// Name of the violated rule, e.g. "step-clause".
const char *verifyRuleName(VerifyDiag::Rule R);

/// Checks that \p Inv is an inductive safe invariant for \p N. On failure
/// fills \p Diag (when non-null) with the violated clause and a witness.
bool verifyInvariant(TermContext &F, const NormalizedChc &N, TermRef Inv,
                     VerifyDiag *Diag = nullptr);

/// Checks that some state of \p Gamma is reachable (within \p MaxK) and
/// bad. On failure fills \p Diag (when non-null).
bool verifyCexPiece(TermContext &F, const NormalizedChc &N, TermRef Gamma,
                    int MaxK, VerifyDiag *Diag = nullptr);

} // namespace mucyc

#endif // MUCYC_SOLVER_CHCSOLVE_H
