//===- smt/SmtSolver.h - Lazy DPLL(T) solver --------------------*- C++ -*-===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The SMT entry point for QF Bool + linear Int/Real arithmetic: a lazy
/// DPLL(T) loop combining the CDCL SAT core with the simplex-based theory
/// checker. Supports incremental assertion, assumption-based checking with
/// unsat cores, and model extraction — the full contract the paper's
/// procedures need ("exists M. M |= phi", Mbp's model argument, Itp's cores).
///
//===----------------------------------------------------------------------===//

#ifndef MUCYC_SMT_SMTSOLVER_H
#define MUCYC_SMT_SMTSOLVER_H

#include "smt/Cnf.h"
#include "smt/Model.h"
#include "smt/SatSolver.h"
#include "smt/TheoryLia.h"

#include <optional>

namespace mucyc {

enum class SmtStatus { Sat, Unsat, Unknown };

/// Incremental SMT solver. Assert formulas, then check (optionally under
/// assumptions); repeat. Divisibility atoms are eliminated on assertion by
/// introducing quotient/remainder witnesses.
///
/// Scopes: push() opens a retractable assertion scope, pop() discards the
/// innermost one. Scopes are implemented with activation literals over the
/// assumption mechanism: a formula asserted inside scope k becomes the
/// clause (F \/ not a_k) and every check() assumes the activation literals
/// of all open scopes, so CDCL lemmas derived from scoped clauses carry
/// (not a_k) and stay sound forever. pop() fixes a_k to false at the root,
/// which deactivates the scope's clauses and vacuously satisfies every
/// learned clause that mentions the popped literal; lemmas that never
/// mention it are retained verbatim. Theory state needs no retraction: the
/// arithmetic checker rebuilds its simplex tableau from the propositional
/// model on every check, so popped rows simply never reappear. A check()
/// interrupted by the cancel flag (or budget) returns Unknown with the CDCL
/// core backtracked to the root and no scope bookkeeping touched, so the
/// scope stack stays usable afterwards.
///
/// Governance comes from the TermContext, so every solver an attempt
/// builds, pooled or throwaway, is governed alike: the resource gauge is
/// picked up at construction, and check() is the one gateway every SMT
/// check of the attempt goes through. Each call advances the attempt's
/// check count (SolveStats::SmtChecks) and then the fault injector's check
/// ordinal, and it answers Unknown once the cancel flag is set or the
/// deadline has passed.
class SmtSolver {
public:
  explicit SmtSolver(TermContext &Ctx)
      : Ctx(Ctx), Enc(Ctx, Sat), Checker(Ctx) {
    // One gauge per solving attempt: whatever is installed on the term
    // context also meters this solver's CDCL clause database and simplex
    // tableaus.
    if (ResourceGauge *G = Ctx.governance().Gauge) {
      Sat.setResourceGauge(G);
      Checker.setResourceGauge(G);
    }
  }

  /// Conjoins \p F to the assertion set (of the innermost open scope).
  void assertFormula(TermRef F);

  /// Opens a new assertion scope.
  void push();

  /// Discards the innermost scope and every formula asserted within it.
  void pop();

  /// Number of open scopes.
  size_t numScopes() const { return Scopes.size(); }

  /// Checks satisfiability of the assertions plus \p Assumptions (each a
  /// Boolean term). Counts the check on the context first (see the class
  /// comment). Returns Unknown once the context's cancel flag is set or its
  /// deadline has passed: the DPLL(T) lemma loop polls both, and the CDCL
  /// core and the simplex/branch-and-bound theory layer poll the flag.
  SmtStatus check(const std::vector<TermRef> &Assumptions = {});

  /// After Sat: the model.
  const Model &model() const { return LastModel; }

  /// After Unsat under assumptions: a subset of the assumptions that is
  /// jointly inconsistent with the assertions.
  const std::vector<TermRef> &unsatCore() const { return Core; }

  /// Deletion-based core minimization (MUS-style) over check()/unsatCore(),
  /// the one minimizer every caller shares: checks \p Assumptions against
  /// the current assertions and, when the combination is Unsat, shrinks the
  /// solver's core until no single deletion keeps it Unsat. The loop probes
  /// the current set with one element deleted at a time, front to back.
  /// When a probe is Unsat, its unsatCore() (in the solver's order) becomes
  /// the current set and the scan restarts from the front; a Sat probe
  /// proves its element necessary, and a proven element is never probed
  /// again (dropping assumptions only weakens a query, so it stays
  /// necessary in every subset). A probe that returns Unknown
  /// (budget/cancel) keeps its element unproven. Returns the minimized
  /// subset in the original assumption order, or \p Assumptions unchanged
  /// when the initial check is Sat or Unknown; minimizeStatus() tells which.
  /// \p Probes (optional) reports how many check() calls were spent.
  std::vector<TermRef> minimizeCore(const std::vector<TermRef> &Assumptions,
                                    unsigned *Probes = nullptr);

  /// Status of the initial check of the last minimizeCore() call.
  SmtStatus minimizeStatus() const { return MinimizeStatus; }

  /// Debugging access to the propositional core (used by self-check
  /// harnesses and tests).
  SatSolver &satCore() { return Sat; }

  /// Number of theory atoms registered with the Tseitin encoder. Scoped
  /// assertions keep their atoms after pop() (only their clauses are
  /// deactivated), so this grows monotonically — the solver pool uses it
  /// to retire solvers whose encoding has accreted too much dead weight.
  size_t numAtoms() const { return Enc.atoms().size(); }

  /// Caps the number of theory-lemma iterations (branch-and-bound splits and
  /// blocking clauses) before returning Unknown.
  void setLemmaBudget(uint64_t B) { LemmaBudget = B; }

  //===--------------------------------------------------------------------===
  // One-shot conveniences
  //===--------------------------------------------------------------------===

  /// Satisfiability of a conjunction; returns the model if Sat, nullopt if
  /// Unsat. Raises on Unknown (raiseUnknown()).
  static std::optional<Model> quickCheck(TermContext &Ctx,
                                         const std::vector<TermRef> &Conj);

  /// Is `A => B` valid?
  static bool implies(TermContext &Ctx, TermRef A, TermRef B);

  /// Is \p F equivalent to \p G?
  static bool equivalent(TermContext &Ctx, TermRef F, TermRef G);

  /// Why a check on \p Ctx answered Unknown: Cancelled when the context's
  /// cancel flag is set (final), else Timeout when its deadline has passed
  /// (final), else ResourceExhaustedSteps with \p Detail (retryable).
  static ErrorInfo unknownError(const TermContext &Ctx, const char *Detail);

  /// Raises unknownError() where the caller has no in-band Unknown.
  [[noreturn]] static void raiseUnknown(const TermContext &Ctx,
                                        const char *Detail);

private:
  /// Replaces divisibility atoms by remainder-variable equalities, asserting
  /// the defining side constraints. Recursive over the formula tree;
  /// \p Depth guards against stack exhaustion on degenerate inputs
  /// (ResourceExhaustedDepth past the cap).
  TermRef eliminateDivides(TermRef F, unsigned Depth = 0);

  /// Asserts \p F unguarded, surviving every pop(). The divides
  /// side-constraints go through here: their rewrite cache outlives scopes,
  /// and since the quotient/remainder definitions are a conservative
  /// extension (witnesses exist for every t), keeping them asserted
  /// permanently never changes satisfiability.
  void assertPermanent(TermRef F);

  /// One open scope: the activation variable assumed true while the scope
  /// is alive and fixed false at the root once it is popped.
  struct Scope {
    uint32_t ActVar;
  };

  TermContext &Ctx;
  SatSolver Sat;
  Tseitin Enc;
  ArithChecker Checker;
  Model LastModel;
  std::vector<TermRef> Core;
  std::vector<Scope> Scopes;
  uint64_t LemmaBudget = 2000000;
  SmtStatus MinimizeStatus = SmtStatus::Unknown;
  std::unordered_map<uint32_t, TermRef> DividesRewrite; // Atom -> (r = 0).
  bool TriviallyUnsat = false;
};

} // namespace mucyc

#endif // MUCYC_SMT_SMTSOLVER_H
