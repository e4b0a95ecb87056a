//===- smt/TheoryLia.h - Arithmetic theory checker --------------*- C++ -*-===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Conjunction-level feasibility checking for linear integer/real arithmetic
/// literals. The pipeline is:
///
///   1. Parse literals into linear constraints with reason tracking.
///   2. Integer equality elimination a la the Omega test (Pugh 1991):
///      unit-coefficient substitution, gcd infeasibility, and the symmetric-
///      modulus transformation for non-unit coefficients. Opposing
///      inequality pairs over the same form are promoted to equalities so
///      that parity-style infeasibilities (which defeat plain branch &
///      bound on unbounded integers) are caught structurally.
///   3. General simplex on the residue, with internal branch & bound on the
///      remaining integer variables (bounded by a node budget).
///
//===----------------------------------------------------------------------===//

#ifndef MUCYC_SMT_THEORYLIA_H
#define MUCYC_SMT_THEORYLIA_H

#include "smt/Model.h"
#include "term/Linear.h"

#include <atomic>
#include <vector>

namespace mucyc {

/// A theory atom as the checker reads it. The Tseitin encoder parses each
/// atom once, when it registers it, so the lazy loop's rounds never walk
/// the term DAG again.
struct ParsedAtom {
  /// Sort::Bool for a Boolean variable (no theory content), else the sort
  /// of the atom's arithmetic operands.
  Sort S = Sort::Bool;
  VarId BoolVar = 0; ///< The variable, when S is Bool.
  LinAtom Lin;       ///< Arithmetic atoms: lhs - rhs <rel> 0.

  /// Parses a Boolean variable or a canonical Le/Lt/EqA atom. Creates no
  /// terms.
  static ParsedAtom parse(const TermContext &Ctx, TermRef Atom);
};

/// A theory literal: an atom with its propositional polarity and parse.
struct TheoryLit {
  TermRef Atom;
  bool Pos;
  const ParsedAtom *Parsed; ///< Never null; outlives the check.
};

/// One-shot checker for a conjunction of arithmetic literals.
class ArithChecker {
public:
  explicit ArithChecker(TermContext &Ctx) : Ctx(Ctx) {}

  enum class Status { Feasible, Infeasible, Unknown };

  struct Outcome {
    Status St;
    /// Infeasible: indices into the literal vector forming a conflict.
    std::vector<size_t> Core;
  };

  /// Checks the conjunction. Negated equalities are ignored (the CNF layer
  /// guarantees a strict-inequality split atom covers them); divisibility
  /// atoms must have been eliminated before CNF conversion.
  Outcome check(const std::vector<TheoryLit> &Lits);

  /// After Feasible: values for every arithmetic variable that occurred.
  const Assignment &arithModel() const { return ArithAssign; }

  /// Branch & bound node budget per check (Unknown when exceeded).
  void setNodeBudget(uint64_t B) { NodeBudget = B; }

  /// Cooperative cancellation: polled in the simplex pivot loop, per
  /// branch-and-bound node, and per Omega-test recursion; a fired flag
  /// yields Unknown.
  void setCancelFlag(const std::atomic<bool> *Flag) { CancelFlag = Flag; }

  /// Charges simplex tableau growth (every check() rebuild and every
  /// branch-and-bound fork) to the run's memory gauge.
  void setResourceGauge(ResourceGauge *G) { Gauge = G; }

private:
  /// A checker-local variable: a term variable, numbered by first
  /// occurrence in the literal vector.
  struct LocalVar {
    bool IsInt;
    VarId Term;
  };
  uint32_t localOf(VarId V);

  TermContext &Ctx;
  Assignment ArithAssign;
  /// Per-check scratch, kept between checks for its capacity: the locals
  /// and a VarId-sorted index into them.
  std::vector<LocalVar> Locals;
  std::vector<std::pair<VarId, uint32_t>> LocalIndex;
  uint64_t NodeBudget = 20000;
  const std::atomic<bool> *CancelFlag = nullptr;
  ResourceGauge *Gauge = nullptr;
};

} // namespace mucyc

#endif // MUCYC_SMT_THEORYLIA_H
