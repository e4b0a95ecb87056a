//===- smt/Simplex.h - General simplex for linear arithmetic ----*- C++ -*-===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The general simplex of Dutertre & de Moura ("A fast linear-arithmetic
/// solver for DPLL(T)", CAV 2006): bound-constrained variables connected by
/// linear rows, with delta-rationals representing strict bounds. Produces
/// minimal-ish conflict explanations as sets of caller-supplied reason tags.
///
//===----------------------------------------------------------------------===//

#ifndef MUCYC_SMT_SIMPLEX_H
#define MUCYC_SMT_SIMPLEX_H

#include "support/Fault.h"
#include "support/LinearForm.h"

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

namespace mucyc {

/// Feasibility core for conjunctions of linear bounds.
class Simplex {
public:
  using VarIdx = uint32_t;

  /// Adds a free structural variable.
  VarIdx addVar();

  /// Adds a slack variable defined by the linear form sum(c * v) over the
  /// (v, c) pairs of \p Row, which may come in any order but name each
  /// variable once. Referenced variables may themselves be basic; their
  /// rows are inlined.
  VarIdx addRowVar(const std::vector<std::pair<VarIdx, Rational>> &Row);

  /// Asserts V >= B (IsLower) or V <= B. \p Reason is an opaque tag used in
  /// explanations. Returns false on an immediate bound conflict.
  bool assertBound(VarIdx V, bool IsLower, const DeltaRational &B, int Reason);

  /// Restores feasibility; returns false if the constraints are infeasible,
  /// in which case explanation() holds the conflicting reasons. Also
  /// returns false when a cancel flag fired mid-check; callers that
  /// installed one must test interrupted() before trusting an infeasible
  /// verdict (the explanation is empty then).
  bool check();

  /// Cooperative cancellation: polled once per pivot round. Copies of the
  /// tableau (branch & bound forks) inherit the flag.
  void setCancelFlag(const std::atomic<bool> *Flag) { CancelFlag = Flag; }
  bool interrupted() const { return Interrupted; }

  /// Charges tableau growth (vars, rows) to the run's cumulative memory
  /// gauge; a budget trip raises ResourceExhaustedMemory. Copies (branch &
  /// bound forks) inherit the pointer; their cloned rows are not
  /// re-charged, which under-approximates in the safe-for-progress
  /// direction.
  void setResourceGauge(ResourceGauge *G) { Gauge = G; }

  const std::vector<int> &explanation() const { return Explanation; }

  /// Current value of a variable (valid after a successful check()).
  const DeltaRational &value(VarIdx V) const { return Vars[V].Val; }

  /// An epsilon small enough that materializing every variable value with it
  /// satisfies all asserted bounds strictly/non-strictly as required.
  Rational suitableEpsilon() const;

  size_t numVars() const { return Vars.size(); }

private:
  struct VarState {
    DeltaRational Val;
    DeltaRational Lb, Ub;
    bool HasLb = false, HasUb = false;
    int LbReason = -1, UbReason = -1;
    bool Basic = false;
    uint32_t RowIdx = 0; ///< Valid when Basic.
  };

  /// Tableau row over non-basic vars only, in the shared sorted layout
  /// (ascending VarIdx: Bland's rule and explanation order depend on it).
  struct Row {
    VarIdx Owner;
    LinearForm Coeffs;
  };

  void updateNonBasic(VarIdx V, const DeltaRational &NewVal);
  void pivot(VarIdx Basic, VarIdx NonBasic);
  void explainRowConflict(const Row &R, bool NeedIncrease, int OwnBoundReason);

  std::vector<VarState> Vars;
  std::vector<Row> Rows;
  std::vector<int> Explanation;
  const std::atomic<bool> *CancelFlag = nullptr;
  bool Interrupted = false;
  ResourceGauge *Gauge = nullptr;
};

} // namespace mucyc

#endif // MUCYC_SMT_SIMPLEX_H
