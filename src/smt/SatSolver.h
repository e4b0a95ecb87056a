//===- smt/SatSolver.h - CDCL SAT solver ------------------------*- C++ -*-===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A MiniSat-style CDCL solver: two-watched-literal propagation, first-UIP
/// clause learning, VSIDS branching with phase saving, geometric restarts,
/// and assumption-based solving with final-conflict core extraction. This is
/// the propositional engine underneath the lazy SMT loop in SmtSolver.
///
//===----------------------------------------------------------------------===//

#ifndef MUCYC_SMT_SATSOLVER_H
#define MUCYC_SMT_SATSOLVER_H

#include "support/Fault.h"

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace mucyc {

/// Propositional literal: variable index with sign. Encoded as 2*var + sign
/// so literals pack into arrays.
struct SatLit {
  uint32_t X = UINT32_MAX;

  SatLit() = default;
  SatLit(uint32_t Var, bool Negated) : X(2 * Var + (Negated ? 1 : 0)) {}

  uint32_t var() const { return X >> 1; }
  bool negated() const { return X & 1; }
  SatLit operator~() const {
    SatLit L;
    L.X = X ^ 1;
    return L;
  }
  bool isValid() const { return X != UINT32_MAX; }
  bool operator==(const SatLit &RHS) const { return X == RHS.X; }
  bool operator!=(const SatLit &RHS) const { return X != RHS.X; }
  bool operator<(const SatLit &RHS) const { return X < RHS.X; }
};

/// Three-valued assignment.
enum class LBool : uint8_t { False = 0, True = 1, Undef = 2 };

/// CDCL SAT solver. Supports adding clauses between solve() calls; learned
/// clauses and activities persist.
class SatSolver {
public:
  /// Interrupted is only produced when a cancel flag is installed and
  /// becomes set mid-solve; the solver state stays valid (backtracked to
  /// the root) but neither a model nor a core is available.
  enum class Result { Sat, Unsat, Interrupted };

  /// Cooperative cancellation: polled once per propagation round.
  void setCancelFlag(const std::atomic<bool> *Flag) { CancelFlag = Flag; }

  /// Charges clause growth (original and learned) to the run's memory
  /// gauge; a budget trip raises ResourceExhaustedMemory from the charge
  /// point, before the clause is stored. Installed by SmtSolver from its
  /// TermContext; the pointee must outlive the solver.
  void setResourceGauge(ResourceGauge *G) { Gauge = G; }

  /// Creates a new variable and returns its index.
  uint32_t newVar();
  size_t numVars() const { return Assigns.size(); }

  /// Adds a clause. Returns false if the solver became trivially
  /// unsatisfiable (empty clause). Clauses may be added at any time outside
  /// of solve().
  bool addClause(std::vector<SatLit> Lits);

  /// Solves under the given assumptions.
  Result solve(const std::vector<SatLit> &Assumptions = {});

  /// After Sat: value of a variable (never Undef for decision vars used in
  /// clauses; isolated vars default to False).
  bool modelValue(uint32_t Var) const {
    assert(Var < Model.size());
    return Model[Var] == LBool::True;
  }

  /// After Unsat under assumptions: the subset of assumptions that was used
  /// to derive the conflict (a "core"). Empty if the instance is
  /// unconditionally unsatisfiable.
  const std::vector<SatLit> &conflictCore() const { return ConflictCore; }

  /// Statistics.
  uint64_t numConflicts() const { return Conflicts; }
  uint64_t numDecisions() const { return Decisions; }
  uint64_t numPropagations() const { return Propagations; }

  /// Learned clauses currently in the database (the retention the SMT
  /// scope layer advertises: lemmas survive pop() unless the reduction
  /// policy drops them).
  uint64_t numLearned() const {
    uint64_t N = 0;
    for (const Clause &C : Clauses)
      N += C.Learned ? 1 : 0;
    return N;
  }

private:
  struct Clause {
    std::vector<SatLit> Lits;
    bool Learned = false;
    double Activity = 0;
  };
  using ClauseIdx = uint32_t;
  static constexpr ClauseIdx NoReason = UINT32_MAX;

  struct Watcher {
    ClauseIdx C;
    SatLit Blocker;
  };

  LBool value(SatLit L) const {
    LBool V = Assigns[L.var()];
    if (V == LBool::Undef)
      return LBool::Undef;
    return (V == LBool::True) != L.negated() ? LBool::True : LBool::False;
  }

  void enqueue(SatLit L, ClauseIdx Reason);
  /// Unit propagation; returns a conflicting clause index or NoReason.
  ClauseIdx propagate();
  /// First-UIP conflict analysis. Fills the learned clause (asserting
  /// literal first) and the backjump level.
  void analyze(ClauseIdx Confl, std::vector<SatLit> &Learned, int &BtLevel);
  /// Computes the assumption core from a conflict at decision level <=
  /// number of assumptions.
  void analyzeFinal(SatLit P, std::vector<SatLit> &Core);
  void backtrack(int Level);
  void bumpVar(uint32_t V);
  void bumpClause(Clause &C);
  void decayActivities();
  SatLit pickBranchLit();
  void attachClause(ClauseIdx Idx);
  void reduceLearned();

  int level(uint32_t V) const { return Levels[V]; }
  int currentLevel() const { return static_cast<int>(TrailLims.size()); }

  std::vector<Clause> Clauses;
  std::vector<std::vector<Watcher>> Watches; // Indexed by literal code.
  std::vector<LBool> Assigns;
  std::vector<LBool> Phase;
  std::vector<int> Levels;
  std::vector<ClauseIdx> Reasons;
  std::vector<SatLit> Trail;
  std::vector<size_t> TrailLims;
  size_t PropHead = 0;

  std::vector<double> Activity;
  double VarInc = 1.0;
  double ClaInc = 1.0;
  // Binary-heap order by activity, lazily maintained.
  std::vector<uint32_t> Heap;
  std::vector<int> HeapPos;
  void heapInsert(uint32_t V);
  uint32_t heapPop();
  void heapUp(int I);
  void heapDown(int I);
  bool heapLess(uint32_t A, uint32_t B) const {
    return Activity[A] > Activity[B];
  }

  std::vector<LBool> Model;
  std::vector<SatLit> ConflictCore;
  std::vector<char> SeenBuf;

  bool Unsat = false;
  uint64_t Conflicts = 0, Decisions = 0, Propagations = 0;
  const std::atomic<bool> *CancelFlag = nullptr;
  ResourceGauge *Gauge = nullptr;
};

} // namespace mucyc

#endif // MUCYC_SMT_SATSOLVER_H
