//===- solver/SolverPool.h - Incremental solver reuse -----------*- C++ -*-===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The incremental backend behind EngineContext::sat(): a SolverPool that
/// keeps one persistent SmtSolver per assertion base (in practice the
/// transition relation tau, which appears in nearly every refinement query)
/// and issues the remaining conjuncts — frame lemmas, cubes, negated
/// queries — as assumption checks, so their Tseitin indicator literals and
/// every CDCL lemma learned about them survive from one query to the next;
/// plus a QueryCache memoizing (verdict, model) per hash-consed conjunction.
///
/// Pool keying: a solver is keyed by the TermRef index of the one conjunct
/// designated as its base (UINT32_MAX for the baseless bucket). The base is
/// asserted once at construction; every other conjunct of every query rides
/// in as an assumption, so queries against the same base never re-encode
/// shared formulas. Because assumptions keep registering theory atoms that
/// are never unregistered, a pooled solver is retired (destroyed and lazily
/// rebuilt) once its atom count passes a fixed limit — stale atoms slow the
/// theory checker but never affect soundness, so the limit is purely a
/// performance valve.
///
/// Cache invalidation: there is none, by construction. sat() queries are
/// closed conjunctions whose satisfiability depends only on the term
/// structure, never on engine state, so a cached verdict/model stays valid
/// for the lifetime of the TermContext. Eviction (FIFO) exists only to
/// bound memory.
///
//===----------------------------------------------------------------------===//

#ifndef MUCYC_SOLVER_SOLVERPOOL_H
#define MUCYC_SOLVER_SOLVERPOOL_H

#include "smt/SmtSolver.h"

#include <deque>
#include <memory>
#include <unordered_map>

namespace mucyc {

/// Memoizes EngineContext::sat() answers per hash-consed conjunction term.
/// A hit replays the exact (verdict, model) of the original check, so a
/// cached run is indistinguishable from a re-checked one.
class QueryCache {
public:
  /// Entries kept before FIFO eviction starts.
  static constexpr size_t Capacity = 4096;

  struct Entry {
    bool IsSat = false;
    Model M; ///< Meaningful only when IsSat.
  };

  /// nullptr on miss. The pointer is invalidated by the next insert().
  const Entry *lookup(TermRef Key) const {
    auto It = Map.find(Key.Idx);
    return It == Map.end() ? nullptr : &It->second;
  }

  void insert(TermRef Key, Entry E) {
    if (Map.count(Key.Idx))
      return;
    if (Map.size() >= Capacity) {
      Map.erase(Fifo.front());
      Fifo.pop_front();
      ++Evicts;
    }
    Map.emplace(Key.Idx, std::move(E));
    Fifo.push_back(Key.Idx);
  }

  uint64_t evictions() const { return Evicts; }
  size_t size() const { return Map.size(); }

private:
  std::unordered_map<uint32_t, Entry> Map;
  std::deque<uint32_t> Fifo; // Insertion order for FIFO eviction.
  uint64_t Evicts = 0;
};

/// Persistent solvers keyed by assertion base; see the file comment.
class SolverPool {
public:
  /// A pooled solver is retired once its Tseitin atom count exceeds this.
  static constexpr size_t AtomLimit = 20000;

  explicit SolverPool(TermContext &Ctx) : Ctx(Ctx) {}

  struct Result {
    SmtStatus St = SmtStatus::Unknown;
    Model M; ///< Meaningful only when St == Sat.
  };

  /// Checks base /\ (/\ Rest), reusing (or creating) the pooled solver for
  /// \p Base. \p Base may be invalid for the baseless bucket; \p Rest must
  /// not contain it. The check is governed like every SmtSolver::check.
  Result check(TermRef Base, const std::vector<TermRef> &Rest);

  /// Solvers destroyed because they exceeded the atom limit.
  uint64_t retires() const { return Retires; }

  /// Live pooled solvers (testing).
  size_t size() const { return Pool.size(); }

private:
  SmtSolver &solverFor(TermRef Base);

  TermContext &Ctx;
  std::unordered_map<uint32_t, std::unique_ptr<SmtSolver>> Pool;
  uint64_t Retires = 0;
};

} // namespace mucyc

#endif // MUCYC_SOLVER_SOLVERPOOL_H
