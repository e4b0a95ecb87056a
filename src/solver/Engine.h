//===- solver/Engine.h - Shared refinement-engine context ------*- C++ -*-===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Plumbing shared by every refinement procedure: the normalized system and
/// its variable tuples, renaming between X/Y/Z forms, satisfiability and
/// projection helpers with statistics, and deadline/budget tracking.
///
//===----------------------------------------------------------------------===//

#ifndef MUCYC_SOLVER_ENGINE_H
#define MUCYC_SOLVER_ENGINE_H

#include "chc/Normalize.h"
#include "itp/Interpolate.h"
#include "mbp/Mbp.h"
#include "smt/SmtSolver.h"
#include "solver/Options.h"
#include "solver/SolverPool.h"

#include <chrono>
#include <unordered_set>

namespace mucyc {

/// Counters reported with every solver result.
struct SolveStats {
  /// Every SmtSolver::check call of the attempt, on any solver (query-cache
  /// hits issue none).
  uint64_t SmtChecks = 0;
  uint64_t SmtCacheHits = 0;   ///< sat() answers replayed from the cache.
  uint64_t SmtCacheEvicts = 0; ///< FIFO evictions from the query cache.
  uint64_t PoolRetires = 0;    ///< Pooled solvers retired (atom limit).
  uint64_t MbpCalls = 0;
  uint64_t ItpCalls = 0;
  uint64_t RefineCalls = 0;
  uint64_t Unfolds = 0;
  /// Recovery bookkeeping (filled by the runtime layer, not the engines):
  /// attempts beyond the first, and attempts run under a degraded
  /// configuration.
  uint64_t Retries = 0;
  uint64_t Degradations = 0;
  /// Cooperative lemma exchange (solver/Share.h; all zero when sharing is
  /// off): lemmas published to / admitted from / dropped by the bus, and
  /// disjuncts removed by core-minimized publishing.
  uint64_t LemmasPublished = 0;
  uint64_t LemmasImported = 0;
  uint64_t LemmasRejected = 0;
  uint64_t CoreShrink = 0;

  /// Accumulates \p O counter-wise. The single merge point for portfolio
  /// members and retry attempts — new counters only need a line here.
  void merge(const SolveStats &O) {
    SmtChecks += O.SmtChecks;
    SmtCacheHits += O.SmtCacheHits;
    SmtCacheEvicts += O.SmtCacheEvicts;
    PoolRetires += O.PoolRetires;
    MbpCalls += O.MbpCalls;
    ItpCalls += O.ItpCalls;
    RefineCalls += O.RefineCalls;
    Unfolds += O.Unfolds;
    Retries += O.Retries;
    Degradations += O.Degradations;
    LemmasPublished += O.LemmasPublished;
    LemmasImported += O.LemmasImported;
    LemmasRejected += O.LemmasRejected;
    CoreShrink += O.CoreShrink;
  }
};

/// Shared state for one solving attempt. For its lifetime it installs the
/// attempt's governance on the term context (gauge, fault injector, cancel
/// flag, Stats.SmtChecks as the check count, deadline), so every solver's
/// checks are counted, fault-metered and bounded; the destructor
/// reinstalls what it replaced.
class EngineContext {
public:
  EngineContext(TermContext &F, const NormalizedChc &N,
                const SolverOptions &Opts)
      : F(F), N(N), Opts(Opts), Gauge(Opts.MemLimitMb << 20),
        SeededFaults(FaultInjector::fromSeed(Opts.ChaosSeed)), Pool(F) {
    TermContext::Governance G;
    G.Gauge = Opts.MemLimitMb ? &Gauge : nullptr;
    G.Faults = Opts.Faults     ? Opts.Faults
               : Opts.ChaosSeed ? &SeededFaults
                                : nullptr;
    G.Cancel = Opts.CancelFlag;
    G.Checks = &Stats.SmtChecks;
    if (Opts.TimeoutMs > 0)
      G.Deadline = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(Opts.TimeoutMs);
    Outer = F.swapGovernance(std::move(G));
  }
  ~EngineContext() { F.swapGovernance(std::move(Outer)); }
  EngineContext(const EngineContext &) = delete;
  EngineContext &operator=(const EngineContext &) = delete;

  TermContext &F;
  const NormalizedChc &N;
  SolverOptions Opts;
  SolveStats Stats;
  bool Aborted = false;
  /// Why Aborted was set — the breadcrumb ChcSolver::solve surfaces on an
  /// Unknown result so the runtime can tell a final Timeout from a
  /// retryable budget trip.
  ErrorInfo AbortInfo;

  /// Lemma-exchange bookkeeping operated on by solver/Share.h (inert when
  /// sharing is off): term indices of lemmas this run already published,
  /// peer lemmas already parsed and decided, and the bus read cursor. A
  /// fresh attempt gets a fresh context and so re-reads the log from zero.
  std::unordered_set<uint32_t> SharePublished;
  std::unordered_set<uint32_t> ShareSeen;
  uint64_t ShareCursor = 0;

  /// Checks resource limits; sets and returns Aborted when exhausted.
  bool expired() {
    if (Aborted)
      return true;
    if (F.cancelRequested())
      abort(ErrorCode::Cancelled, "cancel requested");
    else if (F.governance().Faults && F.governance().Faults->spuriousCancel())
      abort(ErrorCode::Cancelled, "injected spurious cancel");
    else if (Opts.MaxRefineSteps && Stats.RefineCalls > Opts.MaxRefineSteps)
      abort(ErrorCode::ResourceExhaustedSteps,
            "refine-step budget exhausted (" +
                std::to_string(Opts.MaxRefineSteps) + " steps)");
    else if (F.deadlinePassed())
      abort(ErrorCode::Timeout,
            "deadline of " + std::to_string(Opts.TimeoutMs) + " ms expired");
    return Aborted;
  }

  /// Marks the run aborted with a typed reason (first reason wins).
  void abort(ErrorCode C, std::string Detail) {
    Aborted = true;
    if (!AbortInfo.isError())
      AbortInfo = ErrorInfo{C, std::move(Detail)};
  }

  /// Satisfiability of a conjunction; nullopt means unsat OR aborted
  /// (distinguish via Aborted).
  ///
  /// Default path: the query cache keyed by the hash-consed conjunction is
  /// consulted first (queries are closed, so hits need no validity check),
  /// then the solver pool issues the check against the persistent solver
  /// for the query's base — the transition relation when it appears among
  /// the conjuncts — with all other conjuncts as assumptions. Under
  /// --no-incremental every check builds a fresh throwaway solver.
  std::optional<Model> sat(const std::vector<TermRef> &Conj) {
    if (expired())
      return std::nullopt;
    if (Opts.NoIncremental) {
      SmtSolver S(F);
      for (TermRef T : Conj)
        S.assertFormula(T);
      switch (S.check()) {
      case SmtStatus::Sat:
        return S.model();
      case SmtStatus::Unsat:
        return std::nullopt;
      case SmtStatus::Unknown:
        abortFromSubstrate();
        return std::nullopt;
      }
      return std::nullopt;
    }
    TermRef Key = F.mkAnd(Conj);
    if (const QueryCache::Entry *E = Cache.lookup(Key)) {
      ++Stats.SmtCacheHits;
      return E->IsSat ? std::optional<Model>(E->M) : std::nullopt;
    }
    TermRef Base;
    std::vector<TermRef> Rest;
    Rest.reserve(Conj.size());
    for (TermRef T : Conj) {
      if (!Base.isValid() && N.Trans.isValid() && T == N.Trans)
        Base = T;
      else
        Rest.push_back(T);
    }
    SolverPool::Result R = Pool.check(Base, Rest);
    Stats.PoolRetires = Pool.retires();
    if (R.St == SmtStatus::Unknown) {
      abortFromSubstrate();
      return std::nullopt;
    }
    Cache.insert(Key, QueryCache::Entry{R.St == SmtStatus::Sat, R.M});
    Stats.SmtCacheEvicts = Cache.evictions();
    return R.St == SmtStatus::Sat ? std::optional<Model>(std::move(R.M))
                                  : std::nullopt;
  }

  bool implies(TermRef A, TermRef B) {
    return !sat({A, F.mkNot(B)}).has_value() && !Aborted;
  }

  //===--------------------------------------------------------------------===
  // Tuple renamings
  //===--------------------------------------------------------------------===

  TermRef zToX(TermRef T) { return rename(T, N.Z, N.X); }
  TermRef zToY(TermRef T) { return rename(T, N.Z, N.Y); }
  TermRef xToZ(TermRef T) { return rename(T, N.X, N.Z); }
  TermRef yToZ(TermRef T) { return rename(T, N.Y, N.Z); }

  TermRef rename(TermRef T, const std::vector<VarId> &From,
                 const std::vector<VarId> &To) {
    std::unordered_map<VarId, TermRef> Map;
    for (size_t I = 0; I < From.size(); ++I)
      Map.emplace(From[I], F.varTerm(To[I]));
    return F.substitute(T, Map);
  }

  //===--------------------------------------------------------------------===
  // Projection and interpolation with statistics
  //===--------------------------------------------------------------------===

  /// Projects the X and Z tuples out of Phi (result over Y), etc.
  TermRef projectToY(TermRef Phi, const Model &M) {
    return project(concat(N.X, N.Z), Phi, M);
  }
  TermRef projectToX(TermRef Phi, const Model &M) {
    return project(concat(N.Y, N.Z), Phi, M);
  }
  TermRef projectToZ(TermRef Phi, const Model &M) {
    return project(concat(N.X, N.Y), Phi, M);
  }

  TermRef project(const std::vector<VarId> &Elim, TermRef Phi,
                  const Model &M) {
    ++Stats.MbpCalls;
    return mbp(F, Opts.mbpStrategy(), Elim, Phi, M);
  }

  /// An implicant cube of Phi under M: MBP with nothing to eliminate, by
  /// LazyProject whatever Opts.Cex says.
  TermRef implicant(TermRef Phi, const Model &M) {
    ++Stats.MbpCalls;
    return mbp(F, MbpStrategy::LazyProject, {}, Phi, M);
  }

  TermRef itp(TermRef A, TermRef B) {
    ++Stats.ItpCalls;
    return interpolate(F, A, B, Opts.Itp);
  }

  static std::vector<VarId> concat(const std::vector<VarId> &A,
                                   const std::vector<VarId> &B) {
    std::vector<VarId> R = A;
    R.insert(R.end(), B.begin(), B.end());
    return R;
  }

private:
  /// Classifies a substrate Unknown as SmtSolver::unknownError does:
  /// Cancelled or Timeout (final), else the lemma/node budget ran dry
  /// (retryable).
  void abortFromSubstrate() {
    ErrorInfo I = SmtSolver::unknownError(
        F, "SMT substrate exhausted its lemma budget");
    abort(I.Code, std::move(I.Detail));
  }

  /// Installed when Opts.MemLimitMb is set.
  ResourceGauge Gauge;
  /// Opts.ChaosSeed's plan, installed when the seed is set and Opts.Faults
  /// is null.
  FaultInjector SeededFaults;
  /// The governance this context replaced; reinstalled by the destructor.
  TermContext::Governance Outer;
  SolverPool Pool;   ///< Persistent per-base solvers (lifetime: one run).
  QueryCache Cache;  ///< Memoized verdicts/models per conjunction term.
};

} // namespace mucyc

#endif // MUCYC_SOLVER_ENGINE_H
