//===- runtime/Portfolio.h - Racing configuration portfolio -----*- C++ -*-===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Portfolio driver: race K solver configurations on one system and return
/// the first definitive Sat/Unsat answer, cooperatively cancelling the
/// losers the moment a winner commits (they stop within one SMT
/// propagation / simplex pivot round, not at their next coarse deadline
/// check). This is how production CHC/IC3 stacks turn a configuration zoo
/// into one robust solver: complementary engines cover each other's
/// divergences, and the cost of the losers is bounded by the winner's
/// runtime. Every member is one SolveRequest in a private TermContext
/// (hash consing is not thread-safe); the winning member's response keeps
/// its context alive so its invariant / counterexample terms stay valid.
///
//===----------------------------------------------------------------------===//

#ifndef MUCYC_RUNTIME_PORTFOLIO_H
#define MUCYC_RUNTIME_PORTFOLIO_H

#include "runtime/Cancel.h"
#include "runtime/Request.h"
#include "solver/ChcSolve.h"

#include <memory>
#include <string>
#include <vector>

namespace mucyc {

/// One member of a race: its response, plus what a response cannot say.
struct PortfolioMember {
  std::string Config;     ///< Paper-style name.
  bool Cancelled = false; ///< Stopped because another member won.
  /// The member's own answer, breadcrumb and attempts: a member that dies
  /// (budget trip, crash converted to InvariantViolation, injected fault,
  /// timeout) loses the race but never takes it down. Only the winner
  /// keeps its TermContext, so its Invariant/CexPiece stay usable after the
  /// race.
  SolveResponse Resp;
};

struct PortfolioResult {
  std::vector<PortfolioMember> Members; ///< One per config, in order.
  int WinnerIndex = -1; ///< Index into the configs vector, -1 if none.
  SolveStats MergedStats; ///< Work done by ALL members (winners + losers).
  double Seconds = 0;     ///< Wall clock for the whole race.
  /// Distinct lemmas that crossed the exchange bus (0 when no member ran
  /// with ShareLemmas).
  uint64_t SharedLemmas = 0;

  /// The winning member's response; null when no member concluded.
  const SolveResponse *winner() const {
    return WinnerIndex < 0 ? nullptr : &Members[WinnerIndex].Resp;
  }
};

/// Races \p Configs over the system of \p Base (its Source/Build, called
/// once per member on its own context; Base.Opts is ignored in favor of
/// each member's config, Base.DeadlineMs is the per-member deadline).
/// Members run through solveRequest(), so each is behind the retry ladder
/// and, when \p Store is supplied, probes the result cache — a cached
/// certificate wins the race instantly. \p Jobs bounds concurrency
/// (0 = one thread per member, oversubscribing cores if needed — a race
/// only works when every member runs). Each member's VerifyResult is
/// honored, so a race of verifying configs only commits to checked
/// answers. \p Cancel aborts the whole race from outside.
PortfolioResult
racePortfolio(const SolveRequest &Base,
              const std::vector<SolverOptions> &Configs, unsigned Jobs,
              const std::shared_ptr<CancelToken> &Cancel = nullptr,
              ResultStore *Store = nullptr);

/// Splits a comma-separated configuration list, respecting parentheses:
/// "Ret(T,MBP(1)),SpacerTS" -> {"Ret(T,MBP(1))", "SpacerTS"}.
std::vector<std::string> splitConfigList(const std::string &List);

/// Parses a comma-separated list of paper-style configuration names;
/// nullopt if any element is malformed.
std::optional<std::vector<SolverOptions>>
parseConfigList(const std::string &List);

} // namespace mucyc

#endif // MUCYC_RUNTIME_PORTFOLIO_H
