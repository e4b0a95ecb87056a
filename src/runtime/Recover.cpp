//===- runtime/Recover.cpp - Degraded-retry solving -----------------------===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/Recover.h"

using namespace mucyc;

SolverOptions mucyc::degradeOptions(const SolverOptions &Base,
                                    unsigned Attempt) {
  SolverOptions O = Base;
  if (Attempt == 0)
    return O;
  // Every degraded attempt: drop the incremental backend (persistent
  // solvers and the query cache are exactly the state a transient fault or
  // a blown budget may have poisoned) and halve the internal search
  // budgets so the retry fits in the remaining envelope.
  O.NoIncremental = true;
  if (O.MaxRefineSteps)
    O.MaxRefineSteps = std::max<uint64_t>(1, O.MaxRefineSteps / 2);
  if (O.MaxDepth)
    O.MaxDepth = std::max(1, O.MaxDepth / 2);
  // From the second retry on, switch to an alternate engine: complementary
  // strategies recover from divergence (and from engine-specific invariant
  // bugs) that no amount of re-running the same search would.
  if (Attempt >= 2) {
    if (Base.Engine == EngineKind::Ret) {
      O.Engine = EngineKind::SpacerTs;
      O.SpacerFig15 = false;
      O.SpacerULevels = false;
    } else {
      O.Engine = EngineKind::Ret;
      O.Cex = CexMethod::Mbp;
      O.MbpMode = 1;
      O.Accumulate = true;
    }
  }
  return O;
}

uint64_t mucyc::retryBackoffMs(uint64_t Seed, unsigned Attempt) {
  // Exponential base (5, 10, 20, ... ms) plus seed-derived jitter of the
  // same magnitude, capped at 100 ms: enough to let a transient load spike
  // pass, never enough to matter against a deadline.
  uint64_t Base = 5ull << std::min(Attempt - 1, 4u);
  return std::min<uint64_t>(100, Base + mixSeed(Seed, Attempt) % (Base + 1));
}

SolveResponse mucyc::solveAttempt(const SolveRequest &Req,
                                  const SolverOptions &O,
                                  ResultStore::Entry *Cert) {
  SolveResponse R;
  R.Ctx = std::make_shared<TermContext>();
  NormalizedChc N;
  SolverResult Res;
  try {
    N = Req.Build ? Req.Build(*R.Ctx) : Req.Source->build(*R.Ctx);
    Res = ChcSolver(*R.Ctx, N, O).solve();
  } catch (const MucycError &E) {
    // Build-phase trips (the solve boundary catches its own): surface as
    // an errored Unknown so the ladder can decide on a retry.
    Res = SolverResult();
    Res.Error = E.info();
  } catch (const std::exception &E) {
    // A non-taxonomy escape is an internal bug, but one job must never
    // take down a batch: record it as an invariant violation.
    Res = SolverResult();
    Res.Error = ErrorInfo{ErrorCode::InvariantViolation,
                          std::string("uncaught exception: ") + E.what()};
  }
  R.Status = Res.Status;
  R.Depth = Res.Depth;
  R.Stats = Res.Stats;
  R.VerifyFailed = Res.VerifyFailed;
  R.VerifyNote = std::move(Res.VerifyNote);
  R.Error = std::move(Res.Error);
  R.Invariant = Res.Invariant;
  R.CexPiece = Res.CexPiece;

  TermRef C = R.Status == ChcStatus::Sat     ? R.Invariant
              : R.Status == ChcStatus::Unsat ? R.CexPiece
                                             : TermRef();
  if (Cert && C.isValid()) {
    try {
      Cert->Status = R.Status;
      Cert->Depth = R.Depth;
      Cert->Config = O.name();
      for (VarId V : N.Z)
        Cert->ZSorts.push_back(R.Ctx->varInfo(V).S);
      Cert->Cert = ResultStore::serializeCert(*R.Ctx, N, C);
    } catch (const std::exception &) {
      Cert->Cert.clear(); // Unserializable: the answer itself still stands.
    }
  }
  if (Req.WantSolution && R.Status == ChcStatus::Sat && Req.Source &&
      C.isValid())
    R.SolutionText = Req.Source->solutionText(*R.Ctx, C);
  return R;
}
