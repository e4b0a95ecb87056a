//===- runtime/Recover.h - Degraded-retry solving ---------------*- C++ -*-===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The building blocks of the retry ladder solveRequest() runs on a cold
/// solve. When an attempt fails with a *recoverable* error (memory/step/
/// depth budget trip, an invariant violation or a crashed worker — see
/// errorRecoverable()), the request is re-run in a fresh TermContext under
/// a degraded configuration, up to SolverOptions::MaxRetries extra
/// attempts:
///
///   attempt 1   the configured options, verbatim;
///   attempt 2   same engine, incremental backend off (fresh solvers, no
///               query cache) and halved search budgets — the cheapest
///               plausible fix for state-dependent failures;
///   attempt 3+  alternate engine (non-Ret configs fall back to the
///               paper's robust default Ret(T,MBP(1)); Ret falls back to
///               SpacerTS), still with halved budgets.
///
/// Each rung is one solveAttempt(), run inline or, under crash isolation,
/// in its own forked worker (runtime/Worker.h), whose child runs the same
/// solveAttempt(). The external resource envelope — deadline and
/// MemLimitMb — is *not* degraded: retries spend the remainder of the same
/// request deadline, like a CHC-COMP per-instance cap. Between attempts the
/// ladder sleeps a small deterministic-jittered backoff (seed-derived,
/// wall-clock only — output bytes never depend on it). Timeouts and
/// external cancellation are final.
///
//===----------------------------------------------------------------------===//

#ifndef MUCYC_RUNTIME_RECOVER_H
#define MUCYC_RUNTIME_RECOVER_H

#include "runtime/Request.h"

namespace mucyc {

/// The configuration the retry ladder runs at attempt \p Attempt (0-based;
/// attempt 0 returns \p Base unchanged). Pure function: tests and docs rely
/// on the ladder being predictable.
SolverOptions degradeOptions(const SolverOptions &Base, unsigned Attempt);

/// Deterministic jittered backoff before retry attempt \p Attempt (1-based),
/// in milliseconds. Seed-derived so two chaos runs sleep identically;
/// bounded well under a second so retries cannot dominate a deadline.
uint64_t retryBackoffMs(uint64_t Seed, unsigned Attempt);

/// One rung of the ladder, in this process: builds \p Req's system into a
/// fresh TermContext and solves it under \p O exactly as given (deadline,
/// degradation and seed salting are the ladder's business). Never throws:
/// a typed error or a stray exception becomes an Unknown with a
/// breadcrumb. The response keeps its context and certificate terms, and
/// carries the lifted solution when \p Req asks for one. When \p Cert is
/// non-null and the answer is definitive, \p Cert receives the store entry
/// of its certificate (Cert->Cert stays empty if it cannot be rendered).
SolveResponse solveAttempt(const SolveRequest &Req, const SolverOptions &O,
                           ResultStore::Entry *Cert);

} // namespace mucyc

#endif // MUCYC_RUNTIME_RECOVER_H
