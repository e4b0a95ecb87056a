//===- runtime/Worker.h - Forked worker-process execution tier --*- C++ -*-===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Process-level blast-radius containment for solve jobs. The retry ladder
/// catches typed C++ exceptions; it cannot catch a segfault, an OOM kill,
/// or a runaway native loop that never polls its cancel flag. Under
/// IsolateMode::Crash, solveRequest() therefore runs each rung of its
/// ladder through runWorkerAttempt(), which forks a sandboxed child: the
/// child applies hard OS limits (setrlimit RLIMIT_AS / RLIMIT_CPU from
/// SolverOptions::HardMemMb / HardCpuSec), receives the rung over a
/// socketpair as one length-prefixed frame (the Serve.h codec — the same
/// bytes a remote worker would receive), runs exactly one solveAttempt()
/// (runtime/Recover.h) and streams one reply frame back. The parent runs a
/// watchdog that SIGKILLs a worker past its deadline-plus-grace or on
/// cooperative cancellation, and classifies any abnormal exit (signal,
/// nonzero status, truncated or malformed reply) into a typed Unknown
/// carrying an ErrorCode::WorkerCrashed{Signal,Rlimit,Wedged} breadcrumb —
/// all of which are recoverable, so the ladder's next rung runs degraded
/// in a fresh worker, exactly as an inline rung would.
///
/// Only the cold engine run crosses the process boundary: the warm store
/// probe, certificate re-verification and store admission stay in the
/// parent, which re-verifies the worker's certificate before admitting it
/// (a corrupted child must not be able to poison the store). Only textual
/// requests (SolveRequest::Source) can be shipped; builder-only requests
/// run their rungs inline.
///
//===----------------------------------------------------------------------===//

#ifndef MUCYC_RUNTIME_WORKER_H
#define MUCYC_RUNTIME_WORKER_H

#include "runtime/Request.h"
#include "runtime/Serve.h"

namespace mucyc {

/// Encodes \p Req as the "work" frame shipped to the child: its source and
/// its options, which for a ladder rung are already degraded, seeded and
/// bounded by the remaining deadline. Exposed for protocol tests.
WireMessage encodeWorkerRequest(const SolveRequest &Req,
                                const std::string &TestCrash);

/// Runs one rung in a forked worker: fork, sandbox, ship \p Req, watchdog,
/// reap, classify. \p DeadlineMs (0 = none) bounds the attempt; the
/// watchdog SIGKILLs at deadline + grace. \p Cancel is polled while
/// waiting; a cancelled worker is SIGKILLed and reported as Cancelled
/// (final, not a crash). A definitive reply's certificate text lands in
/// \p Cert (unchecked: the caller must re-verify it). Never throws.
SolveResponse runWorkerAttempt(const SolveRequest &Req, uint64_t DeadlineMs,
                               const std::atomic<bool> *Cancel,
                               const std::string &TestCrash,
                               ResultStore::Entry *Cert);

/// The child side: parses one "work" frame payload, applies the x-crash
/// test directive if any, runs one solveAttempt(), and returns the reply
/// frame payload. Factored out of the fork so tests can drive it
/// in-process.
std::string workerChildServe(const std::string &RequestPayload);

/// True while executing inside a worker child. Belt-and-braces recursion
/// guard: requests are shipped with isolation stripped, but a child must
/// never fork grandchildren even if handed a stray Isolate flag.
bool inWorkerChild();

} // namespace mucyc

#endif // MUCYC_RUNTIME_WORKER_H
