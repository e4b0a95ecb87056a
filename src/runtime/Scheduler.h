//===- runtime/Scheduler.h - Batch solve-job scheduler ----------*- C++ -*-===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes batches of (instance x configuration) CHC solve jobs on a
/// thread pool with per-job deadlines and cooperative cancellation. Each
/// job builds its system into a private TermContext, so jobs share no
/// mutable state and the answer of every job is independent of the worker
/// count; results are collected into a vector indexed by submission order,
/// which makes `--jobs 1` and `--jobs N` produce identical result
/// sequences (only wall-clock changes). This is the substrate for the
/// parallel Table 1 / Figure 2 sweeps and for the portfolio driver.
///
//===----------------------------------------------------------------------===//

#ifndef MUCYC_RUNTIME_SCHEDULER_H
#define MUCYC_RUNTIME_SCHEDULER_H

#include "runtime/Cancel.h"
#include "runtime/Request.h"
#include "solver/ChcSolve.h"

#include <functional>
#include <vector>

namespace mucyc {

class ThreadPool;

class Scheduler {
public:
  /// \p Jobs worker threads; 0 means one per hardware thread. Requests
  /// beyond the hardware are capped (see workers()): oversubscription
  /// cannot speed up CPU-bound jobs but would skew their wall-clock
  /// deadlines relative to a sequential run.
  explicit Scheduler(unsigned Jobs) : NumWorkers(Jobs ? Jobs : 0) {}

  /// Runs the whole batch through solveRequest() and returns responses in
  /// submission order. \p Cancel (optional) aborts the remaining work when
  /// requested: running jobs stop cooperatively, queued jobs report
  /// Cancelled without executing (their source is never built), and every
  /// response slot is filled. \p Store (optional) is the shared result
  /// cache requests are probed against / admitted into. Requests whose
  /// Opts.MaxRetries > 0 are retried with degraded configurations on
  /// recoverable errors (see runtime/Recover.h); a worker-thread escape
  /// from one job never takes down the batch. Batch responses never keep
  /// their TermContext (KeepContext is forced off) so batch memory stays
  /// bounded.
  std::vector<SolveResponse>
  run(const std::vector<SolveRequest> &Batch,
      const std::shared_ptr<CancelToken> &Cancel = nullptr,
      ResultStore *Store = nullptr) const;

  unsigned workers() const;

private:
  unsigned NumWorkers;
};

/// A persistent scheduler for the serve daemon: one long-lived worker pool
/// plus a root cancel token and the shared ResultStore, accepting jobs one
/// at a time with a completion callback instead of as a closed batch.
/// Thread-safe. Destruction cancels outstanding work and joins.
class SchedulerSession {
public:
  /// \p Jobs as for Scheduler; \p Store (optional, unowned) must outlive
  /// the session.
  explicit SchedulerSession(unsigned Jobs, ResultStore *Store = nullptr);
  ~SchedulerSession();

  SchedulerSession(const SchedulerSession &) = delete;
  SchedulerSession &operator=(const SchedulerSession &) = delete;

  /// A fresh per-job cancel token: a child of the session root, so both a
  /// caller's request() (e.g. client disconnect) and shutdown() reach the
  /// job.
  std::shared_ptr<CancelToken> newJobToken() { return Root->child(); }

  /// Enqueues \p Req. \p JobTok (optional) cancels just this job; create
  /// it with newJobToken() so session shutdown reaches it too. \p Done
  /// runs on the worker thread when the job finishes (also for jobs
  /// short-circuited by cancellation) and must not block on the session.
  void submit(SolveRequest Req, std::shared_ptr<CancelToken> JobTok,
              std::function<void(SolveResponse)> Done);

  /// Bounded admission: like submit(), but refuses (returns false, nothing
  /// enqueued, Done never called) when \p MaxPending jobs are already
  /// queued or running. \p MaxPending = 0 never refuses. The daemon maps a
  /// refusal to a typed "overloaded" wire response instead of letting an
  /// unbounded queue absorb a traffic spike.
  bool trySubmit(SolveRequest Req, std::shared_ptr<CancelToken> JobTok,
                 std::function<void(SolveResponse)> Done,
                 unsigned MaxPending);

  /// Jobs currently queued or running.
  unsigned pending() const { return Pending.load(std::memory_order_relaxed); }

  /// Blocks until every submitted job has completed.
  void drain();

  /// Cancels outstanding jobs (they complete with Cancelled) and drains.
  void shutdown();

  unsigned workers() const;
  ResultStore *store() const { return Store; }

private:
  std::unique_ptr<ThreadPool> Pool;
  std::shared_ptr<CancelToken> Root;
  ResultStore *Store;
  std::atomic<unsigned> Pending{0};
};

} // namespace mucyc

#endif // MUCYC_RUNTIME_SCHEDULER_H
