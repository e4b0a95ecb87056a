//===- runtime/Scheduler.cpp - Batch solve-job scheduler ------------------===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/Scheduler.h"

#include "runtime/ThreadPool.h"

using namespace mucyc;

unsigned Scheduler::workers() const {
  // Cap at the hardware: batch jobs are independent and CPU-bound, so
  // oversubscribing cores cannot add throughput — it only time-shares
  // workers and makes per-job wall-clock deadlines bite earlier than they
  // would sequentially, which is exactly the nondeterminism `--jobs` must
  // not introduce. (The portfolio deliberately does NOT cap: racing
  // members must run concurrently even on one core.)
  unsigned HW = ThreadPool::hardwareThreads();
  if (!NumWorkers || NumWorkers > HW)
    return HW;
  return NumWorkers;
}

std::vector<SolveResponse>
Scheduler::run(const std::vector<SolveRequest> &Batch,
               const std::shared_ptr<CancelToken> &Cancel,
               ResultStore *Store) const {
  std::vector<SolveResponse> Out(Batch.size());
  if (Batch.empty())
    return Out;

  // One child token for the whole batch: an external request() stops every
  // member without cancelling unrelated users of the parent. The token is
  // kept alive by this frame across pool teardown.
  std::shared_ptr<CancelToken> BatchTok =
      Cancel ? Cancel->child() : CancelToken::create();

  {
    ThreadPool Pool(workers());
    for (size_t I = 0; I < Batch.size(); ++I) {
      const SolveRequest &J = Batch[I];
      SolveResponse *Slot = &Out[I];
      Pool.post([&J, Slot, &BatchTok, Store] {
        Slot->Tags = J.Tags;
        // Deterministic short-circuit BEFORE any work: a cancelled batch
        // must not depend on how fast this worker got here.
        if (BatchTok->cancelled()) {
          Slot->Error = ErrorInfo{ErrorCode::Cancelled,
                                  "batch cancelled before the job started"};
          return;
        }
        // Batch responses never pin a TermContext: the contexts (and the
        // terms in them) die with the job.
        SolveRequest R = J;
        R.KeepContext = false;
        *Slot = solveRequest(R, Store, BatchTok->flag());
      });
    }
    // ~ThreadPool drains the queue and joins, so every slot is written
    // before we return.
  }
  return Out;
}

//===----------------------------------------------------------------------===
// SchedulerSession
//===----------------------------------------------------------------------===

SchedulerSession::SchedulerSession(unsigned Jobs, ResultStore *Store)
    : Root(CancelToken::create()), Store(Store) {
  unsigned HW = ThreadPool::hardwareThreads();
  if (!Jobs || Jobs > HW)
    Jobs = HW;
  Pool = std::make_unique<ThreadPool>(Jobs);
}

SchedulerSession::~SchedulerSession() { shutdown(); }

unsigned SchedulerSession::workers() const { return Pool ? Pool->size() : 0; }

void SchedulerSession::submit(SolveRequest Req,
                              std::shared_ptr<CancelToken> JobTok,
                              std::function<void(SolveResponse)> Done) {
  trySubmit(std::move(Req), std::move(JobTok), std::move(Done), 0);
}

bool SchedulerSession::trySubmit(SolveRequest Req,
                                 std::shared_ptr<CancelToken> JobTok,
                                 std::function<void(SolveResponse)> Done,
                                 unsigned MaxPending) {
  // Reserve the slot first, undo on refusal: check-then-add would let two
  // racing connections both slip past a nearly-full bound.
  unsigned Prior = Pending.fetch_add(1, std::memory_order_relaxed);
  if (MaxPending && Prior >= MaxPending) {
    Pending.fetch_sub(1, std::memory_order_relaxed);
    return false;
  }
  std::shared_ptr<CancelToken> Tok = JobTok ? JobTok : Root->child();
  ResultStore *S = Store;
  auto RootTok = Root;
  Pool->post([this, Req = std::move(Req), Tok = std::move(Tok),
              Done = std::move(Done), S, RootTok] {
    SolveResponse Resp;
    if (Tok->cancelled() || RootTok->cancelled()) {
      Resp.Tags = Req.Tags;
      Resp.Error = ErrorInfo{ErrorCode::Cancelled,
                             "session cancelled before the job started"};
    } else {
      Resp = solveRequest(Req, S, Tok->flag());
    }
    Pending.fetch_sub(1, std::memory_order_relaxed);
    if (Done)
      Done(std::move(Resp));
  });
  return true;
}

void SchedulerSession::drain() {
  if (Pool)
    Pool->drain();
}

void SchedulerSession::shutdown() {
  Root->request();
  drain();
}
