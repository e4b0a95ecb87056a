//===- perfbench/src/Trace.cpp - Span buffers and per-layer folding -------===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <atomic>

namespace perfbench {

namespace {

/// One thread's spans plus its stack of open spans. Buffers are linked into
/// a global list on first use and never freed, so they outlive their thread
/// and can be folded after it has exited. Registration is a lock-free push:
/// isolated workers fork from a threaded process, and a child must never
/// wait on a lock some other parent thread held at fork time.
struct ThreadBuffer {
  std::vector<Span> Spans;
  std::vector<uint32_t> Open;
  ThreadBuffer *Next = nullptr;
};

std::atomic<ThreadBuffer *> Head{nullptr};
thread_local ThreadBuffer *Mine = nullptr;
thread_local uint32_t CurrentRequest = NoRequest;

ThreadBuffer &buffer() {
  if (!Mine) {
    Mine = new ThreadBuffer;
    Mine->Spans.reserve(1u << 14);
    ThreadBuffer *Old = Head.load(std::memory_order_relaxed);
    do
      Mine->Next = Old;
    while (!Head.compare_exchange_weak(Old, Mine, std::memory_order_release,
                                       std::memory_order_relaxed));
  }
  return *Mine;
}

} // namespace

uint32_t trace::currentRequest() { return CurrentRequest; }
void trace::setCurrentRequest(uint32_t Id) { CurrentRequest = Id; }

uint32_t trace::begin(Entry E) {
  ThreadBuffer &B = buffer();
  Span S;
  S.Name = E;
  S.Request = CurrentRequest;
  S.Parent = B.Open.empty() ? Span::NoParent : B.Open.back();
  auto Index = static_cast<uint32_t>(B.Spans.size());
  B.Open.push_back(Index);
  S.StartNs = nowNs(); // Last, so buffer growth is not charged to the span.
  B.Spans.push_back(S);
  return Index;
}

void trace::end(uint32_t Index, bool Hit) {
  uint64_t Now = nowNs();
  ThreadBuffer &B = *Mine;
  B.Spans[Index].EndNs = Now;
  B.Spans[Index].Hit = Hit;
  B.Open.pop_back();
}

std::vector<std::vector<Span>> trace::collect() {
  std::vector<std::vector<Span>> Out;
  for (ThreadBuffer *B = Head.load(std::memory_order_acquire); B; B = B->Next)
    Out.push_back(B->Spans);
  return Out;
}

std::vector<uint64_t> selfTimesNs(const std::vector<Span> &Spans) {
  std::vector<uint64_t> Child(Spans.size(), 0);
  for (const Span &S : Spans)
    if (S.Parent != Span::NoParent)
      Child[S.Parent] += S.EndNs - S.StartNs;
  std::vector<uint64_t> Self(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I) {
    uint64_t Dur = Spans[I].EndNs - Spans[I].StartNs;
    Self[I] = Dur >= Child[I] ? Dur - Child[I] : 0;
  }
  return Self;
}

namespace {

bool isSmtEntry(Entry E) {
  return E == Entry::SmtCheck || E == Entry::SmtQuickCheck ||
         E == Entry::SmtImplies || E == Entry::SmtEquivalent ||
         E == Entry::SmtMinimizeCore;
}
bool isQe(Entry E) { return E == Entry::QeExists || E == Entry::QeForall; }
bool isVerify(Entry E) {
  return E == Entry::VerifyInvariant || E == Entry::VerifyCexPiece;
}

/// Which interposed entries enclose a span (transitively, same thread).
struct Enclosing {
  bool Smt = false, Qe = false, Itp = false, Mbp = false, Solve = false,
       Verify = false;
};

} // namespace

std::map<std::string, LayerValue>
summarizeSpans(const std::vector<std::vector<Span>> &Threads,
               const RequestTable &Requests,
               const std::vector<std::string> &ConfigTags) {
  std::map<std::string, LayerValue> M;
  auto Add = [&](const std::string &Name, uint64_t Ns) {
    LayerValue &V = M[Name];
    V.Value += static_cast<double>(Ns) * 1e-9;
    ++V.Samples;
  };
  auto Count = [&](const std::string &Name) {
    LayerValue &V = M[Name];
    V.Value += 1;
    ++V.Samples;
  };
  // Every metric is reported even when no span fed it.
  for (const char *Name :
       {"chc.parse_calls", "chc.parse_s", "chc.preprocess_s",
        "chc.normalize_s", "chc.fingerprint_calls", "chc.fingerprint_s",
        "ts.parse_calls", "ts.parse_s", "solver.solve_calls",
        "solver.solve_s", "solver.self_s", "solver.verify_calls",
        "solver.verify_s", "smt.check_calls", "smt.check_s",
        "smt.cdcl_calls", "smt.cdcl_s", "smt.theory_calls", "smt.theory_s",
        "mbp.calls", "mbp.s", "mbp.qe_calls", "mbp.qe_s", "itp.calls",
        "itp.s", "itp.smt_s", "itp.implies_s", "runtime.requests",
        "runtime.store_lookups", "runtime.store_lookup_s",
        "runtime.store_hits", "runtime.store_inserts",
        "runtime.store_insert_s", "trace.smt_uncovered_s",
        "smt.in_process_check_calls"})
    M[Name];
  for (const std::string &Tag : ConfigTags)
    for (const char *Base :
         {"solver.solve_s.", "smt.theory_s.", "itp.smt_s.", "mbp.qe_s."})
      M[Base + Tag];

  for (const std::vector<Span> &Spans : Threads) {
    std::vector<uint64_t> Self = selfTimesNs(Spans);
    std::vector<Enclosing> In(Spans.size());
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      if (S.Parent != Span::NoParent) {
        Enclosing P = In[S.Parent];
        Entry PE = Spans[S.Parent].Name;
        P.Smt |= isSmtEntry(PE);
        P.Qe |= isQe(PE);
        P.Itp |= PE == Entry::Interpolate;
        P.Mbp |= PE == Entry::Mbp;
        P.Solve |= PE == Entry::SolverSolve;
        P.Verify |= isVerify(PE);
        In[I] = P;
      }
    }
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      const Enclosing &E = In[I];
      uint64_t Dur = S.EndNs - S.StartNs;
      // Audit spans (the benchmark's own re-verification) count only
      // toward the verification metrics.
      if (Requests.is(S.Request, RequestTable::Kind::Audit)) {
        if (isVerify(S.Name) && !E.Verify) {
          Count("solver.verify_calls");
          Add("solver.verify_s", Dur);
        }
        continue;
      }
      const std::string &Tag = Requests.tag(S.Request);
      switch (S.Name) {
      case Entry::ChcParse:
        Count("chc.parse_calls");
        Add("chc.parse_s", Dur);
        break;
      case Entry::ChcPreprocess:
        Add("chc.preprocess_s", Dur);
        break;
      case Entry::ChcNormalize:
        Add("chc.normalize_s", Dur);
        break;
      case Entry::ChcFingerprint:
        Count("chc.fingerprint_calls");
        Add("chc.fingerprint_s", Dur);
        break;
      case Entry::TsParse:
        Count("ts.parse_calls");
        Add("ts.parse_s", Dur);
        break;
      case Entry::SolverSolve:
        if (E.Solve)
          break;
        Count("solver.solve_calls");
        Add("solver.solve_s", Dur);
        Add("solver.self_s", Self[I]);
        if (!Tag.empty())
          Add("solver.solve_s." + Tag, Dur);
        break;
      case Entry::VerifyInvariant:
      case Entry::VerifyCexPiece:
        if (E.Verify)
          break;
        Count("solver.verify_calls");
        Add("solver.verify_s", Dur);
        break;
      case Entry::SmtCheck:
      case Entry::SmtQuickCheck:
      case Entry::SmtImplies:
      case Entry::SmtEquivalent:
      case Entry::SmtMinimizeCore:
        if (E.Smt)
          break;
        Count("smt.check_calls");
        Add("smt.check_s", Dur);
        if (Requests.is(S.Request, RequestTable::Kind::InProcess))
          Count("smt.in_process_check_calls");
        if (E.Itp) {
          Add("itp.smt_s", Dur);
          if (!Tag.empty())
            Add("itp.smt_s." + Tag, Dur);
          if (S.Name == Entry::SmtImplies)
            Add("itp.implies_s", Dur);
        }
        break;
      case Entry::SatSolve:
        Count("smt.cdcl_calls");
        Add("smt.cdcl_s", Dur);
        if (!E.Smt)
          Add("trace.smt_uncovered_s", Dur);
        break;
      case Entry::ArithCheck:
        Count("smt.theory_calls");
        Add("smt.theory_s", Dur);
        if (!Tag.empty())
          Add("smt.theory_s." + Tag, Dur);
        if (!E.Smt)
          Add("trace.smt_uncovered_s", Dur);
        break;
      case Entry::Mbp:
        if (E.Mbp)
          break;
        Count("mbp.calls");
        Add("mbp.s", Dur);
        break;
      case Entry::QeExists:
      case Entry::QeForall:
        if (E.Qe)
          break;
        Count("mbp.qe_calls");
        Add("mbp.qe_s", Dur);
        if (!Tag.empty())
          Add("mbp.qe_s." + Tag, Dur);
        break;
      case Entry::Interpolate:
        if (E.Itp)
          break;
        Count("itp.calls");
        Add("itp.s", Dur);
        break;
      case Entry::SolveRequest:
        Count("runtime.requests");
        break;
      case Entry::StoreLookup:
        Count("runtime.store_lookups");
        Add("runtime.store_lookup_s", Dur);
        if (S.Hit)
          Count("runtime.store_hits");
        break;
      case Entry::StoreInsert:
        Count("runtime.store_inserts");
        Add("runtime.store_insert_s", Dur);
        break;
      case Entry::Count:
        break;
      }
    }
  }
  return M;
}

} // namespace perfbench
