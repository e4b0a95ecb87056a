//===- perfbench/src/Trace.h - Spans around the library's entry points ----===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced build of the benchmark interposes the static library's public
/// entry points at link time (GNU ld --wrap, see Interpose.cpp) and records
/// one span per intercepted call: entry name, start, end, parent span and
/// request id. Spans live in per-thread buffers and are aggregated into the
/// per-layer metrics when the run ends. Calls made inside the translation
/// unit that defines an entry are not interposed and count toward the
/// enclosing span.
///
/// The untraced build links the same workload code but not Interpose.cpp,
/// so nothing here ever records and the library runs unmodified.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Interposed entry points, grouped by the layer (module) that defines them.
enum class Entry : uint8_t {
  ChcParse,        ///< chc: parseChc
  ChcPreprocess,   ///< chc: preprocess
  ChcNormalize,    ///< chc: normalize
  ChcFingerprint,  ///< chc: fingerprintNormalized
  TsParse,         ///< ts: parseBtor2
  SolverSolve,     ///< solver: ChcSolver::solve
  VerifyInvariant, ///< solver: verifyInvariant
  VerifyCexPiece,  ///< solver: verifyCexPiece
  SmtCheck,        ///< smt: SmtSolver::check
  SmtQuickCheck,   ///< smt: SmtSolver::quickCheck
  SmtImplies,      ///< smt: SmtSolver::implies
  SmtEquivalent,   ///< smt: SmtSolver::equivalent
  SmtMinimizeCore, ///< smt: SmtSolver::minimizeCore
  SatSolve,        ///< smt: SatSolver::solve (CDCL search)
  ArithCheck,      ///< smt: ArithChecker::check (theory check)
  Mbp,             ///< mbp: mbp
  QeExists,        ///< mbp: qeExists
  QeForall,        ///< mbp: qeForall
  Interpolate,     ///< itp: interpolate
  SolveRequest,    ///< runtime: solveRequest
  StoreLookup,     ///< runtime: ResultStore::lookup
  StoreInsert,     ///< runtime: ResultStore::insert
  Count
};

/// Request id of work that belongs to no request (set-up, daemon idle).
constexpr uint32_t NoRequest = 0;

/// One interposed call. Parent is an index into the same thread's buffer.
struct Span {
  static constexpr uint32_t NoParent = UINT32_MAX;
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  uint32_t Parent = NoParent;
  uint32_t Request = NoRequest;
  Entry Name = Entry::Count;
  bool Hit = false; ///< StoreLookup only: the lookup found an entry.
};

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace trace {

/// The request id attributed to spans opened on this thread.
uint32_t currentRequest();
void setCurrentRequest(uint32_t Id);

/// RAII request attribution for the calling thread.
class RequestScope {
public:
  explicit RequestScope(uint32_t Id) : Saved(currentRequest()) {
    setCurrentRequest(Id);
  }
  ~RequestScope() { setCurrentRequest(Saved); }
  RequestScope(const RequestScope &) = delete;
  RequestScope &operator=(const RequestScope &) = delete;

private:
  uint32_t Saved;
};

/// Opens a span on the calling thread; returns its index for end().
uint32_t begin(Entry E);
void end(uint32_t Index, bool Hit = false);

/// RAII span used by the interposers. Closes on exceptions too.
class SpanScope {
public:
  explicit SpanScope(Entry E) : Index(begin(E)) {}
  ~SpanScope() { end(Index, Hit); }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;
  bool Hit = false;

private:
  uint32_t Index;
};

/// Every thread's spans, in per-thread start order. Call only after all
/// recording threads have finished.
std::vector<std::vector<Span>> collect();

} // namespace trace

/// Names the request ids a workload hands out: each id maps to the short
/// configuration tag its per-configuration metrics are reported under
/// (empty = no per-configuration slice) and to where the request ran.
struct RequestTable {
  enum class Kind : uint8_t {
    /// Solved in this process; the benchmark reads its SolveResponse.
    InProcess,
    /// Sent to the daemon; its engine may run in a forked worker, and the
    /// benchmark sees only the wire reply.
    Daemon,
    /// The benchmark's own re-verification; excluded from every layer
    /// except the verification metrics.
    Audit,
  };
  std::vector<std::string> ConfigTag; ///< Indexed by request id.
  std::vector<Kind> Kinds;

  uint32_t add(const std::string &Tag, Kind K = Kind::InProcess) {
    ConfigTag.push_back(Tag);
    Kinds.push_back(K);
    return static_cast<uint32_t>(ConfigTag.size()); // ids start at 1
  }
  const std::string &tag(uint32_t Id) const {
    static const std::string None;
    return Id == NoRequest || Id > ConfigTag.size() ? None
                                                    : ConfigTag[Id - 1];
  }
  bool is(uint32_t Id, Kind K) const {
    return Id != NoRequest && Id <= Kinds.size() && Kinds[Id - 1] == K;
  }
};

/// Aggregated span metrics: a value and the number of spans behind it.
struct LayerValue {
  double Value = 0;
  uint64_t Samples = 0;
};

/// Self time of every span: its duration minus the durations of its direct
/// children. Spans of one thread nest strictly, so children never overlap.
std::vector<uint64_t> selfTimesNs(const std::vector<Span> &Spans);

/// Folds the spans of all threads into the span-derived per-layer metrics
/// (see README.md for the definitions). \p ConfigTags lists the tags whose
/// per-configuration slices are always reported.
std::map<std::string, LayerValue>
summarizeSpans(const std::vector<std::vector<Span>> &Threads,
               const RequestTable &Requests,
               const std::vector<std::string> &ConfigTags);

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
