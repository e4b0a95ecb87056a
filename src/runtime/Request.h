//===- runtime/Request.h - Unified solve job API ----------------*- C++ -*-===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single public job API of the runtime: a SolveRequest (a CHC system —
/// textual or programmatic — plus SolverOptions, deadline and tags) and the
/// SolveResponse every execution path produces (verdict, certificate,
/// typed error, attempts, stats, cache provenance). ChcSolver aside, every
/// caller — the Scheduler, the portfolio race, the CLI tools, the bench
/// suite, the fuzzer and the serve daemon — routes through solveRequest().
///
/// Execution: when a ResultStore is supplied, the request is first
/// fingerprinted (chc/Fingerprint.h) and a cached certificate, if any, is
/// re-verified against the actual submitted system before being served.
/// On a miss, the cold solve runs behind the retry ladder (runtime/
/// Recover.h) — MaxRetries = 0 degenerates to exactly one attempt — so a
/// crashing job yields an Unknown response with a typed ErrorInfo, never an
/// escaped exception. Each rung of the ladder runs inline or, under
/// IsolateMode::Crash, in a forked worker (runtime/Worker.h). Definitive
/// answers are admitted back into the store once their certificate has
/// been checked in this process.
///
//===----------------------------------------------------------------------===//

#ifndef MUCYC_RUNTIME_REQUEST_H
#define MUCYC_RUNTIME_REQUEST_H

#include "runtime/ResultStore.h"
#include "solver/ChcSolve.h"

#include <functional>
#include <map>
#include <memory>
#include <mutex>

namespace mucyc {

/// Input language of a textual source. Auto sniffs: BTOR2 node lines start
/// with a numeric id, SMT-LIB2 with '(' — the two cannot collide.
enum class InputFormat : uint8_t { Auto, SmtLib2, Btor2 };

/// A textual system — SMT-LIB2 HORN or BTOR2 — plus the frontend pipeline
/// (parse/encode, optional preprocess, normalize) run once per TermContext.
/// Hash consing is not thread-safe and the retry ladder rebuilds per
/// attempt, so every context gets its own pipeline; the per-context results
/// are retained for solution lifting. Thread-safe; shared by portfolio
/// members.
class TextSource {
public:
  explicit TextSource(std::string Text, bool Preprocess = true,
                      InputFormat Format = InputFormat::Auto)
      : Text(std::move(Text)), Preprocess(Preprocess), Format(Format) {}

  /// Runs the pipeline in \p Ctx and returns the normalized system.
  /// Throws MucycError(InputError) on a parse failure — the recovery
  /// ladder turns that into an Unknown response with the parse diagnostic.
  NormalizedChc build(TermContext &Ctx);

  /// The build() entry as a copyable functor. The TextSource must outlive
  /// every use of the returned function.
  std::function<NormalizedChc(TermContext &)> builder() {
    return [this](TermContext &Ctx) { return build(Ctx); };
  }

  /// Renders the per-predicate solution of the *original* system implied by
  /// the normalized invariant \p PhiZ (which must live in \p Ctx, a context
  /// build() has run in) as "(define-fun ...)" lines.
  std::string solutionText(TermContext &Ctx, TermRef PhiZ);

  // Raw ingredients, so the worker tier can ship the source across a
  // process boundary and rebuild an equivalent TextSource in the child.
  const std::string &text() const { return Text; }
  bool preprocessing() const { return Preprocess; }
  InputFormat format() const { return Format; }

private:
  struct Pipeline {
    ChcSystem Orig;
    ChcSystem Work;
    NormalizeResult NR;
  };

  std::string Text;
  bool Preprocess;
  InputFormat Format;
  std::mutex Mu;
  std::map<const TermContext *, std::shared_ptr<Pipeline>> Pipes;
};

/// One solve job, however it is executed (inline, batch, portfolio member,
/// service request). Exactly one of Source / Build must be set.
struct SolveRequest {
  /// Textual source: a shared TextSource (parse + preprocess + normalize
  /// per context, with solution lifting). Preferred for CLI/service paths.
  std::shared_ptr<TextSource> Source;

  /// Programmatic source: builds the normalized system directly into the
  /// attempt's private context. Used by the bench suite and the fuzzer;
  /// requests with only a Build cannot produce SolutionText.
  std::function<NormalizedChc(TermContext &)> Build;

  SolverOptions Opts;

  /// Per-request deadline in ms (0 = none), measured from the start of the
  /// cold solve; covers the whole retry ladder.
  uint64_t DeadlineMs = 0;

  /// Opaque client tags, echoed on the response (service traceability).
  std::string Tags;

  /// Render the lifted per-predicate solution into SolveResponse::
  /// SolutionText (Sat answers from a textual Source only).
  bool WantSolution = false;

  /// Bypass the result store for this request (still solves cold).
  bool NoStore = false;

  /// Keep the answer's TermContext (and Invariant/CexPiece) alive on the
  /// response. Batch executors set this false to bound memory.
  bool KeepContext = true;

  /// Test-only: make the isolated worker child die this way before solving
  /// ("segv", "abort", "exit3", "spin", "burn", "oom"). Applied to the first
  /// rung only, so crash-then-recover scenarios are expressible. Empty in
  /// production; shipped as the `x-crash` wire header.
  std::string TestCrash;

  /// Convenience: a request over textual source (SMT-LIB2 HORN or BTOR2,
  /// sniffed by default).
  static SolveRequest fromText(std::string Text, SolverOptions Opts,
                               bool Preprocess = true,
                               InputFormat Format = InputFormat::Auto) {
    SolveRequest R;
    R.Source =
        std::make_shared<TextSource>(std::move(Text), Preprocess, Format);
    R.Opts = std::move(Opts);
    return R;
  }

  /// Convenience: a request over a programmatic system builder.
  static SolveRequest
  fromBuilder(std::function<NormalizedChc(TermContext &)> Build,
              SolverOptions Opts) {
    SolveRequest R;
    R.Build = std::move(Build);
    R.Opts = std::move(Opts);
    return R;
  }
};

/// What a request produced, wherever it ran.
struct SolveResponse {
  ChcStatus Status = ChcStatus::Unknown;
  int Depth = 0;
  SolveStats Stats;     ///< Accumulated over all attempts (zero on a hit).
  double Seconds = 0;   ///< Wall clock including cache probe / verify.
  bool VerifyFailed = false;
  std::string VerifyNote;
  ErrorInfo Error;      ///< Why Unknown is Unknown; None when definitive.
  /// Retry-ladder attempts executed, inline or forked; 0 means the answer
  /// was served from the result store without running an engine.
  unsigned Attempts = 1;

  /// Cache provenance: cold / mem-hit / disk-hit, and whether the served
  /// certificate passed re-verification in this process.
  CacheSource Cache = CacheSource::None;
  bool CacheVerified = false;
  /// Canonical fingerprint (32 hex digits) when one was computed; the
  /// result-store key. Empty when the store was bypassed.
  std::string Fingerprint;

  /// The certificate terms and the context that owns them; null when the
  /// request asked not to keep it (KeepContext = false).
  TermRef Invariant;
  TermRef CexPiece;
  std::shared_ptr<TermContext> Ctx;

  /// "(define-fun ...)" lines when WantSolution was set and Status is Sat
  /// (textual sources only).
  std::string SolutionText;

  std::string Tags; ///< Echo of SolveRequest::Tags.
};

/// Executes \p Req: fingerprint + store probe (when \p Store is non-null
/// and the request allows it), then a cold solve behind the retry ladder
/// on a miss, admitting definitive answers back into the store.
/// \p Cancel (optional) is the cooperative cancellation flag, polled by
/// the engines and between retry attempts. Never throws.
SolveResponse solveRequest(const SolveRequest &Req, ResultStore *Store,
                           const std::atomic<bool> *Cancel);

inline SolveResponse solveRequest(const SolveRequest &Req) {
  return solveRequest(Req, nullptr, nullptr);
}

} // namespace mucyc

#endif // MUCYC_RUNTIME_REQUEST_H
