//===- solver/Options.h - Solver configuration ------------------*- C++ -*-===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Configuration space of the paper's Section 7: engines Ret (Algorithm 5),
/// Yld (Algorithm 6), the Spacer abstract transition system (Fig. 1 /
/// Fig. 15), and the Solve baseline; counterexample methods QE / MBP(n) /
/// Model; and the optimizations Ind / Cex / Que / Mon of Section 5.3.
/// Configuration names follow the paper, e.g. "Ind(Yld(T,MBP(1)))".
///
//===----------------------------------------------------------------------===//

#ifndef MUCYC_SOLVER_OPTIONS_H
#define MUCYC_SOLVER_OPTIONS_H

#include "itp/Interpolate.h"
#include "mbp/Mbp.h"
#include "support/Fault.h"

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace mucyc {

class LemmaChannel;

enum class EngineKind {
  Ret,      ///< Algorithm 5 (IndSpacer, early return).
  Yld,      ///< Algorithm 6 (coroutine with yield).
  Naive,    ///< Algorithm 3 (quantifier elimination).
  NaiveMbp, ///< Algorithm 4 (MBP with full counterexample computation).
  SpacerTs, ///< Fig. 1 / Fig. 15 abstract transition system.
  Solve,    ///< Unno-Kobayashi-style unroll-and-check baseline.
};

/// How projections are computed; mirrors the paper's cex parameter.
enum class CexMethod {
  Mbp,   ///< Proper model-based projection (image-finite).
  Model, ///< GPDR's model diagram (not image-finite; Remark 17).
  Qe,    ///< Example 3: full QE, pick the satisfied disjunct.
};

/// Where a solve job executes relative to the calling process.
enum class IsolateMode : uint8_t {
  /// In-process (the historical path). Byte-reproducible; a native crash
  /// takes the process down.
  None,
  /// Every rung of the cold retry ladder forks into a sandboxed worker
  /// child; the warm store probe, certificate verification and store
  /// admission stay in the parent. A worker death degrades to a typed
  /// Unknown and feeds the retry ladder.
  Crash,
};

const char *isolateModeName(IsolateMode M);
std::optional<IsolateMode> parseIsolateMode(const std::string &S);

struct SolverOptions {
  EngineKind Engine = EngineKind::Ret;
  CexMethod Cex = CexMethod::Mbp;

  /// MBP(n): 0 = use the live frame/query in projection arguments (loses
  /// refutational completeness), 1 = snapshot with the Remark 16 refresh,
  /// 2 = strict snapshot.
  int MbpMode = 1;

  /// Ret(b, _): enable counterexample accumulation (line 11 of Alg. 5).
  bool Accumulate = true;
  /// Yld(b, _): enable query weakening via interpolation (lines 21/23 of
  /// Alg. 6).
  bool QueryWeaken = true;

  // Section 5.3 optimizations.
  bool OptInduction = false;
  bool OptCexShare = false;
  bool OptQueryReuse = false;
  bool OptMonotone = false;

  /// Fig. 15 variant of the transition system (projection arguments without
  /// the frame / query, still with cumulative U). Only for SpacerTs.
  bool SpacerFig15 = false;
  /// Manage the under-approximation U by level as in the original Spacer
  /// (Komuravelli et al. 2014/2016) rather than cumulatively.
  bool SpacerULevels = false;

  ItpMode Itp = ItpMode::CubeGeneralize;

  /// Resource limits (0 = unlimited). TimeoutMs bounds every SMT check of
  /// the attempt, verification included.
  uint64_t TimeoutMs = 0;
  int MaxDepth = 0;
  uint64_t MaxRefineSteps = 0;

  /// Cooperative memory budget in MiB (0 = unlimited), metered as
  /// cumulative allocation by a per-attempt ResourceGauge over term
  /// interning, CDCL clause growth, and simplex tableau rows. A trip
  /// surfaces as a ResourceExhaustedMemory ErrorInfo on the result — the
  /// recoverable shape the runtime retry ladder degrades on. Never
  /// serialized by name()/parse().
  uint64_t MemLimitMb = 0;

  /// Scheduler-level recovery: a job whose result carries a recoverable
  /// error (errorRecoverable()) is re-run up to this many times with
  /// degraded configurations (see runtime/Recover.h). 0 = fail fast. Never
  /// serialized by name()/parse().
  unsigned MaxRetries = 0;

  /// Deterministic chaos seed: when nonzero (and Faults is null), the
  /// attempt's EngineContext derives a FaultInjector from it.
  /// Never serialized by name()/parse().
  uint64_t ChaosSeed = 0;

  /// Explicit fault injector for this run; overrides ChaosSeed. One
  /// injector per job: counters are monotone across retries, so reusing the
  /// instance makes injected faults transient. Never serialized by
  /// name()/parse().
  FaultInjector *Faults = nullptr;

  /// Cooperative cancellation (see runtime/Cancel.h): when non-null, the
  /// engine loops poll this flag, and the attempt's EngineContext installs
  /// it on the TermContext so every SMT check polls it too; all wind
  /// down once it is set. The pointee must outlive the run; never
  /// serialized by name()/parse().
  const std::atomic<bool> *CancelFlag = nullptr;

  /// Verify SAT answers against the clauses and UNSAT answers by bounded
  /// reachability before returning.
  bool VerifyResult = false;

  /// Cooperative lemma exchange between portfolio members (--share-lemmas):
  /// engines publish core-minimized frame lemmas onto the bus and import
  /// peers' lemmas at frame boundaries, admitting each only after
  /// re-checking its justification locally (see solver/Share.h). Inert
  /// unless Share is also set. Never serialized by name()/parse().
  bool ShareLemmas = false;

  /// Maximum peer lemmas fetched per import round (--share-import-budget;
  /// 0 disables importing while still publishing). Never serialized by
  /// name()/parse().
  unsigned ShareImportBudget = 64;

  /// This member's port onto the portfolio lemma bus (runtime/Exchange.h);
  /// null outside a sharing portfolio. The pointee must outlive the run;
  /// never serialized by name()/parse().
  LemmaChannel *Share = nullptr;

  /// Disable the incremental backend (solver pool + query cache) in
  /// EngineContext::sat(): every check builds a fresh throwaway solver.
  /// Exists for differential runs against the incremental path; never
  /// serialized by name()/parse().
  bool NoIncremental = false;

  /// Process-isolation tier for solve jobs (--isolate, runtime/Worker.h).
  /// Default None so offline runs stay byte-reproducible; mucyc-serve
  /// defaults to Crash. Never serialized by name()/parse().
  IsolateMode Isolate = IsolateMode::None;

  /// Hard OS limits applied to isolated worker children via setrlimit
  /// (0 = inherit). HardMemMb maps to RLIMIT_AS, HardCpuSec to RLIMIT_CPU;
  /// a trip surfaces as WorkerCrashedRlimit. Distinct from the cooperative
  /// MemLimitMb gauge. Never serialized by name()/parse().
  uint64_t HardMemMb = 0;
  uint64_t HardCpuSec = 0;

  /// Paper-style configuration name, e.g. "Ind(Ret(F,MBP(0)))".
  std::string name() const;

  /// Parses a paper-style name; returns nullopt on malformed input.
  static std::optional<SolverOptions> parse(const std::string &Name);

  /// Lays the engine shape named by \p Name (every field name() renders)
  /// over these options and keeps all the others, the runtime knobs
  /// included. Returns false, changing nothing, on a malformed name.
  bool applyConfig(const std::string &Name);

  MbpStrategy mbpStrategy() const {
    switch (Cex) {
    case CexMethod::Mbp:
      return MbpStrategy::LazyProject;
    case CexMethod::Model:
      return MbpStrategy::ModelDiagram;
    case CexMethod::Qe:
      return MbpStrategy::FullQe;
    }
    return MbpStrategy::LazyProject;
  }
};

/// The solver-relevant command-line surface shared by `mucyc`,
/// `mucyc-fuzz`, `mucyc-serve` and `mucyc-client`: one parser, one set of
/// flag names, identical semantics everywhere. Tool-specific flags
/// (positional paths, --portfolio, fuzz knobs) stay with each tool;
/// parseSolverOptions() consumes only the flags below and compacts argv so
/// the tool's own loop never sees them.
struct CliOptions {
  SolverOptions Opts;              ///< --config + runtime-knob overlays.
  std::string Config = "Ret(T,MBP(1))"; ///< The raw --config value.
  unsigned Jobs = 0;               ///< --jobs (0 = hardware).
  uint64_t TimeoutMs = 600000;     ///< --timeout-ms (per solve/job).

  /// Re-serializes exactly the flags parseSolverOptions() consumes, in a
  /// fixed order, omitting defaults. parse(toFlags()) round-trips.
  std::vector<std::string> toFlags() const;
};

/// Parses the shared flags out of (argc, argv), filling \p Out and
/// REMOVING the consumed entries from argv (argc is updated), so callers
/// handle only their own flags afterwards. Recognized:
///
///   --config NAME          paper-style configuration (parse() grammar)
///   --jobs N               worker threads
///   --timeout-ms N         per-solve deadline
///   --mem-limit-mb N       cooperative memory budget
///   --max-retries N        recovery-ladder retries
///   --max-refine-steps N   refinement-step budget (deterministic CI runs)
///   --chaos-seed S         deterministic fault injection
///   --no-incremental       disable the incremental SMT backend
///   --verify               verify answers before reporting
///   --share-lemmas         cooperative lemma exchange (portfolio)
///   --share-import-budget N  max peer lemmas fetched per import round
///   --isolate MODE         none|crash worker-process isolation
///   --hard-mem-mb N        worker RLIMIT_AS cap (isolated runs)
///   --hard-cpu-sec N       worker RLIMIT_CPU cap (isolated runs)
///
/// Returns false (and fills \p Err) on a malformed value — e.g. an unknown
/// --config name or a flag missing its argument. Unrecognized flags are
/// left in argv untouched.
bool parseSolverOptions(int &Argc, char **Argv, CliOptions &Out,
                        std::string &Err);

} // namespace mucyc

#endif // MUCYC_SOLVER_OPTIONS_H
