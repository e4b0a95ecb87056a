//===- perfbench/src/Workloads.h - fig2, btor2 and serve --------*- C++ -*-===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three workloads. Each does the same, deterministic work on every run:
/// every solve ends at its verdict or at a fixed refine-step budget, never
/// at a wall-clock cut-off, so a faster layer finishes the same work sooner.
/// The seed only fixes the order of the work (and, on serve, which systems
/// recur and under which renaming). A run is a number of passes, each run
/// by its own process (see Main.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Stats.h"
#include "Trace.h"

#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string Workload; ///< fig2 | btor2 | serve
  uint64_t Seed = 1;
  unsigned Seconds = 20; ///< Scales the amount of work, never cuts it off.
  bool Traced = false;   ///< Re-verify answers (audit) for the trace.
  std::string RunDir;    ///< Scratch directory for stores and the socket.
  unsigned Pass = 0;     ///< The pass this process runs.
};

/// One timed request.
struct Outcome {
  std::string Key;  ///< "instance|config", or the serve system name.
  unsigned Pass = 0;
  bool Warm = false; ///< serve: a recurrence of an answered system.
  double Seconds = 0;
  Failure Fail = Failure::None;
  bool Solved = false; ///< Ground-truth verdict.
  /// Client latency minus the daemon's own `seconds` header (serve only).
  double ServeWaitSeconds = 0;
  /// What the digest records of this request: verdict and work counts.
  /// Every pass must repeat pass 0's line for the same key. Empty for
  /// serve's warm requests.
  std::string Line;
};

struct RunReport {
  std::vector<double> SetupSeconds; ///< One per set-up repetition.
  double TimedWallSeconds = 0; ///< Wall time of the timed pass.
  std::vector<Outcome> Outcomes;
  /// Digest lines besides the outcomes' own (serve: warm mismatches).
  std::vector<std::string> DigestLines;
  /// Per-layer counts the benchmark reads from responses and stores
  /// (solver.refine_calls, runtime.attempts, ...).
  std::map<std::string, double> Counters;
  RequestTable Requests;
};

/// Short tags of the five Fig. 2 configurations, the per-configuration
/// suffixes of the per-layer metrics.
const std::vector<std::string> &fig2ConfigTags();

struct WorkloadShape {
  unsigned Passes;      ///< Passes in a run, one process each.
  unsigned Connections; ///< Requests in flight at once.
  /// The first passes, which together do the workload's work once (serve:
  /// the stream's parts); the later passes repeat some of it.
  unsigned WorkPasses;
};

/// Throws std::runtime_error for an unknown workload.
WorkloadShape workloadShape(const RunOptions &O);

/// Runs set-up and then pass \p O.Pass of \p O.Workload in this process.
/// Throws std::runtime_error on a set-up failure.
RunReport runWorkload(const RunOptions &O);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
