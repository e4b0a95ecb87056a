//===- perfbench/src/Stats.h - Percentiles, failures, digests -------------===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Linear-interpolation percentile (P in [0, 100]) of \p V; 0 when empty.
inline double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = P / 100.0 * static_cast<double>(V.size() - 1);
  auto Lo = static_cast<size_t>(Pos);
  if (Lo + 1 >= V.size())
    return V.back();
  double Frac = Pos - static_cast<double>(Lo);
  return V[Lo] + (V[Lo + 1] - V[Lo]) * Frac;
}

inline double median(std::vector<double> V) { return percentile(std::move(V), 50); }

/// Arithmetic mean of \p V; 0 when empty.
inline double mean(const std::vector<double> &V) {
  double Sum = 0;
  for (double X : V)
    Sum += X;
  return V.empty() ? 0 : Sum / static_cast<double>(V.size());
}

/// The highest of the standard percentiles that still has at least ten
/// samples beyond it, with the sample count it was taken over. Percentile
/// 0 means even the median has fewer than ten samples above it.
struct TailPercentile {
  double Percentile = 0;
  size_t Samples = 0;
};

inline TailPercentile tailPercentile(size_t N) {
  TailPercentile T;
  T.Samples = N;
  for (double P : {50.0, 90.0, 95.0, 99.0, 99.9, 99.99})
    if (static_cast<double>(N) * (100.0 - P) / 100.0 >= 10.0 - 1e-9)
      T.Percentile = P;
  return T;
}

/// Why a timed operation failed; None when it did not. An Unknown verdict
/// at the refine-step budget is not a failure: it only does not count as
/// solved.
enum class Failure {
  None,
  WrongVerdict, ///< A definitive verdict that contradicts ground truth.
  Deadline,     ///< The safety deadline was reached.
  Error,        ///< Any other typed error.
  ServeError,   ///< The daemon answered with an `error` frame.
  Overloaded,   ///< The daemon shed the request (`overloaded` frame).
  Broken,       ///< The connection broke or a frame did not decode.
};
constexpr int NumFailureKinds = static_cast<int>(Failure::Broken) + 1;

const char *failureName(Failure F);

/// Classifies one answer. Verdicts are as chcStatusName prints them ("sat",
/// "unsat", "unknown"); \p ErrorText is ErrorInfo::describe() ("" when
/// there is no error), as the daemon also sends it in its `error` header.
Failure classifyVerdict(const std::string &Expected, const std::string &Got,
                        const std::string &ErrorText);

/// Failed operations against operations attempted.
struct FailureTally {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  uint64_t Wrong = 0;
  uint64_t ByKind[NumFailureKinds] = {};

  void add(Failure F) {
    ++Attempted;
    if (F == Failure::None)
      return;
    ++Failed;
    ++ByKind[static_cast<int>(F)];
    if (F == Failure::WrongVerdict)
      ++Wrong;
  }
};

/// FNV-1a (the result store's checksum) over the sorted, newline-terminated
/// \p Lines, so the digest names the work done and not the (seeded) order
/// it was done in.
std::string orderFreeDigest(std::vector<std::string> Lines);

} // namespace perfbench

#endif // PERFBENCH_STATS_H
