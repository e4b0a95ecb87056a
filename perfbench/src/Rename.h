//===- perfbench/src/Rename.h - Seeded alpha-renaming of SMT-LIB -*- C++ -*-===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_RENAME_H
#define PERFBENCH_RENAME_H

#include <cstdint>
#include <string>

namespace perfbench {

/// SplitMix64: the benchmark's only random source, so a seed fixes inputs.
struct Rng {
  uint64_t State;
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [0, N), N > 0.
  uint64_t below(uint64_t N) { return next() % N; }
};

/// Renames every predicate declared with declare-fun and every variable
/// bound by forall/exists in SMT-LIB2 HORN text to fresh names drawn from
/// \p Seed, consistently across the text. The result is the same system up
/// to alpha-equivalence, so it has the same canonical fingerprint.
std::string alphaRename(const std::string &Text, uint64_t Seed);

} // namespace perfbench

#endif // PERFBENCH_RENAME_H
