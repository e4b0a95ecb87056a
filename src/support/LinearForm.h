//===- support/LinearForm.h - Sparse linear forms ---------------*- C++ -*-===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one sparse layout for sum(c_k * x_k) shared by LinExpr (term
/// variables), the arithmetic checker's constraints (checker locals) and
/// the simplex tableau rows (simplex variables): (key, coefficient) pairs
/// in a flat vector sorted by ascending key, with no zero coefficient.
///
/// Iteration is in ascending key order, exactly as the std::map layout it
/// replaced, and every consumer depends on that: the checker's unit-variable
/// and min-|a| picks, the Omega variable choice, branch & bound's
/// fractional pick, Bland's rule, explanation order, and the order in which
/// LinExpr::toTerm creates terms. A merge walks two contiguous arrays
/// instead of chasing tree nodes, and a form of n entries costs one
/// allocation instead of n.
///
//===----------------------------------------------------------------------===//

#ifndef MUCYC_SUPPORT_LINEARFORM_H
#define MUCYC_SUPPORT_LINEARFORM_H

#include "support/Rational.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

namespace mucyc {

/// Sparse linear form over uint32_t keys, sorted by key, zero-free.
class LinearForm {
public:
  using Key = uint32_t;
  using Entry = std::pair<Key, Rational>;
  using iterator = std::vector<Entry>::iterator;
  using const_iterator = std::vector<Entry>::const_iterator;

  iterator begin() { return Entries.begin(); }
  iterator end() { return Entries.end(); }
  const_iterator begin() const { return Entries.begin(); }
  const_iterator end() const { return Entries.end(); }
  size_t size() const { return Entries.size(); }
  bool empty() const { return Entries.empty(); }
  void reserve(size_t N) { Entries.reserve(N); }
  const Entry &front() const { return Entries.front(); }

  /// Iterator to the entry for \p K, or end().
  iterator lookup(Key K) {
    auto It = lowerBound(K);
    return It != Entries.end() && It->first == K ? It : Entries.end();
  }
  /// Coefficient of \p K, or nullptr when absent.
  const Rational *find(Key K) const {
    auto It = std::lower_bound(Entries.begin(), Entries.end(), K, keyLess);
    return It != Entries.end() && It->first == K ? &It->second : nullptr;
  }
  /// Coefficient of \p K (zero when absent).
  Rational coeff(Key K) const {
    const Rational *C = find(K);
    return C ? *C : Rational(0);
  }

  /// Accumulates \p C into the slot for \p K, dropping it on exact zero.
  void add(Key K, const Rational &C) {
    auto It = lowerBound(K);
    if (It != Entries.end() && It->first == K) {
      It->second += C;
      if (It->second.isZero())
        Entries.erase(It);
    } else if (!C.isZero()) {
      Entries.insert(It, {K, C});
    }
  }

  /// Appends a nonzero entry whose key exceeds every key present.
  void append(Key K, Rational C) {
    assert((Entries.empty() || Entries.back().first < K) && !C.isZero() &&
           "LinearForm::append out of order or zero");
    Entries.emplace_back(K, std::move(C));
  }

  /// this += Scale * Src, as one linear merge (Src may alias *this).
  void addScaled(const LinearForm &Src, const Rational &Scale);

  /// Multiplies every coefficient by the nonzero \p S.
  void scale(const Rational &S) {
    assert(!S.isZero() && "scaling a form by zero");
    for (Entry &E : Entries)
      E.second *= S;
  }
  /// Negates every coefficient.
  void negate() {
    for (Entry &E : Entries)
      E.second = -E.second;
  }

  void erase(iterator It) { Entries.erase(It); }
  /// Removes the entry for \p K if present.
  void erase(Key K) {
    auto It = lookup(K);
    if (It != Entries.end())
      Entries.erase(It);
  }

  /// True when *this == -Other, entry by entry.
  bool isNegationOf(const LinearForm &Other) const;

  bool operator==(const LinearForm &RHS) const {
    return Entries == RHS.Entries;
  }

private:
  static bool keyLess(const Entry &E, Key K) { return E.first < K; }
  iterator lowerBound(Key K) {
    return std::lower_bound(Entries.begin(), Entries.end(), K, keyLess);
  }

  std::vector<Entry> Entries;
};

} // namespace mucyc

#endif // MUCYC_SUPPORT_LINEARFORM_H
