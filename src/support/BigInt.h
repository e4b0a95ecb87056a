//===- support/BigInt.h - Arbitrary-precision integers ----------*- C++ -*-===//
//
// Part of the mucyc project, a C++ reproduction of "Inductive Approach to
// Spacer" (Tsukada & Unno, PLDI 2024). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Sign-and-magnitude arbitrary-precision integers. Coefficients produced by
/// simplex pivoting, Cooper-style projection and branch-and-bound can exceed
/// 64 bits, so every ground arithmetic value in mucyc is a BigInt (or a
/// Rational built from two of them) — but almost all of them fit a machine
/// word, so the representation is two-tier:
///
///  * Small: an inline int64_t, no heap traffic. All arithmetic branches on
///    the small×small case first and stays inline unless a
///    __builtin_*_overflow guard fires. INT64_MIN is excluded from the
///    small domain so negation/abs never overflow. The small lanes of
///    construction, + - ×, negation and compare() are defined in this
///    header so they inline into the simplex and Omega loops; only the
///    heap paths are out of line.
///  * Heap: little-endian base-2^32 magnitude with a sign flag, reached
///    only on overflow (or when the force-heap knob is on).
///
/// Every operation canonicalizes: a result that fits the small domain is
/// small (unless force-heap), zero is +0, and heap magnitudes carry no
/// leading zero limbs. Comparison, equality and hash() are value-based and
/// agree across representations, so mixed-representation values (possible
/// around a force-heap toggle) behave identically.
///
/// The force-heap knob — the MUCYC_FORCE_HEAP environment variable, the
/// -DMUCYC_FORCE_HEAP build option, or setForceHeap() in-process — routes
/// every newly constructed value onto the heap representation, turning the
/// entire test and fuzz corpus into a differential oracle for the fast
/// path: fast and forced-heap runs must produce byte-identical results.
///
//===----------------------------------------------------------------------===//

#ifndef MUCYC_SUPPORT_BIGINT_H
#define MUCYC_SUPPORT_BIGINT_H

#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

namespace mucyc {

/// Arbitrary-precision signed integer with an inline small-value fast path.
class BigInt {
public:
  /// Constructs zero.
  BigInt() = default;

  // Copies touch the limb vector only for heap values: a small value's is
  // always empty, and copying an empty std::vector is still a call.
  BigInt(const BigInt &O)
      : Small(O.Small), IsSmall(O.IsSmall), Negative(O.Negative) {
    if (!O.IsSmall)
      Mag = O.Mag;
  }
  BigInt &operator=(const BigInt &O) {
    Small = O.Small;
    IsSmall = O.IsSmall;
    Negative = O.Negative;
    if (O.IsSmall)
      Mag.clear();
    else
      Mag = O.Mag;
    return *this;
  }
  BigInt(BigInt &&) noexcept = default;
  BigInt &operator=(BigInt &&) noexcept = default;

  /// Constructs from a machine integer.
  BigInt(int64_t V) {
    if (V != INT64_MIN && !ForceHeapFlag) [[likely]] {
      Small = V;
      return;
    }
    initHeap(V);
  }

  /// Parses a decimal string with optional leading '-'. Raises a typed
  /// InputError (support/Error.h) on malformed input, so it is safe on
  /// untrusted text.
  static BigInt fromString(const std::string &S);

  bool isZero() const { return IsSmall ? Small == 0 : Mag.empty(); }
  bool isNeg() const { return IsSmall ? Small < 0 : Negative; }
  bool isOne() const {
    return IsSmall ? Small == 1
                   : (!Negative && Mag.size() == 1 && Mag[0] == 1);
  }

  /// Returns -1, 0, or 1.
  int sgn() const {
    if (IsSmall)
      return Small == 0 ? 0 : (Small < 0 ? -1 : 1);
    return Mag.empty() ? 0 : (Negative ? -1 : 1);
  }

  /// Three-way comparison: negative, zero, or positive as *this <=> RHS.
  /// Value-based: representations may differ.
  int compare(const BigInt &RHS) const {
    if (IsSmall && RHS.IsSmall)
      return Small == RHS.Small ? 0 : (Small < RHS.Small ? -1 : 1);
    return compareSlow(RHS);
  }

  bool operator==(const BigInt &RHS) const {
    if (IsSmall && RHS.IsSmall)
      return Small == RHS.Small;
    if (IsSmall != RHS.IsSmall)
      return compare(RHS) == 0; // Mixed representations: compare values.
    return Negative == RHS.Negative && Mag == RHS.Mag;
  }
  bool operator!=(const BigInt &RHS) const { return !(*this == RHS); }
  bool operator<(const BigInt &RHS) const { return compare(RHS) < 0; }
  bool operator<=(const BigInt &RHS) const { return compare(RHS) <= 0; }
  bool operator>(const BigInt &RHS) const { return compare(RHS) > 0; }
  bool operator>=(const BigInt &RHS) const { return compare(RHS) >= 0; }

  BigInt operator-() const {
    if (IsSmall)
      return BigInt(-Small); // Small excludes INT64_MIN: cannot overflow.
    return negSlow();
  }
  BigInt operator+(const BigInt &RHS) const {
    int64_t R;
    if (IsSmall && RHS.IsSmall && !__builtin_add_overflow(Small, RHS.Small, &R))
      return BigInt(R); // Ctor re-spills R == INT64_MIN.
    return addSlow(*this, RHS);
  }
  BigInt operator-(const BigInt &RHS) const {
    int64_t R;
    if (IsSmall && RHS.IsSmall && !__builtin_sub_overflow(Small, RHS.Small, &R))
      return BigInt(R);
    return subSlow(*this, RHS);
  }
  BigInt operator*(const BigInt &RHS) const {
    int64_t R;
    if (IsSmall && RHS.IsSmall && !__builtin_mul_overflow(Small, RHS.Small, &R))
      return BigInt(R);
    return mulSlow(*this, RHS);
  }

  BigInt &operator+=(const BigInt &RHS) { return *this = *this + RHS; }
  BigInt &operator-=(const BigInt &RHS) { return *this = *this - RHS; }
  BigInt &operator*=(const BigInt &RHS) { return *this = *this * RHS; }

  /// Truncated division (C semantics: quotient rounds toward zero).
  /// \p RHS must be nonzero.
  static void divMod(const BigInt &LHS, const BigInt &RHS, BigInt &Quot,
                     BigInt &Rem);

  /// Quotient of truncated division.
  BigInt operator/(const BigInt &RHS) const;
  /// Remainder of truncated division (sign follows the dividend).
  BigInt operator%(const BigInt &RHS) const;

  /// Floor division: largest Q with Q*RHS <= *this (for positive RHS).
  BigInt floorDiv(const BigInt &RHS) const;
  /// Euclidean remainder in [0, |RHS|).
  BigInt euclidMod(const BigInt &RHS) const;

  BigInt abs() const {
    if (IsSmall)
      return Small < 0 ? BigInt(-Small) : *this;
    return absSlow();
  }

  /// Greatest common divisor (non-negative; gcd(0,0) = 0).
  static BigInt gcd(BigInt A, BigInt B);
  /// Least common multiple (non-negative).
  static BigInt lcm(const BigInt &A, const BigInt &B);

  /// Returns true and sets \p Out if the value fits in int64_t.
  bool toInt64(int64_t &Out) const;

  /// Returns true and sets \p Out iff the *representation* is small. Unlike
  /// toInt64 this is false for a heap value that happens to fit, which is
  /// exactly what the Rational small-gcd lane needs: it must fall back to
  /// the slow path under force-heap so the differential rig exercises it.
  bool smallValue(int64_t &Out) const {
    if (!IsSmall)
      return false;
    Out = Small;
    return true;
  }

  std::string toString() const;

  /// FNV-style hash over the logical limb sequence; identical for equal
  /// values regardless of representation.
  size_t hash() const;

  //===--------------------------------------------------------------------===
  // Force-heap differential knob
  //===--------------------------------------------------------------------===

  /// When on, every subsequently constructed value uses the heap
  /// representation — the reference slow path for differential testing.
  /// Initialized from the MUCYC_FORCE_HEAP environment variable (or the
  /// -DMUCYC_FORCE_HEAP build option); not thread-safe to toggle while
  /// other threads compute.
  static void setForceHeap(bool On) { ForceHeapFlag = On; }
  static bool forceHeapEnabled() { return ForceHeapFlag; }

private:
  /// The force-heap knob's state (defined and initialized in BigInt.cpp).
  static bool ForceHeapFlag;

  /// Out-of-line halves of the inline operations above.
  void initHeap(int64_t V);
  int compareSlow(const BigInt &RHS) const;
  BigInt negSlow() const;
  BigInt absSlow() const;
  static BigInt addSlow(const BigInt &L, const BigInt &R);
  static BigInt subSlow(const BigInt &L, const BigInt &R);
  static BigInt mulSlow(const BigInt &L, const BigInt &R);

  /// Drops leading zero limbs, canonicalizes the sign of zero, and
  /// collapses a heap value back into the small domain when it fits (and
  /// force-heap is off).
  void normalizeRep();
  /// Converts the small representation to heap limbs in place.
  void spillToHeap();
  /// A heap-representation copy of this value (identity when already heap).
  BigInt heapCopy() const;

  /// Magnitude comparison ignoring sign: -1, 0, or 1.
  static int compareMag(const std::vector<uint32_t> &A,
                        const std::vector<uint32_t> &B);
  static std::vector<uint32_t> addMag(const std::vector<uint32_t> &A,
                                      const std::vector<uint32_t> &B);
  /// Requires |A| >= |B|.
  static std::vector<uint32_t> subMag(const std::vector<uint32_t> &A,
                                      const std::vector<uint32_t> &B);

  static BigInt heapAdd(const BigInt &L, const BigInt &R);
  static BigInt heapMul(const BigInt &L, const BigInt &R);
  static void heapDivMod(const BigInt &L, const BigInt &R, BigInt &Quot,
                         BigInt &Rem);

  // Small representation: IsSmall = true, value in Small (never INT64_MIN),
  // Mag empty. Heap representation: IsSmall = false, sign in Negative,
  // magnitude in Mag (canonical: no leading zeros, zero is non-negative).
  int64_t Small = 0;
  bool IsSmall = true;
  bool Negative = false;
  std::vector<uint32_t> Mag;
};

/// RAII toggle of the force-heap knob, for differential tests and the
/// micro_arith fast-vs-slow comparison.
struct ScopedForceHeap {
  explicit ScopedForceHeap(bool On) : Old(BigInt::forceHeapEnabled()) {
    BigInt::setForceHeap(On);
  }
  ~ScopedForceHeap() { BigInt::setForceHeap(Old); }
  ScopedForceHeap(const ScopedForceHeap &) = delete;
  ScopedForceHeap &operator=(const ScopedForceHeap &) = delete;

private:
  bool Old;
};

} // namespace mucyc

#endif // MUCYC_SUPPORT_BIGINT_H
