//===- support/Rational.h - Exact rational arithmetic -----------*- C++ -*-===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exact rationals over BigInt, plus the delta-rationals (a + b*eps) used by
/// the general simplex to represent strict bounds (Dutertre & de Moura 2006).
///
//===----------------------------------------------------------------------===//

#ifndef MUCYC_SUPPORT_RATIONAL_H
#define MUCYC_SUPPORT_RATIONAL_H

#include "support/BigInt.h"

namespace mucyc {

/// Exact rational number, always normalized: gcd(num, den) = 1, den > 0,
/// and zero is 0/1. Equality is structural.
class Rational {
public:
  Rational() : Den(1) {}
  Rational(int64_t V) : Num(V), Den(1) {}
  Rational(BigInt N) : Num(std::move(N)), Den(1) {}
  Rational(BigInt N, BigInt D);
  Rational(int64_t N, int64_t D) : Rational(BigInt(N), BigInt(D)) {}

  /// Parses "-12", "3/4", or decimal "2.5". Asserts on malformed input.
  static Rational fromString(const std::string &S);

  const BigInt &num() const { return Num; }
  const BigInt &den() const { return Den; }

  bool isZero() const { return Num.isZero(); }
  bool isInt() const { return Den.isOne(); }
  int sgn() const { return Num.sgn(); }

  int compare(const Rational &RHS) const {
    // num1/den1 <=> num2/den2  iff  num1*den2 <=> num2*den1 (dens positive).
    // Fast lane: all four components small means both cross products fit
    // __int128 (|operands| < 2^63, so |product| < 2^126).
    int64_t N1, D1, N2, D2;
    if (Num.smallValue(N1) && Den.smallValue(D1) && RHS.Num.smallValue(N2) &&
        RHS.Den.smallValue(D2)) {
      __int128 L = static_cast<__int128>(N1) * D2;
      __int128 R = static_cast<__int128>(N2) * D1;
      return L == R ? 0 : (L < R ? -1 : 1);
    }
    return compareSlow(RHS);
  }
  bool operator==(const Rational &RHS) const {
    return Num == RHS.Num && Den == RHS.Den;
  }
  bool operator!=(const Rational &RHS) const { return !(*this == RHS); }
  bool operator<(const Rational &RHS) const { return compare(RHS) < 0; }
  bool operator<=(const Rational &RHS) const { return compare(RHS) <= 0; }
  bool operator>(const Rational &RHS) const { return compare(RHS) > 0; }
  bool operator>=(const Rational &RHS) const { return compare(RHS) >= 0; }

  Rational operator-() const { return Rational(-Num, Den, Canonical{}); }

  // Integer lane of + - ×: both operands integers with small numerators
  // and a result that neither overflows nor lands on INT64_MIN stays on
  // machine words and skips the gcd. smallValue() is representation-based,
  // so force-heap values never take the lane and the forced-heap
  // differential still exercises the general path.
  Rational operator+(const Rational &RHS) const {
    int64_t A, B, R;
    if (intLane(RHS, A, B) && !__builtin_add_overflow(A, B, &R) &&
        R != INT64_MIN)
      return Rational(R);
    return addSlow(RHS);
  }
  Rational operator-(const Rational &RHS) const {
    int64_t A, B, R;
    if (intLane(RHS, A, B) && !__builtin_sub_overflow(A, B, &R) &&
        R != INT64_MIN)
      return Rational(R);
    return subSlow(RHS);
  }
  Rational operator*(const Rational &RHS) const {
    int64_t A, B, R;
    if (intLane(RHS, A, B) && !__builtin_mul_overflow(A, B, &R) &&
        R != INT64_MIN)
      return Rational(R);
    return mulSlow(RHS);
  }
  /// \p RHS must be nonzero.
  Rational operator/(const Rational &RHS) const;

  Rational &operator+=(const Rational &RHS) { return *this = *this + RHS; }
  Rational &operator-=(const Rational &RHS) { return *this = *this - RHS; }
  Rational &operator*=(const Rational &RHS) { return *this = *this * RHS; }
  Rational &operator/=(const Rational &RHS) { return *this = *this / RHS; }

  /// Multiplicative inverse; *this must be nonzero.
  Rational inverse() const;

  BigInt floor() const { return Num.floorDiv(Den); }
  BigInt ceil() const { return -((-Num).floorDiv(Den)); }

  std::string toString() const;
  size_t hash() const;

private:
  /// Tag for the constructor that takes an already-normalized pair.
  struct Canonical {};
  Rational(BigInt N, BigInt D, Canonical)
      : Num(std::move(N)), Den(std::move(D)) {}

  /// True, with the numerators in \p A and \p B, when both operands are
  /// small-representation integers.
  bool intLane(const Rational &RHS, int64_t &A, int64_t &B) const {
    int64_t DA, DB;
    return Den.smallValue(DA) && DA == 1 && RHS.Den.smallValue(DB) &&
           DB == 1 && Num.smallValue(A) && RHS.Num.smallValue(B);
  }

  int compareSlow(const Rational &RHS) const;
  Rational addSlow(const Rational &RHS) const;
  Rational subSlow(const Rational &RHS) const;
  Rational mulSlow(const Rational &RHS) const;
  void normalize();

  BigInt Num;
  BigInt Den; ///< Always positive.
};

/// Value of the form R + K*eps for an infinitesimal eps > 0. The general
/// simplex uses these so strict bounds become non-strict bounds on delta
/// values; a concrete eps is chosen only when extracting a model.
class DeltaRational {
public:
  DeltaRational() = default;
  DeltaRational(Rational R) : Real(std::move(R)) {}
  DeltaRational(Rational R, Rational D)
      : Real(std::move(R)), Delta(std::move(D)) {}

  const Rational &real() const { return Real; }
  const Rational &delta() const { return Delta; }

  int compare(const DeltaRational &RHS) const {
    int C = Real.compare(RHS.Real);
    return C != 0 ? C : Delta.compare(RHS.Delta);
  }
  bool operator==(const DeltaRational &RHS) const {
    return Real == RHS.Real && Delta == RHS.Delta;
  }
  bool operator!=(const DeltaRational &RHS) const { return !(*this == RHS); }
  bool operator<(const DeltaRational &RHS) const { return compare(RHS) < 0; }
  bool operator<=(const DeltaRational &RHS) const { return compare(RHS) <= 0; }
  bool operator>(const DeltaRational &RHS) const { return compare(RHS) > 0; }
  bool operator>=(const DeltaRational &RHS) const { return compare(RHS) >= 0; }

  DeltaRational operator+(const DeltaRational &RHS) const {
    return DeltaRational(Real + RHS.Real, Delta + RHS.Delta);
  }
  DeltaRational operator-(const DeltaRational &RHS) const {
    return DeltaRational(Real - RHS.Real, Delta - RHS.Delta);
  }
  DeltaRational operator*(const Rational &C) const {
    return DeltaRational(Real * C, Delta * C);
  }

  /// Concretizes with the given epsilon value.
  Rational materialize(const Rational &Eps) const {
    return Real + Delta * Eps;
  }

  std::string toString() const;

private:
  Rational Real;
  Rational Delta;
};

} // namespace mucyc

#endif // MUCYC_SUPPORT_RATIONAL_H
