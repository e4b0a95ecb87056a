//===- support/Rational.cpp - Exact rational arithmetic -------------------===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Rational.h"

#include "support/Error.h"

using namespace mucyc;

Rational::Rational(BigInt N, BigInt D) : Num(std::move(N)), Den(std::move(D)) {
  assert(!Den.isZero() && "rational with zero denominator");
  normalize();
}

void Rational::normalize() {
  // Small-gcd fast lane: when both components are inline machine words the
  // whole normalization runs on int64/uint64 with no BigInt temporaries.
  // smallValue() is representation-based, so force-heap values skip this
  // lane and exercise the slow path below.
  int64_t NS, DS;
  if (Num.smallValue(NS) && Den.smallValue(DS)) {
    if (DS < 0) { // Small excludes INT64_MIN: negation cannot overflow.
      NS = -NS;
      DS = -DS;
    }
    if (NS == 0) {
      Num = BigInt(0);
      Den = BigInt(1);
      return;
    }
    uint64_t X = NS < 0 ? static_cast<uint64_t>(-NS) : static_cast<uint64_t>(NS);
    uint64_t Y = static_cast<uint64_t>(DS);
    while (Y != 0) {
      uint64_t T = X % Y;
      X = Y;
      Y = T;
    }
    if (X > 1) {
      NS /= static_cast<int64_t>(X);
      DS /= static_cast<int64_t>(X);
    }
    Num = BigInt(NS);
    Den = BigInt(DS);
    return;
  }
  if (Den.isNeg()) {
    Num = -Num;
    Den = -Den;
  }
  if (Num.isZero()) {
    Den = BigInt(1);
    return;
  }
  BigInt G = BigInt::gcd(Num, Den);
  if (!G.isOne()) {
    Num = Num / G;
    Den = Den / G;
  }
}

int Rational::compareSlow(const Rational &RHS) const {
  return (Num * RHS.Den).compare(RHS.Num * Den);
}

Rational Rational::addSlow(const Rational &RHS) const {
  return Rational(Num * RHS.Den + RHS.Num * Den, Den * RHS.Den);
}

Rational Rational::subSlow(const Rational &RHS) const {
  return Rational(Num * RHS.Den - RHS.Num * Den, Den * RHS.Den);
}

Rational Rational::mulSlow(const Rational &RHS) const {
  return Rational(Num * RHS.Num, Den * RHS.Den);
}

Rational Rational::operator/(const Rational &RHS) const {
  assert(!RHS.isZero() && "rational division by zero");
  return Rational(Num * RHS.Den, Den * RHS.Num);
}

Rational Rational::inverse() const {
  assert(!isZero() && "inverse of zero");
  return Rational(Den, Num);
}

Rational Rational::fromString(const std::string &S) {
  size_t Slash = S.find('/');
  if (Slash != std::string::npos) {
    BigInt N = BigInt::fromString(S.substr(0, Slash));
    BigInt D = BigInt::fromString(S.substr(Slash + 1));
    if (D.isZero())
      raiseError(ErrorCode::InputError,
                 "zero denominator in rational '" + S + "'");
    return Rational(std::move(N), std::move(D));
  }
  size_t Dot = S.find('.');
  if (Dot == std::string::npos)
    return Rational(BigInt::fromString(S));
  std::string Digits = S.substr(0, Dot) + S.substr(Dot + 1);
  BigInt Den(1);
  BigInt Ten(10);
  for (size_t I = Dot + 1; I < S.size(); ++I)
    Den *= Ten;
  return Rational(BigInt::fromString(Digits), Den);
}

std::string Rational::toString() const {
  if (isInt())
    return Num.toString();
  return Num.toString() + "/" + Den.toString();
}

size_t Rational::hash() const {
  return Num.hash() * 31 + Den.hash();
}

std::string DeltaRational::toString() const {
  if (Delta.isZero())
    return Real.toString();
  return Real.toString() + " + " + Delta.toString() + "*eps";
}
