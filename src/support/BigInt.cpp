//===- support/BigInt.cpp - Arbitrary-precision integers ------------------===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/BigInt.h"

#include "support/Error.h"

#include <algorithm>

using namespace mucyc;

//===----------------------------------------------------------------------===//
// Force-heap knob
//===----------------------------------------------------------------------===//

namespace {

bool initForceHeap() {
#ifdef MUCYC_FORCE_HEAP
  return true;
#else
  const char *E = std::getenv("MUCYC_FORCE_HEAP");
  return E && *E && !(E[0] == '0' && E[1] == '\0');
#endif
}

/// Magnitude of a small-domain int64 (which is never INT64_MIN, so the
/// negation cannot overflow).
uint64_t smallMagOf(int64_t V) {
  return V < 0 ? static_cast<uint64_t>(-V) : static_cast<uint64_t>(V);
}

/// Magnitude comparison of canonical limbs against a uint64: -1, 0, or 1.
int compareMagU64(const std::vector<uint32_t> &A, uint64_t U) {
  uint32_t B[2] = {static_cast<uint32_t>(U & 0xffffffffu),
                   static_cast<uint32_t>(U >> 32)};
  size_t BN = B[1] ? 2 : (B[0] ? 1 : 0);
  if (A.size() != BN)
    return A.size() < BN ? -1 : 1;
  for (size_t I = A.size(); I-- > 0;)
    if (A[I] != B[I])
      return A[I] < B[I] ? -1 : 1;
  return 0;
}

} // namespace

bool BigInt::ForceHeapFlag = initForceHeap();

//===----------------------------------------------------------------------===//
// Construction and representation management
//===----------------------------------------------------------------------===//

void BigInt::initHeap(int64_t V) {
  IsSmall = false;
  Negative = V < 0;
  // Avoid UB on INT64_MIN by widening through unsigned arithmetic.
  uint64_t U =
      Negative ? ~static_cast<uint64_t>(V) + 1 : static_cast<uint64_t>(V);
  while (U != 0) {
    Mag.push_back(static_cast<uint32_t>(U & 0xffffffffu));
    U >>= 32;
  }
}

void BigInt::spillToHeap() {
  if (!IsSmall)
    return;
  int64_t V = Small;
  IsSmall = false;
  Small = 0;
  Negative = V < 0;
  uint64_t U = smallMagOf(V);
  Mag.clear();
  while (U != 0) {
    Mag.push_back(static_cast<uint32_t>(U & 0xffffffffu));
    U >>= 32;
  }
}

BigInt BigInt::heapCopy() const {
  BigInt R = *this;
  R.spillToHeap();
  return R;
}

void BigInt::normalizeRep() {
  if (IsSmall)
    return;
  while (!Mag.empty() && Mag.back() == 0)
    Mag.pop_back();
  if (Mag.empty())
    Negative = false;
  if (ForceHeapFlag)
    return;
  // Collapse back into the small domain when the value fits (INT64_MIN is
  // excluded so negation/abs stay overflow-free on small values).
  if (Mag.size() > 2)
    return;
  uint64_t U = Mag.empty() ? 0 : Mag[0];
  if (Mag.size() == 2)
    U |= static_cast<uint64_t>(Mag[1]) << 32;
  if (U > static_cast<uint64_t>(INT64_MAX))
    return;
  int64_t V = Negative ? -static_cast<int64_t>(U) : static_cast<int64_t>(U);
  IsSmall = true;
  Small = V;
  Negative = false;
  Mag.clear();
}

//===----------------------------------------------------------------------===//
// Magnitude helpers (heap slow path)
//===----------------------------------------------------------------------===//

int BigInt::compareMag(const std::vector<uint32_t> &A,
                       const std::vector<uint32_t> &B) {
  if (A.size() != B.size())
    return A.size() < B.size() ? -1 : 1;
  for (size_t I = A.size(); I-- > 0;)
    if (A[I] != B[I])
      return A[I] < B[I] ? -1 : 1;
  return 0;
}

std::vector<uint32_t> BigInt::addMag(const std::vector<uint32_t> &A,
                                     const std::vector<uint32_t> &B) {
  const std::vector<uint32_t> &Big = A.size() >= B.size() ? A : B;
  const std::vector<uint32_t> &Small = A.size() >= B.size() ? B : A;
  std::vector<uint32_t> R;
  R.reserve(Big.size() + 1);
  uint64_t Carry = 0;
  for (size_t I = 0; I < Big.size(); ++I) {
    uint64_t Sum = Carry + Big[I] + (I < Small.size() ? Small[I] : 0);
    R.push_back(static_cast<uint32_t>(Sum & 0xffffffffu));
    Carry = Sum >> 32;
  }
  if (Carry)
    R.push_back(static_cast<uint32_t>(Carry));
  return R;
}

std::vector<uint32_t> BigInt::subMag(const std::vector<uint32_t> &A,
                                     const std::vector<uint32_t> &B) {
  assert(compareMag(A, B) >= 0 && "subMag requires |A| >= |B|");
  std::vector<uint32_t> R;
  R.reserve(A.size());
  int64_t Borrow = 0;
  for (size_t I = 0; I < A.size(); ++I) {
    int64_t Diff = static_cast<int64_t>(A[I]) - Borrow -
                   (I < B.size() ? static_cast<int64_t>(B[I]) : 0);
    Borrow = 0;
    if (Diff < 0) {
      Diff += int64_t(1) << 32;
      Borrow = 1;
    }
    R.push_back(static_cast<uint32_t>(Diff));
  }
  assert(Borrow == 0 && "underflow in subMag");
  while (!R.empty() && R.back() == 0)
    R.pop_back();
  return R;
}

//===----------------------------------------------------------------------===//
// Comparison
//===----------------------------------------------------------------------===//

int BigInt::compareSlow(const BigInt &RHS) const {
  int SL = sgn(), SR = RHS.sgn();
  if (SL != SR)
    return SL < SR ? -1 : 1;
  if (SL == 0)
    return 0;
  // Same nonzero sign: compare magnitudes across representations.
  int C;
  if (!IsSmall && !RHS.IsSmall)
    C = compareMag(Mag, RHS.Mag);
  else if (IsSmall)
    C = -compareMagU64(RHS.Mag, smallMagOf(Small));
  else
    C = compareMagU64(Mag, smallMagOf(RHS.Small));
  return SL < 0 ? -C : C;
}

//===----------------------------------------------------------------------===//
// Arithmetic
//===----------------------------------------------------------------------===//

BigInt BigInt::negSlow() const {
  BigInt R = *this;
  if (!R.Mag.empty())
    R.Negative = !R.Negative;
  return R;
}

BigInt BigInt::heapAdd(const BigInt &L, const BigInt &R) {
  BigInt Out;
  Out.IsSmall = false;
  if (L.Negative == R.Negative) {
    Out.Negative = L.Negative;
    Out.Mag = addMag(L.Mag, R.Mag);
  } else {
    int C = compareMag(L.Mag, R.Mag);
    if (C == 0)
      return BigInt();
    if (C > 0) {
      Out.Negative = L.Negative;
      Out.Mag = subMag(L.Mag, R.Mag);
    } else {
      Out.Negative = R.Negative;
      Out.Mag = subMag(R.Mag, L.Mag);
    }
  }
  Out.normalizeRep();
  return Out;
}

BigInt BigInt::addSlow(const BigInt &L, const BigInt &R) {
  return heapAdd(L.heapCopy(), R.heapCopy());
}

BigInt BigInt::subSlow(const BigInt &L, const BigInt &R) { return L + (-R); }

BigInt BigInt::heapMul(const BigInt &L, const BigInt &R) {
  if (L.Mag.empty() || R.Mag.empty())
    return BigInt();
  BigInt Out;
  Out.IsSmall = false;
  Out.Negative = L.Negative != R.Negative;
  Out.Mag.assign(L.Mag.size() + R.Mag.size(), 0);
  for (size_t I = 0; I < L.Mag.size(); ++I) {
    uint64_t Carry = 0;
    for (size_t J = 0; J < R.Mag.size(); ++J) {
      uint64_t Cur =
          Out.Mag[I + J] + static_cast<uint64_t>(L.Mag[I]) * R.Mag[J] + Carry;
      Out.Mag[I + J] = static_cast<uint32_t>(Cur & 0xffffffffu);
      Carry = Cur >> 32;
    }
    size_t K = I + R.Mag.size();
    while (Carry) {
      uint64_t Cur = Out.Mag[K] + Carry;
      Out.Mag[K] = static_cast<uint32_t>(Cur & 0xffffffffu);
      Carry = Cur >> 32;
      ++K;
    }
  }
  Out.normalizeRep();
  return Out;
}

BigInt BigInt::mulSlow(const BigInt &L, const BigInt &R) {
  return heapMul(L.heapCopy(), R.heapCopy());
}

void BigInt::heapDivMod(const BigInt &LHS, const BigInt &RHS, BigInt &Quot,
                        BigInt &Rem) {
  assert(!RHS.Mag.empty() && "division by zero");
  // Magnitude long division in base 2 over base-2^32 limbs. Simple and
  // correct; multi-limb values are rare enough in mucyc that the
  // O(bits * limbs) cost is irrelevant next to SMT search.
  int C = compareMag(LHS.Mag, RHS.Mag);
  if (C < 0) {
    Quot = BigInt();
    Rem = LHS;
    Rem.normalizeRep();
    return;
  }
  std::vector<uint32_t> Q(LHS.Mag.size(), 0);
  std::vector<uint32_t> R; // Current remainder magnitude.
  size_t Bits = LHS.Mag.size() * 32;
  bool QuotNeg = LHS.Negative != RHS.Negative;
  bool RemNeg = LHS.Negative; // Truncated division: remainder follows LHS.
  for (size_t BitIdx = Bits; BitIdx-- > 0;) {
    // R = R*2 + bit.
    uint32_t CarryBit = (LHS.Mag[BitIdx / 32] >> (BitIdx % 32)) & 1;
    uint32_t Carry = CarryBit;
    for (size_t I = 0; I < R.size(); ++I) {
      uint32_t Hi = R[I] >> 31;
      R[I] = (R[I] << 1) | Carry;
      Carry = Hi;
    }
    if (Carry)
      R.push_back(Carry);
    if (compareMag(R, RHS.Mag) >= 0) {
      R = subMag(R, RHS.Mag);
      Q[BitIdx / 32] |= (uint32_t(1) << (BitIdx % 32));
    }
  }
  Quot.IsSmall = false;
  Quot.Small = 0;
  Quot.Mag = std::move(Q);
  Quot.Negative = QuotNeg;
  Quot.normalizeRep();
  Rem.IsSmall = false;
  Rem.Small = 0;
  Rem.Mag = std::move(R);
  Rem.Negative = RemNeg;
  Rem.normalizeRep();
}

void BigInt::divMod(const BigInt &LHS, const BigInt &RHS, BigInt &Quot,
                    BigInt &Rem) {
  if (LHS.IsSmall && RHS.IsSmall) {
    assert(RHS.Small != 0 && "division by zero");
    // Small excludes INT64_MIN, so INT64_MIN / -1 cannot arise here.
    int64_t Q = LHS.Small / RHS.Small;
    int64_t R = LHS.Small % RHS.Small;
    Quot = BigInt(Q);
    Rem = BigInt(R);
    return;
  }
  heapDivMod(LHS.heapCopy(), RHS.heapCopy(), Quot, Rem);
}

BigInt BigInt::operator/(const BigInt &RHS) const {
  BigInt Q, R;
  divMod(*this, RHS, Q, R);
  return Q;
}

BigInt BigInt::operator%(const BigInt &RHS) const {
  BigInt Q, R;
  divMod(*this, RHS, Q, R);
  return R;
}

BigInt BigInt::floorDiv(const BigInt &RHS) const {
  BigInt Q, R;
  divMod(*this, RHS, Q, R);
  // Truncation equals floor unless signs differ and division was inexact.
  if (!R.isZero() && (isNeg() != RHS.isNeg()))
    Q -= BigInt(1);
  return Q;
}

BigInt BigInt::euclidMod(const BigInt &RHS) const {
  BigInt R = *this % RHS;
  if (R.isNeg())
    R += RHS.abs();
  return R;
}

BigInt BigInt::absSlow() const {
  BigInt R = *this;
  R.Negative = false;
  return R;
}

BigInt BigInt::gcd(BigInt A, BigInt B) {
  if (A.IsSmall && B.IsSmall) {
    // Euclid over unsigned magnitudes; both inputs exclude INT64_MIN, so
    // the result fits int64_t.
    uint64_t X = smallMagOf(A.Small), Y = smallMagOf(B.Small);
    while (Y != 0) {
      uint64_t T = X % Y;
      X = Y;
      Y = T;
    }
    return BigInt(static_cast<int64_t>(X));
  }
  A = A.abs();
  B = B.abs();
  A.spillToHeap();
  B.spillToHeap();
  while (!B.Mag.empty()) {
    BigInt Q, T;
    heapDivMod(A, B, Q, T);
    T.spillToHeap();
    A = std::move(B);
    B = std::move(T);
  }
  A.normalizeRep();
  return A;
}

BigInt BigInt::lcm(const BigInt &A, const BigInt &B) {
  if (A.isZero() || B.isZero())
    return BigInt();
  return (A * B).abs() / gcd(A, B);
}

//===----------------------------------------------------------------------===//
// Conversions
//===----------------------------------------------------------------------===//

bool BigInt::toInt64(int64_t &Out) const {
  if (IsSmall) {
    Out = Small;
    return true;
  }
  if (Mag.size() > 2)
    return false;
  uint64_t U = 0;
  if (Mag.size() >= 1)
    U = Mag[0];
  if (Mag.size() == 2)
    U |= static_cast<uint64_t>(Mag[1]) << 32;
  if (Negative) {
    if (U > static_cast<uint64_t>(INT64_MAX) + 1)
      return false;
    Out = U == static_cast<uint64_t>(INT64_MAX) + 1
              ? INT64_MIN
              : -static_cast<int64_t>(U);
    return true;
  }
  if (U > static_cast<uint64_t>(INT64_MAX))
    return false;
  Out = static_cast<int64_t>(U);
  return true;
}

BigInt BigInt::fromString(const std::string &S) {
  if (S.empty())
    raiseError(ErrorCode::InputError, "empty numeral");
  size_t I = 0;
  bool Neg = false;
  if (S[0] == '-') {
    Neg = true;
    I = 1;
  }
  if (I >= S.size())
    raiseError(ErrorCode::InputError, "numeral has sign but no digits");
  for (size_t J = I; J < S.size(); ++J)
    if (S[J] < '0' || S[J] > '9')
      raiseError(ErrorCode::InputError,
                 "non-digit character in numeral '" + S + "'");
  // Up to 18 digits always fits int64_t; accumulate inline and let the
  // BigInt ctor apply the force-heap knob. Longer numerals go through the
  // generic multiply-add loop.
  if (S.size() - I <= 18) {
    int64_t V = 0;
    for (; I < S.size(); ++I)
      V = V * 10 + (S[I] - '0');
    return BigInt(Neg ? -V : V);
  }
  BigInt R;
  BigInt Ten(10);
  for (; I < S.size(); ++I)
    R = R * Ten + BigInt(static_cast<int64_t>(S[I] - '0'));
  if (Neg)
    R = -R;
  return R;
}

std::string BigInt::toString() const {
  if (IsSmall)
    return std::to_string(Small);
  if (Mag.empty())
    return "0";
  std::string Digits;
  BigInt N = abs();
  N.spillToHeap();
  BigInt Ten(10);
  Ten.spillToHeap();
  while (!N.isZero()) {
    BigInt Q, R;
    heapDivMod(N, Ten, Q, R);
    int64_t D = 0;
    R.toInt64(D);
    Digits.push_back(static_cast<char>('0' + D));
    N = std::move(Q);
    N.spillToHeap();
  }
  if (Negative)
    Digits.push_back('-');
  std::reverse(Digits.begin(), Digits.end());
  return Digits;
}

size_t BigInt::hash() const {
  // Value-based: fold the canonical little-endian limb decomposition with a
  // sign-dependent seed, identically for both representations, so equal
  // values hash equal even when fast and forced-heap values mix.
  if (IsSmall) {
    size_t H = Small < 0 ? 0x9e3779b97f4a7c15ull : 0x517cc1b727220a95ull;
    uint64_t U = smallMagOf(Small);
    while (U != 0) {
      H = (H ^ static_cast<uint32_t>(U & 0xffffffffu)) * 0x100000001b3ull;
      U >>= 32;
    }
    return H;
  }
  size_t H = Negative ? 0x9e3779b97f4a7c15ull : 0x517cc1b727220a95ull;
  for (uint32_t Limb : Mag)
    H = (H ^ Limb) * 0x100000001b3ull;
  return H;
}
