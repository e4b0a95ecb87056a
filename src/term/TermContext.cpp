//===- term/TermContext.cpp - Canonicalizing term builders ----------------===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builder canonicalization rules:
///  * Not folds constants, double negation, and flips Le/Lt atoms so that
///    negated inequality literals never exist.
///  * And/Or flatten, deduplicate, absorb constants and detect complementary
///    pairs.
///  * Arithmetic comparisons are normalized to "monomial sum <op> constant"
///    with coprime integer coefficients; Int atoms are tightened so strict
///    inequalities disappear over Int.
///
//===----------------------------------------------------------------------===//

#include "term/Linear.h"
#include "term/Term.h"

#include <algorithm>
#include <set>

using namespace mucyc;

TermRef TermContext::mkNot(TermRef A) {
  const TermNode &N = node(A);
  assert(N.S == Sort::Bool && "not on non-boolean");
  switch (N.K) {
  case Kind::True:
    return FalseRef;
  case Kind::False:
    return TrueRef;
  case Kind::Not:
    return N.Kids[0];
  case Kind::Le:
    // not (L <= K)  ==>  K < L.
    return mkLt(N.Kids[1], N.Kids[0]);
  case Kind::Lt:
    // not (L < K)  ==>  K <= L.
    return mkLe(N.Kids[1], N.Kids[0]);
  default:
    return intern(Kind::Not, Sort::Bool, 0, Rational(), &A, 1);
  }
}

TermRef TermContext::mkAnd(std::vector<TermRef> Kids) {
  std::set<TermRef> Unique;
  std::vector<TermRef> Flat;
  // Worklist flattening of nested conjunctions.
  std::vector<TermRef> Work(Kids.rbegin(), Kids.rend());
  while (!Work.empty()) {
    TermRef T = Work.back();
    Work.pop_back();
    const TermNode &N = node(T);
    assert(N.S == Sort::Bool && "and on non-boolean");
    if (N.K == Kind::True)
      continue;
    if (N.K == Kind::False)
      return FalseRef;
    if (N.K == Kind::And) {
      for (auto It = N.Kids.rbegin(); It != N.Kids.rend(); ++It)
        Work.push_back(*It);
      continue;
    }
    if (Unique.insert(T).second)
      Flat.push_back(T);
  }
  // a and not(a) is false.
  for (TermRef T : Flat)
    if (Unique.count(mkNot(T)))
      return FalseRef;
  if (Flat.empty())
    return TrueRef;
  if (Flat.size() == 1)
    return Flat[0];
  std::sort(Flat.begin(), Flat.end());
  return intern(Kind::And, Sort::Bool, 0, Rational(), Flat.data(),
                Flat.size());
}

TermRef TermContext::mkOr(std::vector<TermRef> Kids) {
  std::set<TermRef> Unique;
  std::vector<TermRef> Flat;
  std::vector<TermRef> Work(Kids.rbegin(), Kids.rend());
  while (!Work.empty()) {
    TermRef T = Work.back();
    Work.pop_back();
    const TermNode &N = node(T);
    assert(N.S == Sort::Bool && "or on non-boolean");
    if (N.K == Kind::False)
      continue;
    if (N.K == Kind::True)
      return TrueRef;
    if (N.K == Kind::Or) {
      for (auto It = N.Kids.rbegin(); It != N.Kids.rend(); ++It)
        Work.push_back(*It);
      continue;
    }
    if (Unique.insert(T).second)
      Flat.push_back(T);
  }
  for (TermRef T : Flat)
    if (Unique.count(mkNot(T)))
      return TrueRef;
  if (Flat.empty())
    return FalseRef;
  if (Flat.size() == 1)
    return Flat[0];
  std::sort(Flat.begin(), Flat.end());
  return intern(Kind::Or, Sort::Bool, 0, Rational(), Flat.data(), Flat.size());
}

TermRef TermContext::mkIff(TermRef A, TermRef B) {
  return mkAnd(mkImplies(A, B), mkImplies(B, A));
}

TermRef TermContext::mkIte(TermRef C, TermRef A, TermRef B) {
  assert(sort(A) == Sort::Bool && sort(B) == Sort::Bool &&
         "only boolean ite is supported");
  return mkOr(mkAnd(C, A), mkAnd(mkNot(C), B));
}

TermRef TermContext::mkAdd(std::vector<TermRef> Kids) {
  assert(!Kids.empty() && "empty sum");
  Sort S = sort(Kids[0]);
  // Flatten and fold constants; deeper canonicalization happens only when an
  // atom is formed around the sum.
  std::vector<TermRef> Flat;
  Rational ConstSum;
  std::vector<TermRef> Work(Kids.rbegin(), Kids.rend());
  while (!Work.empty()) {
    TermRef T = Work.back();
    Work.pop_back();
    const TermNode &N = node(T);
    assert(N.S == S && "mixed-sort sum");
    if (N.K == Kind::Add) {
      for (auto It = N.Kids.rbegin(); It != N.Kids.rend(); ++It)
        Work.push_back(*It);
      continue;
    }
    if (N.K == Kind::Const) {
      ConstSum += N.Val;
      continue;
    }
    Flat.push_back(T);
  }
  if (!ConstSum.isZero() || Flat.empty())
    Flat.push_back(mkConst(ConstSum, S));
  if (Flat.size() == 1)
    return Flat[0];
  return intern(Kind::Add, S, 0, Rational(), Flat.data(), Flat.size());
}

TermRef TermContext::mkSub(TermRef A, TermRef B) {
  return mkAdd(A, mkNeg(B));
}

TermRef TermContext::mkMul(const Rational &C, TermRef A) {
  Sort S = sort(A);
  assert(S != Sort::Bool && "mul on boolean");
  assert((S != Sort::Int || C.isInt()) && "non-integral Int coefficient");
  if (C.isZero())
    return mkConst(Rational(0), S);
  const TermNode &N = node(A);
  if (N.K == Kind::Const)
    return mkConst(C * N.Val, S);
  if (C == Rational(1))
    return A;
  if (N.K == Kind::Mul)
    return mkMul(C * N.Val, N.Kids[0]);
  if (N.K == Kind::Add) {
    std::vector<TermRef> Kids;
    Kids.reserve(N.Kids.size());
    for (TermRef Kid : N.Kids)
      Kids.push_back(mkMul(C, Kid));
    return mkAdd(std::move(Kids));
  }
  return intern(Kind::Mul, S, 0, C, &A, 1);
}

/// Shared normalization for comparisons: builds LinExpr(A - B), determines
/// the arithmetic sort, integer-normalizes, and hands off to mkLinAtom.
TermRef TermContext::mkLinAtom(Kind K, TermRef Lhs, Sort S) {
  // Lhs here is the term A - B; interpret as LinExpr E, atom is E <op> 0.
  LinExpr E = LinExpr::fromTerm(*this, Lhs);
  if (E.isConstant()) {
    int Sign = E.Const.sgn();
    switch (K) {
    case Kind::Le:
      return mkBool(Sign <= 0);
    case Kind::Lt:
      return mkBool(Sign < 0);
    case Kind::EqA:
      return mkBool(Sign == 0);
    default:
      break;
    }
    assert(false && "bad comparison kind");
  }
  E.integerNormalize();
  BigInt G = E.coeffGcd();
  assert(!G.isZero());
  Rational GR{G};
  // Divide coefficients by their gcd. The constant becomes rational again;
  // for Int we tighten below.
  LinExpr Scaled;
  Scaled.Coeffs.reserve(E.Coeffs.size());
  for (const auto &[V, C] : E.Coeffs)
    Scaled.Coeffs.append(V, C / GR);
  Rational Konst = -(E.Const / GR); // Atom shape: sum <op> Konst.

  if (K == Kind::EqA) {
    if (S == Sort::Int && !Konst.isInt())
      return FalseRef;
    // Sign-canonicalize: make the first coefficient positive.
    if (Scaled.Coeffs.begin()->second.sgn() < 0) {
      Scaled = Scaled.scaled(Rational(-1));
      Konst = -Konst;
    }
  } else if (S == Sort::Int) {
    // sum <= Konst  ==>  sum <= floor(Konst);
    // sum <  Konst  ==>  sum <= ceil(Konst) - 1.
    if (K == Kind::Lt) {
      Konst = Rational(Konst.ceil() - BigInt(1));
      K = Kind::Le;
    } else {
      Konst = Rational(Konst.floor());
    }
  }
  Scaled.Const = Rational(0);
  TermRef SumTerm = Scaled.toTerm(*this, S);
  TermRef KonstTerm = mkConst(Konst, S);
  TermRef AtomKids[2] = {SumTerm, KonstTerm};
  return intern(K, Sort::Bool, 0, Rational(), AtomKids, 2);
}

/// Determines the common arithmetic sort of two operands.
static Sort arithSort(const TermContext &Ctx, TermRef A, TermRef B) {
  Sort SA = Ctx.sort(A), SB = Ctx.sort(B);
  assert(SA != Sort::Bool && SB != Sort::Bool && "comparison on booleans");
  assert(SA == SB && "mixed Int/Real comparison is not supported");
  return SA;
}

TermRef TermContext::mkLe(TermRef A, TermRef B) {
  Sort S = arithSort(*this, A, B);
  return mkLinAtom(Kind::Le, mkSub(A, B), S);
}

TermRef TermContext::mkLt(TermRef A, TermRef B) {
  Sort S = arithSort(*this, A, B);
  return mkLinAtom(Kind::Lt, mkSub(A, B), S);
}

TermRef TermContext::mkEq(TermRef A, TermRef B) {
  if (sort(A) == Sort::Bool)
    return mkIff(A, B);
  Sort S = arithSort(*this, A, B);
  return mkLinAtom(Kind::EqA, mkSub(A, B), S);
}

TermRef TermContext::mkDivides(const BigInt &D, TermRef A) {
  assert(D.sgn() > 0 && "divisibility modulus must be positive");
  assert(sort(A) == Sort::Int && "divisibility on non-Int term");
  LinExpr E = LinExpr::fromTerm(*this, A);
  Rational Scale = E.integerNormalize();
  // (d | A) with A scaled by L (integer, from denominators) is (L*d | L*A).
  assert(Scale.isInt() && Scale.sgn() > 0);
  BigInt Mod = D * Scale.num();
  if (Mod.isOne())
    return TrueRef;
  // Reduce coefficients and constant into [0, Mod).
  LinExpr R;
  for (const auto &[V, C] : E.Coeffs) {
    BigInt Red = C.num().euclidMod(Mod);
    if (!Red.isZero())
      R.Coeffs.append(V, Rational(Red));
  }
  assert(E.Const.isInt());
  R.Const = Rational(E.Const.num().euclidMod(Mod));
  if (R.isConstant())
    return mkBool(R.Const.num().euclidMod(Mod).isZero());
  // Reduce by the common gcd of coefficients, constant and modulus.
  BigInt G = Mod;
  for (const auto &[V, C] : R.Coeffs)
    G = BigInt::gcd(G, C.num());
  G = BigInt::gcd(G, R.Const.num());
  if (!G.isOne()) {
    LinExpr R2;
    for (const auto &[V, C] : R.Coeffs)
      R2.Coeffs.append(V, Rational(C.num() / G));
    R2.Const = Rational(R.Const.num() / G);
    R = std::move(R2);
    Mod = Mod / G;
    if (Mod.isOne())
      return TrueRef;
  }
  TermRef Body = R.toTerm(*this, Sort::Int);
  return intern(Kind::Divides, Sort::Bool, 0, Rational(Mod), &Body, 1);
}
