//===- term/Linear.cpp - Linear-arithmetic views of terms -----------------===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "term/Linear.h"

using namespace mucyc;

void LinExpr::add(const LinExpr &RHS, const Rational &Scale) {
  if (Scale.isZero())
    return;
  Const += RHS.Const * Scale;
  Coeffs.addScaled(RHS.Coeffs, Scale);
}

void LinExpr::addVar(VarId V, const Rational &C) {
  if (!C.isZero())
    Coeffs.add(V, C);
}

LinExpr LinExpr::scaled(const Rational &S) const {
  LinExpr R;
  R.add(*this, S);
  return R;
}

Rational LinExpr::coeff(VarId V) const { return Coeffs.coeff(V); }

namespace {
/// Recursive accumulation of Scale * T into Out.
void accumulate(const TermContext &Ctx, TermRef T, const Rational &Scale,
                LinExpr &Out) {
  const TermNode &N = Ctx.node(T);
  switch (N.K) {
  case Kind::Const:
    Out.Const += N.Val * Scale;
    return;
  case Kind::Var:
    Out.addVar(N.Var, Scale);
    return;
  case Kind::Mul:
    accumulate(Ctx, N.Kids[0], Scale * N.Val, Out);
    return;
  case Kind::Add:
    for (TermRef Kid : N.Kids)
      accumulate(Ctx, Kid, Scale, Out);
    return;
  default:
    assert(false && "non-linear or non-arithmetic term in LinExpr");
  }
}
} // namespace

LinExpr LinExpr::fromTerm(const TermContext &Ctx, TermRef T) {
  LinExpr E;
  accumulate(Ctx, T, Rational(1), E);
  return E;
}

TermRef LinExpr::toTerm(TermContext &Ctx, Sort S) const {
  std::vector<TermRef> Monomials;
  Monomials.reserve(Coeffs.size() + 1);
  for (const auto &[V, C] : Coeffs)
    Monomials.push_back(Ctx.mkMul(C, Ctx.varTerm(V)));
  if (!Const.isZero() || Monomials.empty())
    Monomials.push_back(Ctx.mkConst(Const, S));
  return Ctx.mkAdd(std::move(Monomials));
}

Rational LinExpr::integerNormalize() {
  BigInt L(1);
  for (const auto &[V, C] : Coeffs)
    L = BigInt::lcm(L, C.den());
  if (L.isOne())
    return Rational(1);
  Rational Scale{L};
  *this = scaled(Scale);
  return Scale;
}

BigInt LinExpr::coeffGcd() const {
  BigInt G;
  for (const auto &[V, C] : Coeffs) {
    assert(C.isInt() && "coeffGcd before integerNormalize");
    G = BigInt::gcd(G, C.num());
  }
  return G;
}

LinAtom LinAtom::fromAtomTerm(const TermContext &Ctx, TermRef Atom) {
  const TermNode &N = Ctx.node(Atom);
  LinAtom A;
  switch (N.K) {
  case Kind::Le:
    A.Rel = LinRel::Le;
    break;
  case Kind::Lt:
    A.Rel = LinRel::Lt;
    break;
  case Kind::EqA:
    A.Rel = LinRel::Eq;
    break;
  default:
    assert(false && "not a comparison atom");
    A.Rel = LinRel::Le;
    break;
  }
  // Canonical atom is Kids[0] <op> Kids[1]; solved form is lhs - rhs <op> 0.
  A.Expr = LinExpr::fromTerm(Ctx, N.Kids[0]);
  LinExpr R = LinExpr::fromTerm(Ctx, N.Kids[1]);
  A.Expr.add(R, Rational(-1));
  return A;
}

TermRef LinAtom::toTerm(TermContext &Ctx, Sort S) const {
  LinExpr Lhs = Expr;
  Rational K = -Lhs.Const;
  Lhs.Const = Rational(0);
  TermRef L = Lhs.toTerm(Ctx, S);
  TermRef R = Ctx.mkConst(K, S);
  switch (Rel) {
  case LinRel::Le:
    return Ctx.mkLe(L, R);
  case LinRel::Lt:
    return Ctx.mkLt(L, R);
  case LinRel::Eq:
    return Ctx.mkEq(L, R);
  }
  assert(false && "bad relation");
  return Ctx.mkTrue();
}

Sort mucyc::atomArithSort(const TermContext &Ctx, TermRef Atom) {
  const TermNode &N = Ctx.node(Atom);
  assert((N.K == Kind::Le || N.K == Kind::Lt || N.K == Kind::EqA ||
          N.K == Kind::Divides) &&
         "not an arithmetic atom");
  return Ctx.sort(N.Kids[0]);
}
