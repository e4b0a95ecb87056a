//===- term/Linear.h - Linear-arithmetic views of terms ---------*- C++ -*-===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// LinExpr is the workhorse view of an arithmetic term: a sparse linear form
/// over variables (support/LinearForm.h, ascending VarId order) plus a
/// constant. The MBP procedures and the atom canonicalizer operate on
/// LinExprs and convert back to terms at the edges; the theory checker reads
/// each atom's LinAtom once, when the encoder registers it.
///
//===----------------------------------------------------------------------===//

#ifndef MUCYC_TERM_LINEAR_H
#define MUCYC_TERM_LINEAR_H

#include "support/LinearForm.h"
#include "term/Term.h"

namespace mucyc {

/// Sparse linear expression sum(Coeffs[v] * v) + Const. Coefficients are
/// never zero (entries are erased when they cancel).
struct LinExpr {
  LinearForm Coeffs;
  Rational Const;

  bool isConstant() const { return Coeffs.empty(); }

  void add(const LinExpr &RHS, const Rational &Scale = Rational(1));
  void addVar(VarId V, const Rational &C);
  LinExpr scaled(const Rational &S) const;

  /// Coefficient of \p V (zero if absent).
  Rational coeff(VarId V) const;

  bool operator==(const LinExpr &RHS) const {
    return Const == RHS.Const && Coeffs == RHS.Coeffs;
  }

  /// Converts an arithmetic term (Add/Mul/Var/Const tree) into a LinExpr.
  /// Asserts if the term is not linear.
  static LinExpr fromTerm(const TermContext &Ctx, TermRef T);

  /// Rebuilds a canonical term of sort \p S (Int constants must be integral
  /// when S is Int).
  TermRef toTerm(TermContext &Ctx, Sort S) const;

  /// Multiplies through by the lcm of coefficient denominators so that all
  /// variable coefficients are integers; returns the scale factor used.
  Rational integerNormalize();

  /// Gcd of the (integer) variable coefficients; requires integerNormalize
  /// to have run. Returns 0 for a constant expression.
  BigInt coeffGcd() const;
};

/// Relation of a normalized atom E <rel> 0.
enum class LinRel : uint8_t { Le, Lt, Eq };

/// A linear atom in solved form: Expr <rel> 0.
struct LinAtom {
  LinExpr Expr;
  LinRel Rel = LinRel::Le;

  /// Decomposes a canonical Le/Lt/EqA atom term.
  static LinAtom fromAtomTerm(const TermContext &Ctx, TermRef Atom);
  /// Rebuilds the canonical atom term.
  TermRef toTerm(TermContext &Ctx, Sort S) const;
};

/// Determines the arithmetic sort used by an atom's variables; returns
/// Sort::Int for ground atoms.
Sort atomArithSort(const TermContext &Ctx, TermRef Atom);

} // namespace mucyc

#endif // MUCYC_TERM_LINEAR_H
