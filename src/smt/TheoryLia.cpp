//===- smt/TheoryLia.cpp - Arithmetic theory checker ----------------------===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Conjunction-level feasibility for linear arithmetic literals. Atoms are
/// sort-pure, so the conjunction splits into an independent real part
/// (decided completely by the general simplex with delta-rationals) and an
/// integer part, decided by the pipeline
///
///   1. Omega-style equality elimination (Pugh 1991): unit substitution,
///      gcd test, symmetric-modulus transformation; opposing inequality
///      pairs are promoted to equalities; gcd tightening normalizes
///      inequalities.
///   2. Branch & bound over the simplex relaxation (fast path, budgeted).
///   3. The Omega test (real shadow / dark shadow / splinters) as a
///      complete fallback when branch & bound exceeds its budget.
///
//===----------------------------------------------------------------------===//

/// Constraints, substitutions and Omega bounds all use the one sorted
/// LinearForm layout over checker locals; every scan below walks it in
/// ascending local order, which the picks (unit variable, min-|a|, Omega
/// variable, fractional variable) depend on.
///
//===----------------------------------------------------------------------===//

#include "smt/TheoryLia.h"

#include "smt/Simplex.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

using namespace mucyc;

namespace {

/// MUCYC_DEBUG_ARITH, read once per process.
bool debugArith() {
  static const bool On = std::getenv("MUCYC_DEBUG_ARITH") != nullptr;
  return On;
}

/// Internal linear constraint over "local" variables: E + C <rel> 0.
struct Constraint {
  enum Rel { Le, Lt, Eq } R;
  LinearForm E; ///< Local variable -> coefficient.
  Rational C;
  std::vector<int> Reasons; ///< Literal indices that produced it.
};

void mergeReasons(std::vector<int> &Dst, const std::vector<int> &Src) {
  for (int R : Src)
    if (std::find(Dst.begin(), Dst.end(), R) == Dst.end())
      Dst.push_back(R);
}

/// Symmetric modulus in (-m/2, m/2].
BigInt symMod(const BigInt &A, const BigInt &M) {
  BigInt R = A.euclidMod(M);
  if (R + R > M)
    R -= M;
  return R;
}

/// Substitution record: Var := E + C (over locals live after this step).
struct SubStep {
  uint32_t Var;
  LinearForm E;
  Rational C;
};

/// Witness values by local; a local without an entry is unassigned.
class Witness {
public:
  const Rational *get(uint32_t L) const {
    return L < Has.size() && Has[L] ? &Vals[L] : nullptr;
  }
  Rational valueOr0(uint32_t L) const {
    const Rational *V = get(L);
    return V ? *V : Rational(0);
  }
  void set(uint32_t L, Rational V) {
    if (L >= Vals.size()) {
      Vals.resize(L + 1);
      Has.resize(L + 1, false);
    }
    Vals[L] = std::move(V);
    Has[L] = true;
  }
  void clear() {
    Vals.clear();
    Has.clear();
  }

private:
  std::vector<Rational> Vals;
  std::vector<bool> Has;
};

/// Marks a local with no simplex variable yet.
constexpr Simplex::VarIdx NoSpxVar = UINT32_MAX;

enum class IntStatus { Sat, Unsat, Unknown };

/// Shared state of the integer decision pipeline.
struct IntSolver {
  uint32_t NumLocals; ///< Grows when sigma variables are introduced.
  std::vector<SubStep> Subs;
  std::vector<int> ConflictReasons;
  uint64_t BnbBudget;
  uint64_t OmegaBudget = 4000;
  const std::atomic<bool> *CancelFlag = nullptr;
  ResourceGauge *Gauge = nullptr;

  bool cancelled() const {
    return CancelFlag && CancelFlag->load(std::memory_order_relaxed);
  }

  uint32_t freshLocal() { return NumLocals++; }

  /// GCD tightening: E + C <= 0 with gcd(E) = g > 1 becomes
  /// E/g <= floor(-C/g).
  static void tighten(Constraint &C) {
    if (C.R != Constraint::Le || C.E.empty())
      return;
    BigInt G;
    for (const auto &[V, Cf] : C.E) {
      assert(Cf.isInt());
      G = BigInt::gcd(G, Cf.num());
    }
    if (G.isOne())
      return;
    Rational Inv = Rational(BigInt(1), G);
    C.E.scale(Inv);
    C.C = -Rational((C.C * Inv * Rational(-1)).floor());
  }

  /// Drops constant constraints (compacting in place); fills
  /// ConflictReasons and returns false on a violated one. Also applies
  /// tightening to every constraint.
  bool simplify(std::vector<Constraint> &Cons) {
    size_t Kept = 0;
    for (size_t I = 0; I < Cons.size(); ++I) {
      Constraint &C = Cons[I];
      if (!C.E.empty()) {
        tighten(C);
        if (Kept != I)
          Cons[Kept] = std::move(C);
        ++Kept;
        continue;
      }
      bool Violated = C.R == Constraint::Eq   ? !C.C.isZero()
                      : C.R == Constraint::Le ? C.C.sgn() > 0
                                              : C.C.sgn() >= 0;
      if (Violated) {
        ConflictReasons = C.Reasons;
        return false;
      }
    }
    Cons.erase(Cons.begin() + Kept, Cons.end());
    return true;
  }

  void substituteVar(std::vector<Constraint> &Cons, uint32_t Var,
                     LinearForm E, const Rational &C0,
                     const std::vector<int> &Reasons) {
    for (Constraint &Con : Cons) {
      auto It = Con.E.lookup(Var);
      if (It == Con.E.end())
        continue;
      Rational B = std::move(It->second);
      Con.E.erase(It);
      Con.E.addScaled(E, B);
      Con.C += C0 * B;
      mergeReasons(Con.Reasons, Reasons);
    }
    Subs.push_back(SubStep{Var, std::move(E), C0});
  }

  /// Value of a local under the witness, resolving variables eliminated by
  /// substitution on demand (deeper recursion levels push their SubSteps
  /// before outer witnesses are extended, so chains resolve bottom-up).
  Rational resolveValue(uint32_t V, Witness &Values) {
    if (const Rational *Known = Values.get(V))
      return *Known;
    for (size_t SI = Subs.size(); SI-- > 0;) {
      if (Subs[SI].Var != V)
        continue;
      Rational R = Subs[SI].C;
      // Recursion only reads Subs (it never pushes), so the record stays
      // put while its expression is walked.
      for (const auto &[W, Cf] : Subs[SI].E)
        R += Cf * resolveValue(W, Values);
      if (!Values.get(V))
        Values.set(V, R);
      return R;
    }
    Values.set(V, Rational(0));
    return Rational(0);
  }

  /// Equality elimination + pair promotion to a fixpoint. Returns false on
  /// conflict (ConflictReasons set).
  bool eqElim(std::vector<Constraint> &Cons) {
    bool Changed = true;
    while (Changed) {
      Changed = false;
      if (!simplify(Cons))
        return false;

      for (size_t CI = 0; CI < Cons.size(); ++CI) {
        Constraint &C = Cons[CI];
        if (C.R != Constraint::Eq || C.E.empty())
          continue;
        BigInt G;
        for (const auto &[V, Cf] : C.E)
          G = BigInt::gcd(G, Cf.num());
        assert(C.C.isInt());
        if (!C.C.num().euclidMod(G).isZero()) {
          ConflictReasons = C.Reasons; // gcd test.
          return false;
        }
        if (!G.isOne()) {
          Rational Inv = Rational(BigInt(1), G);
          C.E.scale(Inv);
          C.C *= Inv;
        }
        auto Unit = std::find_if(C.E.begin(), C.E.end(), [](const auto &E) {
          return E.second.num().abs().isOne();
        });
        if (Unit != C.E.end()) {
          // Var := -(rest + C) / a with a = ±1; C leaves the system.
          uint32_t UnitVar = Unit->first;
          Rational Scale = -Unit->second.inverse();
          LinearForm Def = std::move(C.E);
          Def.erase(Def.lookup(UnitVar));
          Def.scale(Scale);
          Rational DefC = C.C * Scale;
          std::vector<int> Reasons = std::move(C.Reasons);
          Cons.erase(Cons.begin() + CI);
          substituteVar(Cons, UnitVar, std::move(Def), DefC, Reasons);
          Changed = true;
          break;
        }
        // Symmetric-modulus transformation: produce an implied congruence
        // equality whose coefficient on the min-|a| variable is a unit, and
        // substitute through it immediately.
        uint32_t K = 0;
        BigInt BestAbs;
        bool First = true;
        for (const auto &[V, Cf] : C.E) {
          BigInt A = Cf.num().abs();
          if (First || A < BestAbs) {
            K = V;
            BestAbs = A;
            First = false;
          }
        }
        BigInt M = BestAbs + BigInt(1);
        uint32_t Sigma = freshLocal();
        LinearForm NewE;
        for (const auto &[V, Cf] : C.E) {
          BigInt SM = symMod(Cf.num(), M);
          if (!SM.isZero())
            NewE.append(V, Rational(SM));
        }
        Rational NewC{symMod(C.C.num(), M)};
        NewE.add(Sigma, Rational(-M));
        auto KIt = NewE.lookup(K);
        assert(KIt != NewE.end() && KIt->second.num().abs().isOne() &&
               "symmetric modulus did not produce a unit coefficient");
        Rational Scale = -KIt->second.inverse();
        NewE.erase(KIt);
        NewE.scale(Scale);
        Rational DefC = NewC * Scale;
        std::vector<int> Reasons = C.Reasons;
        substituteVar(Cons, K, std::move(NewE), DefC, Reasons);
        Changed = true;
        break;
      }
      if (Changed)
        continue;

      // Promote opposing inequality pairs to an equality.
      for (size_t I = 0; I < Cons.size() && !Changed; ++I) {
        if (Cons[I].R != Constraint::Le || Cons[I].E.empty())
          continue;
        for (size_t J = I + 1; J < Cons.size(); ++J) {
          if (Cons[J].R != Constraint::Le ||
              Cons[J].E.size() != Cons[I].E.size())
            continue;
          if (Cons[I].C + Cons[J].C != Rational(0))
            continue;
          if (!Cons[I].E.isNegationOf(Cons[J].E))
            continue;
          Cons[I].R = Constraint::Eq;
          mergeReasons(Cons[I].Reasons, Cons[J].Reasons);
          Cons.erase(Cons.begin() + J);
          Changed = true;
          break;
        }
      }
    }
    return true;
  }

  //===------------------------------------------------------------------===
  // Branch & bound (fast path)
  //===------------------------------------------------------------------===

  /// Runs simplex + branch & bound on integer-only Le constraints. Values
  /// for every local occurring in Cons are stored into \p Values.
  IntStatus bnb(const std::vector<Constraint> &Cons, Witness &Values) {
    Simplex Base;
    Base.setResourceGauge(Gauge);
    std::vector<Simplex::VarIdx> SpxOf(NumLocals, NoSpxVar);
    std::vector<const std::vector<int> *> ReasonSets;
    auto SpxVar = [&](uint32_t L) {
      if (SpxOf[L] == NoSpxVar)
        SpxOf[L] = Base.addVar();
      return SpxOf[L];
    };
    std::vector<std::pair<Simplex::VarIdx, Rational>> Row;
    for (const Constraint &C : Cons) {
      assert(C.R == Constraint::Le && !C.E.empty());
      Simplex::VarIdx Subject;
      Rational Scale(1);
      if (C.E.size() == 1) {
        Subject = SpxVar(C.E.front().first);
        Scale = C.E.front().second;
      } else {
        Row.clear();
        for (const auto &[V, Cf] : C.E)
          Row.emplace_back(SpxVar(V), Cf);
        Subject = Base.addRowVar(Row);
      }
      Rational Bound = -C.C / Scale;
      bool Flip = Scale.sgn() < 0;
      int Tag = static_cast<int>(ReasonSets.size());
      ReasonSets.push_back(&C.Reasons);
      if (!Base.assertBound(Subject, Flip, DeltaRational(Bound), Tag)) {
        ConflictReasons.clear();
        for (int T : Base.explanation())
          if (T >= 0)
            mergeReasons(ConflictReasons, *ReasonSets[T]);
        return IntStatus::Unsat;
      }
    }
    std::vector<std::pair<uint32_t, Simplex::VarIdx>> IntLocals;
    for (uint32_t L = 0; L < SpxOf.size(); ++L)
      if (SpxOf[L] != NoSpxVar)
        IntLocals.emplace_back(L, SpxOf[L]);

    Base.setCancelFlag(CancelFlag); // Forks inherit the flag by copy.
    uint64_t Nodes = 0;
    std::vector<int> Core;
    std::vector<Simplex> Work;
    Work.push_back(std::move(Base));
    while (!Work.empty()) {
      if (++Nodes > BnbBudget || cancelled())
        return IntStatus::Unknown;
      Simplex Spx = std::move(Work.back());
      Work.pop_back();
      if (!Spx.check()) {
        if (Spx.interrupted())
          return IntStatus::Unknown;
        for (int T : Spx.explanation())
          if (T >= 0)
            mergeReasons(Core, *ReasonSets[T]);
        continue;
      }
      const std::pair<uint32_t, Simplex::VarIdx> *Frac = nullptr;
      for (const auto &P : IntLocals) {
        const DeltaRational &DV = Spx.value(P.second);
        assert(DV.delta().isZero());
        if (!DV.real().isInt()) {
          Frac = &P;
          break;
        }
      }
      if (!Frac) {
        for (const auto &[L, V] : IntLocals)
          Values.set(L, Spx.value(V).real());
        return IntStatus::Sat;
      }
      BigInt Fl = Spx.value(Frac->second).real().floor();
      Simplex Left = Spx;
      if (Left.assertBound(Frac->second, false, DeltaRational(Rational(Fl)),
                           -1))
        Work.push_back(std::move(Left));
      else
        for (int T : Left.explanation())
          if (T >= 0)
            mergeReasons(Core, *ReasonSets[T]);
      Simplex Right = std::move(Spx);
      if (Right.assertBound(Frac->second, true,
                            DeltaRational(Rational(Fl + BigInt(1))), -1))
        Work.push_back(std::move(Right));
      else
        for (int T : Right.explanation())
          if (T >= 0)
            mergeReasons(Core, *ReasonSets[T]);
    }
    ConflictReasons = Core;
    return IntStatus::Unsat;
  }

  //===------------------------------------------------------------------===
  // Omega test (complete fallback)
  //===------------------------------------------------------------------===

  /// Decides a system of integer Le constraints (equalities must have been
  /// eliminated) and produces witness values on Sat. Complete up to the
  /// recursion budget.
  IntStatus omega(std::vector<Constraint> Cons, Witness &Values) {
    // Substitutions from abandoned branches must not leak into the final
    // back-substitution chain: roll back on anything but Sat.
    size_t SubsMark = Subs.size();
    IntStatus R = omegaImpl(std::move(Cons), Values);
    if (R != IntStatus::Sat)
      Subs.resize(SubsMark);
    return R;
  }

  IntStatus omegaImpl(std::vector<Constraint> Cons, Witness &Values) {
    if (OmegaBudget == 0 || cancelled())
      return IntStatus::Unknown;
    --OmegaBudget;
    if (!eqElim(Cons))
      return IntStatus::Unsat;
    if (Cons.empty())
      return IntStatus::Sat;

    // Choose the variable minimizing the shadow blowup: the first local,
    // in ascending order, with the fewest lower*upper bound pairs.
    std::vector<std::pair<size_t, size_t>> Count(NumLocals); // lows, ups.
    for (const Constraint &C : Cons)
      for (const auto &[V, Cf] : C.E)
        (Cf.sgn() < 0 ? Count[V].first : Count[V].second) += 1;
    uint32_t X = 0;
    size_t BestCost = SIZE_MAX;
    for (uint32_t V = 0; V < Count.size(); ++V) {
      const auto &[Lo, Up] = Count[V];
      if (Lo + Up == 0)
        continue;
      if (Lo * Up < BestCost) {
        BestCost = Lo * Up;
        X = V;
      }
    }

    // Partition on X: lowers a*x >= s (a > 0), uppers b*x <= t (b > 0).
    struct Bnd {
      BigInt A;
      LinearForm T; ///< The bounding expression.
      Rational TC;
      std::vector<int> Reasons;
    };
    std::vector<Bnd> Lowers, Uppers;
    std::vector<Constraint> Rest;
    for (const Constraint &C : Cons) {
      const Rational *Coeff = C.E.find(X);
      if (!Coeff) {
        Rest.push_back(C);
        continue;
      }
      // c*x + R + k <= 0.
      Bnd B;
      B.Reasons = C.Reasons;
      B.T = C.E;
      B.T.erase(X);
      B.TC = C.C;
      if (Coeff->sgn() > 0) {
        // c*x <= -(R + k): upper with b = c, t = -(R + k).
        B.A = Coeff->num();
        B.T.negate();
        B.TC = -B.TC;
        Uppers.push_back(std::move(B));
      } else {
        // c*x + R + k <= 0 with c < 0: (-c)*x >= R + k.
        B.A = (-*Coeff).num();
        Lowers.push_back(std::move(B));
      }
    }

    auto ExtendWitness = [&](Witness &W) {
      auto Eval = [&](const Bnd &B) {
        Rational R = B.TC;
        for (const auto &[V, Cf] : B.T)
          R += Cf * resolveValue(V, W);
        return R;
      };
      if (!Lowers.empty()) {
        // x := max_i ceil(s_i / a_i).
        bool First = true;
        BigInt Best;
        for (const Bnd &L : Lowers) {
          BigInt Cand = (Eval(L) / Rational(L.A)).ceil();
          if (First || Cand > Best) {
            Best = Cand;
            First = false;
          }
        }
        W.set(X, Rational(Best));
      } else if (!Uppers.empty()) {
        bool First = true;
        BigInt Best;
        for (const Bnd &U : Uppers) {
          BigInt Cand = (Eval(U) / Rational(U.A)).floor();
          if (First || Cand < Best) {
            Best = Cand;
            First = false;
          }
        }
        W.set(X, Rational(Best));
      } else {
        W.set(X, Rational(0));
      }
    };

    // Unbounded on one side: drop X entirely.
    if (Lowers.empty() || Uppers.empty()) {
      IntStatus R = omega(std::move(Rest), Values);
      if (R == IntStatus::Sat)
        ExtendWitness(Values);
      return R;
    }

    // Shadows. Real: a*t - b*s >= 0; dark: a*t - b*s >= (a-1)(b-1). When
    // a == 1 or b == 1 the two coincide (exact projection).
    bool Exact = true;
    for (const Bnd &L : Lowers)
      for (const Bnd &U : Uppers)
        if (!L.A.isOne() && !U.A.isOne())
          Exact = false;
    auto Shadow = [&](bool Dark) {
      std::vector<Constraint> S = Rest;
      for (const Bnd &L : Lowers)
        for (const Bnd &U : Uppers) {
          // b*s - a*t + slack <= 0.
          Constraint C;
          C.R = Constraint::Le;
          C.E.addScaled(L.T, Rational(U.A));
          C.E.addScaled(U.T, -Rational(L.A));
          C.C = L.TC * Rational(U.A) - U.TC * Rational(L.A);
          if (Dark)
            C.C += Rational((L.A - BigInt(1)) * (U.A - BigInt(1)));
          C.Reasons = L.Reasons;
          mergeReasons(C.Reasons, U.Reasons);
          S.push_back(std::move(C));
        }
      return S;
    };

    if (Exact) {
      IntStatus R = omega(Shadow(false), Values);
      if (R == IntStatus::Sat)
        ExtendWitness(Values);
      return R;
    }

    IntStatus Dark = omega(Shadow(true), Values);
    if (Dark == IntStatus::Sat) {
      ExtendWitness(Values);
      return IntStatus::Sat;
    }
    if (Dark == IntStatus::Unknown)
      return Dark;

    // Splinters: exists x iff dark-shadow solution or x pinned near some
    // lower bound: a*x = s + i for 0 <= i <= (a*bmax - a - bmax)/bmax.
    BigInt BMax(1);
    for (const Bnd &U : Uppers)
      if (U.A > BMax)
        BMax = U.A;
    for (const Bnd &L : Lowers) {
      BigInt Num = L.A * BMax - L.A - BMax;
      if (Num.isNeg())
        continue;
      BigInt MaxI = Num / BMax;
      for (BigInt I(0); I <= MaxI; I += BigInt(1)) {
        std::vector<Constraint> S = Cons;
        Constraint Eq;
        Eq.R = Constraint::Eq;
        Eq.E.add(X, Rational(L.A));
        Eq.E.addScaled(L.T, Rational(-1));
        Eq.C = -L.TC - Rational(I);
        Eq.Reasons = L.Reasons;
        S.push_back(std::move(Eq));
        IntStatus R = omega(std::move(S), Values);
        if (R != IntStatus::Unsat)
          return R;
      }
    }
    // No branch feasible: conservatively blame everything involved.
    ConflictReasons.clear();
    for (const Constraint &C : Cons)
      mergeReasons(ConflictReasons, C.Reasons);
    return IntStatus::Unsat;
  }
};

} // namespace

ParsedAtom ParsedAtom::parse(const TermContext &Ctx, TermRef Atom) {
  ParsedAtom P;
  const TermNode &N = Ctx.node(Atom);
  if (N.K == Kind::Var) {
    P.S = Sort::Bool;
    P.BoolVar = N.Var;
    return P;
  }
  assert(N.K == Kind::Le || N.K == Kind::Lt || N.K == Kind::EqA);
  P.S = atomArithSort(Ctx, Atom);
  P.Lin = LinAtom::fromAtomTerm(Ctx, Atom);
  return P;
}

uint32_t ArithChecker::localOf(VarId V) {
  auto It = std::lower_bound(
      LocalIndex.begin(), LocalIndex.end(), V,
      [](const std::pair<VarId, uint32_t> &E, VarId X) { return E.first < X; });
  if (It != LocalIndex.end() && It->first == V)
    return It->second;
  uint32_t L = static_cast<uint32_t>(Locals.size());
  Locals.push_back(LocalVar{Ctx.varInfo(V).S == Sort::Int, V});
  LocalIndex.insert(It, {V, L});
  return L;
}

ArithChecker::Outcome ArithChecker::check(const std::vector<TheoryLit> &Lits) {
  Locals.clear();
  LocalIndex.clear();

  Outcome Out;
  auto LiteralCore = [&](const std::vector<int> &Reasons) {
    Out.St = Status::Infeasible;
    Out.Core.clear();
    for (int R : Reasons)
      if (R >= 0)
        Out.Core.push_back(static_cast<size_t>(R));
    std::sort(Out.Core.begin(), Out.Core.end());
    Out.Core.erase(std::unique(Out.Core.begin(), Out.Core.end()),
                   Out.Core.end());
    return Out;
  };

  //===--------------------------------------------------------------------===
  // Turn the literals into int and real constraint systems. Each atom was
  // parsed when it was registered; here only the polarity is applied.
  //===--------------------------------------------------------------------===
  std::vector<Constraint> IntCons, RealCons;
  for (size_t I = 0; I < Lits.size(); ++I) {
    const TheoryLit &TL = Lits[I];
    assert(TL.Parsed && TL.Parsed->S != Sort::Bool);
    const ParsedAtom &PA = *TL.Parsed;
    const LinAtom &A = PA.Lin;
    if (A.Rel == LinRel::Eq && !TL.Pos)
      continue; // Covered by the CNF-level split clause.

    // The atom is Sum <op> K, read as D + sum(E) <op> 0 with D = Sum.Const - K.
    const Rational &D = A.Expr.Const;
    Constraint C;
    C.Reasons = {static_cast<int>(I)};
    for (const auto &[V, Cf] : A.Expr.Coeffs)
      C.E.add(localOf(V), Cf);
    C.C = D;
    switch (A.Rel) {
    case LinRel::Eq:
      C.R = Constraint::Eq;
      break;
    case LinRel::Le:
      if (TL.Pos) {
        C.R = Constraint::Le;
      } else if (PA.S == Sort::Int) {
        C.E.negate();
        C.C = Rational(1) - D;
        C.R = Constraint::Le;
      } else {
        C.E.negate();
        C.C = -D;
        C.R = Constraint::Lt;
      }
      break;
    case LinRel::Lt:
      if (TL.Pos) {
        C.R = Constraint::Lt;
      } else {
        C.E.negate();
        C.C = -D;
        C.R = Constraint::Le;
      }
      break;
    }
    (PA.S == Sort::Int ? IntCons : RealCons).push_back(std::move(C));
  }

  //===--------------------------------------------------------------------===
  // Real part: complete via the general simplex.
  //===--------------------------------------------------------------------===
  Assignment Assign;
  if (!RealCons.empty()) {
    Simplex Spx;
    Spx.setCancelFlag(CancelFlag);
    Spx.setResourceGauge(Gauge);
    std::vector<Simplex::VarIdx> SpxOf(Locals.size(), NoSpxVar);
    std::vector<const std::vector<int> *> ReasonSets;
    auto SpxVar = [&](uint32_t L) {
      if (SpxOf[L] == NoSpxVar)
        SpxOf[L] = Spx.addVar();
      return SpxOf[L];
    };
    auto Fail = [&](const std::vector<int> &Expl) {
      std::vector<int> Rs;
      for (int T : Expl)
        if (T >= 0)
          mergeReasons(Rs, *ReasonSets[T]);
      return LiteralCore(Rs);
    };
    std::vector<std::pair<Simplex::VarIdx, Rational>> Row;
    for (const Constraint &C : RealCons) {
      assert(!C.E.empty() && "ground real constraint survived parsing");
      Simplex::VarIdx Subject;
      Rational Scale(1);
      if (C.E.size() == 1) {
        Subject = SpxVar(C.E.front().first);
        Scale = C.E.front().second;
      } else {
        Row.clear();
        for (const auto &[V, Cf] : C.E)
          Row.emplace_back(SpxVar(V), Cf);
        Subject = Spx.addRowVar(Row);
      }
      Rational Bound = -C.C / Scale;
      bool Flip = Scale.sgn() < 0;
      int Tag = static_cast<int>(ReasonSets.size());
      ReasonSets.push_back(&C.Reasons);
      bool Ok = true;
      switch (C.R) {
      case Constraint::Eq:
        Ok = Spx.assertBound(Subject, true, DeltaRational(Bound), Tag) &&
             Spx.assertBound(Subject, false, DeltaRational(Bound), Tag);
        break;
      case Constraint::Le:
        Ok = Spx.assertBound(Subject, Flip, DeltaRational(Bound), Tag);
        break;
      case Constraint::Lt: {
        DeltaRational B(Bound, Flip ? Rational(1) : Rational(-1));
        Ok = Spx.assertBound(Subject, Flip, B, Tag);
        break;
      }
      }
      if (!Ok)
        return Fail(Spx.explanation());
    }
    if (!Spx.check()) {
      if (Spx.interrupted()) {
        Out.St = Status::Unknown;
        return Out;
      }
      return Fail(Spx.explanation());
    }
    Rational Eps = Spx.suitableEpsilon();
    for (uint32_t L = 0; L < SpxOf.size(); ++L)
      if (SpxOf[L] != NoSpxVar)
        Assign.emplace(Locals[L].Term,
                       Value::number(Spx.value(SpxOf[L]).materialize(Eps),
                                     Sort::Real));
  }

  //===--------------------------------------------------------------------===
  // Integer part: equality elimination, branch & bound, Omega fallback.
  //===--------------------------------------------------------------------===
  Witness IntValues;
  if (!IntCons.empty()) {
    std::vector<Constraint> OrigInt = IntCons; // For the model self-check.
    IntSolver IS;
    IS.NumLocals = static_cast<uint32_t>(Locals.size());
    IS.BnbBudget = NodeBudget;
    IS.CancelFlag = CancelFlag;
    IS.Gauge = Gauge;
    if (!IS.eqElim(IntCons))
      return LiteralCore(IS.ConflictReasons);

    IntStatus St = IS.bnb(IntCons, IntValues);
    if (St == IntStatus::Unknown) {
      if (debugArith())
        std::fprintf(stderr, "[arith] bnb budget exceeded; omega fallback "
                             "(%zu constraints)\n",
                     IntCons.size());
      IntValues.clear();
      St = IS.omega(std::move(IntCons), IntValues);
    }
    if (St == IntStatus::Unsat)
      return LiteralCore(IS.ConflictReasons);
    if (St == IntStatus::Unknown) {
      Out.St = Status::Unknown;
      return Out;
    }
    // Back-substitute the eliminated variables (reverse order).
    for (auto It = IS.Subs.rbegin(); It != IS.Subs.rend(); ++It) {
      Rational V = It->C;
      for (const auto &[W, Cf] : It->E)
        V += Cf * IntValues.valueOr0(W);
      IntValues.set(It->Var, std::move(V));
    }
#ifndef NDEBUG
    // Self-check: the witness must satisfy every original constraint.
    for (const Constraint &C : OrigInt) {
      Rational S = C.C;
      for (const auto &[V, Cf] : C.E)
        S += Cf * IntValues.valueOr0(V);
      bool Holds = C.R == Constraint::Eq ? S.isZero() : S.sgn() <= 0;
      if (!Holds && debugArith())
        std::fprintf(stderr, "[arith] witness violates constraint (rel=%d, "
                             "residual=%s)\n",
                     static_cast<int>(C.R), S.toString().c_str());
      MUCYC_INVARIANT(Holds, "integer witness violates an input constraint");
    }
#endif
  }

  for (uint32_t L = 0; L < Locals.size(); ++L) {
    if (!Locals[L].IsInt)
      continue;
    Rational V = IntValues.valueOr0(L);
    MUCYC_INVARIANT(V.isInt(), "non-integral Int model value");
    Assign.emplace(Locals[L].Term, Value::number(V, Sort::Int));
  }

  ArithAssign = std::move(Assign);
  Out.St = Status::Feasible;
  return Out;
}
