//===- smt/Simplex.cpp - General simplex for linear arithmetic ------------===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "smt/Simplex.h"

#include <cassert>

using namespace mucyc;

Simplex::VarIdx Simplex::addVar() {
  if (Gauge)
    Gauge->charge(sizeof(VarState));
  Vars.push_back(VarState{});
  return static_cast<VarIdx>(Vars.size() - 1);
}

Simplex::VarIdx
Simplex::addRowVar(const std::vector<std::pair<VarIdx, Rational>> &Row) {
  VarIdx S = addVar();
  struct Row NewRow;
  NewRow.Owner = S;
  DeltaRational Val;
  for (const auto &[V, C] : Row) {
    assert(V < S && "row references unknown variable");
    if (Vars[V].Basic) {
      // Inline the defining row of a basic variable.
      NewRow.Coeffs.addScaled(Rows[Vars[V].RowIdx].Coeffs, C);
    } else {
      NewRow.Coeffs.add(V, C);
    }
  }
  for (const auto &[V, C] : NewRow.Coeffs)
    Val = Val + Vars[V].Val * C;
  if (Gauge)
    Gauge->charge(sizeof(struct Row) +
                  NewRow.Coeffs.size() *
                      (sizeof(VarIdx) + sizeof(Rational) + 32));
  Vars[S].Val = Val;
  Vars[S].Basic = true;
  Vars[S].RowIdx = static_cast<uint32_t>(Rows.size());
  Rows.push_back(std::move(NewRow));
  return S;
}

bool Simplex::assertBound(VarIdx V, bool IsLower, const DeltaRational &B,
                          int Reason) {
  VarState &X = Vars[V];
  if (IsLower) {
    if (X.HasLb && B <= X.Lb)
      return true; // Weaker than the existing bound.
    if (X.HasUb && B > X.Ub) {
      Explanation = {Reason, X.UbReason};
      return false;
    }
    X.Lb = B;
    X.HasLb = true;
    X.LbReason = Reason;
    if (!X.Basic && X.Val < B)
      updateNonBasic(V, B);
  } else {
    if (X.HasUb && B >= X.Ub)
      return true;
    if (X.HasLb && B < X.Lb) {
      Explanation = {Reason, X.LbReason};
      return false;
    }
    X.Ub = B;
    X.HasUb = true;
    X.UbReason = Reason;
    if (!X.Basic && X.Val > B)
      updateNonBasic(V, B);
  }
  return true;
}

void Simplex::updateNonBasic(VarIdx V, const DeltaRational &NewVal) {
  assert(!Vars[V].Basic);
  DeltaRational Diff = NewVal - Vars[V].Val;
  Vars[V].Val = NewVal;
  for (Row &R : Rows) {
    if (const Rational *C = R.Coeffs.find(V))
      Vars[R.Owner].Val = Vars[R.Owner].Val + Diff * *C;
  }
}

void Simplex::pivot(VarIdx B, VarIdx N) {
  VarState &XB = Vars[B];
  VarState &XN = Vars[N];
  assert(XB.Basic && !XN.Basic);
  Row &R = Rows[XB.RowIdx];
  auto AIt = R.Coeffs.lookup(N);
  assert(AIt != R.Coeffs.end() && !AIt->second.isZero());
  Rational InvA = AIt->second.inverse();

  // Rewrite R as: N = (1/A)*B - sum_{j != N} (Cj/A)*xj. B was basic, so
  // it is absent from every row and lands in its sorted slot.
  R.Coeffs.erase(AIt);
  R.Coeffs.scale(-InvA);
  R.Coeffs.add(B, InvA);
  R.Owner = N;
  XN.Basic = true;
  XN.RowIdx = XB.RowIdx;
  XB.Basic = false;

  // Substitute N's new definition into every other row that mentions N.
  for (uint32_t RI = 0; RI < Rows.size(); ++RI) {
    if (RI == XN.RowIdx)
      continue;
    Row &Other = Rows[RI];
    auto It = Other.Coeffs.lookup(N);
    if (It == Other.Coeffs.end())
      continue;
    Rational D = std::move(It->second);
    Other.Coeffs.erase(It);
    Other.Coeffs.addScaled(R.Coeffs, D);
  }
}

void Simplex::explainRowConflict(const Row &R, bool NeedIncrease,
                                 int OwnBoundReason) {
  // The basic variable needs to move but every non-basic variable in its row
  // is stuck at the blocking bound.
  Explanation.clear();
  Explanation.push_back(OwnBoundReason);
  for (const auto &[V, C] : R.Coeffs) {
    bool BlockedAtUpper = NeedIncrease ? C.sgn() > 0 : C.sgn() < 0;
    Explanation.push_back(BlockedAtUpper ? Vars[V].UbReason
                                         : Vars[V].LbReason);
  }
}

bool Simplex::check() {
  while (true) {
    // Cancellation point: once per pivot round.
    if (CancelFlag && CancelFlag->load(std::memory_order_relaxed)) {
      Interrupted = true;
      Explanation.clear();
      return false;
    }
    // Bland's rule: pick the lowest-index out-of-bounds basic variable.
    VarIdx B = UINT32_MAX;
    bool NeedIncrease = false;
    for (VarIdx V = 0; V < Vars.size(); ++V) {
      const VarState &X = Vars[V];
      if (!X.Basic)
        continue;
      if (X.HasLb && X.Val < X.Lb) {
        B = V;
        NeedIncrease = true;
        break;
      }
      if (X.HasUb && X.Val > X.Ub) {
        B = V;
        NeedIncrease = false;
        break;
      }
    }
    if (B == UINT32_MAX)
      return true;

    const VarState &XB = Vars[B];
    const Row &R = Rows[XB.RowIdx];
    DeltaRational Target = NeedIncrease ? XB.Lb : XB.Ub;

    // Find the lowest-index non-basic variable that can absorb the change.
    VarIdx N = UINT32_MAX;
    for (const auto &[V, C] : R.Coeffs) {
      const VarState &XN = Vars[V];
      bool CanMove;
      if (NeedIncrease)
        CanMove = C.sgn() > 0 ? (!XN.HasUb || XN.Val < XN.Ub)
                              : (!XN.HasLb || XN.Val > XN.Lb);
      else
        CanMove = C.sgn() > 0 ? (!XN.HasLb || XN.Val > XN.Lb)
                              : (!XN.HasUb || XN.Val < XN.Ub);
      if (CanMove) {
        N = V;
        break;
      }
    }
    if (N == UINT32_MAX) {
      explainRowConflict(R, NeedIncrease,
                         NeedIncrease ? XB.LbReason : XB.UbReason);
      return false;
    }

    // pivotAndUpdate(B, N, Target).
    Rational A = *R.Coeffs.find(N);
    DeltaRational Theta = (Target - XB.Val) * A.inverse();
    Vars[B].Val = Target;
    Vars[N].Val = Vars[N].Val + Theta;
    for (const Row &Other : Rows) {
      if (Other.Owner == B)
        continue;
      if (const Rational *C = Other.Coeffs.find(N))
        Vars[Other.Owner].Val = Vars[Other.Owner].Val + Theta * *C;
    }
    pivot(B, N);
  }
}

Rational Simplex::suitableEpsilon() const {
  // Choose eps with: for every bound comparison that holds in delta order
  // with a real-part slack, the materialized comparison also holds.
  Rational Eps(1);
  auto Consider = [&Eps](const DeltaRational &Small, const DeltaRational &Big) {
    // Small <= Big in delta order. If real parts differ and the delta parts
    // point the wrong way, cap eps.
    Rational RealGap = Big.real() - Small.real();
    Rational DeltaGap = Small.delta() - Big.delta();
    if (RealGap.sgn() > 0 && DeltaGap.sgn() > 0) {
      Rational Cap = RealGap / DeltaGap;
      if (Cap < Eps)
        Eps = Cap;
    }
  };
  for (const VarState &X : Vars) {
    if (X.HasLb)
      Consider(X.Lb, X.Val);
    if (X.HasUb)
      Consider(X.Val, X.Ub);
  }
  // Halve to keep strict comparisons strict after materialization.
  return Eps * Rational(1, 2);
}
