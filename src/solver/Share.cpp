//===- solver/Share.cpp - Cooperative lemma exchange ----------------------===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "solver/Share.h"

#include "chc/Export.h"

#include <algorithm>

using namespace mucyc;

void mucyc::sharePublishLemma(EngineContext &E, int Level, TermRef A,
                              TermRef Lemma) {
  if (!E.Opts.ShareLemmas || !E.Opts.Share)
    return;
  Kind K = E.F.kind(Lemma);
  if (K == Kind::True || K == Kind::False)
    return;
  if (!E.SharePublished.insert(Lemma.Idx).second)
    return;

  // Core-minimize the disjuncts against the justifying query: A => Lemma
  // is valid, i.e. {A} u {not d : d disjunct} is unsat, and any unsat
  // subset of the negated disjuncts yields a valid A => (or kept...) with
  // the dropped literals gone — a strictly stronger lemma. The publisher
  // keeps the ORIGINAL lemma in its own frames, so a single member's
  // trajectory is unchanged by sharing.
  TermRef Out = Lemma;
  std::vector<TermRef> Disj =
      K == Kind::Or ? E.F.node(Lemma).Kids : std::vector<TermRef>{Lemma};
  if (Disj.size() > 1) {
    std::vector<TermRef> Neg;
    Neg.reserve(Disj.size());
    for (TermRef D : Disj)
      Neg.push_back(E.F.mkNot(D));
    SmtSolver S(E.F);
    S.assertFormula(A);
    std::vector<TermRef> Core = S.minimizeCore(Neg);
    // An empty core means A itself was unsat — the lemma carries no
    // assumption; publish it unminimized rather than a bare False.
    if (!Core.empty() && Core.size() < Neg.size()) {
      std::vector<TermRef> Kept;
      for (size_t I = 0; I < Disj.size(); ++I)
        if (std::find(Core.begin(), Core.end(), Neg[I]) != Core.end())
          Kept.push_back(Disj[I]);
      E.Stats.CoreShrink += Neg.size() - Core.size();
      Out = E.F.mkOr(std::move(Kept));
    }
  }

  E.Opts.Share->publish(Level, serializeZFormula(E.F, E.N, Out));
  ++E.Stats.LemmasPublished;
}

void mucyc::shareImportRound(EngineContext &E, ShareImportMode Mode, int Depth,
                             const std::function<TermRef(int)> &FrameFn,
                             const std::function<void(int, TermRef)> &AddFn) {
  if (!E.Opts.ShareLemmas || !E.Opts.Share || Depth < 0 || E.Aborted ||
      E.Opts.ShareImportBudget == 0)
    return;
  std::vector<SharedLemma> Raw;
  E.ShareCursor =
      E.Opts.Share->fetch(E.ShareCursor, E.Opts.ShareImportBudget, Raw);
  if (Raw.empty())
    return;

  // Parse into this member's context first; a wire-format reject is final.
  struct Pending {
    int Level;
    TermRef L;
  };
  std::vector<Pending> Pend;
  for (const SharedLemma &SL : Raw) {
    TermRef L = parseZFormula(E.F, E.N, SL.Text, nullptr);
    if (!L.isValid()) {
      ++E.Stats.LemmasRejected;
      continue;
    }
    // Decisions below depend only on frame-independent checks (a lemma
    // failing (b) still falls back to the deepest level), so a lemma seen
    // once never needs revisiting.
    if (!E.ShareSeen.insert(L.Idx).second)
      continue;
    Pend.push_back({SL.Level, L});
  }

  for (const Pending &P : Pend) {
    if (E.expired())
      return;
    TermRef NotL = E.F.mkNot(P.L);

    // (a) iota => L — the publisher-independent half of the Conflict
    // justification; without it nothing is admissible anywhere.
    if (E.sat({E.N.Init, NotL})) {
      ++E.Stats.LemmasRejected;
      continue;
    }
    if (E.Aborted)
      return;

    if (Mode == ShareImportMode::Inductive) {
      // Mon traces keep cell[d+1] => cell[d]; only a self-inductive lemma
      // (L /\ L /\ tau => L) may be conjoined to every cell at once
      // without disturbing that chain.
      if (E.sat({E.zToX(P.L), E.zToY(P.L), E.N.Trans, NotL})) {
        ++E.Stats.LemmasRejected;
        continue;
      }
      if (E.Aborted)
        return;
      AddFn(0, P.L);
      ++E.Stats.LemmasImported;
      continue;
    }

    int K = std::clamp(P.Level, 0, Depth);
    if (K < Depth) {
      // (b) frame(K+1)(x) /\ frame(K+1)(y) /\ tau => L(z): together with
      // (a) this is exactly the native Conflict justification at level K.
      TermRef Fr = FrameFn(K + 1);
      if (!E.sat({E.zToX(Fr), E.zToY(Fr), E.N.Trans, NotL}) && !E.Aborted) {
        AddFn(K, P.L);
        ++E.Stats.LemmasImported;
        continue;
      }
      if (E.Aborted)
        return;
    }
    // Deepest-level fallback, justified by (a) alone: unfolding inserts
    // fresh roots at the front, so the deepest frame/cell answers only to
    // iota for the rest of the run.
    AddFn(Depth, P.L);
    ++E.Stats.LemmasImported;
  }
}
