//===- solver/SpacerTs.cpp - Spacer as an abstract transition system ------===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Rule order, following the Z3 implementation's discipline (which the
/// paper notes coincides with the order used in the Theorem 9
/// counterexample):
///
///   outer loop:
///     if U /\ beta satisfiable            -> UNSAT (Unsafe)
///     if some frame phi_n => phi_{n+1}    -> SAT   (Safe; phi_n inductive)
///     if phi_0 /\ beta satisfiable        -> (Candidate), push (psi, 0)
///     else                                -> (Unfold)
///     while the query stack is non-empty, handle the top query (psi, n):
///       if iota /\ psi satisfiable        -> reach: U := U \/ cube, pop
///       (Successor)  if U x U steps into psi: U := U \/ proj, pop
///       (DecideMust) if phi_{n+1} x U steps into psi: push (proj, n+1)
///       (DecideMay)  if phi_{n+1} x phi_{n+1} steps into psi: push
///       (Conflict)   otherwise: lemma := Itp(iota \/ step, not psi),
///                    conjoin to frames 0..n (monotone), pop
///
/// Frames are indexed as in the paper's Fig. 1 reading: phi_0 is the root
/// (deepest unrolling), phi_N the initial-most frame; queries move from 0
/// towards N.
///
//===----------------------------------------------------------------------===//

#include "solver/SpacerTs.h"

#include "solver/Refiner.h"
#include "solver/Share.h"

#include <algorithm>

using namespace mucyc;

namespace {

struct Query {
  TermRef Psi; ///< Over Z.
  int Level;
};

class SpacerTsEngine {
public:
  explicit SpacerTsEngine(EngineContext &E)
      : F(E.F), N(E.N), Opts(E.Opts), E(E) {}

  SolverResult run();

private:
  TermRef frame(int I) { return F.mkAnd(Frames[I]); }
  void addLemma(int UpTo, TermRef Lemma);
  /// The under-approximation available to a query at level L.
  TermRef uFor(int L) {
    if (!Opts.SpacerULevels)
      return UAll;
    return L + 1 < static_cast<int>(ULevels.size()) ? ULevels[L + 1]
                                                    : F.mkFalse();
  }
  /// Adds the cube \p G, derivable at reach height \p Height, to U.
  void addU(int L, TermRef G, int Height) {
    UHeight = std::max(UHeight, Height);
    UAll = F.mkOr(UAll, G);
    if (static_cast<int>(ULevels.size()) <= L)
      ULevels.resize(L + 1, F.mkFalse());
    ULevels[L] = F.mkOr(ULevels[L], G);
  }

  TermContext &F;
  const NormalizedChc &N;
  const SolverOptions &Opts;
  EngineContext &E;

  std::vector<std::vector<TermRef>> Frames; ///< Lemmas, index 0 = root.
  TermRef UAll;
  /// A derivation height covering every state of U, counted like the
  /// verifier's bounded reach (iota is height 1, a step from U one more).
  /// Successor steps deepen U without an Unfold, so it can outgrow the
  /// frame count; the Unsat depth must cover it.
  int UHeight = 1;
  std::vector<TermRef> ULevels; ///< Indexed by level when SpacerULevels.
};

void SpacerTsEngine::addLemma(int From, TermRef Lemma) {
  // (Conflict): phi_i := phi_i /\ lemma for i >= From (the frame of the
  // resolved query and everything deeper). The lemma contains iota and the
  // post-image of phi_{From+1}, so by monotonicity it is sound for every
  // deeper frame, and adding it deeper preserves phi_{i+1} => phi_i.
  for (size_t I = From; I < Frames.size(); ++I)
    Frames[I].push_back(Lemma);
}

SolverResult SpacerTsEngine::run() {
  SolverResult R;
  UAll = N.Init; // Seed the reachable under-approximation with iota.
  Frames.push_back({}); // phi_0 = true.

  std::vector<Query> Stack;
  while (!E.expired()) {
    // Cooperative portfolio: admit peers' lemmas at the frame boundary.
    // Levels line up directly — frame index 0 is the root here too — and
    // addLemma keeps the monotone chain, which extends the level-K
    // justification to every deeper frame.
    shareImportRound(
        E, ShareImportMode::FrameRelative,
        static_cast<int>(Frames.size()) - 1,
        [&](int I) { return frame(I); },
        [&](int K, TermRef L) { addLemma(K, L); });
    if (E.expired())
      break;

    // Unsafe?
    if (E.sat({UAll, N.Bad})) {
      R.Status = ChcStatus::Unsat;
      R.CexPiece = UAll;
      break;
    }
    if (E.Aborted)
      break;

    // (Candidate).
    if (auto M = E.sat({frame(0), N.Bad})) {
      TermRef Psi = E.implicant(F.mkAnd(frame(0), N.Bad), *M);
      Stack.push_back(Query{Psi, 0});
    } else {
      if (E.Aborted)
        break;
      // No candidate at this depth: phi_0 excludes bad states, so a frame
      // fixed point is a genuine safe invariant. Safe when phi_n =>
      // phi_{n+1} for some n (the converse holds by monotonicity).
      bool Sat = false;
      for (size_t I = 0; I + 1 < Frames.size(); ++I) {
        TermRef Fi = frame(static_cast<int>(I));
        if (E.implies(Fi, frame(static_cast<int>(I) + 1))) {
          R.Status = ChcStatus::Sat;
          R.Invariant = Fi;
          Sat = true;
          break;
        }
        if (E.Aborted)
          break;
      }
      if (Sat || E.Aborted)
        break;
      // (Unfold): phi_{n+1} := phi_n shifted, phi_0 := true — a fresh true
      // root; the initial-most frame keeps its iota-derived lemmas.
      Frames.insert(Frames.begin(), std::vector<TermRef>());
      if (!ULevels.empty())
        ULevels.insert(ULevels.begin(), F.mkFalse());
      if (Opts.MaxDepth &&
          static_cast<int>(Frames.size()) > Opts.MaxDepth)
        break;
      continue;
    }

    while (!Stack.empty() && !E.expired()) {
      // Each handled query is one refinement round for budget purposes
      // (MaxRefineSteps), mirroring the per-refine counting of Algs. 3-6.
      ++E.Stats.RefineCalls;
      Query Q = Stack.back();
      TermRef PsiZ = Q.Psi;
      int Lvl = Q.Level;
      int Deeper = Lvl + 1;
      if (static_cast<int>(Frames.size()) <= Deeper) {
        // The query reached the initial-most frame; only iota can resolve.
        if (auto M = E.sat({N.Init, PsiZ})) {
          TermRef G = E.implicant(F.mkAnd(N.Init, PsiZ), *M);
          addU(Lvl, G, 1);
          Stack.pop_back();
          break; // Re-run the outer checks (U may now hit beta).
        }
        if (E.Aborted)
          break;
        TermRef Lemma = E.itp(N.Init, F.mkNot(PsiZ));
        sharePublishLemma(E, Lvl, N.Init, Lemma);
        addLemma(Lvl, Lemma);
        Stack.pop_back();
        continue;
      }

      // Base reach: iota /\ psi.
      if (auto M = E.sat({N.Init, PsiZ})) {
        TermRef G = E.implicant(F.mkAnd(N.Init, PsiZ), *M);
        addU(Lvl, G, 1);
        Stack.pop_back();
        break;
      }
      if (E.Aborted)
        break;

      TermRef FrameDeep = frame(Deeper);
      TermRef FrameX = E.zToX(FrameDeep);
      TermRef FrameY = E.zToY(FrameDeep);
      TermRef UCur = uFor(Lvl);
      TermRef Ux = E.zToX(UCur);
      TermRef Uy = E.zToY(UCur);

      // (Successor): both children already known reachable.
      if (auto M = E.sat({Ux, Uy, N.Trans, PsiZ})) {
        std::vector<TermRef> Arg{Ux, Uy, N.Trans};
        if (!Opts.SpacerFig15)
          Arg.push_back(PsiZ); // Fig. 1 includes the query; Fig. 15 not.
        TermRef G = E.projectToZ(F.mkAnd(Arg), *M);
        addU(Lvl, G, UHeight + 1); // Both children lie in U.
        Stack.pop_back();
        continue;
      }
      if (E.Aborted)
        break;

      // (DecideMust): left from the frame, right from U.
      if (auto M = E.sat({FrameX, Uy, N.Trans, PsiZ})) {
        std::vector<TermRef> Arg{Uy, N.Trans, PsiZ};
        if (!Opts.SpacerFig15)
          Arg.insert(Arg.begin(), FrameX);
        TermRef Theta = E.projectToX(F.mkAnd(Arg), *M);
        Stack.push_back(Query{E.xToZ(Theta), Deeper});
        continue;
      }
      if (E.Aborted)
        break;

      // (DecideMay): both children from the frame.
      if (auto M = E.sat({FrameX, FrameY, N.Trans, PsiZ})) {
        std::vector<TermRef> Arg{N.Trans, PsiZ};
        if (!Opts.SpacerFig15) {
          Arg.insert(Arg.begin(), FrameX);
          Arg.insert(Arg.begin() + 1, FrameY);
        }
        TermRef Theta = E.projectToY(F.mkAnd(Arg), *M);
        Stack.push_back(Query{E.yToZ(Theta), Deeper});
        continue;
      }
      if (E.Aborted)
        break;

      // (Conflict).
      TermRef A = F.mkOr(N.Init, F.mkAnd({FrameX, FrameY, N.Trans}));
      TermRef Lemma = E.itp(A, F.mkNot(PsiZ));
      sharePublishLemma(E, Lvl, A, Lemma);
      addLemma(Lvl, Lemma);
      Stack.pop_back();
      // (Induction) heuristic: try to push the lemma one frame out.
      if (Opts.OptInduction && Lvl > 0) {
        TermRef Step =
            F.mkAnd({E.zToX(F.mkAnd(frame(Lvl), Lemma)),
                     E.zToY(F.mkAnd(frame(Lvl), Lemma)), N.Trans});
        if (E.implies(F.mkOr(N.Init, Step), Lemma))
          addLemma(Lvl - 1, Lemma);
      }
    }
  }
  R.Depth = static_cast<int>(Frames.size()) - 1;
  if (R.Status == ChcStatus::Unsat)
    R.Depth = std::max(R.Depth, UHeight - 2); // Verified at Depth + 2.
  return R;
}

} // namespace

SolverResult mucyc::runSpacerTs(EngineContext &E) {
  SpacerTsEngine Engine(E);
  return Engine.run();
}
