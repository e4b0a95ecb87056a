//===- solver/Share.h - Cooperative lemma exchange --------------*- C++ -*-===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The engine side of the portfolio lemma exchange. Racing members learn
/// the same frame lemmas from scratch; this protocol lets them cooperate
/// without trusting each other:
///
///  * Publish: a Conflict lemma justified by the valid implication
///    A => Lemma is first core-minimized against A (deletion-based, via
///    SmtSolver::minimizeCore, the minimizer cube generalization uses too —
///    dropping disjuncts keeps A => Lemma' valid and only strengthens the
///    lemma), then serialized over the alpha-canonical mz names
///    (chc/Export.h) and pushed onto the bus. The minimizing solver is
///    governed through the TermContext like every other solver of the
///    attempt: its probes count in SmtChecks and in the fault-injection
///    check ordinal, and the cancel flag and the deadline stop them.
///
///  * Import: at frame boundaries a member fetches peers' lemmas, parses
///    them into its own TermContext and re-checks, in its own frames, the
///    exact side conditions that justify a native Conflict lemma before
///    admitting one — reject means drop; the publisher is never trusted.
///    For a lemma targeted at level k (root = 0, deeper = closer to iota):
///
///      (a)  iota(z) => L(z), and
///      (b)  frame(k+1)(x) /\ frame(k+1)(y) /\ tau(x,y,z) => L(z),
///
///    which is precisely A => L for the Conflict justification
///    A = iota \/ (frame(k+1) /\ frame(k+1) /\ tau). A lemma that passes
///    (a) but not (b) at its target level is still admissible at the
///    deepest level: the deepest frame/cell is constrained by iota alone
///    (unfolding inserts fresh roots, so the deepest stays deepest), and
///    later boundaries can justify shallower placements as frames
///    strengthen. Under Mon(...) traces additionally maintain
///    cell[d+1] => cell[d], so imports there only admit lemmas that are
///    inductive on their own — iota => L and L /\ L /\ tau => L — which
///    may soundly be conjoined to every cell at once.
///
/// The bus itself (LemmaChannel) is abstract here and implemented by
/// runtime/Exchange.h: the runtime layers above the solver, never the
/// reverse, so the engines see only this interface — the same discipline
/// as the raw cancel-flag pointer on SolverOptions.
///
//===----------------------------------------------------------------------===//

#ifndef MUCYC_SOLVER_SHARE_H
#define MUCYC_SOLVER_SHARE_H

#include "solver/Engine.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace mucyc {

/// One exchanged frame lemma: the target level (root = 0, deeper toward
/// iota — a placement hint, never trusted) and the Z-formula rendered over
/// the canonical mz names.
struct SharedLemma {
  int Level = 0;
  std::string Text;
};

/// The concurrent lemma bus as the engines see it. Implemented by
/// runtime/Exchange.h (LemmaExchange); SolverOptions carries a per-member
/// port as a raw pointer that must outlive the run. Thread-safe.
class LemmaChannel {
public:
  virtual ~LemmaChannel() = default;

  /// Publishes one lemma to every other member.
  virtual void publish(int Level, const std::string &Text) = 0;

  /// Appends to \p Out up to \p Max entries published by OTHER members
  /// after \p Cursor, and returns the advanced cursor. The cursor is owned
  /// by the importer (it resets with each fresh attempt), so a retried
  /// member re-reads the full log.
  virtual uint64_t fetch(uint64_t Cursor, unsigned Max,
                         std::vector<SharedLemma> &Out) const = 0;
};

/// Publishes \p Lemma, a frame lemma at \p Level justified by the valid
/// implication \p A => \p Lemma (the Conflict step's unsat query), after
/// core-minimizing its disjuncts against A. No-op when sharing is off.
/// The literals dropped are counted into Stats.CoreShrink.
void sharePublishLemma(EngineContext &E, int Level, TermRef A, TermRef Lemma);

/// Which admission regime shareImportRound runs.
enum class ShareImportMode {
  /// Checks (a) + (b) against the live frame at the target level, with the
  /// deepest-level fallback. For SpacerTs frames and plain traces.
  FrameRelative,
  /// Checks (a) + self-inductiveness (L /\ L /\ tau => L); admitted lemmas
  /// are handed to AddFn with level 0 to be conjoined monotonically to
  /// every cell. For Mon(...) traces.
  Inductive,
};

/// One import round at a frame boundary. \p Depth is the deepest level
/// index (frames/cells exist for 0..Depth); \p FrameFn returns the frame
/// formula at a level in that range; \p AddFn installs an admitted lemma at
/// a level (for SpacerTs: addLemma, which also strengthens deeper frames —
/// sound because the maintained chain phi_{i+1} => phi_i makes the level-k
/// justification cover every deeper frame). Fetches at most
/// Opts.ShareImportBudget lemmas; admissions re-check in this member's
/// context and count Imported/Rejected. Returns early when the context
/// aborts (budget/cancel). No-op when sharing is off or Depth < 0.
void shareImportRound(EngineContext &E, ShareImportMode Mode, int Depth,
                      const std::function<TermRef(int)> &FrameFn,
                      const std::function<void(int, TermRef)> &AddFn);

} // namespace mucyc

#endif // MUCYC_SOLVER_SHARE_H
