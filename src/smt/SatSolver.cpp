//===- smt/SatSolver.cpp - CDCL SAT solver --------------------------------===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "smt/SatSolver.h"

#include <algorithm>

using namespace mucyc;

uint32_t SatSolver::newVar() {
  uint32_t V = static_cast<uint32_t>(Assigns.size());
  Assigns.push_back(LBool::Undef);
  Phase.push_back(LBool::False);
  Levels.push_back(0);
  Reasons.push_back(NoReason);
  Activity.push_back(0.0);
  HeapPos.push_back(-1);
  Watches.emplace_back();
  Watches.emplace_back();
  SeenBuf.push_back(0);
  heapInsert(V);
  return V;
}

//===----------------------------------------------------------------------===
// Activity heap
//===----------------------------------------------------------------------===

void SatSolver::heapInsert(uint32_t V) {
  if (HeapPos[V] >= 0)
    return;
  HeapPos[V] = static_cast<int>(Heap.size());
  Heap.push_back(V);
  heapUp(HeapPos[V]);
}

void SatSolver::heapUp(int I) {
  uint32_t V = Heap[I];
  while (I > 0) {
    int Parent = (I - 1) / 2;
    if (!heapLess(V, Heap[Parent]))
      break;
    Heap[I] = Heap[Parent];
    HeapPos[Heap[I]] = I;
    I = Parent;
  }
  Heap[I] = V;
  HeapPos[V] = I;
}

void SatSolver::heapDown(int I) {
  uint32_t V = Heap[I];
  int N = static_cast<int>(Heap.size());
  while (true) {
    int L = 2 * I + 1, R = 2 * I + 2, Best = I;
    Heap[I] = V; // Tentatively place for comparisons.
    if (L < N && heapLess(Heap[L], Heap[Best]))
      Best = L;
    if (R < N && heapLess(Heap[R], Heap[Best]))
      Best = R;
    if (Best == I)
      break;
    Heap[I] = Heap[Best];
    HeapPos[Heap[I]] = I;
    I = Best;
  }
  Heap[I] = V;
  HeapPos[V] = I;
}

uint32_t SatSolver::heapPop() {
  uint32_t V = Heap[0];
  HeapPos[V] = -1;
  Heap[0] = Heap.back();
  Heap.pop_back();
  if (!Heap.empty()) {
    HeapPos[Heap[0]] = 0;
    heapDown(0);
  }
  return V;
}

void SatSolver::bumpVar(uint32_t V) {
  Activity[V] += VarInc;
  if (Activity[V] > 1e100) {
    for (double &A : Activity)
      A *= 1e-100;
    VarInc *= 1e-100;
  }
  if (HeapPos[V] >= 0)
    heapUp(HeapPos[V]);
}

void SatSolver::bumpClause(Clause &C) {
  C.Activity += ClaInc;
  if (C.Activity > 1e20) {
    for (Clause &Cl : Clauses)
      if (Cl.Learned)
        Cl.Activity *= 1e-20;
    ClaInc *= 1e-20;
  }
}

void SatSolver::decayActivities() {
  VarInc /= 0.95;
  ClaInc /= 0.999;
}

//===----------------------------------------------------------------------===
// Clauses and propagation
//===----------------------------------------------------------------------===

void SatSolver::attachClause(ClauseIdx Idx) {
  const Clause &C = Clauses[Idx];
  assert(C.Lits.size() >= 2);
  Watches[(~C.Lits[0]).X].push_back(Watcher{Idx, C.Lits[1]});
  Watches[(~C.Lits[1]).X].push_back(Watcher{Idx, C.Lits[0]});
}

bool SatSolver::addClause(std::vector<SatLit> Lits) {
  if (Unsat)
    return false;
  assert(TrailLims.empty() && "addClause only at decision level 0");
  // Simplify: drop duplicates and false literals, detect tautology.
  std::sort(Lits.begin(), Lits.end());
  std::vector<SatLit> Out;
  for (size_t I = 0; I < Lits.size(); ++I) {
    SatLit L = Lits[I];
    if (I + 1 < Lits.size() && Lits[I + 1] == ~L)
      return true; // Tautology.
    if (!Out.empty() && Out.back() == L)
      continue;
    if (value(L) == LBool::True)
      return true; // Satisfied at level 0.
    if (value(L) == LBool::False)
      continue; // Falsified at level 0: drop.
    Out.push_back(L);
  }
  if (Out.empty()) {
    Unsat = true;
    return false;
  }
  if (Out.size() == 1) {
    enqueue(Out[0], NoReason);
    if (propagate() != NoReason) {
      Unsat = true;
      return false;
    }
    return true;
  }
  if (Gauge)
    Gauge->charge(sizeof(Clause) + Out.size() * sizeof(SatLit));
  ClauseIdx Idx = static_cast<ClauseIdx>(Clauses.size());
  Clauses.push_back(Clause{std::move(Out), false, 0});
  attachClause(Idx);
  return true;
}

void SatSolver::enqueue(SatLit L, ClauseIdx Reason) {
  assert(value(L) == LBool::Undef);
  Assigns[L.var()] = L.negated() ? LBool::False : LBool::True;
  Levels[L.var()] = currentLevel();
  Reasons[L.var()] = Reason;
  Trail.push_back(L);
}

SatSolver::ClauseIdx SatSolver::propagate() {
  while (PropHead < Trail.size()) {
    SatLit P = Trail[PropHead++];
    ++Propagations;
    std::vector<Watcher> &Ws = Watches[P.X];
    size_t Kept = 0;
    for (size_t I = 0; I < Ws.size(); ++I) {
      Watcher W = Ws[I];
      if (value(W.Blocker) == LBool::True) {
        Ws[Kept++] = W;
        continue;
      }
      Clause &C = Clauses[W.C];
      // Ensure the falsified literal (~P) is at position 1.
      SatLit NotP = ~P;
      if (C.Lits[0] == NotP)
        std::swap(C.Lits[0], C.Lits[1]);
      assert(C.Lits[1] == NotP);
      if (value(C.Lits[0]) == LBool::True) {
        Ws[Kept++] = Watcher{W.C, C.Lits[0]};
        continue;
      }
      // Look for a new literal to watch.
      bool Moved = false;
      for (size_t K = 2; K < C.Lits.size(); ++K) {
        if (value(C.Lits[K]) != LBool::False) {
          std::swap(C.Lits[1], C.Lits[K]);
          Watches[(~C.Lits[1]).X].push_back(Watcher{W.C, C.Lits[0]});
          Moved = true;
          break;
        }
      }
      if (Moved)
        continue;
      // Unit or conflicting.
      Ws[Kept++] = W;
      if (value(C.Lits[0]) == LBool::False) {
        // Conflict: keep remaining watchers and report.
        for (size_t K = I + 1; K < Ws.size(); ++K)
          Ws[Kept++] = Ws[K];
        Ws.resize(Kept);
        PropHead = Trail.size();
        return W.C;
      }
      enqueue(C.Lits[0], W.C);
    }
    Ws.resize(Kept);
  }
  return NoReason;
}

//===----------------------------------------------------------------------===
// Conflict analysis
//===----------------------------------------------------------------------===

void SatSolver::analyze(ClauseIdx Confl, std::vector<SatLit> &Learned,
                        int &BtLevel) {
  Learned.clear();
  Learned.push_back(SatLit()); // Placeholder for the asserting literal.
  int Counter = 0;
  SatLit P;
  size_t TrailIdx = Trail.size();
  std::vector<char> &Seen = SeenBuf;

  ClauseIdx Reason = Confl;
  do {
    assert(Reason != NoReason && "reached decision without UIP");
    Clause &C = Clauses[Reason];
    if (C.Learned)
      bumpClause(C);
    // Skip lits[0] on subsequent rounds: it is the literal we resolved on.
    for (size_t I = P.isValid() ? 1 : 0; I < C.Lits.size(); ++I) {
      SatLit Q = C.Lits[I];
      uint32_t V = Q.var();
      if (Seen[V] || level(V) == 0)
        continue;
      Seen[V] = 1;
      bumpVar(V);
      if (level(V) == currentLevel())
        ++Counter;
      else
        Learned.push_back(Q);
    }
    // Find the next seen literal on the trail.
    while (!Seen[Trail[TrailIdx - 1].var()])
      --TrailIdx;
    --TrailIdx;
    P = Trail[TrailIdx];
    Seen[P.var()] = 0;
    Reason = Reasons[P.var()];
    --Counter;
  } while (Counter > 0);
  Learned[0] = ~P;

  // Minimization: drop literals implied by others (simple self-subsumption:
  // a literal whose reason clause's literals are all seen). Keep the
  // pre-minimization set: every Seen flag must be cleared afterwards,
  // including those of literals the minimization drops.
  std::vector<SatLit> AllCandidates(Learned.begin() + 1, Learned.end());
  size_t Kept = 1;
  for (size_t I = 1; I < Learned.size(); ++I) {
    uint32_t V = Learned[I].var();
    ClauseIdx R = Reasons[V];
    bool Redundant = false;
    if (R != NoReason) {
      Redundant = true;
      for (size_t K = 1; K < Clauses[R].Lits.size(); ++K) {
        uint32_t W = Clauses[R].Lits[K].var();
        if (!Seen[W] && level(W) != 0) {
          Redundant = false;
          break;
        }
      }
    }
    if (!Redundant)
      Learned[Kept++] = Learned[I];
  }
  Learned.resize(Kept);

  // Backjump level: maximum level among the non-asserting literals.
  BtLevel = 0;
  size_t MaxIdx = 1;
  for (size_t I = 1; I < Learned.size(); ++I) {
    if (level(Learned[I].var()) > BtLevel) {
      BtLevel = level(Learned[I].var());
      MaxIdx = I;
    }
  }
  if (Learned.size() > 1)
    std::swap(Learned[1], Learned[MaxIdx]);
  Seen[Learned[0].var()] = 0;
  for (SatLit L : AllCandidates)
    Seen[L.var()] = 0;
}

void SatSolver::analyzeFinal(SatLit P, std::vector<SatLit> &Core) {
  // P (= ~A for a failed assumption A) is implied by the formula plus
  // earlier assumptions; walk its implication graph back to assumptions.
  // The core is reported in terms of the assumption literals as passed.
  Core.clear();
  Core.push_back(~P);
  if (currentLevel() == 0)
    return;
  std::vector<char> &Seen = SeenBuf;
  Seen[P.var()] = 1;
  for (size_t I = Trail.size(); I-- > TrailLims[0];) {
    uint32_t V = Trail[I].var();
    if (!Seen[V])
      continue;
    if (Reasons[V] == NoReason) {
      // A decision in the assumption prefix is itself an assumption.
      if (Trail[I].var() != P.var())
        Core.push_back(Trail[I]);
    } else {
      const Clause &C = Clauses[Reasons[V]];
      for (size_t K = 1; K < C.Lits.size(); ++K)
        if (level(C.Lits[K].var()) > 0)
          Seen[C.Lits[K].var()] = 1;
    }
    Seen[V] = 0;
  }
  Seen[P.var()] = 0;
}

void SatSolver::backtrack(int TargetLevel) {
  if (currentLevel() <= TargetLevel)
    return;
  size_t Bound = TrailLims[TargetLevel];
  for (size_t I = Trail.size(); I-- > Bound;) {
    uint32_t V = Trail[I].var();
    Phase[V] = Assigns[V];
    Assigns[V] = LBool::Undef;
    Reasons[V] = NoReason;
    heapInsert(V);
  }
  Trail.resize(Bound);
  TrailLims.resize(TargetLevel);
  PropHead = Trail.size();
}

SatLit SatSolver::pickBranchLit() {
  while (!Heap.empty()) {
    uint32_t V = Heap[0];
    if (Assigns[V] == LBool::Undef) {
      heapPop();
      return SatLit(V, Phase[V] != LBool::True);
    }
    heapPop();
  }
  return SatLit();
}

void SatSolver::reduceLearned() {
  // Keep it simple: learned clauses are retained. Instances in mucyc are
  // small; clause-database reduction is unnecessary complexity here.
}

//===----------------------------------------------------------------------===
// Main solve loop
//===----------------------------------------------------------------------===

SatSolver::Result SatSolver::solve(const std::vector<SatLit> &Assumptions) {
  ConflictCore.clear();
  if (Unsat)
    return Result::Unsat;
  backtrack(0);
  if (propagate() != NoReason) {
    Unsat = true;
    return Result::Unsat;
  }

  uint64_t ConflictBudget = 100;
  std::vector<SatLit> Learned;

  while (true) {
    // Cancellation point: once per propagation round, so a cancelled solve
    // stops after the current unit-propagation fixpoint at the latest.
    if (CancelFlag && CancelFlag->load(std::memory_order_relaxed)) {
      backtrack(0);
      return Result::Interrupted;
    }
    ClauseIdx Confl = propagate();
    if (Confl != NoReason) {
      ++Conflicts;
      if (currentLevel() == 0) {
        Unsat = true;
        return Result::Unsat;
      }
      // Conflict within the assumption prefix: derive a core.
      if (currentLevel() <= static_cast<int>(Assumptions.size())) {
        // The conflict clause is falsified; collect assumptions behind it.
        std::vector<char> &Seen = SeenBuf;
        ConflictCore.clear();
        std::vector<uint32_t> Stack;
        for (SatLit L : Clauses[Confl].Lits)
          if (level(L.var()) > 0 && !Seen[L.var()]) {
            Seen[L.var()] = 1;
            Stack.push_back(L.var());
          }
        std::vector<uint32_t> Touched = Stack;
        for (size_t I = Trail.size(); I-- > TrailLims[0];) {
          uint32_t V = Trail[I].var();
          if (!Seen[V])
            continue;
          if (Reasons[V] == NoReason) {
            ConflictCore.push_back(Trail[I]);
          } else {
            for (size_t K = 1; K < Clauses[Reasons[V]].Lits.size(); ++K) {
              uint32_t W = Clauses[Reasons[V]].Lits[K].var();
              if (level(W) > 0 && !Seen[W]) {
                Seen[W] = 1;
                Touched.push_back(W);
              }
            }
          }
        }
        for (uint32_t V : Touched)
          Seen[V] = 0;
        backtrack(0);
        return Result::Unsat;
      }
      int BtLevel = 0;
      analyze(Confl, Learned, BtLevel);
      // Never backjump into the assumption prefix with a learned clause
      // whose asserting literal would conflict there; clamp and re-decide.
      backtrack(std::max(BtLevel, 0));
      if (Learned.size() == 1) {
        backtrack(0);
        enqueue(Learned[0], NoReason);
      } else {
        if (Gauge)
          Gauge->charge(sizeof(Clause) + Learned.size() * sizeof(SatLit));
        ClauseIdx Idx = static_cast<ClauseIdx>(Clauses.size());
        Clauses.push_back(Clause{Learned, true, 0});
        attachClause(Idx);
        bumpClause(Clauses[Idx]);
        enqueue(Learned[0], Idx);
      }
      decayActivities();
      if (Conflicts % ConflictBudget == 0) {
        // Geometric restart (keeps assumptions: they are re-decided below).
        ConflictBudget = ConflictBudget * 3 / 2;
        backtrack(0);
      }
      continue;
    }

    // Re-establish assumptions as pseudo-decisions.
    if (currentLevel() < static_cast<int>(Assumptions.size())) {
      SatLit A = Assumptions[currentLevel()];
      if (value(A) == LBool::True) {
        // Already implied: open an empty decision level to keep the
        // level<->assumption-index correspondence.
        TrailLims.push_back(Trail.size());
        continue;
      }
      if (value(A) == LBool::False) {
        analyzeFinal(~A, ConflictCore);
        backtrack(0);
        return Result::Unsat;
      }
      TrailLims.push_back(Trail.size());
      enqueue(A, NoReason);
      continue;
    }

    SatLit Next = pickBranchLit();
    if (!Next.isValid()) {
      // All variables assigned: model found.
      Model = Assigns;
      backtrack(0);
      return Result::Sat;
    }
    ++Decisions;
    TrailLims.push_back(Trail.size());
    enqueue(Next, NoReason);
  }
}
