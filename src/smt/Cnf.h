//===- smt/Cnf.h - Tseitin CNF encoding -------------------------*- C++ -*-===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tseitin transformation from Boolean term DAGs to SAT clauses. Every
/// theory atom gets a dedicated SAT variable; the mapping is exposed so the
/// lazy SMT loop can extract theory literals from propositional models.
/// Registering an atom also parses it for the arithmetic checker, once per
/// solver; the parse lives and dies with the encoder.
///
/// Arithmetic equalities additionally get a "split" clause
/// (a \/ lhs<rhs \/ lhs>rhs) at encoding time, which lets the theory checker
/// ignore negated equalities entirely.
///
//===----------------------------------------------------------------------===//

#ifndef MUCYC_SMT_CNF_H
#define MUCYC_SMT_CNF_H

#include "smt/SatSolver.h"
#include "smt/TheoryLia.h"
#include "term/Term.h"

#include <unordered_map>

namespace mucyc {

/// Incremental Tseitin encoder bound to one SatSolver.
class Tseitin {
public:
  Tseitin(TermContext &Ctx, SatSolver &Sat) : Ctx(Ctx), Sat(Sat) {}

  /// Encodes a Boolean formula and returns its defining literal. Gate
  /// clauses are added to the solver as a side effect; results are cached.
  /// Recursive over the (cached) formula DAG; \p Depth trips a
  /// ResourceExhaustedDepth guard before the stack can overflow on
  /// degenerate nesting.
  SatLit encode(TermRef F, unsigned Depth = 0);

  /// A registered theory atom: its term, SAT variable and parse.
  struct Atom {
    TermRef Term;
    uint32_t SatVar;
    ParsedAtom Parsed;
  };

  /// All registered theory atoms, in registration order.
  const std::vector<Atom> &atoms() const { return Atoms; }

private:
  SatLit encodeAtom(TermRef A);
  SatLit trueLit();

  TermContext &Ctx;
  SatSolver &Sat;
  std::unordered_map<uint32_t, SatLit> Cache; // TermRef.Idx -> literal.
  std::vector<Atom> Atoms;
  SatLit True;
};

} // namespace mucyc

#endif // MUCYC_SMT_CNF_H
