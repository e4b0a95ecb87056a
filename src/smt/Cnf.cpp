//===- smt/Cnf.cpp - Tseitin CNF encoding ---------------------------------===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "smt/Cnf.h"

#include "support/Error.h"

using namespace mucyc;

SatLit Tseitin::trueLit() {
  if (!True.isValid()) {
    True = SatLit(Sat.newVar(), false);
    Sat.addClause({True});
  }
  return True;
}

SatLit Tseitin::encodeAtom(TermRef A) {
  SatLit L(Sat.newVar(), false);
  Atoms.push_back(Atom{A, L.var(), ParsedAtom::parse(Ctx, A)});
  const TermNode &N = Ctx.node(A);
  if (N.K == Kind::EqA) {
    // Split clause so negated equalities need no theory support:
    // (lhs = rhs) \/ (lhs < rhs) \/ (rhs < lhs).
    TermRef Lt = Ctx.mkLt(N.Kids[0], N.Kids[1]);
    TermRef Gt = Ctx.mkLt(N.Kids[1], N.Kids[0]);
    // Cache first: the recursive encode calls below must not re-enter A.
    Cache.emplace(A.Idx, L);
    Sat.addClause({L, encode(Lt), encode(Gt)});
  }
  return L;
}

SatLit Tseitin::encode(TermRef F, unsigned Depth) {
  auto It = Cache.find(F.Idx);
  if (It != Cache.end())
    return It->second;
  // The cache bounds re-entry per node, but a right-leaning Not/And chain
  // still recurses once per level; guard the stack before it gives out.
  if (Depth > 8192)
    raiseError(ErrorCode::ResourceExhaustedDepth,
               "formula nesting exceeds Tseitin encoding depth guard");
  const TermNode &N = Ctx.node(F);
  SatLit L;
  switch (N.K) {
  case Kind::True:
    L = trueLit();
    break;
  case Kind::False:
    L = ~trueLit();
    break;
  case Kind::Not:
    L = ~encode(N.Kids[0], Depth + 1);
    break;
  case Kind::Var:
    MUCYC_INVARIANT(N.S == Sort::Bool, "non-boolean in formula position");
    L = encodeAtom(F);
    break;
  case Kind::Le:
  case Kind::Lt:
  case Kind::EqA:
    L = encodeAtom(F);
    break;
  case Kind::Divides:
    raiseError(ErrorCode::InvariantViolation,
               "divisibility atom reached the encoder (eliminateDivides "
               "must run first)");
    break;
  case Kind::And: {
    std::vector<SatLit> KidLits;
    KidLits.reserve(N.Kids.size());
    for (TermRef Kid : N.Kids)
      KidLits.push_back(encode(Kid, Depth + 1));
    L = SatLit(Sat.newVar(), false);
    std::vector<SatLit> Long{L};
    for (SatLit K : KidLits) {
      Sat.addClause({~L, K});
      Long.push_back(~K);
    }
    Sat.addClause(std::move(Long));
    break;
  }
  case Kind::Or: {
    std::vector<SatLit> KidLits;
    KidLits.reserve(N.Kids.size());
    for (TermRef Kid : N.Kids)
      KidLits.push_back(encode(Kid, Depth + 1));
    L = SatLit(Sat.newVar(), false);
    std::vector<SatLit> Long{~L};
    for (SatLit K : KidLits) {
      Sat.addClause({L, ~K});
      Long.push_back(K);
    }
    Sat.addClause(std::move(Long));
    break;
  }
  default:
    raiseError(ErrorCode::InvariantViolation,
               "arithmetic term in formula position");
    break;
  }
  Cache.emplace(F.Idx, L);
  return L;
}
