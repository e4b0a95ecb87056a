//===- term/Term.cpp - Hash consing, variables, constants -----------------===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "term/Term.h"

using namespace mucyc;

size_t TermContext::NodeKeyHash::operator()(const NodeKey &K) const {
  const TermNode &N = *K.N;
  size_t H = static_cast<size_t>(N.K) * 0x9e3779b97f4a7c15ull +
             static_cast<size_t>(N.S);
  H = H * 31 + N.Var;
  H = H * 31 + N.Val.hash();
  for (TermRef Kid : N.Kids)
    H = H * 31 + Kid.Idx;
  return H;
}

bool TermContext::NodeKeyEq::operator()(const NodeKey &A,
                                        const NodeKey &B) const {
  const TermNode &X = *A.N, &Y = *B.N;
  return X.K == Y.K && X.S == Y.S && X.Var == Y.Var && X.Val == Y.Val &&
         X.Kids == Y.Kids;
}

TermContext::TermContext() {
  TrueRef = intern(Kind::True, Sort::Bool, 0, Rational());
  FalseRef = intern(Kind::False, Sort::Bool, 0, Rational());
}

TermRef TermContext::intern(Kind K, Sort S, VarId Var, Rational Val,
                            const TermRef *Kids, size_t NumKids) {
  // Probe with a stack node borrowing the caller's kid array; nothing is
  // copied on a hash-cons hit.
  TermNode N{K, S, Var, std::move(Val), KidList(Kids, NumKids)};
  auto It = Interned.find(NodeKey{&N});
  if (It != Interned.end())
    return TermRef(It->second);
  // Governance hooks fire before any mutation, so a budget trip or injected
  // allocation failure leaves the context consistent and reusable.
  if (Gov.Faults)
    Gov.Faults->onAlloc();
  if (Gov.Gauge)
    Gov.Gauge->charge(sizeof(TermNode) + N.Kids.size() * sizeof(TermRef) + 64);
  // Move the kid array into the arena; the stored node must not reference
  // caller storage.
  if (NumKids)
    N.Kids = KidList(KidArena.copyArray(Kids, NumKids), NumKids);
  uint32_t Idx = static_cast<uint32_t>(Nodes.size());
  Nodes.push_back(std::move(N));
  // The map key must point at the stored node, not the local.
  Interned.emplace(NodeKey{&Nodes[Idx]}, Idx);
  return TermRef(Idx);
}

TermRef TermContext::mkVar(const std::string &Name, Sort S) {
  auto It = VarByName.find(Name);
  if (It != VarByName.end()) {
    assert(Vars[It->second].S == S && "variable redeclared at another sort");
    return VarTerms[It->second];
  }
  VarId Id = static_cast<VarId>(Vars.size());
  Vars.push_back(VarInfo{Name, S});
  VarByName.emplace(Name, Id);
  TermRef T = intern(Kind::Var, S, Id, Rational());
  VarTerms.push_back(T);
  return T;
}

TermRef TermContext::mkFreshVar(const std::string &Prefix, Sort S) {
  std::string Name;
  do {
    Name = Prefix + "!" + std::to_string(FreshCounter++);
  } while (VarByName.count(Name));
  return mkVar(Name, S);
}

TermRef TermContext::varTerm(VarId V) {
  assert(V < VarTerms.size() && "stale VarId");
  return VarTerms[V];
}

TermRef TermContext::mkConst(const Rational &V, Sort S) {
  assert(S != Sort::Bool && "use mkBool for boolean constants");
  assert((S != Sort::Int || V.isInt()) && "non-integral Int constant");
  return intern(Kind::Const, S, 0, V);
}
