//===- term/Term.h - Hash-consed terms and formulas -------------*- C++ -*-===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The constraint language L of the paper: quantifier-free formulas over
/// Booleans and linear integer/real arithmetic. Terms are immutable,
/// hash-consed DAG nodes owned by a TermContext; a TermRef is a cheap index
/// into that context and structural equality is reference equality.
///
/// Builders canonicalize on the fly: implications/iff/ite are desugared,
/// and/or are flattened and deduplicated, and arithmetic atoms are rewritten
/// into a normal form "sum of integer-coefficient monomials <op> rational
/// constant" so that syntactically different spellings of the same atom
/// coincide. This keeps the literal universe small, which matters for the
/// image-finiteness arguments of model-based projection.
///
//===----------------------------------------------------------------------===//

#ifndef MUCYC_TERM_TERM_H
#define MUCYC_TERM_TERM_H

#include "support/Arena.h"
#include "support/Fault.h"
#include "support/Rational.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <iterator>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace mucyc {

/// Sorts of the constraint language.
enum class Sort : uint8_t { Bool, Int, Real };

/// Returns "Bool", "Int" or "Real".
const char *sortName(Sort S);

/// Term node kinds after builder canonicalization. Implies, Iff, Ite, Ge,
/// Gt, Sub and unary minus exist only as builder sugar.
enum class Kind : uint8_t {
  True,
  False,
  Var,     ///< Variable (Bool, Int or Real).
  Const,   ///< Numeric literal (Int or Real).
  Not,
  And,     ///< N-ary, flattened, >= 2 children.
  Or,      ///< N-ary, flattened, >= 2 children.
  Le,      ///< Canonical arith atom: kids[0] <= kids[1] (linear <= const).
  Lt,      ///< Canonical arith atom: kids[0] <  kids[1].
  EqA,     ///< Canonical arith atom: kids[0] =  kids[1].
  Divides, ///< (d | kids[0]) for a positive integer modulus d, Int only.
  Add,     ///< N-ary arithmetic sum.
  Mul,     ///< Scalar multiple: Val * kids[0].
};

using VarId = uint32_t;

/// Reference to a hash-consed term. Only meaningful together with the
/// TermContext that created it.
struct TermRef {
  uint32_t Idx = UINT32_MAX;

  TermRef() = default;
  explicit TermRef(uint32_t I) : Idx(I) {}

  bool isValid() const { return Idx != UINT32_MAX; }
  bool operator==(const TermRef &RHS) const { return Idx == RHS.Idx; }
  bool operator!=(const TermRef &RHS) const { return Idx != RHS.Idx; }
  bool operator<(const TermRef &RHS) const { return Idx < RHS.Idx; }
};

struct TermRefHash {
  size_t operator()(TermRef T) const { return T.Idx * 0x9e3779b9u; }
};

/// Order-sensitive hash of a list of terms (FNV-1a, one step per index).
struct TermListHash {
  size_t operator()(const std::vector<TermRef> &L) const {
    uint64_t H = 0xcbf29ce484222325ull;
    for (TermRef T : L)
      H = (H ^ T.Idx) * 0x100000001b3ull;
    return static_cast<size_t>(H);
  }
};

/// Immutable view of a node's children. The referenced array lives in the
/// owning TermContext's kid arena (or, for probe keys during interning, on
/// the caller's stack) — a KidList is a 16-byte span, so TermNode copies are
/// shallow and kid storage is allocated exactly once per interned node.
class KidList {
public:
  using value_type = TermRef;
  using const_iterator = const TermRef *;
  using const_reverse_iterator = std::reverse_iterator<const_iterator>;

  KidList() = default;
  KidList(const TermRef *D, size_t N)
      : Data(D), N(static_cast<uint32_t>(N)) {}

  const TermRef *data() const { return Data; }
  size_t size() const { return N; }
  bool empty() const { return N == 0; }

  const TermRef &operator[](size_t I) const {
    assert(I < N && "kid index out of range");
    return Data[I];
  }
  const TermRef &front() const { return (*this)[0]; }
  const TermRef &back() const { return (*this)[N - 1]; }

  const_iterator begin() const { return Data; }
  const_iterator end() const { return Data + N; }
  const_reverse_iterator rbegin() const {
    return const_reverse_iterator(end());
  }
  const_reverse_iterator rend() const {
    return const_reverse_iterator(begin());
  }

  bool operator==(const KidList &RHS) const {
    if (N != RHS.N)
      return false;
    for (uint32_t I = 0; I < N; ++I)
      if (Data[I] != RHS.Data[I])
        return false;
    return true;
  }
  bool operator!=(const KidList &RHS) const { return !(*this == RHS); }

  /// Materializes an owned copy; also reachable implicitly so existing
  /// `std::vector<TermRef> V = node.Kids` call sites keep compiling.
  std::vector<TermRef> vec() const {
    return std::vector<TermRef>(Data, Data + N);
  }
  operator std::vector<TermRef>() const { return vec(); }

private:
  const TermRef *Data = nullptr;
  uint32_t N = 0;
};

/// An immutable term node. Access through TermContext::node().
struct TermNode {
  Kind K;
  Sort S;
  VarId Var = 0; ///< For Kind::Var.
  Rational Val;  ///< Const value, Mul scalar, Divides modulus.
  KidList Kids;  ///< Children; storage owned by the context's kid arena.
};

/// Variable metadata.
struct VarInfo {
  std::string Name;
  Sort S;
};

/// Factory and owner of all terms. Not thread-safe; one context per solver
/// instance. All builder functions return canonicalized, hash-consed refs.
class TermContext {
public:
  TermContext();

  //===--------------------------------------------------------------------===
  // Node and variable access
  //===--------------------------------------------------------------------===

  const TermNode &node(TermRef T) const {
    assert(T.Idx < Nodes.size() && "stale TermRef");
    return Nodes[T.Idx];
  }
  Kind kind(TermRef T) const { return node(T).K; }
  Sort sort(TermRef T) const { return node(T).S; }

  const VarInfo &varInfo(VarId V) const {
    assert(V < Vars.size() && "stale VarId");
    return Vars[V];
  }
  size_t numVars() const { return Vars.size(); }
  size_t numTerms() const { return Nodes.size(); }

  //===--------------------------------------------------------------------===
  // Builders
  //===--------------------------------------------------------------------===

  TermRef mkTrue() const { return TrueRef; }
  TermRef mkFalse() const { return FalseRef; }
  TermRef mkBool(bool B) const { return B ? TrueRef : FalseRef; }

  /// Declares (or retrieves) the variable with the given name. A redeclared
  /// name must keep its sort.
  TermRef mkVar(const std::string &Name, Sort S);
  /// Creates a variable with a unique, fresh name derived from \p Prefix.
  TermRef mkFreshVar(const std::string &Prefix, Sort S);
  /// The Var term for an existing id.
  TermRef varTerm(VarId V);

  /// Numeric literal. For Sort::Int the value must be integral.
  TermRef mkConst(const Rational &V, Sort S);
  TermRef mkIntConst(int64_t V) { return mkConst(Rational(V), Sort::Int); }
  TermRef mkRealConst(const Rational &V) { return mkConst(V, Sort::Real); }

  TermRef mkNot(TermRef A);
  TermRef mkAnd(std::vector<TermRef> Kids);
  TermRef mkAnd(TermRef A, TermRef B) { return mkAnd(std::vector{A, B}); }
  TermRef mkOr(std::vector<TermRef> Kids);
  TermRef mkOr(TermRef A, TermRef B) { return mkOr(std::vector{A, B}); }
  TermRef mkImplies(TermRef A, TermRef B) { return mkOr(mkNot(A), B); }
  TermRef mkIff(TermRef A, TermRef B);
  /// Boolean-sorted if-then-else, desugared to (c∧a)∨(¬c∧b).
  TermRef mkIte(TermRef C, TermRef A, TermRef B);

  TermRef mkAdd(std::vector<TermRef> Kids);
  TermRef mkAdd(TermRef A, TermRef B) { return mkAdd(std::vector{A, B}); }
  TermRef mkSub(TermRef A, TermRef B);
  TermRef mkNeg(TermRef A) { return mkMul(Rational(-1), A); }
  TermRef mkMul(const Rational &C, TermRef A);

  /// Canonical atoms; Ge/Gt are flipped into Le/Lt.
  TermRef mkLe(TermRef A, TermRef B);
  TermRef mkLt(TermRef A, TermRef B);
  TermRef mkGe(TermRef A, TermRef B) { return mkLe(B, A); }
  TermRef mkGt(TermRef A, TermRef B) { return mkLt(B, A); }
  /// Equality; dispatches on sort (Bool becomes iff).
  TermRef mkEq(TermRef A, TermRef B);
  /// Divisibility atom (d | A) for positive integer \p D; Int terms only.
  TermRef mkDivides(const BigInt &D, TermRef A);

  //===--------------------------------------------------------------------===
  // Queries (implemented in TermOps.cpp)
  //===--------------------------------------------------------------------===

  /// True for the atoms the SMT layer handles: Le/Lt/EqA/Divides/Var(Bool)/
  /// True/False.
  bool isAtom(TermRef T) const;
  /// True if the formula is a literal: an atom or a negated atom.
  bool isLiteral(TermRef T) const;

  /// Collects the set of free variables, in ascending VarId order.
  std::vector<VarId> freeVars(TermRef T);
  /// Collects all distinct atoms occurring in a formula.
  std::vector<TermRef> collectAtoms(TermRef T);

  /// Capture-free substitution of variables by terms. Rebuilds through the
  /// builders, so the result is canonical.
  TermRef substitute(TermRef T,
                     const std::unordered_map<VarId, TermRef> &Map);

  /// Lightweight bottom-up simplification (constant folding, absorption).
  /// Builders already do most of this; simplify() re-runs them over a DAG.
  TermRef simplify(TermRef T);

  /// SMT-LIB-style rendering (see Print.cpp).
  std::string toString(TermRef T) const;

  //===--------------------------------------------------------------------===
  // Resource governance (see support/Fault.h)
  //===--------------------------------------------------------------------===

  /// What one solving attempt installs on the context, so that every solver
  /// the attempt builds, pooled or throwaway, is governed alike. The
  /// attempt's EngineContext installs it for its lifetime and reinstalls
  /// the previous one when it ends. Pointees must outlive their
  /// installation.
  struct Governance {
    /// Charged on every interned node, and by the SMT substrates built on
    /// this context (CDCL, simplex).
    ResourceGauge *Gauge = nullptr;
    /// Polled on every allocation and every SMT check.
    FaultInjector *Faults = nullptr;
    /// Read by every SmtSolver at each check().
    const std::atomic<bool> *Cancel = nullptr;
    /// The attempt's SMT check count; SmtSolver::check advances it.
    uint64_t *Checks = nullptr;
    /// A check() past the deadline answers Unknown.
    std::optional<std::chrono::steady_clock::time_point> Deadline;
  };

  /// Installs \p G and returns the governance it replaces.
  Governance swapGovernance(Governance G) {
    std::swap(G, Gov);
    return G;
  }
  const Governance &governance() const { return Gov; }

  /// Set one field, for code that governs a context without an attempt.
  void setResourceGauge(ResourceGauge *G) { Gov.Gauge = G; }
  void setCancelFlag(const std::atomic<bool> *Flag) { Gov.Cancel = Flag; }
  bool cancelRequested() const {
    return Gov.Cancel && Gov.Cancel->load(std::memory_order_relaxed);
  }
  bool deadlinePassed() const {
    return Gov.Deadline && std::chrono::steady_clock::now() > *Gov.Deadline;
  }
  /// True once the attempt must stop: cancelled or past its deadline.
  bool stopRequested() const { return cancelRequested() || deadlinePassed(); }

  /// Payload bytes the kid arena has handed out — a pure function of the
  /// interning trace (used by determinism tests and diagnostics).
  size_t kidArenaBytes() const { return KidArena.bytesAllocated(); }

  //===--------------------------------------------------------------------===
  // Derived-result memos
  //===--------------------------------------------------------------------===

  /// Maps an ordered term list to a term list computed from it.
  using TermListMemo =
      std::unordered_map<std::vector<TermRef>, std::vector<TermRef>,
                         TermListHash>;

  /// Blocked-cube generalizations (itp/Interpolate.h): [A, l1, ..., ln] to
  /// the sub-cube generalizeBlockedCube returned for A and that literal
  /// list. Entries name this context's terms, so the context owns them.
  TermListMemo &blockedCubeMemo() { return BlockedCubeMemo; }

private:
  friend class TermBuilderAccess;

  /// Interns the node (K, S, Var, Val, Kids[0..NumKids)). The kid array is
  /// only read during lookup; on a miss it is copied into the kid arena.
  TermRef intern(Kind K, Sort S, VarId Var, Rational Val,
                 const TermRef *Kids = nullptr, size_t NumKids = 0);
  /// Builds the canonical atom "LinTerm <op> Const" from an integer-
  /// normalized linear expression; \p K is Le, Lt or EqA.
  TermRef mkLinAtom(Kind K, TermRef Lhs, Sort S);

  struct NodeKey {
    const TermNode *N;
  };
  struct NodeKeyHash {
    size_t operator()(const NodeKey &K) const;
  };
  struct NodeKeyEq {
    bool operator()(const NodeKey &A, const NodeKey &B) const;
  };

  /// Deque so that node addresses stay stable: the interning map keys point
  /// into this container. Nodes stay out of the arena because Rational
  /// members own heap storage; only the trivially-destructible kid arrays
  /// live in KidArena.
  std::deque<TermNode> Nodes;
  BumpArena KidArena;
  std::unordered_map<NodeKey, uint32_t, NodeKeyHash, NodeKeyEq> Interned;
  std::vector<VarInfo> Vars;
  std::unordered_map<std::string, VarId> VarByName;
  std::vector<TermRef> VarTerms;
  uint64_t FreshCounter = 0;
  TermRef TrueRef, FalseRef;
  Governance Gov;
  TermListMemo BlockedCubeMemo;
};

} // namespace mucyc

#endif // MUCYC_TERM_TERM_H
