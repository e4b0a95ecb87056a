//===- perfbench/src/Interpose.cpp - Link-time wrappers for the trace -----===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Linked into the traced benchmark only, together with one GNU ld
// `--wrap=<symbol>` per entry point below (CMakeLists.txt). The linker then
// sends every call to <symbol> made from another translation unit to
// __wrap_<symbol>, which opens a span and forwards to __real_<symbol>, the
// library's own definition. The library itself is compiled unchanged.
//
// Member functions are wrapped as free functions taking the object pointer
// first: under the Itanium C++ ABI that is how `this` is passed, after the
// hidden return slot when the result is returned in memory. Each wrapper
// pins the signature it assumes with a static_assert: a mangled name omits
// the return type, so a changed signature must fail this build rather than
// miscall. Only the traced program links this file; the untraced one, which
// gives every end-to-end metric, builds whatever the entry points become.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include "chc/Fingerprint.h"
#include "chc/Normalize.h"
#include "chc/Parser.h"
#include "chc/Preprocess.h"
#include "itp/Interpolate.h"
#include "mbp/Mbp.h"
#include "mbp/Qe.h"
#include "runtime/Request.h"
#include "runtime/ResultStore.h"
#include "smt/SatSolver.h"
#include "smt/SmtSolver.h"
#include "smt/TheoryLia.h"
#include "solver/ChcSolve.h"
#include "ts/Btor2.h"

#include <cstdlib>

using namespace mucyc;
using perfbench::Entry;
using perfbench::trace::SpanScope;

#define PB_REAL(Sym) __asm__("__real_" Sym)
#define PB_WRAP(Sym) __asm__("__wrap_" Sym)

// The SYM_* mangled names come from CMakeLists.txt, which also emits the
// matching --wrap flags, so the two lists cannot drift apart.

#define PB_PIN(Type, Fn) static_assert(sizeof(static_cast<Type>(&Fn)) > 0)

//===----------------------------------------------------------------------===
// chc
//===----------------------------------------------------------------------===

PB_PIN(ParseResult (*)(TermContext &, const std::string &), parseChc);
ParseResult realParseChc(TermContext &, const std::string &)
    PB_REAL(SYM_PARSE_CHC);
ParseResult wrapParseChc(TermContext &C, const std::string &T)
    PB_WRAP(SYM_PARSE_CHC);
ParseResult wrapParseChc(TermContext &C, const std::string &T) {
  SpanScope S(Entry::ChcParse);
  return realParseChc(C, T);
}

PB_PIN(ChcSystem (*)(ChcSystem &, PreprocessStats *), preprocess);
ChcSystem realPreprocess(ChcSystem &, PreprocessStats *)
    PB_REAL(SYM_PREPROCESS);
ChcSystem wrapPreprocess(ChcSystem &Sys, PreprocessStats *St)
    PB_WRAP(SYM_PREPROCESS);
ChcSystem wrapPreprocess(ChcSystem &Sys, PreprocessStats *St) {
  SpanScope S(Entry::ChcPreprocess);
  return realPreprocess(Sys, St);
}

PB_PIN(NormalizeResult (*)(ChcSystem &), normalize);
NormalizeResult realNormalize(ChcSystem &) PB_REAL(SYM_NORMALIZE);
NormalizeResult wrapNormalize(ChcSystem &Sys) PB_WRAP(SYM_NORMALIZE);
NormalizeResult wrapNormalize(ChcSystem &Sys) {
  SpanScope S(Entry::ChcNormalize);
  return realNormalize(Sys);
}

PB_PIN(ChcFingerprint (*)(const TermContext &, const NormalizedChc &),
       fingerprintNormalized);
ChcFingerprint realFingerprint(const TermContext &, const NormalizedChc &)
    PB_REAL(SYM_FINGERPRINT);
ChcFingerprint wrapFingerprint(const TermContext &C, const NormalizedChc &N)
    PB_WRAP(SYM_FINGERPRINT);
ChcFingerprint wrapFingerprint(const TermContext &C, const NormalizedChc &N) {
  SpanScope S(Entry::ChcFingerprint);
  return realFingerprint(C, N);
}

//===----------------------------------------------------------------------===
// ts
//===----------------------------------------------------------------------===

PB_PIN(Btor2Result (*)(TermContext &, const std::string &), parseBtor2);
Btor2Result realParseBtor2(TermContext &, const std::string &)
    PB_REAL(SYM_PARSE_BTOR2);
Btor2Result wrapParseBtor2(TermContext &C, const std::string &T)
    PB_WRAP(SYM_PARSE_BTOR2);
Btor2Result wrapParseBtor2(TermContext &C, const std::string &T) {
  SpanScope S(Entry::TsParse);
  return realParseBtor2(C, T);
}

//===----------------------------------------------------------------------===
// solver
//===----------------------------------------------------------------------===

PB_PIN(SolverResult (ChcSolver::*)(), ChcSolver::solve);
SolverResult realSolve(ChcSolver *) PB_REAL(SYM_SOLVE);
SolverResult wrapSolve(ChcSolver *Self) PB_WRAP(SYM_SOLVE);
SolverResult wrapSolve(ChcSolver *Self) {
  SpanScope S(Entry::SolverSolve);
  return realSolve(Self);
}

PB_PIN(bool (*)(TermContext &, const NormalizedChc &, TermRef, VerifyDiag *),
       verifyInvariant);
bool realVerifyInv(TermContext &, const NormalizedChc &, TermRef,
                   VerifyDiag *) PB_REAL(SYM_VERIFY_INV);
bool wrapVerifyInv(TermContext &C, const NormalizedChc &N, TermRef Inv,
                   VerifyDiag *D) PB_WRAP(SYM_VERIFY_INV);
bool wrapVerifyInv(TermContext &C, const NormalizedChc &N, TermRef Inv,
                   VerifyDiag *D) {
  SpanScope S(Entry::VerifyInvariant);
  return realVerifyInv(C, N, Inv, D);
}

PB_PIN(bool (*)(TermContext &, const NormalizedChc &, TermRef, int,
                VerifyDiag *),
       verifyCexPiece);
bool realVerifyCex(TermContext &, const NormalizedChc &, TermRef, int,
                   VerifyDiag *) PB_REAL(SYM_VERIFY_CEX);
bool wrapVerifyCex(TermContext &C, const NormalizedChc &N, TermRef G, int K,
                   VerifyDiag *D) PB_WRAP(SYM_VERIFY_CEX);
bool wrapVerifyCex(TermContext &C, const NormalizedChc &N, TermRef G, int K,
                   VerifyDiag *D) {
  SpanScope S(Entry::VerifyCexPiece);
  return realVerifyCex(C, N, G, K, D);
}

//===----------------------------------------------------------------------===
// smt
//===----------------------------------------------------------------------===

PB_PIN(SmtStatus (SmtSolver::*)(const std::vector<TermRef> &),
       SmtSolver::check);
SmtStatus realSmtCheck(SmtSolver *, const std::vector<TermRef> &)
    PB_REAL(SYM_SMT_CHECK);
SmtStatus wrapSmtCheck(SmtSolver *Self, const std::vector<TermRef> &A)
    PB_WRAP(SYM_SMT_CHECK);
SmtStatus wrapSmtCheck(SmtSolver *Self, const std::vector<TermRef> &A) {
  SpanScope S(Entry::SmtCheck);
  return realSmtCheck(Self, A);
}

PB_PIN(std::optional<Model> (*)(TermContext &, const std::vector<TermRef> &),
       SmtSolver::quickCheck);
std::optional<Model> realSmtQuick(TermContext &, const std::vector<TermRef> &)
    PB_REAL(SYM_SMT_QUICK);
std::optional<Model> wrapSmtQuick(TermContext &C,
                                  const std::vector<TermRef> &F)
    PB_WRAP(SYM_SMT_QUICK);
std::optional<Model> wrapSmtQuick(TermContext &C,
                                  const std::vector<TermRef> &F) {
  SpanScope S(Entry::SmtQuickCheck);
  return realSmtQuick(C, F);
}

PB_PIN(bool (*)(TermContext &, TermRef, TermRef), SmtSolver::implies);
bool realSmtImplies(TermContext &, TermRef, TermRef) PB_REAL(SYM_SMT_IMPLIES);
bool wrapSmtImplies(TermContext &C, TermRef A, TermRef B)
    PB_WRAP(SYM_SMT_IMPLIES);
bool wrapSmtImplies(TermContext &C, TermRef A, TermRef B) {
  SpanScope S(Entry::SmtImplies);
  return realSmtImplies(C, A, B);
}

PB_PIN(bool (*)(TermContext &, TermRef, TermRef), SmtSolver::equivalent);
bool realSmtEquiv(TermContext &, TermRef, TermRef) PB_REAL(SYM_SMT_EQUIV);
bool wrapSmtEquiv(TermContext &C, TermRef F, TermRef G)
    PB_WRAP(SYM_SMT_EQUIV);
bool wrapSmtEquiv(TermContext &C, TermRef F, TermRef G) {
  SpanScope S(Entry::SmtEquivalent);
  return realSmtEquiv(C, F, G);
}

PB_PIN(std::vector<TermRef> (SmtSolver::*)(const std::vector<TermRef> &,
                                           unsigned *),
       SmtSolver::minimizeCore);
std::vector<TermRef> realSmtMinCore(SmtSolver *, const std::vector<TermRef> &,
                                    unsigned *) PB_REAL(SYM_SMT_MINCORE);
std::vector<TermRef> wrapSmtMinCore(SmtSolver *Self,
                                    const std::vector<TermRef> &A,
                                    unsigned *P) PB_WRAP(SYM_SMT_MINCORE);
std::vector<TermRef> wrapSmtMinCore(SmtSolver *Self,
                                    const std::vector<TermRef> &A,
                                    unsigned *P) {
  SpanScope S(Entry::SmtMinimizeCore);
  return realSmtMinCore(Self, A, P);
}

PB_PIN(SatSolver::Result (SatSolver::*)(const std::vector<SatLit> &),
       SatSolver::solve);
SatSolver::Result realSatSolve(SatSolver *, const std::vector<SatLit> &)
    PB_REAL(SYM_SAT_SOLVE);
SatSolver::Result wrapSatSolve(SatSolver *Self, const std::vector<SatLit> &A)
    PB_WRAP(SYM_SAT_SOLVE);
SatSolver::Result wrapSatSolve(SatSolver *Self,
                               const std::vector<SatLit> &A) {
  SpanScope S(Entry::SatSolve);
  return realSatSolve(Self, A);
}

PB_PIN(ArithChecker::Outcome (ArithChecker::*)(const std::vector<TheoryLit> &),
       ArithChecker::check);
ArithChecker::Outcome realArithCheck(ArithChecker *,
                                     const std::vector<TheoryLit> &)
    PB_REAL(SYM_ARITH_CHECK);
ArithChecker::Outcome wrapArithCheck(ArithChecker *Self,
                                     const std::vector<TheoryLit> &L)
    PB_WRAP(SYM_ARITH_CHECK);
ArithChecker::Outcome wrapArithCheck(ArithChecker *Self,
                                     const std::vector<TheoryLit> &L) {
  SpanScope S(Entry::ArithCheck);
  return realArithCheck(Self, L);
}

//===----------------------------------------------------------------------===
// mbp
//===----------------------------------------------------------------------===

PB_PIN(TermRef (*)(TermContext &, MbpStrategy, const std::vector<VarId> &,
                   TermRef, const Model &),
       mbp);
TermRef realMbp(TermContext &, MbpStrategy, const std::vector<VarId> &,
                TermRef, const Model &) PB_REAL(SYM_MBP);
TermRef wrapMbp(TermContext &C, MbpStrategy St, const std::vector<VarId> &E,
                TermRef Phi, const Model &M) PB_WRAP(SYM_MBP);
TermRef wrapMbp(TermContext &C, MbpStrategy St, const std::vector<VarId> &E,
                TermRef Phi, const Model &M) {
  SpanScope S(Entry::Mbp);
  return realMbp(C, St, E, Phi, M);
}

PB_PIN(TermRef (*)(TermContext &, const std::vector<VarId> &, TermRef),
       qeExists);
TermRef realQeExists(TermContext &, const std::vector<VarId> &, TermRef)
    PB_REAL(SYM_QE_EXISTS);
TermRef wrapQeExists(TermContext &C, const std::vector<VarId> &E, TermRef F)
    PB_WRAP(SYM_QE_EXISTS);
TermRef wrapQeExists(TermContext &C, const std::vector<VarId> &E, TermRef F) {
  SpanScope S(Entry::QeExists);
  return realQeExists(C, E, F);
}

PB_PIN(TermRef (*)(TermContext &, const std::vector<VarId> &, TermRef),
       qeForall);
TermRef realQeForall(TermContext &, const std::vector<VarId> &, TermRef)
    PB_REAL(SYM_QE_FORALL);
TermRef wrapQeForall(TermContext &C, const std::vector<VarId> &E, TermRef F)
    PB_WRAP(SYM_QE_FORALL);
TermRef wrapQeForall(TermContext &C, const std::vector<VarId> &E, TermRef F) {
  SpanScope S(Entry::QeForall);
  return realQeForall(C, E, F);
}

//===----------------------------------------------------------------------===
// itp
//===----------------------------------------------------------------------===

PB_PIN(TermRef (*)(TermContext &, TermRef, TermRef, ItpMode), interpolate);
TermRef realItp(TermContext &, TermRef, TermRef, ItpMode) PB_REAL(SYM_ITP);
TermRef wrapItp(TermContext &C, TermRef A, TermRef B, ItpMode M)
    PB_WRAP(SYM_ITP);
TermRef wrapItp(TermContext &C, TermRef A, TermRef B, ItpMode M) {
  SpanScope S(Entry::Interpolate);
  return realItp(C, A, B, M);
}

//===----------------------------------------------------------------------===
// runtime
//===----------------------------------------------------------------------===

PB_PIN(SolveResponse (*)(const SolveRequest &, ResultStore *,
                         const std::atomic<bool> *),
       solveRequest);
SolveResponse realSolveRequest(const SolveRequest &, ResultStore *,
                               const std::atomic<bool> *)
    PB_REAL(SYM_SOLVE_REQUEST);
SolveResponse wrapSolveRequest(const SolveRequest &R, ResultStore *St,
                               const std::atomic<bool> *Cancel)
    PB_WRAP(SYM_SOLVE_REQUEST);
SolveResponse wrapSolveRequest(const SolveRequest &R, ResultStore *St,
                               const std::atomic<bool> *Cancel) {
  // Requests that reach the daemon carry their id in the tags ("pb:<id>"),
  // so spans on the daemon's worker threads are attributed too.
  uint32_t Id = perfbench::trace::currentRequest();
  if (R.Tags.rfind("pb:", 0) == 0)
    Id = static_cast<uint32_t>(std::strtoul(R.Tags.c_str() + 3, nullptr, 10));
  perfbench::trace::RequestScope Req(Id);
  SpanScope S(Entry::SolveRequest);
  return realSolveRequest(R, St, Cancel);
}

PB_PIN(std::optional<ResultStore::Entry> (ResultStore::*)(const std::string &,
                                                          CacheSource *),
       ResultStore::lookup);
std::optional<ResultStore::Entry>
realStoreLookup(ResultStore *, const std::string &, CacheSource *)
    PB_REAL(SYM_STORE_LOOKUP);
std::optional<ResultStore::Entry>
wrapStoreLookup(ResultStore *Self, const std::string &Fp, CacheSource *Src)
    PB_WRAP(SYM_STORE_LOOKUP);
std::optional<ResultStore::Entry>
wrapStoreLookup(ResultStore *Self, const std::string &Fp, CacheSource *Src) {
  SpanScope S(Entry::StoreLookup);
  std::optional<ResultStore::Entry> R = realStoreLookup(Self, Fp, Src);
  S.Hit = R.has_value();
  return R;
}

PB_PIN(void (ResultStore::*)(const std::string &, ResultStore::Entry),
       ResultStore::insert);
void realStoreInsert(ResultStore *, const std::string &, ResultStore::Entry)
    PB_REAL(SYM_STORE_INSERT);
void wrapStoreInsert(ResultStore *Self, const std::string &Fp,
                     ResultStore::Entry E) PB_WRAP(SYM_STORE_INSERT);
void wrapStoreInsert(ResultStore *Self, const std::string &Fp,
                     ResultStore::Entry E) {
  SpanScope S(Entry::StoreInsert);
  realStoreInsert(Self, Fp, std::move(E));
}
