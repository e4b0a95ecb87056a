//===- runtime/Request.cpp - Unified solve job API ------------------------===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/Request.h"

#include "chc/Fingerprint.h"
#include "chc/Parser.h"
#include "chc/Preprocess.h"
#include "runtime/Recover.h"
#include "runtime/Worker.h"
#include "ts/Btor2.h"

#include <chrono>
#include <optional>
#include <sstream>
#include <thread>

using namespace mucyc;

NormalizedChc TextSource::build(TermContext &Ctx) {
  bool IsBtor2 = Format == InputFormat::Btor2 ||
                 (Format == InputFormat::Auto && looksLikeBtor2(Text));
  ChcSystem Orig = [&]() -> ChcSystem {
    if (IsBtor2) {
      Btor2Result BR = parseBtor2(Ctx, Text);
      if (!BR.Ok)
        raiseError(ErrorCode::InputError, "parse failed: " + BR.Error);
      return BR.Ts->encodeChc();
    }
    ParseResult PR = parseChc(Ctx, Text);
    if (!PR.Ok)
      raiseError(ErrorCode::InputError, "parse failed: " + PR.Error);
    return std::move(*PR.System);
  }();
  ChcSystem Work = Preprocess ? preprocess(Orig) : Orig;
  NormalizeResult NR = normalize(Work);
  auto P = std::make_shared<Pipeline>(
      Pipeline{std::move(Orig), std::move(Work), std::move(NR)});
  NormalizedChc Sys = P->NR.Sys;
  std::lock_guard<std::mutex> Lock(Mu);
  Pipes[&Ctx] = std::move(P); // Retry attempts may reuse an address.
  return Sys;
}

std::string TextSource::solutionText(TermContext &Ctx, TermRef PhiZ) {
  std::shared_ptr<Pipeline> P;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = Pipes.find(&Ctx);
    if (It == Pipes.end())
      return "";
    P = It->second;
  }
  ChcSolution Sol = P->NR.liftSolution(P->Work, PhiZ);
  std::ostringstream Out;
  for (const auto &[Pred, Def] : Sol) {
    Out << "(define-fun " << P->Orig.pred(Pred).Name << " (";
    for (size_t I = 0; I < Def.Params.size(); ++I)
      Out << (I ? " " : "") << "(" << Ctx.varInfo(Def.Params[I]).Name << " "
          << sortName(Ctx.varInfo(Def.Params[I]).S) << ")";
    Out << ") Bool " << Ctx.toString(Def.Body) << ")\n";
  }
  return Out.str();
}

namespace {

/// Re-runs a cached certificate through the independent checker against the
/// actual submitted system. Sat certificates are invariants; Unsat ones are
/// reachable bad regions checked by bounded reachability to the recorded
/// depth (+2, mirroring what VerifyResult charges a fresh answer).
bool verifyCachedCert(TermContext &Ctx, const NormalizedChc &N,
                      const ResultStore::Entry &E, TermRef Cert) {
  if (E.Status == ChcStatus::Sat)
    return verifyInvariant(Ctx, N, Cert);
  return verifyCexPiece(Ctx, N, Cert, E.Depth + 2);
}

bool definitive(ChcStatus S) {
  return S == ChcStatus::Sat || S == ChcStatus::Unsat;
}

uint64_t millisSince(std::chrono::steady_clock::time_point Start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - Start)
          .count());
}

} // namespace

SolveResponse mucyc::solveRequest(const SolveRequest &Req, ResultStore *Store,
                                  const std::atomic<bool> *Cancel) {
  auto Start = std::chrono::steady_clock::now();
  auto Elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         Start)
        .count();
  };

  SolveResponse Resp;
  Resp.Tags = Req.Tags;

  std::function<NormalizedChc(TermContext &)> Build = Req.Build;
  if (!Build && Req.Source)
    Build = Req.Source->builder();
  if (!Build) {
    Resp.Attempts = 0;
    Resp.Error =
        ErrorInfo{ErrorCode::InputError, "solve request has no system source"};
    return Resp;
  }

  // --- Warm path: fingerprint the submission and probe the store. A probe
  // failure of any kind (parse error, sort mismatch, corrupt certificate,
  // failed re-verification) drops through to the cold path below; a parse
  // error will then resurface there with its proper diagnostic. The probe
  // context is kept at function scope: admission checks the cold answer's
  // certificate in it.
  std::shared_ptr<TermContext> Probe;
  std::optional<NormalizedChc> ProbeSys;
  if (Store && !Req.NoStore) {
    Probe = std::make_shared<TermContext>();
    try {
      NormalizedChc N = Build(*Probe);
      Resp.Fingerprint = fingerprintNormalized(*Probe, N).hex();
      ProbeSys = N;
      CacheSource Src = CacheSource::None;
      if (auto E = Store->lookup(Resp.Fingerprint, &Src)) {
        bool SortsOk = E->ZSorts.size() == N.Z.size();
        for (size_t I = 0; SortsOk && I < N.Z.size(); ++I)
          SortsOk = E->ZSorts[I] == Probe->varInfo(N.Z[I]).S;
        TermRef Cert;
        if (SortsOk)
          Cert = ResultStore::parseCert(*Probe, N, E->Cert, nullptr);
        bool Ok = Cert.isValid();
        if (Ok && !E->Verified) {
          Ok = verifyCachedCert(*Probe, N, *E, Cert);
          if (Ok)
            Store->markVerified(Resp.Fingerprint);
        }
        if (Ok) {
          Resp.Status = E->Status;
          Resp.Depth = E->Depth;
          Resp.Attempts = 0; // Served, not solved.
          Resp.Cache = Src;
          Resp.CacheVerified = true;
          if (E->Status == ChcStatus::Sat)
            Resp.Invariant = Cert;
          else
            Resp.CexPiece = Cert;
          if (Req.WantSolution && E->Status == ChcStatus::Sat && Req.Source)
            Resp.SolutionText = Req.Source->solutionText(*Probe, Cert);
          if (Req.KeepContext)
            Resp.Ctx = std::move(Probe);
          else {
            Resp.Invariant = TermRef();
            Resp.CexPiece = TermRef();
          }
          Resp.Seconds = Elapsed();
          return Resp;
        }
        // Poisoned or mismatched entry: drop it so the cold answer below
        // replaces it, and count the reject.
        Store->erase(Resp.Fingerprint);
      }
    } catch (const std::exception &) {
      // Fall through to the cold path, which reports the error properly.
    }
  }

  // --- Cold path: the retry ladder. Every rung is one attempt under the
  // next degradeOptions() configuration in a fresh context, run inline or —
  // under crash isolation, for a textual source, outside a worker child —
  // in a forked worker whose child runs the same solveAttempt(). The
  // deadline covers all rungs and backoffs; MaxRetries = 0 runs one rung.
  bool Fork = Req.Opts.Isolate != IsolateMode::None && Req.Source &&
              !inWorkerChild();
  auto LadderStart = std::chrono::steady_clock::now();
  SolveResponse Cold;
  ResultStore::Entry Cert;
  SolveStats Accum;
  unsigned Attempts = 1;
  for (unsigned Attempt = 0;; ++Attempt) {
    SolverOptions O = degradeOptions(Req.Opts, Attempt);
    O.CancelFlag = Cancel;
    if (Req.DeadlineMs) {
      uint64_t Spent = millisSince(LadderStart);
      if (Spent >= Req.DeadlineMs) {
        Cold = SolveResponse();
        Cold.Error = ErrorInfo{ErrorCode::Timeout,
                               "job deadline expired before attempt " +
                                   std::to_string(Attempt + 1)};
        break;
      }
      O.TimeoutMs = Req.DeadlineMs - Spent;
    }
    // Per-attempt fault stream: with a shared injector (Opts.Faults) the
    // counters are monotone across attempts, so a tripped fault is
    // transient; with only a chaos seed, salt it per attempt so the
    // degraded run is not replaying the exact same trip points.
    if (!O.Faults && O.ChaosSeed)
      O.ChaosSeed = mixSeed(O.ChaosSeed, Attempt);
    Attempts = Attempt + 1;
    if (Fork) {
      SolveRequest Rung = Req;
      Rung.Opts = O;
      Cold = runWorkerAttempt(Rung, Req.DeadlineMs ? O.TimeoutMs : 0, Cancel,
                              Attempt == 0 ? Req.TestCrash : "", &Cert);
    } else {
      Cold = solveAttempt(Req, O, ProbeSys ? &Cert : nullptr);
    }
    Accum.merge(Cold.Stats);

    if (!errorRecoverable(Cold.Error.Code))
      break;
    if (Attempt >= Req.Opts.MaxRetries)
      break;
    if (Cancel && Cancel->load(std::memory_order_relaxed))
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(retryBackoffMs(
        Req.Opts.ChaosSeed ? Req.Opts.ChaosSeed : 0x6d75637963ull,
        Attempt + 1)));
  }
  std::string Fp = std::move(Resp.Fingerprint);
  Resp = std::move(Cold);
  Resp.Tags = Req.Tags;
  Resp.Fingerprint = std::move(Fp);
  Resp.Attempts = Attempts;
  Accum.Retries = Attempts - 1;
  Accum.Degradations = Attempts - 1;
  Resp.Stats = Accum;

  // --- Admission: store definitive answers whose certificate has been
  // checked in this process. An inline rung that ran with VerifyResult is
  // already checked; any other certificate is re-parsed and re-verified in
  // the probe context first — a forked rung ships its certificate as text,
  // and a corrupted or compromised child must not be able to poison the
  // store.
  if (ProbeSys && definitive(Resp.Status) && !Cert.Cert.empty()) {
    try {
      Cert.ZSorts.clear();
      for (VarId V : ProbeSys->Z)
        Cert.ZSorts.push_back(Probe->varInfo(V).S);
      Cert.Verified = !Fork && Req.Opts.VerifyResult;
      if (!Cert.Verified) {
        TermRef C =
            ResultStore::parseCert(*Probe, *ProbeSys, Cert.Cert, nullptr);
        Cert.Verified =
            C.isValid() && verifyCachedCert(*Probe, *ProbeSys, Cert, C);
        if (Cert.Verified && Fork) {
          // The child's terms died with it; serve the checked ones.
          (Resp.Status == ChcStatus::Sat ? Resp.Invariant : Resp.CexPiece) =
              C;
          Resp.Ctx = Probe;
        }
      }
      if (Cert.Verified)
        Store->insert(Resp.Fingerprint, std::move(Cert));
    } catch (const std::exception &) {
      // Admission is best-effort; the answer itself still stands.
    }
  }

  if (!Req.KeepContext) {
    Resp.Ctx.reset();
    Resp.Invariant = TermRef();
    Resp.CexPiece = TermRef();
  }
  Resp.Seconds = Elapsed();
  return Resp;
}
