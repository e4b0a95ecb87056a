//===- runtime/Portfolio.cpp - Racing configuration portfolio -------------===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/Portfolio.h"

#include "runtime/Exchange.h"
#include "runtime/ThreadPool.h"

#include <chrono>
#include <mutex>

using namespace mucyc;

std::vector<std::string> mucyc::splitConfigList(const std::string &List) {
  std::vector<std::string> Out;
  std::string Cur;
  int Depth = 0;
  for (char C : List) {
    if (C == '(')
      ++Depth;
    else if (C == ')')
      --Depth;
    if (C == ',' && Depth == 0) {
      if (!Cur.empty())
        Out.push_back(Cur);
      Cur.clear();
      continue;
    }
    if (C == ' ' && Cur.empty())
      continue; // Allow "a, b" spelling.
    Cur.push_back(C);
  }
  if (!Cur.empty())
    Out.push_back(Cur);
  return Out;
}

std::optional<std::vector<SolverOptions>>
mucyc::parseConfigList(const std::string &List) {
  std::vector<SolverOptions> Out;
  for (const std::string &Name : splitConfigList(List)) {
    auto O = SolverOptions::parse(Name);
    if (!O)
      return std::nullopt;
    Out.push_back(*O);
  }
  if (Out.empty())
    return std::nullopt;
  return Out;
}

PortfolioResult
mucyc::racePortfolio(const SolveRequest &Base,
                     const std::vector<SolverOptions> &Configs, unsigned Jobs,
                     const std::shared_ptr<CancelToken> &Cancel,
                     ResultStore *Store) {
  auto Start = std::chrono::steady_clock::now();
  const size_t K = Configs.size();

  PortfolioResult R;
  R.Members.resize(K);

  std::shared_ptr<CancelToken> RaceTok =
      Cancel ? Cancel->child() : CancelToken::create();
  // One token per member so the winner can stop exactly the losers.
  std::vector<std::shared_ptr<CancelToken>> MemberToks;
  MemberToks.reserve(K);
  for (size_t I = 0; I < K; ++I)
    MemberToks.push_back(RaceTok->child());

  // Winner commit point. The first member to produce a definitive answer
  // takes the race; everyone else is cancelled and reports Cancelled when
  // it lost its own answer to the abort.
  std::mutex Mu;

  // Cooperative mode: one lemma bus for the race, one port per member.
  // The bus outlives the pool block below (members hold raw port pointers
  // until join), and only members that asked for sharing get a port.
  LemmaExchange Exchange(K);

  {
    // Default to one thread per member, even above the core count: a race
    // needs every member actually running or a diverging early member
    // starves the one that would answer; the losers' oversubscription cost
    // is bounded by the winner's runtime plus one cancellation round.
    unsigned Workers = Jobs ? Jobs : static_cast<unsigned>(K);
    if (Workers > K)
      Workers = static_cast<unsigned>(K);
    ThreadPool Pool(Workers);
    for (size_t I = 0; I < K; ++I) {
      Pool.post([&, I] {
        PortfolioMember &M = R.Members[I];
        // solveRequest absorbs crashing members (typed errors and stray
        // exceptions become ErrorInfo on the response) and runs the
        // degraded-retry ladder when the config asks for it — a loser can
        // die or retry without disturbing the race. With a store, a
        // cached certificate answers without running an engine at all.
        SolveRequest MR = Base;
        MR.Opts = Configs[I];
        MR.KeepContext = true;
        if (MR.Opts.ShareLemmas)
          MR.Opts.Share = Exchange.port(I);
        M.Resp = solveRequest(MR, Store, MemberToks[I]->flag());
        // The token state when the member's solve returned — a later
        // post-join check would blame cancellation for self-inflicted
        // timeouts.
        M.Cancelled = M.Resp.Status == ChcStatus::Unknown &&
                      MemberToks[I]->cancelled();
        if (M.Resp.Status == ChcStatus::Unknown)
          return;
        std::lock_guard<std::mutex> Lock(Mu);
        if (R.WinnerIndex >= 0)
          return; // Somebody else already committed.
        R.WinnerIndex = static_cast<int>(I);
        for (size_t J = 0; J < K; ++J)
          if (J != I)
            MemberToks[J]->request();
      });
    }
  } // Joins the pool: every member has finished or wound down.

  for (size_t I = 0; I < K; ++I) {
    PortfolioMember &M = R.Members[I];
    M.Config = Configs[I].name();
    R.MergedStats.merge(M.Resp.Stats);
    if (static_cast<int>(I) != R.WinnerIndex) {
      // Only the winner's terms are needed after the race.
      M.Resp.Ctx.reset();
      M.Resp.Invariant = TermRef();
      M.Resp.CexPiece = TermRef();
    }
  }
  R.SharedLemmas = Exchange.size();
  R.Seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            Start)
                  .count();
  return R;
}
