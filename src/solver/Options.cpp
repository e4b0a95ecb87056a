//===- solver/Options.cpp - Solver configuration --------------------------===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "solver/Options.h"

#include <cstdlib>

using namespace mucyc;

const char *mucyc::isolateModeName(IsolateMode M) {
  switch (M) {
  case IsolateMode::None:
    return "none";
  case IsolateMode::Crash:
    return "crash";
  }
  return "?";
}

std::optional<IsolateMode> mucyc::parseIsolateMode(const std::string &S) {
  if (S == "none")
    return IsolateMode::None;
  if (S == "crash")
    return IsolateMode::Crash;
  return std::nullopt;
}

std::string SolverOptions::name() const {
  std::string Inner;
  switch (Engine) {
  case EngineKind::Naive:
    Inner = "Naive";
    break;
  case EngineKind::NaiveMbp:
    Inner = "NaiveMbp";
    break;
  case EngineKind::Solve:
    Inner = "Solve";
    break;
  case EngineKind::SpacerTs:
    Inner = std::string("SpacerTS(") + (SpacerFig15 ? "fig15" : "fig1") +
            (SpacerULevels ? ",Ulev" : "") + ")";
    break;
  case EngineKind::Ret:
  case EngineKind::Yld: {
    std::string CexStr;
    switch (Cex) {
    case CexMethod::Model:
      CexStr = "Model";
      break;
    case CexMethod::Qe:
      CexStr = "QE";
      break;
    case CexMethod::Mbp:
      CexStr = "MBP(" + std::to_string(MbpMode) + ")";
      break;
    }
    bool B = Engine == EngineKind::Ret ? Accumulate : QueryWeaken;
    Inner = std::string(Engine == EngineKind::Ret ? "Ret(" : "Yld(") +
            (B ? "T" : "F") + "," + CexStr + ")";
    break;
  }
  }
  if (OptMonotone)
    Inner = "Mon(" + Inner + ")";
  if (OptQueryReuse)
    Inner = "Que(" + Inner + ")";
  if (OptCexShare)
    Inner = "Cex(" + Inner + ")";
  if (OptInduction)
    Inner = "Ind(" + Inner + ")";
  return Inner;
}

std::optional<SolverOptions> SolverOptions::parse(const std::string &Name) {
  SolverOptions O;
  O.Accumulate = false;
  O.QueryWeaken = false;
  std::string S = Name;
  auto StripWrap = [&](const char *Tag, bool &Flag) {
    std::string Prefix = std::string(Tag) + "(";
    if (S.rfind(Prefix, 0) == 0 && !S.empty() && S.back() == ')') {
      S = S.substr(Prefix.size(), S.size() - Prefix.size() - 1);
      Flag = true;
      return true;
    }
    return false;
  };
  bool Progress = true;
  while (Progress) {
    Progress = false;
    Progress |= StripWrap("Ind", O.OptInduction);
    Progress |= StripWrap("Cex", O.OptCexShare);
    Progress |= StripWrap("Que", O.OptQueryReuse);
    Progress |= StripWrap("Mon", O.OptMonotone);
  }
  if (S == "Solve") {
    O.Engine = EngineKind::Solve;
    return O;
  }
  if (S == "Naive") {
    O.Engine = EngineKind::Naive;
    return O;
  }
  if (S == "NaiveMbp") {
    O.Engine = EngineKind::NaiveMbp;
    return O;
  }
  if (S.rfind("SpacerTS", 0) == 0) {
    O.Engine = EngineKind::SpacerTs;
    O.SpacerFig15 = S.find("fig15") != std::string::npos;
    O.SpacerULevels = S.find("Ulev") != std::string::npos;
    return O;
  }
  bool IsRet = S.rfind("Ret(", 0) == 0;
  bool IsYld = S.rfind("Yld(", 0) == 0;
  if ((!IsRet && !IsYld) || S.back() != ')')
    return std::nullopt;
  O.Engine = IsRet ? EngineKind::Ret : EngineKind::Yld;
  std::string Body = S.substr(4, S.size() - 5);
  size_t Comma = Body.find(',');
  if (Comma == std::string::npos)
    return std::nullopt;
  std::string B = Body.substr(0, Comma);
  std::string CexStr = Body.substr(Comma + 1);
  if (B != "T" && B != "F")
    return std::nullopt;
  (IsRet ? O.Accumulate : O.QueryWeaken) = B == "T";
  if (CexStr == "Model") {
    O.Cex = CexMethod::Model;
  } else if (CexStr == "QE") {
    O.Cex = CexMethod::Qe;
  } else if (CexStr.rfind("MBP(", 0) == 0 && CexStr.back() == ')') {
    O.Cex = CexMethod::Mbp;
    O.MbpMode = CexStr[4] - '0';
    if (O.MbpMode < 0 || O.MbpMode > 2)
      return std::nullopt;
  } else {
    return std::nullopt;
  }
  return O;
}

bool SolverOptions::applyConfig(const std::string &Name) {
  std::optional<SolverOptions> P = parse(Name);
  if (!P)
    return false;
  Engine = P->Engine;
  Cex = P->Cex;
  MbpMode = P->MbpMode;
  Accumulate = P->Accumulate;
  QueryWeaken = P->QueryWeaken;
  OptInduction = P->OptInduction;
  OptCexShare = P->OptCexShare;
  OptQueryReuse = P->OptQueryReuse;
  OptMonotone = P->OptMonotone;
  SpacerFig15 = P->SpacerFig15;
  SpacerULevels = P->SpacerULevels;
  return true;
}

//===----------------------------------------------------------------------===
// Shared command-line surface
//===----------------------------------------------------------------------===

std::vector<std::string> CliOptions::toFlags() const {
  std::vector<std::string> F;
  auto Push = [&](const char *Flag, const std::string &Val) {
    F.push_back(Flag);
    F.push_back(Val);
  };
  if (Config != "Ret(T,MBP(1))")
    Push("--config", Config);
  if (Jobs)
    Push("--jobs", std::to_string(Jobs));
  if (TimeoutMs != 600000)
    Push("--timeout-ms", std::to_string(TimeoutMs));
  if (Opts.MemLimitMb)
    Push("--mem-limit-mb", std::to_string(Opts.MemLimitMb));
  if (Opts.MaxRetries)
    Push("--max-retries", std::to_string(Opts.MaxRetries));
  if (Opts.MaxRefineSteps)
    Push("--max-refine-steps", std::to_string(Opts.MaxRefineSteps));
  if (Opts.ChaosSeed)
    Push("--chaos-seed", std::to_string(Opts.ChaosSeed));
  if (Opts.NoIncremental)
    F.push_back("--no-incremental");
  if (Opts.VerifyResult)
    F.push_back("--verify");
  if (Opts.ShareLemmas)
    F.push_back("--share-lemmas");
  if (Opts.ShareImportBudget != 64)
    Push("--share-import-budget", std::to_string(Opts.ShareImportBudget));
  if (Opts.Isolate != IsolateMode::None)
    Push("--isolate", isolateModeName(Opts.Isolate));
  if (Opts.HardMemMb)
    Push("--hard-mem-mb", std::to_string(Opts.HardMemMb));
  if (Opts.HardCpuSec)
    Push("--hard-cpu-sec", std::to_string(Opts.HardCpuSec));
  return F;
}

bool mucyc::parseSolverOptions(int &Argc, char **Argv, CliOptions &Out,
                               std::string &Err) {
  // Single pass: consumed entries are compacted out of argv in place, so
  // the caller's own flag loop runs over what is left.
  int W = 1;
  bool Ok = true;
  auto Value = [&](int &I, const char *Flag, std::string &V) {
    if (I + 1 >= Argc) {
      Err = std::string("flag '") + Flag + "' needs a value";
      Ok = false;
      return false;
    }
    V = Argv[++I];
    return true;
  };
  for (int I = 1; I < Argc && Ok; ++I) {
    std::string A = Argv[I];
    std::string V;
    if (A == "--config") {
      if (!Value(I, "--config", V))
        break;
      Out.Config = V;
    } else if (A == "--jobs") {
      if (!Value(I, "--jobs", V))
        break;
      Out.Jobs = static_cast<unsigned>(std::strtoul(V.c_str(), nullptr, 10));
    } else if (A == "--timeout-ms") {
      if (!Value(I, "--timeout-ms", V))
        break;
      Out.TimeoutMs = std::strtoull(V.c_str(), nullptr, 10);
    } else if (A == "--mem-limit-mb") {
      if (!Value(I, "--mem-limit-mb", V))
        break;
      Out.Opts.MemLimitMb = std::strtoull(V.c_str(), nullptr, 10);
    } else if (A == "--max-retries") {
      if (!Value(I, "--max-retries", V))
        break;
      Out.Opts.MaxRetries =
          static_cast<unsigned>(std::strtoul(V.c_str(), nullptr, 10));
    } else if (A == "--max-refine-steps") {
      if (!Value(I, "--max-refine-steps", V))
        break;
      Out.Opts.MaxRefineSteps = std::strtoull(V.c_str(), nullptr, 10);
    } else if (A == "--chaos-seed") {
      if (!Value(I, "--chaos-seed", V))
        break;
      Out.Opts.ChaosSeed = std::strtoull(V.c_str(), nullptr, 10);
    } else if (A == "--no-incremental") {
      Out.Opts.NoIncremental = true;
    } else if (A == "--verify") {
      Out.Opts.VerifyResult = true;
    } else if (A == "--share-lemmas") {
      Out.Opts.ShareLemmas = true;
    } else if (A == "--share-import-budget") {
      if (!Value(I, "--share-import-budget", V))
        break;
      Out.Opts.ShareImportBudget =
          static_cast<unsigned>(std::strtoul(V.c_str(), nullptr, 10));
    } else if (A == "--isolate") {
      if (!Value(I, "--isolate", V))
        break;
      auto M = parseIsolateMode(V);
      if (!M) {
        Err = "bad --isolate value '" + V + "' (want none|crash)";
        Ok = false;
        break;
      }
      Out.Opts.Isolate = *M;
    } else if (A == "--hard-mem-mb") {
      if (!Value(I, "--hard-mem-mb", V))
        break;
      Out.Opts.HardMemMb = std::strtoull(V.c_str(), nullptr, 10);
    } else if (A == "--hard-cpu-sec") {
      if (!Value(I, "--hard-cpu-sec", V))
        break;
      Out.Opts.HardCpuSec = std::strtoull(V.c_str(), nullptr, 10);
    } else {
      Argv[W++] = Argv[I]; // Not ours: keep for the caller.
      continue;
    }
  }
  if (!Ok) {
    Argc = W;
    return false;
  }
  Argc = W;

  // Lay the engine configuration over the runtime knobs the flag loop
  // above may already have set on Out.Opts.
  if (!Out.Opts.applyConfig(Out.Config)) {
    Err = "unknown configuration '" + Out.Config + "'";
    return false;
  }
  return true;
}
