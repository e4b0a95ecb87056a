//===- examples/mucyc_tool.cpp - Command-line CHC solver ------------------===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The `mucyc` command-line solver: reads an SMT-LIB2 HORN problem or a
// BTOR2 transition system (--format, or auto-detected from the .btor/.btor2
// extension and the content), runs a configuration (paper names, default
// Ret(T,MBP(1))), and prints sat/unsat plus the witness. With --portfolio,
// races a comma-separated list of configurations on the runtime's thread
// pool: the first definitive answer wins and cooperatively cancels the
// rest.
//
// Every path routes through the unified SolveRequest/SolveResponse API
// (runtime/Request.h): single solves and retry-ladder solves are one code
// path now, and --store-dir points the same fingerprint-keyed result store
// the serve daemon uses at a directory, so repeated invocations on
// identical or alpha-renamed systems answer from a Verify-certified cache.
//
//   mucyc <file.smt2|file.btor2> [--format smt2|btor2] [--config NAME]
//         [--timeout-ms N] [--no-preprocess]
//         [--print-solution] [--verify] [--stats] [--store-dir DIR]
//         [--portfolio "CFG1,CFG2,..."] [--jobs N] [--no-incremental]
//         [--mem-limit-mb N] [--max-retries N] [--max-refine-steps N]
//         [--chaos-seed S] [--share-lemmas] [--share-import-budget N]
//         [--isolate none|crash] [--hard-mem-mb N] [--hard-cpu-sec N]
//
// The shared solver flags (--config, --jobs, --timeout-ms, --mem-limit-mb,
// --max-retries, --max-refine-steps, --chaos-seed, --no-incremental,
// --verify, --share-lemmas, --share-import-budget, --isolate,
// --hard-mem-mb, --hard-cpu-sec) are parsed by
// solver/Options.h parseSolverOptions(), the same helper mucyc-fuzz,
// mucyc-serve and mucyc-client use, so flag semantics are identical across
// the tools. --share-lemmas only does something under --portfolio: the
// members exchange core-minimized frame lemmas over a shared bus, each
// re-checking a peer's lemma in its own context before admitting it.
//
// Exit status: 0 solved (sat/unsat), 1 unknown, 2 usage/input error,
// 3 internal error (a diagnostic line is printed; never an uncaught
// std::terminate).
//
//===----------------------------------------------------------------------===//

#include "chc/Parser.h"
#include "runtime/Portfolio.h"
#include "ts/Btor2.h"
#include "runtime/Request.h"
#include "support/Error.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>

using namespace mucyc;

static void usage() {
  std::fprintf(
      stderr,
      "usage: mucyc <file.smt2|file.btor2> [--format smt2|btor2]\n"
      "             [--config NAME] [--timeout-ms N]\n"
      "             [--no-preprocess] [--print-solution] [--verify] "
      "[--stats]\n"
      "             [--store-dir DIR]\n"
      "             [--portfolio \"CFG1,CFG2,...\"] [--jobs N]\n"
      "             [--no-incremental] [--mem-limit-mb N]\n"
      "             [--max-retries N] [--max-refine-steps N] "
      "[--chaos-seed S]\n"
      "             [--share-lemmas] [--share-import-budget N]\n"
      "             [--isolate none|crash] [--hard-mem-mb N]\n"
      "             [--hard-cpu-sec N]\n"
      "configs: Ret(b,cex) | Yld(b,cex) | SpacerTS(fig1|fig15[,Ulev]) |\n"
      "         Naive | NaiveMbp | Solve, optionally wrapped in\n"
      "         Ind(...) Cex(...) Que(...) Mon(...);\n"
      "         b in {T,F}, cex in {Model, QE, MBP(0|1|2)}\n"
      "--portfolio races the listed configs (first sat/unsat answer wins\n"
      "and cancels the rest); --jobs bounds its concurrency (default:\n"
      "one thread per member); --store-dir caches certified answers by\n"
      "the system's canonical fingerprint; --share-lemmas makes the\n"
      "members cooperate by exchanging re-checked frame lemmas;\n"
      "--isolate crash forks each solve attempt into a sandboxed worker\n"
      "process (--hard-mem-mb / --hard-cpu-sec set its OS rlimits) so a\n"
      "crashing engine degrades to a typed unknown and a degraded retry\n"
      "(default: none)\n");
}

static int runMain(int Argc, char **Argv) {
  if (Argc < 2) {
    usage();
    return 2;
  }
  CliOptions Cli;
  std::string CliErr;
  if (!parseSolverOptions(Argc, Argv, Cli, CliErr)) {
    std::fprintf(stderr, "error: %s\n", CliErr.c_str());
    usage();
    return 2;
  }

  std::string Path, Portfolio, StoreDir, FormatArg;
  bool Preprocess = true, PrintSolution = false, Stats = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--portfolio" && I + 1 < Argc)
      Portfolio = Argv[++I];
    else if (A == "--format" && I + 1 < Argc)
      FormatArg = Argv[++I];
    else if (A == "--store-dir" && I + 1 < Argc)
      StoreDir = Argv[++I];
    else if (A == "--no-preprocess")
      Preprocess = false;
    else if (A == "--print-solution")
      PrintSolution = true;
    else if (A == "--stats")
      Stats = true;
    else if (A == "--help") {
      usage();
      return 0;
    } else if (!A.empty() && A[0] == '-') {
      std::fprintf(stderr, "error: unknown flag '%s'\n", A.c_str());
      return 2;
    } else {
      Path = A;
    }
  }
  if (Path.empty()) {
    usage();
    return 2;
  }

  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "error: cannot open '%s'\n", Path.c_str());
    return 2;
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();

  // Input language: explicit --format wins, then the file extension, then
  // a content sniff (BTOR2 node lines start with a numeric id).
  InputFormat Format = InputFormat::Auto;
  if (FormatArg == "smt2")
    Format = InputFormat::SmtLib2;
  else if (FormatArg == "btor2")
    Format = InputFormat::Btor2;
  else if (!FormatArg.empty()) {
    std::fprintf(stderr, "error: bad --format '%s' (smt2|btor2)\n",
                 FormatArg.c_str());
    return 2;
  }
  if (Format == InputFormat::Auto) {
    auto EndsWith = [&](const char *Suffix) {
      size_t N = std::strlen(Suffix);
      return Path.size() >= N && Path.compare(Path.size() - N, N, Suffix) == 0;
    };
    if (EndsWith(".btor2") || EndsWith(".btor"))
      Format = InputFormat::Btor2;
    else if (EndsWith(".smt2"))
      Format = InputFormat::SmtLib2;
    else
      Format = looksLikeBtor2(Buf.str()) ? InputFormat::Btor2
                                         : InputFormat::SmtLib2;
  }

  {
    // Validate the input upfront so malformed files exit 2 (input error)
    // with the parser's diagnostic, not 1 (unknown) out of the solve path.
    TermContext Ctx;
    if (Format == InputFormat::Btor2) {
      Btor2Result BR = parseBtor2(Ctx, Buf.str());
      if (!BR.Ok) {
        std::fprintf(stderr, "error: parse failed. %s\n", BR.Error.c_str());
        return 2;
      }
    } else {
      ParseResult PR = parseChc(Ctx, Buf.str());
      if (!PR.Ok) {
        std::fprintf(stderr, "error: parse failed. %s\n", PR.Error.c_str());
        return 2;
      }
    }
  }

  auto PrintStats = [](const char *Tag, int Depth, double Seconds,
                       const SolveStats &S) {
    std::fprintf(stderr,
                 ";%s depth=%d time=%.3fs smt=%llu cache-hits=%llu "
                 "cache-evicts=%llu pool-retires=%llu mbp=%llu itp=%llu "
                 "refines=%llu retries=%llu\n",
                 Tag, Depth, Seconds,
                 static_cast<unsigned long long>(S.SmtChecks),
                 static_cast<unsigned long long>(S.SmtCacheHits),
                 static_cast<unsigned long long>(S.SmtCacheEvicts),
                 static_cast<unsigned long long>(S.PoolRetires),
                 static_cast<unsigned long long>(S.MbpCalls),
                 static_cast<unsigned long long>(S.ItpCalls),
                 static_cast<unsigned long long>(S.RefineCalls),
                 static_cast<unsigned long long>(S.Retries));
    if (S.LemmasPublished || S.LemmasImported || S.LemmasRejected ||
        S.CoreShrink)
      std::fprintf(stderr,
                   ";%s lemmas: published=%llu imported=%llu rejected=%llu "
                   "core-shrink=%llu\n",
                   Tag, static_cast<unsigned long long>(S.LemmasPublished),
                   static_cast<unsigned long long>(S.LemmasImported),
                   static_cast<unsigned long long>(S.LemmasRejected),
                   static_cast<unsigned long long>(S.CoreShrink));
  };
  // Why an answer is unknown: its typed error, or the refutation that
  // demoted a --verify'd answer.
  auto PrintWhyUnknown = [](const char *Tag, const SolveResponse &R) {
    if (R.Error.isError())
      std::fprintf(stderr, "%s%s\n", Tag, R.Error.describe().c_str());
    if (R.VerifyFailed)
      std::fprintf(stderr, "%sverify-failed: %s\n", Tag,
                   R.VerifyNote.c_str());
  };

  std::unique_ptr<ResultStore> Store;
  if (!StoreDir.empty())
    Store = std::make_unique<ResultStore>(StoreDir);

  SolveRequest Base =
      SolveRequest::fromText(Buf.str(), Cli.Opts, Preprocess, Format);
  Base.DeadlineMs = Cli.TimeoutMs;
  Base.WantSolution = PrintSolution;

  if (!Portfolio.empty()) {
    auto Configs = parseConfigList(Portfolio);
    if (!Configs) {
      std::fprintf(stderr, "error: bad portfolio list '%s'\n",
                   Portfolio.c_str());
      usage();
      return 2;
    }
    for (SolverOptions &O : *Configs) {
      O.VerifyResult = Cli.Opts.VerifyResult;
      O.NoIncremental = Cli.Opts.NoIncremental;
      O.MemLimitMb = Cli.Opts.MemLimitMb;
      O.MaxRetries = Cli.Opts.MaxRetries;
      O.MaxRefineSteps = Cli.Opts.MaxRefineSteps;
      O.ChaosSeed = Cli.Opts.ChaosSeed;
      O.ShareLemmas = Cli.Opts.ShareLemmas;
      O.ShareImportBudget = Cli.Opts.ShareImportBudget;
    }

    PortfolioResult PR2 =
        racePortfolio(Base, *Configs, Cli.Jobs, nullptr, Store.get());
    const SolveResponse *Win = PR2.winner();
    std::printf("%s\n", chcStatusName(Win ? Win->Status : ChcStatus::Unknown));
    if (PrintSolution && Win && Win->Status == ChcStatus::Sat && Win->Ctx)
      std::fputs(Base.Source->solutionText(*Win->Ctx, Win->Invariant).c_str(),
                 stdout);
    if (Stats) {
      std::fprintf(stderr, "; portfolio winner=%s wall=%.3fs shared=%llu\n",
                   Win ? PR2.Members[PR2.WinnerIndex].Config.c_str() : "none",
                   PR2.Seconds,
                   static_cast<unsigned long long>(PR2.SharedLemmas));
      for (size_t I = 0; I < PR2.Members.size(); ++I) {
        const PortfolioMember &M = PR2.Members[I];
        std::fprintf(stderr,
                     ";   %-24s %-8s%s%s %8.3fs smt=%llu attempts=%u"
                     " pub=%llu imp=%llu rej=%llu\n",
                     M.Config.c_str(), chcStatusName(M.Resp.Status),
                     static_cast<int>(I) == PR2.WinnerIndex ? " [winner]" : "",
                     M.Cancelled ? " [cancelled]" : "", M.Resp.Seconds,
                     static_cast<unsigned long long>(M.Resp.Stats.SmtChecks),
                     M.Resp.Attempts,
                     static_cast<unsigned long long>(
                         M.Resp.Stats.LemmasPublished),
                     static_cast<unsigned long long>(
                         M.Resp.Stats.LemmasImported),
                     static_cast<unsigned long long>(
                         M.Resp.Stats.LemmasRejected));
        PrintWhyUnknown(";     error: ", M.Resp);
      }
      PrintStats(" merged", Win ? Win->Depth : 0, PR2.Seconds,
                 PR2.MergedStats);
    }
    if (!Win)
      for (const PortfolioMember &M : PR2.Members)
        PrintWhyUnknown("; unknown: ", M.Resp);
    return Win ? 0 : 1;
  }

  // Single configuration: one unified path for plain solves, retry-ladder
  // solves and store-backed solves.
  SolveResponse Resp = solveRequest(Base, Store.get(), nullptr);
  std::printf("%s\n", chcStatusName(Resp.Status));
  if (PrintSolution && Resp.Status == ChcStatus::Sat)
    std::fputs(Resp.SolutionText.c_str(), stdout);
  if (Stats) {
    if (Resp.Cache != CacheSource::None)
      std::fprintf(stderr, "; cache=%s fingerprint=%s verified=%d\n",
                   cacheSourceName(Resp.Cache), Resp.Fingerprint.c_str(),
                   Resp.CacheVerified ? 1 : 0);
    PrintStats("", Resp.Depth, Resp.Seconds, Resp.Stats);
  }
  PrintWhyUnknown("; unknown: ", Resp);
  return Resp.Status == ChcStatus::Unknown ? 1 : 0;
}

int main(int Argc, char **Argv) {
  // Last-resort error boundary: every failure becomes a one-line
  // diagnostic and a distinct exit status, never an uncaught
  // std::terminate.
  try {
    return runMain(Argc, Argv);
  } catch (const MucycError &E) {
    std::fprintf(stderr, "error: %s\n", E.info().describe().c_str());
    return 3;
  } catch (const std::exception &E) {
    std::fprintf(stderr, "error: uncaught exception: %s\n", E.what());
    return 3;
  } catch (...) {
    std::fprintf(stderr, "error: uncaught non-standard exception\n");
    return 3;
  }
}
