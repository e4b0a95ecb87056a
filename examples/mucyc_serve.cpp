//===- examples/mucyc_serve.cpp - Persistent solving daemon ---------------===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The mucyc-serve daemon: accepts CHC solve jobs over the length-prefixed
// frame protocol (runtime/Serve.h), on a UNIX domain socket or stdio, and
// answers them through the unified SolveRequest/SolveResponse API with the
// two-tier result store in front. Identical or alpha-renamed resubmissions
// return a Verify-certified cached answer without touching an engine; a
// crashing job degrades to an `unknown` response and the daemon survives.
//
//   mucyc-serve --socket PATH [--store-dir DIR] [shared solver flags]
//   mucyc-serve --stdio       [--store-dir DIR] [shared solver flags]
//
// Shared solver flags (solver/Options.h parseSolverOptions): --config,
// --jobs, --timeout-ms (the default per-request deadline), --mem-limit-mb,
// --max-retries, --max-refine-steps, --chaos-seed, --no-incremental,
// --verify, --isolate, --hard-mem-mb, --hard-cpu-sec. Per-request headers
// override them. Unlike the offline tools the daemon defaults to
// --isolate crash: one crashing job must never take down the service.
//
// Overload hardening: --max-pending bounds the scheduler queue (excess
// solves get a typed "overloaded" frame), --max-connections caps
// concurrent clients, --read-stall-ms / --idle-timeout-ms disconnect
// slow-loris half-frames and idle connections. --chaos-plan injects
// deterministic service-boundary faults (see support/Fault.h), e.g.
// "kill-worker=7,tear-store=5@64" for the CI crash leg.
//
// Exit status: 0 clean shutdown, 1 socket error, 2 usage error.
//
//===----------------------------------------------------------------------===//

#include "runtime/Serve.h"
#include "support/Fault.h"

#include <csignal>
#include <cstdio>
#include <cstring>

using namespace mucyc;

static ServeDaemon *TheDaemon = nullptr;

static void onSignal(int) {
  if (TheDaemon)
    TheDaemon->stop(); // Atomic stores + shutdown/close only: signal-safe.
}

static void usage() {
  std::fprintf(
      stderr,
      "usage: mucyc-serve (--socket PATH | --stdio) [--store-dir DIR]\n"
      "                   [--max-frame-bytes N] [--config NAME] [--jobs N]\n"
      "                   [--timeout-ms N] [--mem-limit-mb N]\n"
      "                   [--max-retries N] [--max-refine-steps N]\n"
      "                   [--chaos-seed S] [--no-incremental] [--verify]\n"
      "                   [--isolate none|crash] [--hard-mem-mb N]\n"
      "                   [--hard-cpu-sec N] [--max-pending N]\n"
      "                   [--max-connections N] [--read-stall-ms N]\n"
      "                   [--idle-timeout-ms N] [--chaos-plan SPEC]\n"
      "--timeout-ms is the default per-request deadline; request headers\n"
      "override the shared solver flags per job. The daemon defaults to\n"
      "--isolate crash (pass --isolate none for in-process execution).\n"
      "--chaos-plan injects deterministic service faults, e.g.\n"
      "  kill-worker=7,tear-store=5@64,short-write=9\n");
}

int main(int Argc, char **Argv) {
  CliOptions Cli;
  Cli.TimeoutMs = 0; // A service default of "no deadline"; jobs opt in.
  // The daemon's blast-radius default: fork each cold engine run so a
  // crashing job degrades to a typed unknown instead of killing the
  // service. --isolate none restores in-process execution.
  Cli.Opts.Isolate = IsolateMode::Crash;
  std::string Err;
  if (!parseSolverOptions(Argc, Argv, Cli, Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    usage();
    return 2;
  }

  ServeOptions SO;
  SO.Jobs = Cli.Jobs;
  SO.BaseOpts = Cli.Opts;
  SO.DefaultDeadlineMs = Cli.TimeoutMs;
  bool Stdio = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--socket" && I + 1 < Argc)
      SO.SocketPath = Argv[++I];
    else if (A == "--store-dir" && I + 1 < Argc)
      SO.StoreDir = Argv[++I];
    else if (A == "--max-frame-bytes" && I + 1 < Argc)
      SO.MaxFrameBytes = std::strtoull(Argv[++I], nullptr, 10);
    else if (A == "--max-pending" && I + 1 < Argc)
      SO.MaxPending =
          static_cast<unsigned>(std::strtoul(Argv[++I], nullptr, 10));
    else if (A == "--max-connections" && I + 1 < Argc)
      SO.MaxConnections =
          static_cast<unsigned>(std::strtoul(Argv[++I], nullptr, 10));
    else if (A == "--read-stall-ms" && I + 1 < Argc)
      SO.ReadStallMs = std::atoi(Argv[++I]);
    else if (A == "--idle-timeout-ms" && I + 1 < Argc)
      SO.IdleTimeoutMs = std::atoi(Argv[++I]);
    else if (A == "--chaos-plan" && I + 1 < Argc) {
      std::string PlanErr;
      if (!ServiceFaultPlan::global().parse(Argv[++I], PlanErr)) {
        std::fprintf(stderr, "error: %s\n", PlanErr.c_str());
        usage();
        return 2;
      }
    } else if (A == "--stdio")
      Stdio = true;
    else if (A == "--help") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "error: unknown flag '%s'\n", A.c_str());
      usage();
      return 2;
    }
  }
  if (Stdio == !SO.SocketPath.empty()) {
    std::fprintf(stderr, "error: need exactly one of --socket / --stdio\n");
    usage();
    return 2;
  }

  try {
    ServeDaemon Daemon(std::move(SO));
    TheDaemon = &Daemon;
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    int Rc = Stdio ? Daemon.runStdio() : Daemon.runSocket();
    TheDaemon = nullptr;
    return Rc;
  } catch (const std::exception &E) {
    std::fprintf(stderr, "error: %s\n", E.what());
    return 1;
  }
}
