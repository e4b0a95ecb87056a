#!/usr/bin/env python3
"""End-to-end benchmark of the mucyc CHC solver.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload fig2|btor2|serve --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds the solver library and the two benchmark programs from source into
.bench_build/perfbench (CMake, Release, assertions kept), runs one workload
and prints, as the last line of stdout, one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`:

  --trace 0  every end-to-end metric, from the untraced binary;
  --trace 1  every per-layer metric, from the traced binary (library entry
             points interposed at link time), after an untraced run of the
             same seed that trace.overhead_ratio is taken against.

The line before it holds diagnostics: the work digest, per-configuration
results, tail percentiles with their sample counts, set-up samples, and the
run's wall, CPU and host steal seconds. See perfbench/README.md.

Exit status: 0; 1 when a definitive verdict contradicts ground truth (the
result line still prints, with "correct": false); 2 when the sources are
missing, the build fails or a benchmark binary fails (no result line).
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUNS = os.path.join(ROOT, ".bench_build", "run")

WORKLOADS = ("fig2", "btor2", "serve")


def metric_units(kind):
    """name -> unit of the 'end_to_end' or 'per_layer' list of BENCHMARK.json."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
        return {m["name"]: m["unit"] for m in spec[kind]}
    except (OSError, ValueError, KeyError, TypeError) as e:
        fail("cannot read the %s metrics from %s: %s" % (kind, path, e))


# A run must end within 180 s (not counting a first build): the programs
# it runs share this budget.
RUN_BUDGET_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no solver sources under %s/src" % ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cfg = subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    made = subprocess.run(
        ["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets,
        stdout=sys.stderr, stderr=sys.stderr)
    if made.returncode != 0:
        fail("build failed")


def run_binary(binary, args, trace, deadline):
    run_dir = os.path.join(RUNS, "%s-%d-%d" % (args.workload, args.seed,
                                               os.getpid()))
    os.makedirs(run_dir, exist_ok=True)
    cmd = [os.path.join(BUILD, binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace), "--run-dir", os.path.relpath(run_dir, ROOT)]
    # Its own process group: the program starts one process per pass (and
    # serve's daemon forks workers), and a timeout must stop all of them.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("%s did not finish within the run's %d s" % (binary,
                                                          RUN_BUDGET_S))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail("%s exited with %d" % (binary, proc.returncode))
    return json.loads(lines[-1])


def diagnostics(report):
    keys = ("workload", "seed", "passes", "digest", "failures", "configs",
            "tails", "pass_s", "setup_samples_s", "timed_s", "request_s", "engine_share",
            "noise")
    return {k: report[k] for k in keys if k in report}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own unit tests")
    args = ap.parse_args()

    if args.selftest:
        build(["perfbench_tests"])
        sys.exit(subprocess.run([os.path.join(BUILD, "perfbench_tests")])
                 .returncode)
    if not args.workload:
        ap.error("--workload is required")

    # The traced program is built only when asked for, so a change to an
    # interposed entry point's signature can never stop the end-to-end runs.
    build(["perfbench"] + (["perfbench_traced"] if args.trace else []))
    deadline = time.monotonic() + RUN_BUDGET_S
    plain = run_binary("perfbench", args, 0, deadline)
    reports = [plain]
    if args.trace == 0:
        values = plain["e2e"]
        units = metric_units("end_to_end")
    else:
        traced = run_binary("perfbench_traced", args, 1, deadline)
        reports.append(traced)
        layers = traced["layers"]
        # Summed request time, so the traced run's audit re-verification
        # (outside the requests) does not count as tracing overhead.
        layers["trace.overhead_ratio"] = [
            traced["request_s"] / plain["request_s"], traced["attempted"]]
        values = {k: v[0] for k, v in layers.items()}
        units = metric_units("per_layer")
        diag = diagnostics(traced)
        diag["layer_samples"] = {k: layers[k][1] for k in units
                                 if k in layers}
        diag["untraced_request_s"] = plain["request_s"]
        print(json.dumps({"diagnostics": diag}))
    if args.trace == 0:
        print(json.dumps({"diagnostics": diagnostics(plain)}))

    missing = [k for k in units if k not in values]
    if missing:
        fail("benchmark binary did not report " + ", ".join(missing))
    last = reports[-1]
    result = {
        "correct": all(r["wrong"] == 0 for r in reports),
        "attempted": last["attempted"],
        "failed": last["failed"],
        "metrics": {k: {"value": values[k], "unit": u}
                    for k, u in units.items()},
    }
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
