"""adaptfd benchmark: one workload, measured end to end or traced per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every measured run is a fresh `python3 bench/child.py` process, started one
at a time from the root of the checkout, writing its artifacts to a
temporary directory under `.bench_tmp/`.

--trace 0  three set-up-only processes, then untraced runs while at least
           half of another run still fits in S seconds (at least one).
           Reports the largest run_cpu_s of those runs and the medians of
           peak_rss_mb and setup_s (set-up is sampled by every process), and
           prints the median of run_s.
--trace 1  one untraced run and two traced runs; reports the per-layer
           metrics of bench/layer_trace.py (times averaged over the two
           traced runs, counters required to be equal in both) and the
           tracing overhead in CPU time against the untraced run.

Human-readable lines come first; the last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.  A run fails when
run_experiment raises or an output check in bench/checks.py fails; fail_rate
is failed / attempted.  A benchmark that cannot start the program (say,
`src/adaptfd` is missing) exits with status 1 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from layer_trace import EXACT, METRICS
from workloads import ROOT, SCRATCH_DIR, WORKLOADS

CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
SETUP_PROBES = 3
TRACED_RUNS = 2
# every process is stopped well inside the 180 s a benchmark run may take
DEADLINE_S = 170.0

# run_s (wall time) is printed but not reported: on a virtual machine whose
# host is shared, the time other tenants take moves it by up to a third
# from minute to minute, several times as much as it moves CPU time
END_TO_END = {"run_cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


def child(workload, seed, mode, deadline):
    """Run one child process to completion and return its JSON report."""
    os.makedirs(SCRATCH_DIR, exist_ok=True)
    out = tempfile.mkdtemp(prefix=workload + "-", dir=SCRATCH_DIR)
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, CHILD, "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--out", out]
    try:
        # run() kills the child on timeout and waits for it to end
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError("a %s process of %s passed the time limit"
                         % (mode, workload))
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError("a %s process of %s exited with status %d"
                         % (mode, workload, proc.returncode))
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    for msg in report.get("failures", ()):
        print("FAILED CHECK %s seed %d: %s" % (workload, seed, msg),
              file=sys.stderr)
    return report


def end_to_end(workload, seed, seconds, deadline):
    setups = [child(workload, seed, "setup", deadline)["setup_s"]
              for _ in range(SETUP_PROBES)]
    runs = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        r = child(workload, seed, "run", deadline)
        runs.append(r)
        print("  run %d: run_s %.4f run_cpu_s %.4f peak_rss_mb %.1f "
              "setup_s %.4f" % (len(runs), r["run_s"], r["run_cpu_s"],
                                r["peak_rss_mb"], r["setup_s"]))
        now = time.monotonic()
        # start another run while at least half of one still fits
        if now - start + 0.5 * (now - t0) > seconds \
                or now + (now - t0) > deadline:
            break
    # the slowest run, not the median: the shared host is mostly loaded, and
    # the program's CPU time under that load is steady, while the spells in
    # which the host frees up come at random and run it up to 1.8x faster,
    # so the median and the minimum depend on how many spells a window caught
    metrics = {"run_cpu_s": max(r["run_cpu_s"] for r in runs),
               "peak_rss_mb": statistics.median(r["peak_rss_mb"]
                                                for r in runs)}
    metrics["setup_s"] = statistics.median(
        setups + [r["setup_s"] for r in runs])
    print("%s seed %d: %d untraced runs, %d set-up samples"
          % (workload, seed, len(runs), len(setups) + len(runs)))
    print("%-34s %16.6g s" % ("run_s", statistics.median(
        r["run_s"] for r in runs)))
    return metrics, END_TO_END, runs


def per_layer(workload, seed, deadline):
    base = child(workload, seed, "run", deadline)
    traced = [child(workload, seed, "trace", deadline)
              for _ in range(TRACED_RUNS)]
    layers = [t.get("layers", {}) for t in traced]
    metrics = {}
    for name in METRICS:
        if name == "trace.overhead":
            continue
        values = [lay.get(name, 0) for lay in layers]
        if name in EXACT:
            metrics[name] = values[0]
            if any(v != values[0] for v in values):
                # README promises bitwise-identical reruns for a seed
                traced[-1]["failures"].append(
                    "counter %s differs between runs: %s" % (name, values))
                print("FAILED CHECK %s seed %d: counter %s differs between "
                      "runs: %s" % (workload, seed, name, values),
                      file=sys.stderr)
        else:
            metrics[name] = statistics.median(values)
    metrics["trace.overhead"] = statistics.median(
        t["run_cpu_s"] for t in traced) / base["run_cpu_s"] - 1.0
    print("%s seed %d: 1 untraced run, %d traced runs"
          % (workload, seed, TRACED_RUNS))
    return metrics, METRICS, [base] + traced


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "adaptfd", "__init__.py")):
        print("benchmark: no src/adaptfd under %s" % ROOT, file=sys.stderr)
        return 1
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            metrics, units, runs = per_layer(args.workload, args.seed,
                                             deadline)
        else:
            metrics, units, runs = end_to_end(args.workload, args.seed,
                                              args.seconds, deadline)
    except BenchError as exc:
        print("benchmark: %s" % exc, file=sys.stderr)
        return 1
    finally:
        with contextlib.suppress(OSError):
            os.rmdir(SCRATCH_DIR)      # only when empty
    failed = sum(1 for r in runs if r["failures"])
    for name, value in metrics.items():
        print("%-34s %16.6g %s" % (name, value, units[name]))
    print("%-34s %16.6g %s" % ("fail_rate", failed / len(runs), "ratio"))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(runs), "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
