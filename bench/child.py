"""One measured benchmark process: set up, optionally run one experiment,
check its outputs, and print one JSON line of measurements.

    python3 bench/child.py --workload NAME --seed N --mode setup|run|trace \
        --out DIR

`setup` stops after `import adaptfd` + `parse_config`; `run` also times one
untraced `run_experiment`; `trace` runs it under the per-layer tracer.  Each
measured run gets its own process so that set-up time and peak resident set
are those of a fresh interpreter.  The JSON line is the last line of stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time

# pinned before numpy is imported: runs are sequential on a small machine,
# and BLAS threads would make CPU and wall time depend on its load
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

from workloads import WORKLOADS  # noqa: E402  (no heavy imports)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    workload = WORKLOADS[args.workload]
    text = workload.config_text(args.seed)

    # CPU time, like run_cpu_s: wall time here mostly measures how much of
    # the machine other tenants of its host take at the moment
    t0 = time.process_time()
    import adaptfd  # noqa: F401
    from adaptfd.harness import parse_config, run_experiment
    cfg = parse_config(text)
    report = {"setup_s": time.process_time() - t0}
    if args.mode == "setup":
        print(json.dumps(report))
        return

    import resource
    import traceback

    import checks
    import layer_trace

    tracer = layer_trace.Tracer()
    scope = (layer_trace.installed(tracer) if args.mode == "trace"
             else contextlib.nullcontext())
    results = None
    failures = []
    try:
        with scope:
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                results = run_experiment(cfg, out_dir=args.out)
            finally:
                report["run_s"] = time.perf_counter() - w0
                report["run_cpu_s"] = time.process_time() - c0
    except Exception as exc:  # a failed run is counted, not fatal
        traceback.print_exc()
        failures.append("run_experiment raised %s: %s"
                        % (type(exc).__name__, exc))
    report["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if results is not None:
        failures += checks.check_outputs(workload, args.seed, results,
                                         args.out)
        if args.mode == "trace":
            report["layers"] = layer_trace.layer_metrics(
                tracer, results, report["run_s"])
    report["failures"] = failures
    print(json.dumps(report))


if __name__ == "__main__":
    main()
