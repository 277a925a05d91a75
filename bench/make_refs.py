"""Regenerate the reference outputs in refs/ at each workload's committed
seed.  Run it only when a change is meant to alter the program's output:

    python3 bench/make_refs.py [WORKLOAD ...]
"""

from __future__ import annotations

import os
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import numpy as np  # noqa: E402

from adaptfd.harness import parse_config, run_experiment  # noqa: E402
from checks import REF_DIR, reference_arrays, reference_path  # noqa: E402
from workloads import SCRATCH_DIR, WORKLOADS  # noqa: E402


def main(names):
    os.makedirs(REF_DIR, exist_ok=True)
    os.makedirs(SCRATCH_DIR, exist_ok=True)
    for name in names or sorted(WORKLOADS):
        w = WORKLOADS[name]
        with tempfile.TemporaryDirectory(dir=SCRATCH_DIR) as out:
            run_experiment(parse_config(w.config_text(w.committed_seed)),
                           out_dir=out)
            np.savez_compressed(reference_path(name), **reference_arrays(out))
        print("wrote reference for", name)


if __name__ == "__main__":
    main(sys.argv[1:])
