"""The benchmark's workloads: the config text each one hands the program.

The program receives only the generated text, through the public
`adaptfd.harness.parse_config` + `run_experiment` path.  The benchmark seed
becomes the config `seed` (the Stefan schedule permutation stream; the Newton
workloads do not consume it).  Reference outputs in `refs/` were taken at each
workload's committed seed, the seed `configs/` uses for its problem.

Why each workload is in the benchmark (and why `stefan` and `farfield` are
runnable by hand but not listed in BENCHMARK.json) is recorded in
RATIONALE.md next to this file.  This module imports nothing heavy, so the child process can read
a workload before its set-up clock starts.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# artifacts and other run output go here, inside the checkout (git-ignored)
SCRATCH_DIR = os.path.join(ROOT, ".bench_tmp")


@dataclass(frozen=True)
class Workload:
    name: str
    lines: tuple            # config lines, without the seed
    committed_seed: int     # the seed the reference outputs were taken at
    closed_contours: bool   # every contour must be a closed polyline

    def config_text(self, seed: int) -> str:
        return "\n".join(self.lines + ("seed = %d" % seed,)) + "\n"


_STEFAN = ("preset = stefan", "grid.depth = 7", "time.T = 0.025",
           "time.snapshots = 0.005,0.025")

WORKLOADS = {w.name: w for w in (
    Workload("obstacle",
             ("preset = obstacle", "refine.strategy = boundary",
              "grid.depth = 8"),
             committed_seed=0, closed_contours=True),
    Workload("stefan", _STEFAN + ("refine.strategy = operator",),
             committed_seed=11, closed_contours=True),
    Workload("stefan_fine", _STEFAN + ("refine.strategy = uniform_fine",),
             committed_seed=11, closed_contours=True),
    # the level-0 lines of the far-field solution run out to the walls, so
    # its contours are open by design
    Workload("farfield",
             ("preset = artificial_bc", "domain.side = 200",
              "grid.depth = 13"),
             committed_seed=0, closed_contours=False),
)}
