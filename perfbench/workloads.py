"""The benchmark's three workloads: channel specs and CLI argument lists.

Each workload is one ``build`` followed by ``simulate`` of the same config
into the same out-dir, with no ``--descriptor`` flag.  The channel spec is
fixed per workload; the workload seed is passed to the program as
``--seed`` and is the only input that varies between runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

# transition rows are ordered over input tuples with x_1 most significant
_ADDER2 = [[1, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, 1]]
_ADDER3 = [[1 if z == a + b + c else 0 for z in range(4)]
           for a in (0, 1) for b in (0, 1) for c in (0, 1)]
_PARALLEL = [[1 if z == 2 * x + y else 0 for z in range(4)]
             for x in (0, 1) for y in (0, 1)]


def _bern(p: float) -> list[float]:
    return [1.0 - p, p]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spec: dict                  # channel spec JSON object
    code_args: tuple[str, ...]  # flags shared by build and simulate
    trials: int | None          # Monte-Carlo trials; None in exhaustive mode
    workers: int                # --workers of the untraced simulate ops
    mode: str                   # expected report "mode"

    def write_spec(self, path: Path) -> None:
        path.write_text(json.dumps(self.spec, sort_keys=True) + "\n")

    def build_argv(self, seed: int) -> list[str]:
        return ["build", "--channel", "channel.json", "--out-dir", "out",
                "--seed", str(seed), *self.code_args]

    def simulate_argv(self, seed: int, workers: int) -> list[str]:
        argv = ["simulate", "--channel", "channel.json", "--out-dir", "out",
                "--seed", str(seed), *self.code_args]
        if self.trials is not None:
            argv += ["--trials", str(self.trials), "--workers", str(workers)]
        return argv


WORKLOADS = {w.name: w for w in (
    Workload(
        "mc_bootstrap",
        "adder MAC, uniform inputs, case 1, N=32 k=5, 16384 trials, 2 workers: "
        "the serial Poisson bootstrap dominates, so it shows bootstrap cost and "
        "the Amdahl limit of --workers",
        {"inputs": [2, 2], "output": 3, "transition": _ADDER2,
         "input_dists": [_bern(0.5), _bern(0.5)]},
        ("--mode", "case1", "--idealized", "--n", "32", "--k", "5"),
        16384, 2, "mc",
    ),
    Workload(
        "mc_longblock",
        "3-user adder, Bern(0.2/0.3/0.4) inputs, multi mode, N=64 k=3, 16384 "
        "trials, 2 workers: polar profiling and SC encoding dominate",
        {"inputs": [2, 2, 2], "output": 4, "transition": _ADDER3,
         "input_dists": [_bern(0.2), _bern(0.3), _bern(0.4)]},
        ("--mode", "multi", "--idealized", "--n", "64", "--k", "3"),
        16384, 2, "mc",
    ),
    Workload(
        "exact_chain",
        "parallel MAC Z=(X,Y), Bern(0.3)/Bern(0.6) inputs, case 2, N=4 k=3: "
        "exhaustive mode at the 2^24-state budget, no Monte-Carlo or SC "
        "sampling",
        {"inputs": [2, 2], "output": 4, "transition": _PARALLEL,
         "input_dists": [_bern(0.3), _bern(0.6)]},
        ("--mode", "case2", "--idealized", "--n", "4", "--k", "3"),
        None, 1, "exhaustive",
    ),
)}
