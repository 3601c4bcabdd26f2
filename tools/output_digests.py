"""Sha256 digests of every output of the benchmark workloads and of corner runs.

Usage: ``python tools/output_digests.py --src TREE``

With ``TREE/src`` on ``PYTHONPATH``, runs each workload of
``perfbench/workloads.py`` (``build``, then ``simulate``) at seeds 0 and 1
with ``--workers 1`` and ``--workers 2``, and ``region`` on each workload's
spec.  On the workloads' uniform adder, with both worker counts, it runs
``sweep --n-list 4,8 --k 2 --idealized --trials 9000`` and the Monte-Carlo
corners of ``simulate --n 4 --k 8 --idealized --trials 9000``: as it is, at
``--n 2``, and with ``--no-recycle``, ``--rec-bits 0`` or ``--window 3``.
On the same adder it runs two exhaustive corners of ``simulate --n 4
--idealized``: ``--mode case1 --k 3``, whose key transition A runs over
R = 7 key bits (exact_chain's has R = 0, a single key), and ``--k 1``.
On the 2-user xor channel with uniform inputs, whose spec it writes itself,
it runs ``simulate --mode multi --idealized --n 8 --k 3``: the emission
table, the codec law C, the key transition A and the carry of that
exhaustive run each have exactly the 2^24 entries of the per-table budget.
On a noisy 2-user channel whose spec it writes itself (every workload
channel is deterministic, so its noise draws reach no output), it runs
``simulate --n 8 --k 3 --idealized --trials 9000`` with both worker counts,
with ``--mode multi`` and in the case 1 that ``auto`` resolves to (off the
adder, where a case-1 plan's float sums depend on the order they are
taken in).  On the exact_chain workload's parallel channel it runs the
idealized ``build --mode case2 --n 4 --k 2`` whose ``--ideal-xi 0.005`` and
``--ideal-delta 0.005`` clamp every hash (exit 3, asymptotic-only plan); on
a noise-free 1-user channel with Bern(0.21) input it runs
``simulate --idealized --n 8 --k 3 --beta 0.05``, whose codec reads one seed
bit more than the plan's fresh bits, so the plan widens them.  Every run
names the exit code each of its commands must give.  Each run has its own
directory of one temporary directory.  Prints one ``sha256  path`` line per
output file, sorted by path, so that the digests of two trees compare with
``diff``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import WORKLOADS  # noqa: E402

SWEEP = ["sweep", "--channel", "channel.json", "--out-dir", "out",
         "--n-list", "4,8", "--k", "2", "--idealized", "--trials", "9000"]
REGION = ["region", "--channel", "channel.json", "--out-dir", "out"]
CORNER = ["simulate", "--channel", "channel.json", "--out-dir", "out",
          "--n", "4", "--k", "8", "--idealized", "--trials", "9000"]
CORNERS = {"mc": [], "mc_n2": ["--n", "2"], "mc_norecycle": ["--no-recycle"],
           "mc_recbits0": ["--rec-bits", "0"], "mc_window3": ["--window", "3"]}
EXACT = ["simulate", "--channel", "channel.json", "--out-dir", "out",
         "--n", "4", "--idealized"]
EXACT_CORNERS = {"exact_case1": ["--mode", "case1", "--k", "3"],
                 "exact_k1": ["--k", "1"]}
XOR = {"inputs": [2, 2], "output": 2,
       "transition": [[1, 0], [0, 1], [0, 1], [1, 0]],
       "input_dists": [[0.5, 0.5], [0.5, 0.5]]}
BUDGET_CORNER = ["simulate", "--channel", "channel.json", "--out-dir", "out",
                 "--mode", "multi", "--idealized", "--n", "8", "--k", "3"]
# binary inputs Bern(0.3) / Bern(0.6), four outputs, no deterministic row
NOISY = {"inputs": [2, 2], "output": 4,
         "transition": [[0.7, 0.1, 0.1, 0.1], [0.1, 0.6, 0.2, 0.1],
                        [0.1, 0.2, 0.6, 0.1], [0.05, 0.05, 0.1, 0.8]],
         "input_dists": [[0.7, 0.3], [0.4, 0.6]]}
NOISY_CORNER = ["simulate", "--channel", "channel.json", "--out-dir", "out",
                "--n", "8", "--k", "3", "--idealized", "--trials", "9000"]
NOISY_MODES = {"noisy": ["--mode", "multi"], "noisy_case1": []}  # auto: case 1
CLAMPED_BUILD = ["build", "--channel", "channel.json", "--out-dir", "out",
                 "--mode", "case2", "--n", "4", "--k", "2", "--idealized",
                 "--ideal-xi", "0.005", "--ideal-delta", "0.005"]
IDENTITY = {"inputs": [2], "output": 2, "transition": [[1, 0], [0, 1]],
            "input_dists": [[0.79, 0.21]]}
WIDENED = ["simulate", "--channel", "channel.json", "--out-dir", "out",
           "--idealized", "--n", "8", "--k", "3", "--beta", "0.05",
           "--trials", "1000"]


def _run(src: Path, cwd: Path, argv: list[str], code: int) -> None:
    proc = subprocess.run([sys.executable, "-m", "macresolve.cli", *argv],
                          cwd=cwd, env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True)
    if proc.returncode != code:
        raise SystemExit(f"{cwd.name}: {' '.join(argv)} exited "
                         f"{proc.returncode}, not {code}\n{proc.stderr}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", type=Path, required=True,
                   help="root of the tree to run, the one holding src/macresolve")
    src = p.parse_args(argv).src.resolve() / "src"
    with tempfile.TemporaryDirectory() as tmp:
        adder = WORKLOADS["mc_bootstrap"].spec
        # (directory, channel spec, commands, exit code of each command)
        runs = [(f"{name}_seed{seed}_w{workers}", wl.spec,
                 [wl.build_argv(seed), wl.simulate_argv(seed, workers)], 0)
                for name, wl in WORKLOADS.items()
                for seed in (0, 1) for workers in (1, 2)]
        runs += [(f"{name}_region", wl.spec, [REGION], 0)
                 for name, wl in WORKLOADS.items()]
        runs += [(f"sweep_w{workers}", adder,
                  [SWEEP + ["--workers", str(workers)]], 0)
                 for workers in (1, 2)]
        runs += [(f"{tag}_w{workers}", adder,
                  [CORNER + flags + ["--workers", str(workers)]], 0)
                 for tag, flags in CORNERS.items() for workers in (1, 2)]
        runs += [(tag, adder, [EXACT + flags], 0)
                 for tag, flags in EXACT_CORNERS.items()]
        runs += [("exact_budget_xor", XOR, [BUDGET_CORNER], 0)]
        runs += [(f"{tag}_w{workers}", NOISY,
                  [NOISY_CORNER + flags + ["--workers", str(workers)]], 0)
                 for tag, flags in NOISY_MODES.items() for workers in (1, 2)]
        runs += [("clamped_build", WORKLOADS["exact_chain"].spec,
                  [CLAMPED_BUILD], 3),
                 ("widened", IDENTITY, [WIDENED], 0)]
        for tag, spec, argvs, code in runs:
            cwd = Path(tmp, tag)
            cwd.mkdir()   # the bytes of ``Workload.write_spec``
            (cwd / "channel.json").write_text(json.dumps(spec, sort_keys=True)
                                              + "\n")
            for cmd in argvs:
                _run(src, cwd, cmd, code)
        for path in sorted(Path(tmp).glob("*/out/*")):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(tmp)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
