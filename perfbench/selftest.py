"""Self-test of the benchmark's own checks and span arithmetic.

Run from the root of a checkout: ``python3 perfbench/selftest.py``.  It
builds and simulates one tiny exhaustive-mode code through the CLI, then
requires that the output check accepts the real report and rejects doctored
copies, and that on a synthetic span tree the self times sum to the root
span's wall time.  Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def span_tree_cases() -> list[str]:
    spans = [
        {"name": "root", "parent": None, "start": 0.0, "end": 10.0},
        {"name": "a", "parent": 0, "start": 1.0, "end": 4.0},
        {"name": "a.x", "parent": 1, "start": 2.0, "end": 3.5},
        {"name": "b", "parent": 0, "start": 5.0, "end": 9.0},
        {"name": "b.x", "parent": 3, "start": 5.0, "end": 6.0},
        {"name": "b.y", "parent": 3, "start": 6.0, "end": 9.0},
    ]
    own = tracing.self_times(spans)
    bad = []
    if abs(sum(own) - 10.0) > 1e-12:
        bad.append(f"self times sum to {sum(own)}, root wall is 10.0")
    if [round(v, 12) for v in own] != [3.0, 1.5, 1.5, 0.0, 1.0, 3.0]:
        bad.append(f"self times {own}")
    return bad


def report_cases(root: Path) -> list[str]:
    wl = WORKLOADS["exact_chain"]
    work = root / ".bench_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl.write_spec(work / "channel.json")
    env_argv = [sys.executable, "-m", "macresolve.cli"]
    small = ["--channel", "channel.json", "--out-dir", "out", "--mode", "case2",
             "--idealized", "--n", "2", "--k", "2"]
    try:
        for cmd in ("build", "simulate"):
            subprocess.run(env_argv + [cmd] + small, cwd=work, check=True,
                           env=dict(os.environ, PYTHONPATH=str(root / "src")),
                           stdout=subprocess.DEVNULL)
        text = (work / "out" / "report.json").read_text()
        desc = json.loads((work / "out" / "descriptor.json").read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    def problems(rep: dict) -> list[str]:
        return checks.check_report(json.dumps(rep), desc, wl.spec,
                                   "exhaustive", None)

    real = json.loads(text)
    bad = [f"real report rejected: {p}" for p in problems(real)]

    def doctored(label: str, edit) -> None:
        rep = copy.deepcopy(real)
        edit(rep)
        if not problems(rep):
            bad.append(f"accepted a report with {label}")

    def first_block(rep):
        return next(r for r in rep["metrics"] if r[0] == "block1_output_tv")

    doctored("a changed rate", lambda r: r["rates"]["x"].update(rate="1/3"))
    doctored("a changed rate_float",
             lambda r: r["rates"]["y"].update(rate_float=0.123))
    doctored("a flipped region verdict", lambda r: r["region"]["verdicts"]["1"]
             .update(satisfied=not r["region"]["verdicts"]["1"]["satisfied"]))
    doctored("the wrong mode", lambda r: r.update(mode="mc"))
    doctored("a foreign descriptor hash",
             lambda r: r.update(descriptor_hash="0" * 16))
    doctored("a block TV above the joint TV",
             lambda r: first_block(r).__setitem__(1, 3.0))
    doctored("a non-finite metric",
             lambda r: first_block(r).__setitem__(1, float("nan")))
    doctored("an inverted CI", lambda r: first_block(r).__setitem__(
        slice(2, 6), [0.5, 0.1, None, "mc"]))

    rerun = copy.deepcopy(real)
    first_block(rerun)[1] += 1e-9
    if not checks.check_identical([text, json.dumps(rerun)]):
        bad.append("accepted a non-identical rerun")
    if checks.check_identical([text, text]):
        bad.append("rejected identical reruns")

    ref = checks.reference_entry(text)
    if checks.check_reference(text, ref):
        bad.append("report differs from its own reference")
    if not checks.check_reference(json.dumps(rerun), ref):
        bad.append("accepted an exact value 1e-9 off its reference")
    return bad


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "macresolve" / "cli.py").is_file():
        print("run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    bad = span_tree_cases() + report_cases(root)
    for line in bad:
        print(f"FAIL {line}")
    print("selftest: " + ("ok" if not bad else f"{len(bad)} failures"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
