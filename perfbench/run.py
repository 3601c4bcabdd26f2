"""Benchmark for the macresolve CLI: build + simulate on three fixed workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload mc_bootstrap --seed 0 --seconds 20 --trace 0

With ``--trace 0`` the run times ``build`` at least three times and for at
least three seconds (``setup_s`` is their median), then runs ``simulate`` back to back, each op a fresh CLI process,
until ``--seconds`` of simulate time have passed, and reports the end-to-end
metrics.  With ``--trace 1`` it runs one traced ``build`` and, on the same
descriptor, one untraced ``simulate`` with the workload's worker count, one
untraced (unless that count is already one) and one traced ``simulate`` with
one worker; it reports the per-layer metrics of ``tracing.PER_LAYER``.
Every op's output is checked (``checks.py``); at seed 0 the report is also
compared with ``reference.json``.  The last line of standard output is the
result JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REFERENCE_SEED = 0
SETUP_REPEATS = 3        # builds per run at least, and ...
SETUP_SECONDS = 3.0      # ... until this much build time, so fast builds repeat more
RUN_LIMIT_S = 170.0      # every op must end within this much of the run start
RSS_POLL_S = 0.02
PAGE_KIB = os.sysconf("SC_PAGE_SIZE") // 1024


# -- running one CLI op -------------------------------------------------------------


def _tree_rss_kib(pid: int) -> int:
    """Summed resident set size of a process and its descendants.

    Read from ``statm``, which costs microseconds; ``smaps_rollup`` would give
    proportional sizes but walks the page tables under the target's mmap lock.
    """
    total, todo = 0, [pid]
    while todo:
        p = todo.pop()
        try:
            with open(f"/proc/{p}/statm") as f:
                total += int(f.read().split()[1]) * PAGE_KIB
            with open(f"/proc/{p}/task/{p}/children") as f:
                todo.extend(int(c) for c in f.read().split())
        except (OSError, ValueError):
            continue  # the process ended between listing and reading
    return total


class Op:
    """Wall time, exit code and peak memory of one finished CLI process."""

    def __init__(self, argv: list[str], cwd: Path, env: dict, timeout: float):
        peak = [0]
        done = threading.Event()
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, start_new_session=True,
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)

        def sample():
            while not done.wait(RSS_POLL_S):
                peak[0] = max(peak[0], _tree_rss_kib(proc.pid))

        sampler = threading.Thread(target=sample, daemon=True)
        sampler.start()
        killer = threading.Timer(max(timeout, 0.0), _kill_group, (proc.pid,))
        killer.start()
        try:
            self.stderr = proc.stderr.read().decode(errors="replace")
            _, status, usage = os.wait4(proc.pid, 0)
            self.wall_s = time.perf_counter() - start
        finally:
            killer.cancel()
            done.set()
            sampler.join()
            proc.stderr.close()
        proc.returncode = self.rc = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)   # pool workers orphaned by a killed parent
        # ru_maxrss is exact for the largest single process of the tree
        self.peak_rss_mb = max(peak[0], usage.ru_maxrss) / 1024.0


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


# -- the run ------------------------------------------------------------------------


class Run:
    def __init__(self, root: Path, workload, seed: int, work: Path):
        self.wl = workload
        self.seed = seed
        self.work = work
        self.start = time.perf_counter()
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.reports: list[str] = []
        self.descriptor: str | None = None
        work.mkdir(parents=True)
        workload.write_spec(work / "channel.json")

    def op(self, cli_argv: list[str], spans: Path | None = None) -> Op:
        if spans is None:
            argv = [sys.executable, "-m", "macresolve.cli", *cli_argv]
        else:
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans), "--",
                    *cli_argv]
        remaining = RUN_LIMIT_S - (time.perf_counter() - self.start)
        op = Op(argv, self.work, self.env, remaining)
        self.attempted += 1
        return op

    def _fail(self, what: str, problems: list[str], op: Op | None = None) -> None:
        if problems:
            self.failed += 1
            tail = op.stderr.strip().splitlines()[-1:] if op else []
            self.problems.extend(f"{what}: {p}" for p in problems + tail)

    def _read(self, name: str) -> str | None:
        path = self.work / "out" / name
        return path.read_text() if path.exists() else None

    def build(self, spans: Path | None = None) -> Op:
        op = self.op(self.wl.build_argv(self.seed), spans)
        text = self._read("descriptor.json")
        self._fail("build", checks.check_build(op.rc, text), op)
        if self.descriptor is None:
            self.descriptor = text
        elif text != self.descriptor:
            self._fail("build", ["rebuilt descriptor.json differs"])
        return op

    def simulate(self, workers: int, spans: Path | None = None) -> Op:
        report = self.work / "out" / "report.json"
        report.unlink(missing_ok=True)
        op = self.op(self.wl.simulate_argv(self.seed, workers), spans)
        text = self._read("report.json")
        if op.rc != 0 or text is None:
            self._fail("simulate", [f"exited {op.rc}" if op.rc
                                    else "no report.json written"], op)
            return op
        if self.descriptor is None:
            self._fail("simulate", ["no descriptor to check the report against"])
            return op
        problems = checks.check_report(text, json.loads(self.descriptor),
                                       self.wl.spec, self.wl.mode, self.wl.trials)
        self._fail("simulate", problems, op)
        self.reports.append(text)
        return op

    def over_time(self) -> bool:
        return time.perf_counter() - self.start > RUN_LIMIT_S

    def finish_checks(self, reference: dict | None) -> None:
        """Cross-op checks; each op whose report is off counts as failed."""
        if not self.reports:
            return
        problems = checks.check_identical(self.reports)
        self.problems += problems
        self.failed += sum(r != self.reports[0] for r in self.reports)
        if reference is not None:
            problems = checks.check_reference(self.reports[0], reference)
            self.problems += [f"reference: {p}" for p in problems]
            self.failed += bool(problems)
        self.failed = min(self.failed, self.attempted)


def _timing(values: list[float]) -> dict:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    out = {"median": statistics.median(values), "samples": len(values),
           "values": values}
    p = math.floor(100 * (1 - 10 / len(values)))
    if p > 50:   # needs at least 21 samples; a run usually has fewer
        cut = statistics.quantiles(values, n=100, method="inclusive")
        out[f"p{p}"] = cut[p - 1]
    return out


def run_plain(run: Run, seconds: float, workers: int) -> tuple[dict, dict]:
    setup: list[float] = []
    while (len(setup) < SETUP_REPEATS or sum(setup) < SETUP_SECONDS) \
            and not run.over_time():
        setup.append(run.build().wall_s)
    sims: list[Op] = []
    spent = 0.0
    while (not sims or spent < seconds) and not run.over_time():
        op = run.simulate(workers)
        sims.append(op)
        spent += op.wall_s
        if op.rc != 0:
            break
    sim_s = [o.wall_s for o in sims]
    metrics = {
        "simulate_s": (statistics.median(sim_s), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(o.peak_rss_mb for o in sims), "MB"),
    }
    detail = {"simulate_s": _timing(sim_s), "setup_s": _timing(setup),
              "peak_rss_mb": [o.peak_rss_mb for o in sims]}
    if run.wl.trials is not None:
        detail["trials_per_s"] = run.wl.trials / statistics.median(sim_s)
    return metrics, detail


def run_traced(run: Run, workers: int) -> tuple[dict, dict]:
    b_spans, s_spans = run.work / "build_spans.json", run.work / "sim_spans.json"
    build = run.build(spans=b_spans)
    plain = run.simulate(workers)
    one = plain if workers == 1 else run.simulate(1)
    traced = run.simulate(1, spans=s_spans)
    if not (b_spans.exists() and s_spans.exists()):
        run.problems.append("traced ops wrote no spans")
        return {}, {}
    values = tracing.layer_metrics(json.loads(b_spans.read_text()),
                                   json.loads(s_spans.read_text()),
                                   traced.wall_s, one.wall_s)
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    metrics = {name: (values[name], units[name]) for name, _, _ in tracing.PER_LAYER}
    detail = {"build_traced_s": build.wall_s, "simulate_s": plain.wall_s,
              "simulate_1worker_s": one.wall_s, "simulate_traced_s": traced.wall_s}
    return metrics, detail


# -- environment and entry point ------------------------------------------------------


def _blas_threads():
    import ctypes
    import glob

    import numpy as np

    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        dll = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, name, None)
            if fn is not None:
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")


def environment(root: Path, args) -> dict:
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (root / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True)
        commit = res.stdout.strip() or None
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas_threads": _blas_threads(),
            "commit": commit, "source_sha256": digest.hexdigest()[:16],
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=REFERENCE_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-reference", action="store_true",
                   help="store this run's report as the reference for its "
                        "workload (seed 0 only)")
    args = p.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "macresolve" / "cli.py").is_file():
        print(f"no macresolve sources under {root / 'src'}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    if args.record_reference and args.seed != REFERENCE_SEED:
        print(f"--record-reference needs --seed {REFERENCE_SEED}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    wl = WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))
    workers = min(wl.workers, nproc)
    ref_path = HERE / "reference.json"
    refs = json.loads(ref_path.read_text()) if ref_path.exists() else {}
    reference = refs.get(wl.name) if args.seed == REFERENCE_SEED else None

    work = root / ".bench_work" / f"{wl.name}-s{args.seed}-t{args.trace}-{os.getpid()}"
    run = Run(root, wl, args.seed, work)
    try:
        if args.trace:
            metrics, detail = run_traced(run, workers)
        else:
            metrics, detail = run_plain(run, args.seconds, workers)
        run.finish_checks(None if args.record_reference else reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    correct = not run.problems and bool(metrics)
    if args.record_reference and correct:
        refs[wl.name] = checks.reference_entry(run.reports[0])
        ref_path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")

    detail.update(error_rate=run.failed / max(run.attempted, 1),
                  workers=workers, reference_checked=reference is not None,
                  problems=run.problems, environment=environment(root, args))
    results = root / ".bench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{wl.name}-s{args.seed}-t{args.trace}.json"
    (results / name).write_text(json.dumps(
        {"metrics": metrics, "detail": detail}, indent=1, sort_keys=True) + "\n")
    for problem in run.problems:
        print(f"FAILED CHECK {problem}", file=sys.stderr)
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
