"""Experiment driver: region | build | simulate | sweep.

Every output is a pure function of (config, seed): reports embed the config
and descriptor hashes, JSON is written with sorted keys, Monte-Carlo trials
are chunked by fixed trial index with one child generator per chunk, and
each chunk returns fixed-size integer-valued count tables that the caller
only adds up, so byte-identical results hold across reruns and across worker
counts.  ``--workers`` threads (at most one per chunk and per core) hold the
GIL between a chunk's many small numpy calls (README, "Performance").

Exit codes: 0 success, 2 infeasible rate target, 3 asymptotic-only plan
(clamped hash lengths at this N); a code over the exhaustive budget runs
Monte Carlo instead.
Set RESOLVE_LOG=DEBUG|INFO|WARNING for verbosity.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from . import encoder, evaluator
from .probcore import (Dist, InfeasibleTargetError, channel_to_json,
                        load_channel_file, make_rng, read_json_file)

log = logging.getLogger("macresolve")

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_ASYMPTOTIC_ONLY = 3

CHUNK_TRIALS = 8192
ROW_HEADER = ["name", "value", "ci_lo", "ci_hi", "samples", "mode"]


@dataclass
class ExperimentConfig:
    """Resolved experiment parameters; hashing this pins provenance."""

    channel: str
    mode: str = "auto"
    n: int = 8
    k: int = 2
    xi: float = 0.05
    beta: float = 0.25
    target_r1: float | None = None
    eps: float | None = None
    trials: int = 10000
    seed: int = 0
    idealized: bool = False
    ideal_xi: float = 0.0
    ideal_delta: float = 0.0
    order: tuple[int, ...] | None = None
    window: int = 2
    rec_bits: int = 3
    recycle: bool = True
    workers: int = 1
    out_dir: str = "out"

    def validate(self):
        if self.n < 1 or self.n & (self.n - 1):
            raise ValueError(f"--n must be a positive power of two, got {self.n}")
        for name in ("k", "workers"):
            if getattr(self, name) < 1:
                raise ValueError(f"--{name} must be >= 1")
        if self.trials < 1000:
            raise ValueError(f"--trials must be >= 1000 for stable estimates, "
                             f"got {self.trials}")
        if not 0 < self.xi < math.inf:   # --xi is never set with --idealized
            raise ValueError(f"--xi must be finite and > 0, got {self.xi}")
        for name in ("ideal_xi", "ideal_delta"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"--{name.replace('_', '-')} must be finite "
                                 f"and >= 0, got {getattr(self, name)}")
        if not 0 < self.beta < 0.5:
            raise ValueError("--beta must be in (0, 1/2)")
        if self.eps is not None and not 0 <= self.eps <= 1:
            raise ValueError("--eps must be in [0, 1]")
        if not 1 <= self.window <= 3:
            raise ValueError("--window must be in 1..3")
        if self.rec_bits < 0:
            raise ValueError(f"--rec-bits must be >= 0, got {self.rec_bits}")
        if self.seed < 0:
            raise ValueError(f"--seed must be >= 0, got {self.seed}")
        if self.target_r1 is not None and not math.isfinite(self.target_r1):
            raise ValueError(f"--target-r1 must be finite, got {self.target_r1}")

    _BUILD_FIELDS = ("channel", "mode", "n", "k", "xi", "beta", "target_r1",
                     "eps", "seed", "idealized", "ideal_xi", "ideal_delta",
                     "order")
    _SIM_FIELDS = _BUILD_FIELDS + ("trials", "window", "rec_bits", "recycle")

    @cached_property
    def _spec(self):
        """The channel and input laws the path names (else uniform), read once."""
        ch, dists = load_channel_file(self.channel)
        if not dists:
            log.warning("channel spec has no input_dists; defaulting to uniform")
            dists = [Dist.uniform(a.size) for a in ch.input_alphabets]
        return ch, dists

    def _hash_fields(self, fields) -> str:
        d = asdict(self)
        # the spec the path names, as loaded: a rewritten file changes the
        # hash, and one spec at two paths has one
        d["channel"] = channel_to_json(*self._spec)
        blob = json.dumps({f: d[f] for f in fields}, sort_keys=True,
                          default=str).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def build_hash(self) -> str:
        """Hash over the fields that determine the code descriptor."""
        return self._hash_fields(self._BUILD_FIELDS)

    def hash(self) -> str:
        """Hash over everything that can affect report contents.

        Excludes out_dir and workers: neither may change any output byte.
        """
        return self._hash_fields(self._SIM_FIELDS)


def _write_json(path: Path, obj) -> None:
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as e:   # NaN or inf has no standard JSON form
        raise ValueError(f"not writing {path}: {e}") from None
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n")


def _write_csv(path: Path, header: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        csv.writer(f).writerows([header, *rows])


# -- region ---------------------------------------------------------------------


def _region(ch, dists) -> tuple[evaluator.RegionSpec, str]:
    """Exact region and its case tag: the two-user dichotomy, else "multi"."""
    if ch.n_users == 2:
        return evaluator.region_2user(ch, dists[0], dists[1])
    return evaluator.region_multi(ch, dists), "multi"


def cmd_region(cfg: ExperimentConfig) -> int:
    spec, tag = _region(*cfg._spec)
    out = Path(cfg.out_dir)
    obj = spec.to_dict()
    obj["case"] = tag
    obj["config_hash"] = cfg.hash()
    _write_json(out / "region.json", obj)
    rows = [["constraint", key, f"{v:.12g}"]
            for key, v in obj["constraints"].items()]
    rows += [["corner", key, ";".join(f"{r:.12g}" for r in rates)]
             for key, rates in obj["corner_points"].items()]
    if obj["dominant_r1"]:
        rows.append(["dominant_r1", "interval",
                     ";".join(f"{r:.12g}" for r in obj["dominant_r1"])])
    _write_csv(out / "region.csv", ["kind", "key", "value"], rows)
    print(f"case: {tag}; wrote {out / 'region.json'} and region.csv")
    return EXIT_OK


# -- build ----------------------------------------------------------------------


def _build_code(cfg: ExperimentConfig):
    """The code of ``cfg``, built from child (0,) of its seed."""
    ch, dists = cfg._spec
    if cfg.order is not None and sorted(cfg.order) != list(range(ch.n_users)):
        typed = ",".join(str(u + 1) for u in cfg.order)
        raise ValueError(f"--order {typed} is not a permutation of 1..{ch.n_users}")
    rng = make_rng(np.random.SeedSequence(cfg.seed, spawn_key=(0,)))
    return encoder.build_mac_code(
        ch, dists, mode=cfg.mode, block_len=cfg.n, k=cfg.k,
        xi=cfg.ideal_xi if cfg.idealized else cfg.xi, beta=cfg.beta,
        target_r1=cfg.target_r1, eps_split=cfg.eps, order=cfg.order,
        delta=cfg.ideal_delta if cfg.idealized else None, rng=rng,
    )


def _check_fresh_bits(plan: encoder.LengthPlan) -> None:
    for s in plan.streams:
        if s.seed_len_rest > plan.block_len:
            # a block of N binary codec symbols cannot use more than N fresh bits
            hint = "lower --ideal-xi / --ideal-delta" if plan.idealized \
                else "rerun with --idealized"
            constants = "idealized" if plan.idealized else "analysis"
            clamped = (f"; the {constants} constants also clamp hash lengths "
                       "at this N (asymptotic-only plan)"
                       ) if plan.asymptotic_only else ""
            raise ValueError(
                f"stream {s.name} draws {s.seed_len_rest} fresh bits per block "
                f"after the first, more than N = {plan.block_len} "
                f"(eps = {plan.eps:.6g}){clamped}; {hint} or raise --n")


def cmd_build(cfg: ExperimentConfig) -> int:
    code = _build_code(cfg)
    _check_fresh_bits(code.plan)   # writes no descriptor simulate would refuse
    desc = encoder.code_to_descriptor(code, cfg.build_hash())
    out = Path(cfg.out_dir)
    _write_json(out / "descriptor.json", desc)
    print(f"wrote {out / 'descriptor.json'} "
          f"(descriptor_hash={encoder.descriptor_hash(desc)})")
    if code.plan.asymptotic_only:
        hint = (f"--ideal-xi {cfg.ideal_xi} and --ideal-delta {cfg.ideal_delta} "
                "clamp them; lower them") if cfg.idealized else \
            "rerun with --idealized to exercise recycling"
        print(f"plan is asymptotic-only: hash lengths clamped at this N ({hint})",
              file=sys.stderr)
        return EXIT_ASYMPTOTIC_ONLY
    return EXIT_OK


# -- simulate -------------------------------------------------------------------

def _mc_features_parallel(code: encoder.MacCode, cfg: ExperimentConfig) -> dict:
    """Count tables of all trials of ``code``: each chunk's, added key by key.

    Up to ``cfg.workers`` threads, at most one per chunk and per core, share
    ``code``, whose arrays are all fixed when it is built, and only read it.
    """
    def run_chunk(i: int) -> dict:
        rng = make_rng(np.random.SeedSequence(cfg.seed, spawn_key=(1, i)))
        return evaluator.mc_chunk_features(
            code, min(CHUNK_TRIALS, cfg.trials - i * CHUNK_TRIALS), rng,
            window=cfg.window, rec_bits=cfg.rec_bits, recycle=cfg.recycle)

    chunks = range(-(-cfg.trials // CHUNK_TRIALS))
    cores = os.cpu_count() or 1
    if cfg.workers > cores:
        log.info("--workers %d clamped to %d cores", cfg.workers, cores)
    workers = min(cfg.workers, len(chunks), cores)
    if workers == 1:   # on the calling thread, as a single-threaded tracer needs
        results = [run_chunk(i) for i in chunks]
    else:
        with ThreadPoolExecutor(workers) as pool:
            results = list(pool.map(run_chunk, chunks))
    return {key: sum(r[key] for r in results) for key in results[0]}


def _mc_metrics(code: encoder.MacCode,
                cfg: ExperimentConfig) -> list[evaluator.MetricRow]:
    """Monte-Carlo metrics of ``code``: chunked trials, then bootstrap CIs.

    Chunk i of CHUNK_TRIALS trials draws only its trials, from child (1, i) of
    the seed; every bootstrap replicate is drawn once from the summed tables and
    child (2,): the window counts' first, then each dependence check's.
    """
    boot_rng = make_rng(np.random.SeedSequence(cfg.seed, spawn_key=(2,)))
    return evaluator.assemble_mc_metrics(code, _mc_features_parallel(code, cfg),
                                         boot_rng, window=cfg.window)


def _admit(code: encoder.MacCode, cfg: ExperimentConfig
           ) -> tuple[dict, dict, str | None]:
    """Rates, region verdicts and route of a ``simulate`` or ``sweep`` point,
    or its refusal before any evaluation.  The route is None for the exhaustive
    engine, else why Monte Carlo runs; only then must the window fit a block,
    and the recycled-bit and output pair tables have no more cells than there
    are trials."""
    _check_fresh_bits(code.plan)
    rates = encoder.achieved_rates(code.plan)
    region = _region_verdicts(code, rates)   # refuses L > 4
    route = evaluator.exact_budget(code) if cfg.recycle else \
        "--no-recycle: the exhaustive engine models recycled seeds only"
    if route is not None and cfg.window > cfg.n:
        raise ValueError(f"--window {cfg.window} is longer than a block "
                         f"(--n {cfg.n}): no window of that length fits")
    # the pair table crosses the first b recycled bits with an output window
    b = min(cfg.rec_bits, sum(s.hash_len for s in code.plan.streams))
    zc = code.channel.output_alphabet.size ** cfg.window
    if route is not None and code.plan.k >= 2 and 2 ** b * zc > cfg.trials:
        raise ValueError(f"--rec-bits {cfg.rec_bits} with --window {cfg.window}"
                         f": the pair table has 2^{b} x {zc} = {2 ** b * zc} "
                         f"cells, more than --trials {cfg.trials}")
    if route is not None and code.plan.k >= 2 and zc * zc > cfg.trials:
        raise ValueError(f"--window {cfg.window}: the output pair table has "
                         f"{zc} x {zc} = {zc * zc} cells, more than --trials "
                         f"{cfg.trials}")
    return rates, region, route


def _evaluate(code: encoder.MacCode, cfg: ExperimentConfig, route: str | None
              ) -> tuple[str, list[evaluator.MetricRow], list[str]]:
    """Mode, metric rows and notes of ``code``'s report on ``_admit``'s route;
    Monte-Carlo rows gain the hash-uniformity floor of the whole-run bound."""
    plan, analysis = code.plan, code.analysis
    bound = analysis.joint_tv_bound(
        plan.k, 0.0, analysis.delta0(plan.block_len, plan.xi))
    vacuous = [f"the finite-N analysis bound is vacuous here ({bound:.3g} > 2)"
               ] if bound > 2.0 else []
    if route is None:
        return "exhaustive", evaluator.exact_report(code), [
            "exhaustive mode: all randomness enumerated exactly", *vacuous]
    log.info("exact mode unavailable (%s); falling back to Monte Carlo", route)
    # with the codec distance unknown at scale, the floor is for reference
    metrics = _mc_metrics(code, cfg)
    metrics.append(evaluator.MetricRow("bound_joint_tv_floor", bound))
    return "mc", metrics, [
        "mc mode: windowed/marginal TVs are lower-bound proxies for the "
        "full-block variational distance",
        "plug-in TV estimates carry positive bias of order "
        "sqrt(cells / samples); bootstrap CIs are percentile CIs of the "
        "biased statistic",
        *vacuous]


def cmd_simulate(cfg: ExperimentConfig, descriptor_path: str | None) -> int:
    out = Path(cfg.out_dir)
    # only the implicit out-dir descriptor may be built; a missing explicit
    # --descriptor is an error on read
    desc_file = out / "descriptor.json" if descriptor_path is None \
        else Path(descriptor_path)
    if descriptor_path is None and not desc_file.exists():
        cmd_build(cfg)
    desc = read_json_file(desc_file, "descriptor")
    code = encoder.code_from_descriptor(desc, cfg.build_hash())
    rates, region, route = _admit(code, cfg)
    mode_used, metrics, notes = _evaluate(code, cfg, route)
    obj = {
        "mode": mode_used,
        "metrics": [m.to_list() for m in metrics],
        "rates": {name: {**v, "rate": str(v["rate"])}
                  for name, v in rates["per_stream"].items()},
        "region": region,
        "config_hash": cfg.hash(),
        "descriptor_hash": encoder.descriptor_hash(desc),
        "notes": notes,
    }
    _write_json(out / "report.json", obj)
    _write_csv(out / "report.csv", ROW_HEADER, [m.to_list() for m in metrics])
    print(f"wrote {out / 'report.json'} and report.csv ({mode_used} mode)")
    return EXIT_OK


def _region_verdicts(code, rates) -> dict:
    """Check the achieved finite-k rates against every region constraint."""
    spec, tag = _region(code.channel, list(code.input_dists))
    per_user = [sum(rates["per_stream"][p]["rate_float"] for p in parts)
                for _, parts in code.channel_inputs]
    verdicts = {}
    for subset, bound in spec.constraints.items():
        key = "+".join(str(u + 1) for u in sorted(subset))
        achieved = sum(per_user[u] for u in subset)
        verdicts[key] = {"required": bound, "achieved": achieved,
                         "satisfied": achieved >= bound - 1e-9}
    return {"case": tag, "rates_per_user": per_user, "verdicts": verdicts,
            "in_region": all(v["satisfied"] for v in verdicts.values())}


# -- sweep ----------------------------------------------------------------------


def cmd_sweep(cfg: ExperimentConfig, n_list, k_list, eps_list) -> int:
    """One CSV over the grid: each point's rows are those ``simulate`` writes.

    Every point is validated, built and passed through ``simulate``'s
    ``_admit`` before any point is evaluated, so the sweep refuses exactly
    what ``simulate`` refuses.  The points share one read of the spec.
    """
    grid = [replace(cfg, n=n, k=k, eps=eps)
            for n in n_list for k in k_list for eps in eps_list]
    routed = []
    for sub in grid:   # a bad grid point exits before any trial runs
        sub._spec = cfg._spec
        sub.validate()
        code = _build_code(sub)
        routed.append((code, _admit(code, sub)[2]))
    rows = [[sub.n, sub.k, "" if sub.eps is None else sub.eps, *m.to_list()]
            for sub, (code, route) in zip(grid, routed)
            for m in _evaluate(code, sub, route)[1]]
    out = Path(cfg.out_dir)
    _write_csv(out / "sweep.csv", ["n", "k", "eps", *ROW_HEADER], rows)
    print(f"wrote {out / 'sweep.csv'} ({len(rows)} rows)")
    return EXIT_OK


# -- argument parsing -------------------------------------------------------------


def _items(text: str) -> list[str]:
    """A list flag's comma-separated items; argparse names the flag when an
    empty list or item is refused."""
    if "" in (items := text.split(",")):
        raise argparse.ArgumentTypeError(f"empty list or list item in {text!r}")
    return items


def _int_list(text: str) -> list[int]:
    return [int(t) for t in _items(text)]


def _float_list(text: str) -> list[float]:
    return [float(t) for t in _items(text)]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="macresolve",
        description="MAC resolvability codes from source resolvability, "
                    "two-universal hashing, and block-Markov recycling",
    )
    sub = p.add_subparsers(dest="command", required=True)

    # a flag that is not given stays out of the namespace, so the
    # ExperimentConfig field default is the only default
    def add_parser(name, help):
        return sub.add_parser(name, help=help,
                              argument_default=argparse.SUPPRESS)

    def common(sp):
        sp.add_argument("--channel", required=True, help="channel spec JSON")
        sp.add_argument("--out-dir")
        sp.add_argument("--seed", type=int)

    def code_flags(sp):
        sp.add_argument("--mode", choices=["auto", "case1", "case2", "multi"])
        sp.add_argument("--n", type=int, help="block length, power of 2")
        sp.add_argument("--k", type=int, help="number of blocks")
        sp.add_argument("--xi", type=float)
        sp.add_argument("--beta", type=float)
        sp.add_argument("--target-r1", type=float)
        sp.add_argument("--eps", type=float, help="rate-split parameter (case 1)")
        sp.add_argument("--order", type=_int_list,
                        help="1-based user order for multi mode, e.g. 2,1,3")
        sp.add_argument("--idealized", action="store_true")
        sp.add_argument("--ideal-xi", type=float)
        sp.add_argument("--ideal-delta", type=float)

    def sim_flags(sp):
        sp.add_argument("--trials", type=int)
        sp.add_argument("--window", type=int)
        sp.add_argument("--rec-bits", type=int)
        sp.add_argument("--no-recycle", action="store_true",
                        help="ablation: fresh seeds in every block")
        sp.add_argument("--workers", type=int)

    sp = add_parser("region", help="exact region constraints and corners")
    common(sp)

    sp = add_parser("build", help="construct a code descriptor")
    common(sp)
    code_flags(sp)

    sp = add_parser("simulate", help="evaluate a code (exact or MC)")
    common(sp)
    code_flags(sp)
    sim_flags(sp)
    sp.add_argument("--descriptor", default=None,
                    help="existing descriptor JSON (default: the one in "
                         "--out-dir, built if absent)")

    sp = add_parser("sweep", help="grid over N, k, eps; one CSV out")
    common(sp)
    code_flags(sp)
    sim_flags(sp)
    sp.add_argument("--n-list", type=_int_list, default=None)
    sp.add_argument("--k-list", type=_int_list, default=None)
    sp.add_argument("--eps-list", type=_float_list, default=None)
    return p


def _config_from_args(args) -> ExperimentConfig:
    given = vars(args)
    kw = {f.name: given[f.name] for f in fields(ExperimentConfig)
          if f.name in given}
    if "order" in kw:
        kw["order"] = tuple(u - 1 for u in kw["order"])
    if given.get("no_recycle"):
        kw["recycle"] = False
    if {"ideal_xi", "ideal_delta"} & kw.keys() and not kw.get("idealized"):
        raise ValueError("--ideal-xi and --ideal-delta apply only with "
                         "--idealized")
    if "xi" in kw and kw.get("idealized"):
        raise ValueError("--xi does not apply with --idealized, which uses "
                         "--ideal-xi")
    cfg = ExperimentConfig(**kw)
    cfg.validate()
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        level = os.environ.get("RESOLVE_LOG", "WARNING")
        if not isinstance(logging.getLevelName(level.upper()), int):
            raise ValueError(f"RESOLVE_LOG={level!r} is not a log level; use one "
                             "of DEBUG, INFO, WARNING, ERROR, CRITICAL")
        logging.basicConfig(level=level.upper(),
                            format="%(levelname)s %(name)s: %(message)s")
        cfg = _config_from_args(args)
        if args.command == "region":
            return cmd_region(cfg)
        if args.command == "build":
            return cmd_build(cfg)
        if args.command == "simulate":
            return cmd_simulate(cfg, args.descriptor)
        return cmd_sweep(cfg, args.n_list or [cfg.n], args.k_list or [cfg.k],
                         args.eps_list or [cfg.eps])
    except InfeasibleTargetError as e:
        print(f"infeasible target: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValueError, OSError) as e:   # OSError: a file that cannot be read
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
