"""Spans around calls into the library's public functions, taken from outside.

Each instrumented function is replaced, in the namespace its caller reads it
from, by a wrapper that records a span (name, start, end, parent) and a few
counts taken from the call's arguments.  Spans stay in memory until
:meth:`Tracer.dump`.  :func:`layer_metrics` turns the spans of one traced
``build`` and one traced ``simulate`` into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict

import numpy as np


class Tracer:
    """In-memory span recorder for one process (single-threaded callers)."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._stack[-1] if self._stack else None}
            if counter is not None:
                span["counts"] = counter(*args, **kwargs)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span["start"] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as e:
                span["error"] = type(e).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
        return traced

    def dump(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.spans, f)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        edge = s["start"]
        for c in sorted(children[i], key=lambda c: c["start"]):
            lo, hi = max(c["start"], edge), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                edge = hi
        out.append(s["end"] - s["start"] - covered)
    return out


# -- what gets wrapped ------------------------------------------------------------


def _counter(measure):
    """Counter factory: ``measure`` maps a call's bound arguments to counts."""
    def make(fn):
        sig = inspect.signature(fn)

        def count(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            return measure(bound.arguments)
        return count
    return make


def _profile_counts(a):
    # calls with equal arguments and equal generator state compute equal profiles
    rng = a["rng"]
    key = json.dumps([list(map(float, a["source"].pmf)), a["n"], a["beta"],
                      a["mc_samples"],
                      None if rng is None else repr(rng.bit_generator.state)])
    return {"key": key, "sample_coords": int(a["mc_samples"] or 0) << a["n"]}


def _bootstrap_counts(a):
    feats = a["feats"]
    stats = len({1, a["window"]})
    if "rec_e" in feats:
        stats += 2 * feats["rec_e"].shape[1]   # two pair statistics per block pair
    trials = feats["win1"].shape[0]
    return {"replicate_trials": a["n_boot"] * trials * stats}


def _exact_state_counts(a):
    # the largest table the exhaustive engine checks against its budget
    code = a["code"]
    plan = code.plan
    n_states = 1 << (len(plan.streams) * plan.block_len)
    zn = code.channel.output_alphabet.size ** plan.block_len
    return {"states": max(n_states * zn ** max(0, plan.k - 1), n_states * zn,
                          zn ** plan.k)}


# span name -> (namespaces it is read from, counter factory or None)
INSTRUMENTS = {
    "cli.build": (["cli.cmd_build"], None),
    "cli.simulate": (["cli.cmd_simulate"], None),
    "encoder.build_mac_code": (["encoder.build_mac_code"], None),
    "encoder.code_from_descriptor": (["encoder.code_from_descriptor"], None),
    "ratesplit.split_rates": (["encoder.split_rates", "ratesplit.split_rates"],
                              None),
    "polar.compute_profile": (["encoder.compute_profile"],
                              _counter(_profile_counts)),
    "polar.encode_batch": (["encoder.encode_batch"],
                           _counter(lambda a: {"blocks": len(a["seeds"])})),
    "polar.output_pmf_exact": (["evaluator.output_pmf_exact"], None),
    "hashing.apply_batch": (["hashing.ToeplitzHash.apply_batch"],
                            _counter(lambda a: {"rows": np.size(a["x"]) //
                                                np.shape(a["x"])[-1]})),
    "probcore.transmit": (["encoder.transmit", "probcore.transmit"],
                          _counter(lambda a: {"symbols": np.size(a["codewords"][0])})),
    "encoder.run_trials": (["evaluator.run_trials"],
                           _counter(lambda a: {"trials": a["n_trials"]})),
    "evaluator.mc_chunk_features": (["evaluator.mc_chunk_features"],
                                    _counter(lambda a: {"trials": a["n_trials"]})),
    "evaluator.assemble_mc_metrics": (["evaluator.assemble_mc_metrics"],
                                      _counter(_bootstrap_counts)),
    "evaluator.exact_report": (["evaluator.exact_report"],
                               _counter(_exact_state_counts)),
}


def instrument(tracer: Tracer) -> None:
    """Replace every function named in INSTRUMENTS by a traced wrapper."""
    import importlib

    for name, (targets, counter) in INSTRUMENTS.items():
        for target in targets:
            module_name, *path = target.split(".")
            owner = importlib.import_module(f"macresolve.{module_name}")
            for attr in path[:-1]:
                owner = getattr(owner, attr)
            fn = inspect.getattr_static(owner, path[-1])
            setattr(owner, path[-1], tracer.wrap(name, fn, counter and counter(fn)))


# -- per-layer metrics ------------------------------------------------------------

# (metric, unit, better); the same list goes into BENCHMARK.json's per_layer
PER_LAYER = [
    ("evaluator.assemble_mc_metrics.s", "s", "lower"),
    ("evaluator.assemble_mc_metrics.replicate_trials", "count", "lower"),
    ("polar.compute_profile.s", "s", "lower"),
    ("polar.compute_profile.calls", "count", "lower"),
    ("polar.compute_profile.unique_ratio", "ratio", "higher"),
    ("polar.compute_profile.sample_coords_per_s", "1/s", "higher"),
    ("polar.encode_batch.s", "s", "lower"),
    ("polar.encode_batch.blocks", "count", "lower"),
    ("polar.encode_batch.blocks_per_s", "1/s", "higher"),
    ("polar.output_pmf_exact.s", "s", "lower"),
    ("polar.output_pmf_exact.calls", "count", "lower"),
    ("evaluator.exact_report.s", "s", "lower"),
    ("evaluator.exact_report.states", "count", "lower"),
    ("evaluator.mc_chunk_features.self_s", "s", "lower"),
    ("evaluator.mc_chunk_features.trials", "count", "lower"),
    ("encoder.run_trials.self_s", "s", "lower"),
    ("encoder.run_trials.trials", "count", "lower"),
    ("probcore.transmit.s", "s", "lower"),
    ("probcore.transmit.symbols", "count", "lower"),
    ("hashing.apply_batch.s", "s", "lower"),
    ("hashing.apply_batch.rows", "count", "lower"),
    ("encoder.build_mac_code.self_s", "s", "lower"),
    ("encoder.code_from_descriptor.self_s", "s", "lower"),
    ("encoder.code_from_descriptor.calls", "count", "lower"),
    ("ratesplit.split_rates.s", "s", "lower"),
    ("cli.simulate.self_s", "s", "lower"),
    ("cli.parallel_share", "ratio", "higher"),
    ("cli.simulate.traced_s", "s", "lower"),
    ("cli.simulate.coverage", "ratio", "higher"),
    ("trace.overhead_s", "s", "lower"),
]


def layer_metrics(build_spans: list[dict], sim_spans: list[dict],
                  traced_sim_s: float, untraced_sim_s: float) -> dict[str, float]:
    """Per-layer metrics over one traced build plus one traced simulate.

    ``traced_sim_s`` is the wall time of the traced simulate process and
    ``untraced_sim_s`` that of the same simulate, same worker count, untraced.
    """
    total = defaultdict(float)     # inclusive seconds per span name
    own = defaultdict(float)       # self seconds per span name
    calls = defaultdict(int)
    counts = defaultdict(int)
    keys = defaultdict(set)
    sim_self = 0.0
    for spans, is_sim in ((build_spans, False), (sim_spans, True)):
        for s, self_s in zip(spans, self_times(spans)):
            name = s["name"]
            total[name] += s["end"] - s["start"]
            own[name] += self_s
            calls[name] += 1
            if is_sim:
                sim_self += self_s
            # a call that raised did no countable work (exact_report over budget)
            for key, v in ({} if "error" in s else s.get("counts", {})).items():
                if key == "key":
                    keys[name].add(v)
                else:
                    counts[f"{name}.{key}"] += v

    def per_s(count, name):
        return counts[count] / total[name] if total[name] > 0 else 0.0

    prof = "polar.compute_profile"
    m = {
        "polar.compute_profile.unique_ratio":
            len(keys[prof]) / calls[prof] if calls[prof] else 0.0,
        "polar.compute_profile.sample_coords_per_s":
            per_s(f"{prof}.sample_coords", prof),
        "polar.encode_batch.blocks_per_s":
            per_s("polar.encode_batch.blocks", "polar.encode_batch"),
        "cli.parallel_share":
            total["evaluator.mc_chunk_features"] / traced_sim_s,
        "cli.simulate.traced_s": traced_sim_s,
        "cli.simulate.coverage": sim_self / traced_sim_s,
        "trace.overhead_s": traced_sim_s - untraced_sim_s,
    }
    for metric, _, _ in PER_LAYER:
        if metric in m:
            continue
        name, _, field = metric.rpartition(".")
        if field == "s":
            m[metric] = total[name]
        elif field == "self_s":
            m[metric] = own[name]
        elif field == "calls":
            m[metric] = calls[name]
        else:
            m[metric] = counts[metric]
    return m
