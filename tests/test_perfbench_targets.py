"""Every function the benchmark's tracer patches exists where it patches it,
and the benchmark's own output checks accept what the program writes.

``perfbench/tracing.py`` replaces each target of ``INSTRUMENTS`` in the
namespace its callers read it from (``encoder.split_rates``, not only
``ratesplit.split_rates``).  A refactor that drops one of those imports would
otherwise surface only as a crash of ``perfbench/run.py --trace 1``.
"""

import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import adder_mac
from macresolve import cli
from macresolve.probcore import Dist, channel_to_json

_ROOT = Path(__file__).resolve().parents[1]
_TRACING = _ROOT / "perfbench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

TARGETS = sorted({t for targets, _ in tracing.INSTRUMENTS.values()
                  for t in targets})


@pytest.mark.parametrize("target", TARGETS)
def test_trace_target_resolves(target):
    module_name, *path = target.split(".")
    owner = importlib.import_module(f"macresolve.{module_name}")
    for attr in path:
        owner = inspect.getattr_static(owner, attr)
    assert callable(owner)


@pytest.fixture
def tracer(monkeypatch):
    """A tracer with every INSTRUMENTS target wrapped, unwrapped after the test."""
    for targets, _ in tracing.INSTRUMENTS.values():
        for target in targets:
            module_name, *path = target.split(".")
            owner = importlib.import_module(f"macresolve.{module_name}")
            for attr in path[:-1]:
                owner = getattr(owner, attr)
            monkeypatch.setattr(owner, path[-1],
                                inspect.getattr_static(owner, path[-1]))
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    return tracer


@pytest.fixture
def adder_spec(tmp_path):
    spec = tmp_path / "adder.json"
    spec.write_text(json.dumps(channel_to_json(
        adder_mac(), [Dist.bernoulli(0.5), Dist.bernoulli(0.5)])))
    return str(spec)


def test_traced_monte_carlo_run(tracer, adder_spec):
    # a change of the feature tables must not break the tracer's counters
    cfg = cli.ExperimentConfig(channel=adder_spec, n=4, k=2, idealized=True,
                               trials=1000)
    # build, then the Monte-Carlo path of simulate: this config fits the
    # exhaustive engine, which simulate would run instead
    code = cli._build_code(cfg)
    n_build = len(tracer.spans)
    t0 = time.perf_counter()
    rows = cli._mc_metrics(code, cfg)
    sim_s = time.perf_counter() - t0
    assert {r.samples for r in rows} == {1000}
    spans = tracer.spans
    assert not [s for s in spans if "error" in s]
    names = {s["name"] for s in spans[n_build:]}
    assert {"evaluator.mc_chunk_features",
            "evaluator.assemble_mc_metrics"} <= names
    metrics = tracing.layer_metrics(spans[:n_build], spans[n_build:], sim_s, sim_s)
    assert set(metrics) >= {name for name, _, _ in tracing.PER_LAYER}


def test_traced_exhaustive_simulate_loads_the_descriptor(tracer, adder_spec,
                                                         tmp_path):
    # the whole simulate command, so the descriptor loader runs traced; the
    # case-1 adder at N=4, k=3 carries a 7-bit key through the exact engine
    args = ["--channel", adder_spec, "--out-dir", str(tmp_path / "o"),
            "--mode", "case1", "--n", "4", "--k", "3", "--idealized"]
    assert cli.main(["build", *args]) == 0
    n_build = len(tracer.spans)
    t0 = time.perf_counter()
    assert cli.main(["simulate", *args]) == 0
    sim_s = time.perf_counter() - t0
    spans = tracer.spans
    assert not [s for s in spans if "error" in s]
    names = {s["name"] for s in spans[n_build:]}
    assert {"encoder.code_from_descriptor", "ratesplit.split_rates",
            "evaluator.exact_report"} <= names
    metrics = tracing.layer_metrics(spans[:n_build], spans[n_build:], sim_s, sim_s)
    assert set(metrics) >= {name for name, _, _ in tracing.PER_LAYER}


def test_benchmark_selftest_passes():
    # builds and simulates one tiny code through the CLI, then runs the
    # benchmark's report checks on it: a descriptor or report change that
    # those checks reject fails here, not only in a benchmark run
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"],
                          cwd=_ROOT, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
