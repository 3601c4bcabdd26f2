"""Every function the benchmark's tracer patches exists where it patches it.

``perfbench/tracing.py`` replaces each target of ``INSTRUMENTS`` in the
namespace its callers read it from (``encoder.split_rates``, not only
``ratesplit.split_rates``).  A refactor that drops one of those imports would
otherwise surface only as a crash of ``perfbench/run.py --trace 1``.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
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


def test_traced_monte_carlo_run(tmp_path, monkeypatch):
    # a change of the feature tables must not break the tracer's counters
    import json
    import time

    from conftest import adder_mac
    from macresolve import cli
    from macresolve.probcore import Dist, channel_to_json

    for targets, _ in tracing.INSTRUMENTS.values():
        for target in targets:   # undo the tracer's patches after the test
            module_name, *path = target.split(".")
            owner = importlib.import_module(f"macresolve.{module_name}")
            for attr in path[:-1]:
                owner = getattr(owner, attr)
            monkeypatch.setattr(owner, path[-1],
                                inspect.getattr_static(owner, path[-1]))
    spec = tmp_path / "adder.json"
    spec.write_text(json.dumps(channel_to_json(
        adder_mac(), [Dist.bernoulli(0.5), Dist.bernoulli(0.5)])))
    cfg = cli.ExperimentConfig(channel=str(spec), n=4, k=2, idealized=True,
                               trials=1000)
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
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
