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
