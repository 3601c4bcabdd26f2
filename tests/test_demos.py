"""The demos keep working against the library's public API.

Every name a demo imports from ``macresolve`` must exist; the fast demos run
to completion.  Demo 05 runs 3 x 10^5 Monte-Carlo trials (about a minute),
so it is only import-checked here.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
FAST = ["01", "02", "03", "04", "06"]


def _imported_names(path: Path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "macresolve":
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "macresolve":
                    yield alias.name, None


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_imports_exist(path):
    pairs = list(_imported_names(path))
    assert pairs, f"{path.name} imports nothing from macresolve"
    for module, name in pairs:
        mod = importlib.import_module(module)
        if name is not None:
            assert hasattr(mod, name), f"{path.name}: {module}.{name} is gone"


@pytest.mark.parametrize("stem", FAST)
def test_fast_demo_runs(stem, tmp_path):
    (path,) = [p for p in DEMOS if p.stem.startswith(stem)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    # demos write their CSV exports to the working directory
    proc = subprocess.run([sys.executable, str(path)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
