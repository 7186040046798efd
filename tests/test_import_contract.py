"""The import contract: the engine runs on the standard library alone.

``pyproject.toml`` declares no dependencies; numpy (the ``[vector]``
extra) and scipy (the ``[stats]`` extra) are imported only by the calls
that need them. Each test runs the quickstart compare sort (squares,
n=20, seed 7) and one ``EngineSession`` over a store file in a fresh
interpreter, so the packages the test process already imported cannot
hide a module-level import.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

SCRIPT = r"""
import json, os, sys, tempfile, warnings

if sys.argv[1] == "blocked":
    class BlockExtras:
        def find_spec(self, name, path=None, target=None):
            if name.partition(".")[0] in ("numpy", "scipy"):
                raise ModuleNotFoundError(f"{name} is blocked", name=name)
            return None

    sys.meta_path.insert(0, BlockExtras())

import repro
from repro import EngineSession, ExecutionConfig, Qurk, QurkError, SimulatedMarketplace
from repro.datasets import squares_dataset

QUERY = "SELECT squares.label FROM squares ORDER BY squareSorter(img)"
CONFIG = ExecutionConfig(sort_method="compare")
data = squares_dataset(n=20, seed=7)


def run_engine():
    engine = Qurk(platform=SimulatedMarketplace(data.truth, seed=7), config=CONFIG)
    engine.register_table(data.table)
    engine.define(data.task_dsl)
    return engine.execute(QUERY)


report = {"engine": run_engine().column("squares.label")}
with tempfile.TemporaryDirectory() as tmp:
    session = EngineSession(
        platform=SimulatedMarketplace(data.truth, seed=7),
        config=CONFIG,
        store=os.path.join(tmp, "answers.sqlite"),
    )
    session.register_table(data.table)
    session.define(data.task_dsl)
    handle = session.submit(QUERY)
    session.run()
    report["session"] = handle.result.column("squares.label")
    session.store.close()
report["extras_loaded"] = sorted(
    name for name in sys.modules if name.partition(".")[0] in ("numpy", "scipy")
)

if sys.argv[1] == "blocked":
    os.environ["REPRO_VECTOR"] = "1"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        vector = run_engine()
    report["vector_rows"] = vector.column("squares.label")
    report["vector_warnings"] = [
        str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)
    ]
    report["vector_explain"] = vector.explain()
    from repro.metrics import accuracy_regression

    try:
        accuracy_regression({"w1": (1, 0.5), "w2": (2, 0.7), "w3": (4, 0.6)})
    except QurkError as exc:
        report["regression_error"] = str(exc)

print(json.dumps(report))
"""


def _run(mode: str) -> dict:
    environ = {
        key: value for key, value in os.environ.items() if not key.startswith("REPRO_")
    }
    environ["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), environ.get("PYTHONPATH", "")]
    )
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, mode],
        env=environ,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.fixture(scope="module")
def plain() -> dict:
    return _run("plain")


def test_engine_imports_no_third_party_module(plain):
    assert plain["extras_loaded"] == []
    assert len(plain["engine"]) == 20
    assert plain["session"] == plain["engine"]


def test_engine_runs_with_numpy_and_scipy_blocked(plain):
    blocked = _run("blocked")
    assert blocked["engine"] == plain["engine"]
    assert blocked["session"] == plain["session"]
    # REPRO_VECTOR degrades to the scalar kernel: same rows, one warning
    # and an EXPLAIN note instead of an ImportError.
    assert blocked["vector_rows"] == plain["engine"]
    note = "REPRO_VECTOR requested but numpy is not installed"
    assert any(note in message for message in blocked["vector_warnings"])
    assert note in blocked["vector_explain"]
    assert "[stats]" in blocked["regression_error"]
