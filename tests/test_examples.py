"""Every example's stdout, pinned.

Each ``examples/*.py`` runs in a fresh interpreter, with no ``REPRO_*``
toggle set, and its stdout is compared line by line with
``tests/golden/examples.json``. The examples are the first thing a user
runs, so a change that moves a printed row, count, cost or EXPLAIN line
fails here and names the example. Re-pin with
``scripts/regen_golden_trace.py --examples`` only when a change moves an
example's output on purpose.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLES_DIR = REPO_ROOT / "examples"
EXAMPLES_GOLDEN_PATH = Path(__file__).parent / "golden" / "examples.json"
EXAMPLES = sorted(path.stem for path in EXAMPLES_DIR.glob("*.py"))


def run_example(name: str) -> list[str]:
    """The stdout lines of ``examples/<name>.py``; raises if it fails."""
    environ = {
        key: value for key, value in os.environ.items() if not key.startswith("REPRO_")
    }
    environ["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), environ.get("PYTHONPATH", "")]
    )
    done = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / f"{name}.py")],
        env=environ,
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"examples/{name}.py exited {done.returncode}:\n{done.stderr}"
        )
    return done.stdout.splitlines()


def render_examples() -> dict[str, list[str]]:
    """Every example's stdout, as text lines."""
    return {name: run_example(name) for name in EXAMPLES}


@pytest.fixture(scope="module")
def pinned() -> dict[str, list[str]]:
    return json.loads(EXAMPLES_GOLDEN_PATH.read_text(encoding="utf-8"))


def test_every_example_is_pinned(pinned):
    assert sorted(pinned) == EXAMPLES


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_output_matches_pin(name, pinned):
    assert run_example(name) == pinned[name]
