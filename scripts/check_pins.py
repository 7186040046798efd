"""Check the determinism pins under the running interpreter.

Four pins, each reproduced in this process and compared with what is
committed:

* the seed-0 scalar golden trace (``tests/golden/determinism_trace.json``);
* the unoptimized plan's trace digest (``UNOPTIMIZED_TRACE_SHA256`` in
  ``tests/determinism_pins.py``);
* the stdout of every ``examples/*.py`` (``tests/golden/examples.json``),
  each run in a fresh copy of this interpreter;
* every paper artifact's seed-0 table (``tests/golden/paper_artifacts.json``),
  skipping with a notice an artifact whose optional extra is missing
  (``REQUIRES``: EXP-S33 needs scipy).

On a mismatch it prints the interpreter and the first record that differs
(a vote, a counter, an example's or a table's line) and exits 1. It
imports only the standard library and the engine, so it runs on any
supported CPython, with or without pytest, numpy or scipy;
``scripts/ci_fast.sh`` runs it under every ``python3.X`` it can start.

Usage::

    python scripts/check_pins.py
"""

from __future__ import annotations

import importlib.util
import json
import platform
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
for entry in (REPO_ROOT / "tests", REPO_ROOT / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from determinism_pins import (  # noqa: E402
    EXAMPLES,
    EXAMPLES_GOLDEN_PATH,
    GOLDEN_PATH,
    PAPER_GOLDEN_PATH,
    REQUIRES,
    RUNNABLE,
    UNOPTIMIZED_TRACE_SHA256,
    collect_trace,
    run_example,
    unoptimized_trace_digest,
)
from repro.experiments.registry import render_experiment  # noqa: E402

def interpreter() -> str:
    """The running interpreter, as a mismatch report names it."""
    return f"{platform.python_implementation()} {platform.python_version()} ({sys.executable})"


def first_difference(pinned: object, actual: object, where: str) -> str | None:
    """Where two JSON values first differ, with both records, or None.

    A list of plain values (a vote, a timestamp list) is one record; lists
    and dicts holding containers are walked in order.
    """
    if isinstance(pinned, dict) and isinstance(actual, dict):
        for key in sorted(set(pinned) | set(actual)):
            if key not in actual or key not in pinned:
                return f"{where}.{key}: pinned {pinned.get(key)!r}, got {actual.get(key)!r}"
            found = first_difference(pinned[key], actual[key], f"{where}.{key}")
            if found is not None:
                return found
        return None
    nested = isinstance(pinned, list) and any(isinstance(x, (list, dict)) for x in pinned)
    if nested and isinstance(actual, list):
        for index, (want, got) in enumerate(zip(pinned, actual)):
            found = first_difference(want, got, f"{where}[{index}]")
            if found is not None:
                return found
        if len(pinned) != len(actual):
            return f"{where}: {len(actual)} records, pinned {len(pinned)}"
        return None
    if pinned != actual:
        return f"{where}: pinned {pinned!r}, got {actual!r}"
    return None


def check_scalar(golden_path: Path = GOLDEN_PATH) -> str | None:
    pinned = json.loads(golden_path.read_text(encoding="utf-8"))
    actual = json.loads(json.dumps(collect_trace(seed=0)))
    return first_difference(pinned, actual, "trace")


def check_unoptimized() -> str | None:
    digest = unoptimized_trace_digest()
    if digest != UNOPTIMIZED_TRACE_SHA256:
        return f"unoptimized trace digest {digest}, pinned {UNOPTIMIZED_TRACE_SHA256}"
    return None


def first_line_difference(pinned: list[str], lines: list[str], where: str) -> str | None:
    """The first line where ``lines`` leaves its pin, or None."""
    for number, (want, got) in enumerate(zip(pinned, lines), start=1):
        if want != got:
            return f"{where} line {number}: pinned {want!r}, got {got!r}"
    if len(lines) != len(pinned):
        return f"{where}: {len(lines)} lines, pinned {len(pinned)}"
    return None


def check_examples() -> str | None:
    pinned = json.loads(EXAMPLES_GOLDEN_PATH.read_text(encoding="utf-8"))
    if sorted(pinned) != EXAMPLES:
        return f"examples {EXAMPLES}, pinned {sorted(pinned)}"
    for name in EXAMPLES:
        found = first_line_difference(pinned[name], run_example(name), f"examples/{name}.py")
        if found is not None:
            return found
    return None


def check_paper(golden_path: Path = PAPER_GOLDEN_PATH) -> str | None:
    pinned = json.loads(golden_path.read_text(encoding="utf-8"))
    ids = sorted(entry.experiment_id for entry in RUNNABLE)
    if sorted(pinned) != ids:
        return f"paper artifacts {ids}, pinned {sorted(pinned)}"
    for entry in RUNNABLE:
        name = entry.experiment_id
        module = REQUIRES.get(name)
        if module is not None and importlib.util.find_spec(module) is None:
            print(f"paper {name} not checked: it needs {module}, which is not installed")
            continue
        lines = render_experiment(entry, seed=0).splitlines()
        found = first_line_difference(pinned[name], lines, f"paper {name}")
        if found is not None:
            return found
    return None


def main() -> int:
    checks = {
        "scalar": check_scalar,
        "unoptimized": check_unoptimized,
        "examples": check_examples,
        "paper": check_paper,
    }
    failed = 0
    for name, check in checks.items():
        difference = check()
        if difference is not None:
            failed += 1
            print(f"pin mismatch under {interpreter()}: {name}: {difference}")
    if failed:
        return 1
    print(f"pins reproduce under {interpreter()}: {', '.join(checks)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
