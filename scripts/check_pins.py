"""Check the determinism pins under the running interpreter.

Three pins, each reproduced in this process and compared with what is
committed:

* the seed-0 scalar golden trace (``tests/golden/determinism_trace.json``);
* the unoptimized plan's trace digest (``UNOPTIMIZED_TRACE_SHA256`` in
  ``tests/determinism_pins.py``);
* the stdout of every ``examples/*.py`` (``tests/golden/examples.json``),
  each run in a fresh copy of this interpreter.

On a mismatch it prints the interpreter and the first record that differs
(a vote, a counter, an example's line) and exits 1. It imports only the
standard library and the engine, so it runs on any supported CPython,
with or without pytest, numpy or scipy; ``scripts/ci_fast.sh`` runs it
under every ``python3.X`` it can start.

Usage::

    python scripts/check_pins.py
"""

from __future__ import annotations

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
    UNOPTIMIZED_TRACE_SHA256,
    collect_trace,
    run_example,
    unoptimized_trace_digest,
)

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


def check_examples() -> str | None:
    pinned = json.loads(EXAMPLES_GOLDEN_PATH.read_text(encoding="utf-8"))
    if sorted(pinned) != EXAMPLES:
        return f"examples {EXAMPLES}, pinned {sorted(pinned)}"
    for name in EXAMPLES:
        lines = run_example(name)
        for number, (want, got) in enumerate(zip(pinned[name], lines), start=1):
            if want != got:
                return f"examples/{name}.py line {number}: pinned {want!r}, got {got!r}"
        if len(lines) != len(pinned[name]):
            return f"examples/{name}.py: {len(lines)} lines, pinned {len(pinned[name])}"
    return None


def main() -> int:
    checks = {
        "scalar": check_scalar,
        "unoptimized": check_unoptimized,
        "examples": check_examples,
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
