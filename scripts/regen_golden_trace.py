"""Regenerate the golden determinism trace (or another determinism pin).

Only run this when a PR *intentionally* changes the RNG stream (see
README.md, "Performance & determinism contract"). The golden is written
from the currently active implementation, so regenerate from a tree whose
behaviour you trust — and call out the stream break in the PR description.

Usage::

    PYTHONPATH=src python scripts/regen_golden_trace.py            # scalar golden
    PYTHONPATH=src python scripts/regen_golden_trace.py --vector   # vector golden
    PYTHONPATH=src python scripts/regen_golden_trace.py --paper    # paper artifacts
    PYTHONPATH=src python scripts/regen_golden_trace.py --unoptimized  # baseline digest
    PYTHONPATH=src python scripts/regen_golden_trace.py --examples # example outputs

``--vector`` regenerates the *second* determinism domain's golden
(``tests/golden/determinism_trace_vector.json``), captured with the
``REPRO_VECTOR`` numpy kernel forced on. It requires numpy (the
``[vector]`` extra) and never touches the scalar golden — the two domains
break independently.

``--paper`` re-pins ``tests/golden/paper_artifacts.json``: the seed-0
table of every experiment-registry entry that has a runner, as text lines
(``tests/test_paper_artifacts.py`` compares them). It requires scipy (the
``[stats]`` extra) for EXP-S33's regression.

``--unoptimized`` re-pins ``UNOPTIMIZED_TRACE_SHA256`` in
``tests/determinism_pins.py``: the sha256 of the seed-0 trace of the
paper's baseline plan (Simple join + Compare sort), whose 1,123 HITs run
the scalar dispatch loop's exclusion picks and single-pair answers. The
constant is rewritten in place.

``--examples`` re-pins ``tests/golden/examples.json``: the stdout lines of
every ``examples/*.py``, each run in a fresh interpreter with no
``REPRO_*`` toggle set (``tests/test_examples.py`` compares them).

``--store`` re-pins ``tests/golden/answer_store.sql``: an ``iterdump`` of
the answer store a cold run of ``tests/test_store_replay.py``'s join and
sort writes, which that test must read warm without posting a HIT.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tests"))
sys.path.insert(0, str(REPO_ROOT / "src"))

from determinism_pins import (  # noqa: E402
    EXAMPLES_GOLDEN_PATH,
    GOLDEN_PATH,
    PAPER_GOLDEN_PATH,
    VECTOR_GOLDEN_PATH,
    collect_trace,
    render_artifacts,
    render_examples,
    unoptimized_trace_digest,
)

PINS_PATH = REPO_ROOT / "tests" / "determinism_pins.py"
_UNOPTIMIZED_PIN = re.compile(r'^UNOPTIMIZED_TRACE_SHA256 = "[0-9a-f]{64}"$', re.M)


def require_lint_clean() -> None:
    """Refuse to regenerate while non-baselined lint findings exist.

    The golden trace is the determinism contract's ground truth; rewriting
    it from a tree that still carries a known determinism hazard (a fresh
    RL001 hash() seed, an RL005 set-order leak, ...) would pin the hazard
    *into* the contract. Fix the findings — or baseline them with a reason —
    and rerun.
    """
    from repro.analysis import baseline as baseline_mod
    from repro.analysis.engine import lint_paths

    report = lint_paths(
        [REPO_ROOT / "src", REPO_ROOT / "tests"], repo_root=REPO_ROOT
    )
    entries = baseline_mod.load_baseline(baseline_mod.DEFAULT_BASELINE)
    new, _baselined, _stale = baseline_mod.partition(report.findings, entries)
    if new:
        print(
            "refusing to regenerate the golden trace: "
            f"{len(new)} non-baselined lint finding(s) (see docs/LINT.md):",
            file=sys.stderr,
        )
        for finding in new:
            print(f"  {finding.render()}", file=sys.stderr)
        raise SystemExit(1)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    which = parser.add_mutually_exclusive_group()
    which.add_argument(
        "--vector",
        action="store_true",
        help="regenerate the REPRO_VECTOR domain's golden instead of the scalar one",
    )
    which.add_argument(
        "--paper",
        action="store_true",
        help="re-pin the paper artifacts' rendered seed-0 tables",
    )
    which.add_argument(
        "--unoptimized",
        action="store_true",
        help="re-pin the unoptimized plan's trace digest (UNOPTIMIZED_TRACE_SHA256)",
    )
    which.add_argument(
        "--examples",
        action="store_true",
        help="re-pin the stdout of every examples/*.py",
    )
    which.add_argument(
        "--store",
        action="store_true",
        help="re-pin the committed answer-store dump",
    )
    options = parser.parse_args()
    require_lint_clean()
    if options.store:
        # The store pin's producer lives with its pytest module.
        from test_store_replay import GOLDEN_STORE_DUMP, write_golden_store_dump

        write_golden_store_dump()
        print(f"wrote {GOLDEN_STORE_DUMP}")
        return
    if options.unoptimized:
        digest = unoptimized_trace_digest()
        source, count = _UNOPTIMIZED_PIN.subn(
            f'UNOPTIMIZED_TRACE_SHA256 = "{digest}"',
            PINS_PATH.read_text(encoding="utf-8"),
        )
        if count != 1:
            print(
                f"expected one UNOPTIMIZED_TRACE_SHA256 line in {PINS_PATH}, "
                f"found {count}",
                file=sys.stderr,
            )
            raise SystemExit(1)
        PINS_PATH.write_text(source, encoding="utf-8")
        print(f"pinned UNOPTIMIZED_TRACE_SHA256 = {digest} in {PINS_PATH}")
        return
    if options.examples:
        outputs = render_examples()
        EXAMPLES_GOLDEN_PATH.write_text(
            json.dumps(outputs, indent=1, ensure_ascii=False) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {EXAMPLES_GOLDEN_PATH}: {len(outputs)} examples")
        return
    if options.paper:
        try:
            import scipy  # noqa: F401
        except ImportError:
            print(
                "scipy is not installed; the paper artifacts can only be "
                "re-pinned with the [stats] extra present",
                file=sys.stderr,
            )
            raise SystemExit(1)
        artifacts = render_artifacts()
        PAPER_GOLDEN_PATH.write_text(
            json.dumps(artifacts, indent=1, ensure_ascii=False) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {PAPER_GOLDEN_PATH}: {len(artifacts)} artifacts")
        return
    if options.vector:
        from repro.util.toggles import VECTOR

        if not VECTOR.available():
            print(
                "numpy is not installed; the vector golden can only be "
                "regenerated with the [vector] extra present",
                file=sys.stderr,
            )
            raise SystemExit(1)
        path = VECTOR_GOLDEN_PATH
        with VECTOR.forced(True):
            trace = collect_trace(seed=0)
    else:
        path = GOLDEN_PATH
        trace = collect_trace(seed=0)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(trace, indent=1, sort_keys=True))
    print(
        f"wrote {path}: {len(trace['votes'])} votes, "
        f"clock={trace['clock_seconds']}, ledger={trace['ledger']}"
    )


if __name__ == "__main__":
    main()
