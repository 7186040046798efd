"""Fast-lane smoke for the REPRO_VECTOR dispatch kernel.

Runs the optimized Table 5 macro at 4x scale under the scalar path
and under the numpy batch kernel, and checks the cross-domain workload
contract that the full panels pin more thoroughly elsewhere:

* HIT and assignment counts agree within the benchmark's cross-domain
  tolerance (the two determinism domains draw different answers, and
  answer-dependent feature filtering shifts the posted workload slightly —
  bit-equality is the wrong bar, see ``benchmarks/bench_perf_hotpath.py``);
* the vector leg, run twice, produces identical counts (run-to-run
  determinism; the full bit-level pin is the vector golden trace in
  ``tests/test_determinism_trace.py``).

Exits 0 with a notice when numpy (the ``[vector]`` extra) is missing —
the fast CI lane must stay green on a stdlib-only interpreter.

Usage::

    PYTHONPATH=src python scripts/vector_smoke.py [--seed N]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.util import vector as vector_toggle  # noqa: E402

SMOKE_SCALE = 4


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    if not vector_toggle.available():
        print(
            "vector smoke skipped: numpy not installed ([vector] extra); "
            "REPRO_VECTOR degrades to the scalar path"
        )
        return 0

    from bench_perf_hotpath import VECTOR_COUNT_TOLERANCE, _run_table5_variant

    counts: dict[str, tuple[int, int]] = {}
    timings: dict[str, float] = {}
    for label, vector_on in (("fast", False), ("vector", True)):
        with vector_toggle.forced(vector_on):
            start = time.perf_counter()
            counts[label] = _run_table5_variant(
                SMOKE_SCALE, "optimized", seed=args.seed
            )
            timings[label] = time.perf_counter() - start
    with vector_toggle.forced(True):
        repeat = _run_table5_variant(SMOKE_SCALE, "optimized", seed=args.seed)

    if repeat != counts["vector"]:
        print(
            "VECTOR SMOKE FAILED: vector dispatch is not run-to-run "
            f"deterministic at {SMOKE_SCALE}x: {counts['vector']} then {repeat}",
            file=sys.stderr,
        )
        return 1
    for fast_count, vector_count in zip(counts["fast"], counts["vector"]):
        if abs(vector_count - fast_count) > max(
            2, VECTOR_COUNT_TOLERANCE * fast_count
        ):
            print(
                "VECTOR SMOKE FAILED: vector workload diverges from the "
                f"scalar path at {SMOKE_SCALE}x beyond "
                f"{VECTOR_COUNT_TOLERANCE:.0%}: fast={counts['fast']} "
                f"vector={counts['vector']}",
                file=sys.stderr,
            )
            return 1
    print(
        f"vector smoke OK at {SMOKE_SCALE}x: "
        f"fast=({counts['fast'][0]} hits, {counts['fast'][1]} asn, "
        f"{timings['fast']:.2f}s) "
        f"vector=({counts['vector'][0]} hits, {counts['vector'][1]} asn, "
        f"{timings['vector']:.2f}s), run-to-run identical"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
