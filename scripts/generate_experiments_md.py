"""Render EXPERIMENTS.md from the experiment registry and the pinned tables.

One section per paper artifact: the paper's claim, the reproduction's
verdict (holds, holds in shape, or deviates) and the seed-0 table pinned
in ``tests/golden/paper_artifacts.json``. No experiment runs here; re-pin
the tables with ``scripts/regen_golden_trace.py --paper``, then render.

Run:  PYTHONPATH=src python scripts/generate_experiments_md.py
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.experiments.registry import DEVIATES, EXPERIMENTS

REPO_ROOT = Path(__file__).resolve().parent.parent
PAPER_GOLDEN_PATH = REPO_ROOT / "tests" / "golden" / "paper_artifacts.json"

HEADER = """\
# EXPERIMENTS — paper vs measured

Every table and figure of *Human-powered Sorts and Joins* (VLDB 2011),
regenerated against the simulated marketplace at seed 0. The simulator is
calibrated to the paper's aggregate statistics, so the claims reproduced
are the *shapes*: who wins, by what factor, where the crossovers fall.
"""


def render(pinned: dict[str, list[str]]) -> str:
    """EXPERIMENTS.md's text: each artifact's claim, verdict and table."""
    sections = [HEADER]
    for entry in EXPERIMENTS:
        verdict = f"**Verdict: {entry.verdict}**"
        if entry.verdict == DEVIATES:
            verdict += ' (README.md, "Where the reproduction departs from the paper")'
        table = "\n".join(pinned[entry.experiment_id])
        sections.append(
            f"## {entry.experiment_id} — {entry.artifact}\n\n"
            f"Paper: {entry.claim}\n\n{verdict}\n\n```\n{table}\n```\n"
        )
    return "\n".join(sections)


def main() -> None:
    pinned = json.loads(PAPER_GOLDEN_PATH.read_text(encoding="utf-8"))
    path = REPO_ROOT / "EXPERIMENTS.md"
    path.write_text(render(pinned), encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
