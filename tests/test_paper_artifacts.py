"""Every paper artifact's seed-0 result, pinned and shape-checked.

Each registry runner runs once. Its table must equal the lines pinned in
``tests/golden/paper_artifacts.json`` (a moved number fails and names the
cell), and its whole result must pass the artifact's check in
``tests/paper_checks.py`` (a re-pin that breaks the paper's shape fails).
Re-pin with ``scripts/regen_golden_trace.py --paper`` only on purpose.
"""

from __future__ import annotations

import json
import re
import runpy

import pytest

from determinism_pins import PAPER_GOLDEN_PATH, REPO_ROOT, REQUIRES
from paper_checks import CHECKS
from repro.experiments.registry import DEVIATES, EXPERIMENTS, render_experiment, run_experiment

render_experiments_md = runpy.run_path(
    str(REPO_ROOT / "scripts" / "generate_experiments_md.py")
)["render"]


@pytest.fixture(scope="module")
def pinned() -> dict[str, list[str]]:
    return json.loads(PAPER_GOLDEN_PATH.read_text(encoding="utf-8"))


def test_every_artifact_is_pinned_and_checked(pinned):
    ids = [entry.experiment_id for entry in EXPERIMENTS]
    assert sorted(pinned) == sorted(ids)
    assert sorted(CHECKS) == sorted(ids)


@pytest.mark.parametrize("entry", EXPERIMENTS, ids=lambda entry: entry.experiment_id)
def test_artifact_table_matches_pin(entry, pinned):
    if entry.experiment_id in REQUIRES:
        pytest.importorskip(REQUIRES[entry.experiment_id])
    result = run_experiment(entry, seed=0)
    assert render_experiment(result).splitlines() == pinned[entry.experiment_id]
    CHECKS[entry.experiment_id](result)


def test_experiments_md_renders_every_artifact_from_the_pins(pinned):
    text = render_experiments_md(pinned)
    sections = text.split("\n## ")[1:]
    assert len(sections) == len(EXPERIMENTS)
    for entry, section in zip(EXPERIMENTS, sections):
        assert section.startswith(f"{entry.experiment_id} — {entry.artifact}\n")
        assert entry.claim in section and f"**Verdict: {entry.verdict}**" in section
        assert "\n".join(pinned[entry.experiment_id]) in section


def test_deviating_artifacts_are_the_readme_departures():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    departures = readme.split("## Where the reproduction departs from the paper")[1]
    named = re.findall(r"^- \*\*(EXP-[\w]+)\*\*", departures.split("\n## ")[0], re.M)
    deviating = [entry.experiment_id for entry in EXPERIMENTS if entry.verdict == DEVIATES]
    assert sorted(named) == sorted(deviating)
