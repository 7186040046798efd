"""``scripts/check_pins.py`` reports the interpreter and the first record
that differs from a pin, or the paper check that fails."""

from __future__ import annotations

import importlib.util
import json
import platform
from pathlib import Path

from determinism_pins import GOLDEN_PATH, PAPER_GOLDEN_PATH
from paper_checks import CHECKS

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "check_pins.py"
_spec = importlib.util.spec_from_file_location("check_pins", SCRIPT)
check_pins = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_pins)


def test_altered_golden_names_the_first_differing_vote(tmp_path):
    golden = json.loads(GOLDEN_PATH.read_text())
    for index in (41, 90):
        golden["votes"][index][2] = "altered"
    altered = tmp_path / "golden.json"
    altered.write_text(json.dumps(golden))

    difference = check_pins.check_scalar(altered)
    assert difference.startswith("trace.votes[41]: pinned [")
    assert "'altered'], got [" in difference and "votes[90]" not in difference
    assert check_pins.check_scalar() is None


def test_altered_paper_golden_names_the_first_differing_line(tmp_path):
    golden = json.loads(PAPER_GOLDEN_PATH.read_text())
    want = golden["EXP-T1"][2]
    golden["EXP-T1"][2] = "altered"
    altered = tmp_path / "paper.json"
    altered.write_text(json.dumps(golden))

    assert check_pins.check_paper(altered) == (
        f"paper EXP-T1 line 3: pinned 'altered', got {want!r}"
    )


def test_a_failing_check_names_the_artifact_and_its_assertion():
    def refuse(table):
        assert table.cell("IDEAL", "TruePos (MV)") == 21

    line = refuse.__code__.co_firstlineno + 1
    difference = check_pins.check_paper(checks={**CHECKS, "EXP-T1": refuse})
    assert difference == (
        f"paper EXP-T1 check failed at test_check_pins.py:{line}: "
        'assert table.cell("IDEAL", "TruePos (MV)") == 21'
    )


def test_a_report_names_the_interpreter():
    assert check_pins.interpreter().startswith(f"CPython {platform.python_version()} (")


def test_first_difference_walks_records_in_order():
    first = check_pins.first_difference
    assert first({"a": [[1, 2], [3, 4]]}, {"a": [[1, 2], [3, 4]]}, "t") is None
    assert first({"a": [[1, 2], [3, 4]]}, {"a": [[1, 2], [3, 5]]}, "t") == (
        "t.a[1]: pinned [3, 4], got [3, 5]"
    )
    assert first({"a": [[1]]}, {"a": [[1], [2]]}, "t") == "t.a: 2 records, pinned 1"
    assert first({"a": 1, "b": 2}, {"a": 1}, "t") == "t.b: pinned 2, got None"
