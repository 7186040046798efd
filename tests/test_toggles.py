"""The REPRO_* toggle table and its environment contract.

Every toggle is a :class:`~repro.util.toggles.Toggle` in ``TOGGLES``. The
generic contract is parametrized over the table: a value is captured at
import and re-read at every ``Qurk``/``EngineSession`` construction, where
a *changed* value wins over ``set_enabled``/``forced`` and an unchanged
one leaves them alone; values parse strictly. The toggle-specific tests
pin what each switch does. The retired FASTPATH, PIPELINE and SORTSCALE
variables are ignored.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.engine import Qurk
from repro.core.session import EngineSession
from repro.crowd import SimulatedMarketplace
from repro.datasets import animals_dataset
from repro.errors import PlanError
from repro.util.toggles import ADAPT, RESILIENCE, STORE, TOGGLES, VECTOR, refresh_all

REPO_ROOT = Path(__file__).resolve().parent.parent
QUERY = "SELECT a.name FROM animals a"
FACADES = pytest.mark.parametrize(
    "facade", [Qurk, EngineSession], ids=["Qurk", "EngineSession"]
)
EACH_TOGGLE = pytest.mark.parametrize("toggle", TOGGLES, ids=lambda t: t.env)


@pytest.fixture
def env(monkeypatch):
    """``monkeypatch`` for the environment; every toggle is re-read once the
    environment is restored, so no test leaks a setting into the next."""
    yield monkeypatch
    monkeypatch.undo()
    refresh_all()


def _require_unset(name: str) -> None:
    if os.environ.get(name) is not None:
        pytest.skip(f"{name} is set in this environment; test assumes defaults")


def animals_engine(faults=None):
    data = animals_dataset()
    market = SimulatedMarketplace(data.truth, seed=1, faults=faults)
    engine = Qurk(platform=market)
    engine.register_table(data.table)
    return engine, data


# ---------------------------------------------------------------------------
# the table, the spellings and the generic contract
# ---------------------------------------------------------------------------


def test_table_declares_the_four_toggles():
    assert [t.env for t in TOGGLES] == [
        "REPRO_ADAPT",
        "REPRO_RESILIENCE",
        "REPRO_STORE",
        "REPRO_VECTOR",
    ]


def test_api_doc_table_lists_exactly_the_toggle_table():
    api = (REPO_ROOT / "docs" / "API.md").read_text(encoding="utf-8")
    section = api.split("### Environment toggles\n", 1)[1]
    table = section.strip().split("\n\n", 1)[0]
    rows = re.findall(r"^\| `(REPRO_\w+)` \| `([01])` \|", table, re.MULTILINE)
    assert rows == [(t.env, str(int(t.default))) for t in TOGGLES]
    assert len(table.splitlines()) == 2 + len(TOGGLES)


@EACH_TOGGLE
@pytest.mark.parametrize(
    "raw, expected",
    [
        ("1", True), ("true", True), (" Yes ", True), ("ON", True),
        ("0", False), ("False", False), (" no", False), ("Off\n", False),
        ("", None), ("  ", None),
    ],
)
def test_accepted_spellings(toggle, raw, expected, env):
    """Accepted spellings ignore case and surrounding whitespace; an empty
    value counts as unset and keeps the default."""
    env.setenv(toggle.env, raw)
    toggle.refresh()
    assert toggle.requested() == (toggle.default if expected is None else expected)


@EACH_TOGGLE
@pytest.mark.parametrize("raw", ["disabled", "flase", "2", "o n"])
def test_malformed_value_raises_at_construction(toggle, raw, env):
    """Any other value used to switch the toggle on (``REPRO_VECTOR=disabled``
    armed the numpy kernel); now construction names the variable, the value
    and the accepted spellings, and the setting is left as it was."""
    before = toggle.requested()
    env.setenv(toggle.env, raw)
    with pytest.raises(PlanError, match=rf"{toggle.env}={raw!r}.*true.*off"):
        animals_engine()
    assert toggle.requested() == before


def test_malformed_value_set_before_import_raises_at_construction_not_import():
    script = (
        "import repro\n"
        "from repro.core.engine import Qurk\n"
        "from repro.crowd import SimulatedMarketplace\n"
        "from repro.datasets import animals_dataset\n"
        "from repro.errors import PlanError\n"
        "from repro.util.toggles import VECTOR\n"
        "assert not VECTOR.requested()\n"
        "try:\n"
        "    Qurk(platform=SimulatedMarketplace(animals_dataset().truth, seed=1))\n"
        "except PlanError as exc:\n"
        "    assert \"REPRO_VECTOR='disabled'\" in str(exc), exc\n"
        "else:\n"
        "    raise SystemExit('no PlanError')\n"
    )
    environ = {**os.environ, "REPRO_VECTOR": "disabled"}
    environ["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), environ.get("PYTHONPATH", "")]
    )
    done = subprocess.run(
        [sys.executable, "-c", script], env=environ, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr


@EACH_TOGGLE
@FACADES
def test_env_set_after_import_takes_effect_at_construction(toggle, facade, env):
    _require_unset(toggle.env)
    env.setenv(toggle.env, str(int(not toggle.default)))
    assert toggle.requested() == toggle.default  # construction re-reads it
    facade(platform=SimulatedMarketplace(animals_dataset().truth, seed=1))
    assert toggle.requested() != toggle.default


@EACH_TOGGLE
def test_unchanged_env_leaves_forced_alone(toggle):
    _require_unset(toggle.env)
    with toggle.forced(not toggle.default):
        animals_engine()
        assert toggle.requested() != toggle.default
    assert toggle.requested() == toggle.default


@EACH_TOGGLE
def test_changed_env_beats_set_enabled(toggle, env):
    _require_unset(toggle.env)
    previous = toggle.set_enabled(not toggle.default)
    try:
        env.setenv(toggle.env, str(int(toggle.default)))
        animals_engine()
        assert toggle.requested() == toggle.default
    finally:
        toggle.set_enabled(previous)


# ---------------------------------------------------------------------------
# what each toggle switches
# ---------------------------------------------------------------------------


def test_adapt_env_set_after_import_takes_effect_at_engine_construction(env):
    _require_unset("REPRO_ADAPT")
    env.setenv("REPRO_ADAPT", "0")
    engine, _ = animals_engine()
    assert engine.execute(QUERY).adaptive_summary is None  # static rewriter ran
    env.delenv("REPRO_ADAPT")
    engine, _ = animals_engine()
    assert engine.execute(QUERY).adaptive_summary is not None


def test_resilience_env_set_after_import_takes_effect_at_engine_construction(env):
    """With the layer off, a faulted marketplace's engine never arms it."""
    from repro.crowd import FaultPlan

    _require_unset("REPRO_RESILIENCE")
    faults = FaultPlan(abandonment_rate=0.2)
    env.setenv("REPRO_RESILIENCE", "0")
    engine, _ = animals_engine(faults)
    assert engine.execute(QUERY).degradation_summary is None
    env.delenv("REPRO_RESILIENCE")
    engine, _ = animals_engine(faults)
    assert engine.execute(QUERY).degradation_summary is not None


def test_resilience_env_honored_by_session_construction(env):
    from repro.crowd import FaultPlan

    _require_unset("REPRO_RESILIENCE")
    env.setenv("REPRO_RESILIENCE", "0")
    data = animals_dataset()
    session = EngineSession(
        platform=SimulatedMarketplace(
            data.truth, seed=1, faults=FaultPlan(abandonment_rate=0.2)
        )
    )
    session.register_table(data.table)
    handle = session.submit(QUERY)
    session.run()
    assert handle.result.degradation_summary is None


def test_store_env_set_after_import_takes_effect_at_engine_construction(
    tmp_path, env
):
    _require_unset("REPRO_STORE")
    db_path = tmp_path / "answers.db"
    env.setenv("REPRO_STORE", "0")
    data = animals_dataset()
    engine = Qurk(platform=SimulatedMarketplace(data.truth, seed=1), store=db_path)
    assert engine.store is None  # configured store ignored entirely
    engine.register_table(data.table)
    assert engine.execute(QUERY).store_summary is None
    assert not db_path.exists()  # not even the file was opened
    env.delenv("REPRO_STORE")
    engine = Qurk(platform=SimulatedMarketplace(data.truth, seed=1), store=db_path)
    assert engine.store is not None
    engine.store.close()


def test_store_env_honored_by_session_construction(tmp_path, env):
    from repro.hits.cache import TaskCache

    _require_unset("REPRO_STORE")
    db_path = tmp_path / "answers.db"
    env.setenv("REPRO_STORE", "0")
    data = animals_dataset()
    session = EngineSession(
        platform=SimulatedMarketplace(data.truth, seed=1), store=db_path
    )
    assert session.store is None
    # With the store ignored, the session falls back to a plain
    # in-process TaskCache as its shared cross-query cache.
    assert isinstance(session.cache, TaskCache)
    assert not db_path.exists()


def test_store_refresh_does_not_clobber_forced_context(tmp_path):
    """A forced(False) block survives engine construction inside it: the
    configured store stays detached."""
    data = animals_dataset()
    with STORE.forced(False):
        engine = Qurk(
            platform=SimulatedMarketplace(data.truth, seed=1),
            store=tmp_path / "answers.db",
        )
        assert engine.store is None
    assert STORE.enabled()


def test_vector_env_set_after_import_takes_effect_at_engine_construction(env):
    """REPRO_VECTOR defaults *off* (opt-in); once requested, enabled()
    additionally gates on numpy being importable."""
    _require_unset("REPRO_VECTOR")
    env.setenv("REPRO_VECTOR", "1")
    animals_engine()
    assert VECTOR.requested()
    assert VECTOR.enabled() == VECTOR.available()
    env.delenv("REPRO_VECTOR")
    animals_engine()
    assert not VECTOR.requested()
    assert not VECTOR.enabled()


def test_vector_env_honored_by_session_construction(env):
    _require_unset("REPRO_VECTOR")
    env.setenv("REPRO_VECTOR", "1")
    EngineSession(platform=SimulatedMarketplace(animals_dataset().truth, seed=1))
    assert VECTOR.requested()
    assert VECTOR.enabled() == VECTOR.available()


def test_vector_requested_without_numpy_degrades_to_scalar(monkeypatch):
    """With numpy unimportable, a requested kernel must not break anything:
    enabled() stays False, the degradation note appears, a RuntimeWarning
    fires at construction, and the query runs on the scalar path."""
    monkeypatch.setattr(VECTOR, "_available", False)
    # Both the forced() entry and engine construction warn; the whole
    # block sits inside pytest.warns so neither leaks into the run log.
    with pytest.warns(RuntimeWarning, match="REPRO_VECTOR"):
        with VECTOR.forced(True):
            assert VECTOR.requested()
            assert not VECTOR.available()
            assert not VECTOR.enabled()
            note = VECTOR.status_note()
            assert note is not None and "numpy is not installed" in note
            engine, _ = animals_engine()
            result = engine.execute(QUERY)
            assert result.rows
            # The degradation note also reaches the EXPLAIN footer.
            assert "numpy is not installed" in result.explain()


def test_resilience_config_overrides_toggle():
    """ExecutionConfig.resilience beats the toggle in both directions (on a
    faulted marketplace, where the default also arms the layer)."""
    from repro.core.context import ExecutionConfig
    from repro.crowd import FaultPlan

    faults = FaultPlan(abandonment_rate=0.2)
    with RESILIENCE.forced(True):
        engine, _ = animals_engine(faults)
        result = engine.execute(QUERY, config=ExecutionConfig(resilience=False))
        assert result.degradation_summary is None
    with RESILIENCE.forced(False):
        engine, _ = animals_engine(faults)
        result = engine.execute(QUERY, config=ExecutionConfig(resilience=True))
        assert result.degradation_summary is not None


def test_adapt_config_overrides_toggle():
    from repro.core.context import ExecutionConfig

    engine, _ = animals_engine()
    with ADAPT.forced(True):
        result = engine.execute(QUERY, config=ExecutionConfig(adapt=False))
        assert result.adaptive_summary is None
    with ADAPT.forced(False):
        result = engine.execute(QUERY, config=ExecutionConfig(adapt=True))
        assert result.adaptive_summary is not None


def test_retired_toggles_are_ignored(env):
    """REPRO_FASTPATH, REPRO_PIPELINE and REPRO_SORTSCALE no longer select
    anything: set to 0, the engine still pipelines on an overlap-capable
    platform, a session still overlaps, the LIMIT tournament still runs,
    and the stub modules still report the one implementation."""
    from repro.datasets.squares import squares_dataset
    from repro.util import fastpath, pipeline, sortscale

    for var in ("REPRO_FASTPATH", "REPRO_PIPELINE", "REPRO_SORTSCALE"):
        env.setenv(var, "0")
    engine, _ = animals_engine()
    assert engine.execute(QUERY).pipeline_summary
    data = animals_dataset()
    session = EngineSession(platform=SimulatedMarketplace(data.truth, seed=1))
    session.register_table(data.table)
    session.submit(QUERY)
    session.submit(QUERY)
    assert session.run().stats.mode == "concurrent"
    squares = squares_dataset(n=12, seed=0)
    engine = Qurk(platform=SimulatedMarketplace(squares.truth, seed=0))
    engine.register_table(squares.table)
    engine.define(squares.task_dsl)
    result = engine.execute(
        "SELECT squares.label FROM squares "
        "ORDER BY squareSorter(img) DESC LIMIT 2"
    )
    signals = {}
    for stats in result.node_stats.values():
        signals.update(stats.signals)
    assert signals.get("limit_tournament_k") == 2.0
    assert fastpath.enabled() and pipeline.enabled() and sortscale.enabled()
