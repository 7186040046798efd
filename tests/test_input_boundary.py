"""One input boundary: every public config field declares one rule.

The seven public config classes each carry a ``rules`` table with one
:class:`~repro.util.fields.Rule` per dataclass field, checked by
:func:`~repro.util.fields.check_fields` at construction. The bad values
below are generated from the rules themselves: the wrong type, a bool where
the field is not a flag, ``None`` where it is not allowed, NaN and ±inf on
reals, and the value just past each bound. Each must raise the class's
``QurkError`` subclass naming the class and the field; each bound a rule
admits must construct. ``docs/API.md`` prints the same rules, and
``test_api_doc_tables_print_the_rules`` holds the two together.
"""

from __future__ import annotations

import math
import re
from dataclasses import fields
from pathlib import Path

import pytest

from repro.combine.adaptive import AdaptivePolicy
from repro.core.context import ExecutionConfig
from repro.crowd import GroundTruth, SimulatedMarketplace
from repro.crowd.faults import FaultPlan
from repro.crowd.latency import LatencyConfig, TimeOfDay
from repro.crowd.pool import PoolConfig
from repro.errors import ConfigError, MarketplaceError, QurkError, StoreConfigError
from repro.hits.resilience import RetryPolicy
from repro.hits.store import PersistentAnswerStore, StoreConfig, open_store
from repro.util.fields import CHOICE, FLAG, INTEGER, REAL, Rule
from repro.util.toggles import STORE

REPO_ROOT = Path(__file__).resolve().parent.parent

ERRORS = {
    ExecutionConfig: ConfigError,
    LatencyConfig: MarketplaceError,
    FaultPlan: ConfigError,
    PoolConfig: ConfigError,
    AdaptivePolicy: ConfigError,
    RetryPolicy: ConfigError,
    StoreConfig: StoreConfigError,
}
"""Each public config class → the error a rejected value raises."""

REQUIRED = {StoreConfig: {"path": "answers.db"}}
"""Arguments a class needs besides the field under test."""

COMPANIONS = {
    (PoolConfig, "reliable_fraction"): lambda v: {"sloppy_fraction": 1 - v, "spammer_fraction": 0},
    (PoolConfig, "sloppy_fraction"): lambda v: {"reliable_fraction": 1 - v, "spammer_fraction": 0},
    (PoolConfig, "spammer_fraction"): lambda v: {"reliable_fraction": 1 - v, "sloppy_fraction": 0},
    (AdaptivePolicy, "max_votes"): lambda v: {"initial_votes": min(v, 3)},
}
"""Values that keep a cross-field rule satisfied when one field moves to a
value its own rule admits."""

FIELDS = [(cls, name) for cls in ERRORS for name in cls.rules]


def build(cls, name, value, admitted=False):
    kwargs = dict(REQUIRED.get(cls, {}))
    companions = COMPANIONS.get((cls, name))
    if admitted and companions is not None:
        kwargs.update(companions(value))
    kwargs[name] = value
    return cls(**kwargs)


def _step(value, rule: Rule, upward: bool):
    """The next representable value above or below ``value``."""
    if rule.kind == INTEGER:
        return value + (1 if upward else -1)
    return math.nextafter(value, math.inf if upward else -math.inf)


def rejected_values(rule: Rule) -> list:
    """Values ``rule`` must reject, derived from its kind and bounds."""
    values = [b"x"]
    if rule.kind != FLAG:
        values += [True, False]
    if not rule.optional:
        values.append(None)
    if rule.kind == REAL:
        values += [math.nan, math.inf, -math.inf]
    if rule.kind == INTEGER:
        values.append(2.5)
    if rule.kind in (INTEGER, REAL):
        if rule.low is not None:
            values.append(rule.low if rule.low_open else _step(rule.low, rule, False))
        if rule.high is not None:
            values.append(rule.high if rule.high_open else _step(rule.high, rule, True))
    return values


def admitted_values(rule: Rule) -> list:
    """Values ``rule`` must admit: each bound (or the value just inside an
    open one), each choice, each flag and ``None`` where allowed."""
    values = [None] if rule.optional else []
    if rule.kind == FLAG:
        values += [True, False]
    if rule.kind == CHOICE:
        values += list(rule.choices)
    if rule.kind in (INTEGER, REAL):
        if rule.low is not None:
            values.append(_step(rule.low, rule, True) if rule.low_open else rule.low)
        if rule.high is not None:
            values.append(_step(rule.high, rule, False) if rule.high_open else rule.high)
    return values


def test_seven_classes_declare_75_rules():
    assert sum(len(cls.rules) for cls in ERRORS) == 75


@pytest.mark.parametrize("cls", list(ERRORS), ids=lambda cls: cls.__name__)
def test_one_rule_per_field(cls):
    assert list(cls.rules) == [f.name for f in fields(cls)]
    assert all(isinstance(rule, Rule) for rule in cls.rules.values())


@pytest.mark.parametrize(
    "cls, name", FIELDS, ids=[f"{cls.__name__}.{name}" for cls, name in FIELDS]
)
def test_rule_rejects_and_admits(cls, name):
    rule = cls.rules[name]
    error = ERRORS[cls]
    for value in rejected_values(rule):
        named = re.escape(f"{cls.__name__}.{name} must be {rule.text}, got {value!r}")
        with pytest.raises(error, match=named):
            build(cls, name, value)
    for value in admitted_values(rule):
        assert getattr(build(cls, name, value, admitted=True), name) == value


def test_execution_config_shares_the_retry_rules():
    for name in ("retry_deadline", "max_reposts", "backoff_base", "degrade_quorum"):
        assert ExecutionConfig.rules[name] is RetryPolicy.rules[name]
    shared = dict(retry_deadline=600.0, max_reposts=4, backoff_base=30.0, degrade_quorum=0.8)
    assert RetryPolicy.from_config(ExecutionConfig(**shared)) == RetryPolicy(**shared)
    assert RetryPolicy.from_config(ExecutionConfig()) == RetryPolicy()


def test_cross_field_rules_raise_config_errors():
    with pytest.raises(ConfigError, match="PoolConfig archetype fractions must sum to 1"):
        PoolConfig(reliable_fraction=0.5, sloppy_fraction=0.2, spammer_fraction=0.2)
    with pytest.raises(ConfigError, match="AdaptivePolicy.max_votes must be >= initial_votes"):
        AdaptivePolicy(max_votes=2, initial_votes=3)


def test_config_error_keeps_the_builtin_bases():
    assert issubclass(ConfigError, ValueError) and issubclass(ConfigError, TypeError)
    assert issubclass(StoreConfigError, ConfigError)
    assert not issubclass(ConfigError, MarketplaceError)


# ---------------------------------------------------------------------------
# the probes that used to get through
# ---------------------------------------------------------------------------


def market(**kwargs):
    return SimulatedMarketplace(GroundTruth(), **kwargs)


PROBES = [
    (ExecutionConfig, {"combine_features": "no"}, "ExecutionConfig.combine_features"),
    (ExecutionConfig, {"use_feature_filters": 0}, "ExecutionConfig.use_feature_filters"),
    (ExecutionConfig, {"join_interface": "smart"}, "ExecutionConfig.join_interface"),
    (ExecutionConfig, {"max_budget": math.inf}, "ExecutionConfig.max_budget"),
    (ExecutionConfig, {"backoff_base": math.inf}, "ExecutionConfig.backoff_base"),
    (ExecutionConfig, {"retry_deadline": math.inf}, "ExecutionConfig.retry_deadline"),
    (FaultPlan, {"spam_rate": "x"}, "FaultPlan.spam_rate"),
    (FaultPlan, {"straggler_factor": math.nan}, "FaultPlan.straggler_factor"),
    (FaultPlan, {"straggler_factor": math.inf}, "FaultPlan.straggler_factor"),
    (FaultPlan, {"abandonment_rate": True}, "FaultPlan.abandonment_rate"),
    (PoolConfig, {"size": 10.5}, "PoolConfig.size"),
    (PoolConfig, {"zipf_exponent": math.nan}, "PoolConfig.zipf_exponent"),
    (
        PoolConfig,
        {"reliable_fraction": 1.5, "sloppy_fraction": -0.5, "spammer_fraction": 0},
        "PoolConfig.reliable_fraction",
    ),
    (AdaptivePolicy, {"margin": "x"}, "AdaptivePolicy.margin"),
    (AdaptivePolicy, {"max_votes": 9.5}, "AdaptivePolicy.max_votes"),
    (RetryPolicy, {"max_reposts": -1}, "RetryPolicy.max_reposts"),
    (RetryPolicy, {"backoff_factor": 0}, "RetryPolicy.backoff_factor"),
    (RetryPolicy, {"price_escalation": -1}, "RetryPolicy.price_escalation"),
    (RetryPolicy, {"circuit_threshold": 0}, "RetryPolicy.circuit_threshold"),
    (StoreConfig, {"path": 5}, "StoreConfig.path"),
    (StoreConfig, {"path": "a.db", "max_rows": 2.5}, "StoreConfig.max_rows"),
    (StoreConfig, {"path": "a.db", "max_bytes": True}, "StoreConfig.max_bytes"),
    (StoreConfig, {"path": "a.db", "ttl_seconds": math.inf}, "StoreConfig.ttl_seconds"),
    (market, {"seed": 1.5}, "SimulatedMarketplace.seed"),
    (market, {"seed": True}, "SimulatedMarketplace.seed"),
    (market, {"seed": "x"}, "SimulatedMarketplace.seed"),
    (market, {"time_of_day": "noon"}, "SimulatedMarketplace.time_of_day"),
]


@pytest.mark.parametrize(
    "build_it, kwargs, named",
    PROBES,
    ids=[f"{named}={kwargs[named.split('.')[1]]!r}" for _, kwargs, named in PROBES],
)
def test_probe_raises_at_construction(build_it, kwargs, named):
    """Each of these used to construct (and run, or fail mid-query) or
    raise a raw builtin exception."""
    with pytest.raises(QurkError, match=re.escape(named)):
        build_it(**kwargs)


def test_marketplace_accepts_a_time_of_day_or_its_value():
    assert market(time_of_day="evening").time_of_day is TimeOfDay.EVENING
    assert market(time_of_day=TimeOfDay.MORNING, seed=-3).time_of_day is TimeOfDay.MORNING


def test_store_knobs_share_store_config_rules(tmp_path):
    with pytest.raises(StoreConfigError, match=r"StoreConfig\.max_rows must be"):
        PersistentAnswerStore(tmp_path / "a.db", max_rows=2.5)
    with pytest.raises(StoreConfigError, match=r"StoreConfig\.path must be"):
        PersistentAnswerStore(5)
    with pytest.raises(StoreConfigError, match="store must be a PersistentAnswerStore"):
        open_store(42)
    assert not (tmp_path / "a.db").exists()


def test_store_path_may_be_any_path_like(tmp_path):
    class Where:
        def __fspath__(self):
            return str(tmp_path / "b.db")

    store = PersistentAnswerStore(Where())
    assert store.path == tmp_path / "b.db"
    store.close()
    assert StoreConfig(Where()).path.__fspath__() == str(tmp_path / "b.db")


def test_bad_store_spec_raises_with_the_store_off(tmp_path):
    """The file is never opened under ``REPRO_STORE=0``; the spec is still
    checked where it is built."""
    with STORE.forced(False), pytest.raises(StoreConfigError, match="ttl_seconds"):
        StoreConfig(tmp_path / "a.db", ttl_seconds=math.inf)


# ---------------------------------------------------------------------------
# docs/API.md prints the rules
# ---------------------------------------------------------------------------


_TABLE_HEAD = re.compile(r"^\| `(\w+)` field \| Default \| Rule \| Meaning \|$")
_TABLE_ROW = re.compile(r"^\| `(\w+)` \| [^|]* \| ([^|]*) \| .* \|$")


def doc_rule_tables() -> dict[str, dict[str, str]]:
    """Class name → field → Rule cell, over every field table in the doc."""
    tables: dict[str, dict[str, str]] = {}
    current = None
    for line in (REPO_ROOT / "docs" / "API.md").read_text(encoding="utf-8").splitlines():
        head = _TABLE_HEAD.match(line)
        if head:
            current = tables.setdefault(head[1], {})
        elif current is not None and line.startswith("|"):
            if set(line) <= set("|-: "):
                continue
            row = _TABLE_ROW.match(line)
            assert row, f"unparsable field-table row: {line}"
            assert row[1] not in current, f"{row[1]} listed twice"
            current[row[1]] = row[2]
        else:
            current = None
    return tables


def test_api_doc_tables_print_the_rules():
    tables = doc_rule_tables()
    assert sorted(tables) == sorted(cls.__name__ for cls in ERRORS)
    for cls in ERRORS:
        rows = tables[cls.__name__]
        assert sorted(rows) == sorted(cls.rules), cls.__name__
        for name, rule in cls.rules.items():
            assert rows[name] == rule.text, f"{cls.__name__}.{name}"
