"""Global switch for the cost-based adaptive re-optimizer.

The paper's optimizer applies only static rewrites — "Qurk has no
selectivity estimation" (§2.5) — and defers cost/budget-aware planning to
future work (§6). :mod:`repro.core.adaptive` supplies that missing layer:
a per-operator cost model scores candidate plans, crowd conjuncts are
ordered by *observed* selectivity instead of query order, and the engine
re-plans the remaining subtree mid-query as pass rates come in.

This module is the kill switch. The adaptive optimizer is on by default;
set ``REPRO_ADAPT=0`` in the environment (or call :func:`set_enabled`) to
revert to the purely static rewriter — with the toggle off, plans, HIT
posting order, votes, and the pinned golden trace are bit-identical to the
pre-adaptive implementation (``tests/test_adaptive_optimizer.py`` enforces
this). ``ExecutionConfig.adapt`` overrides the switch per query.

The environment variable is re-read by :func:`refresh_from_env` at engine
and session construction, so exporting it after ``import repro`` still
takes effect (the pattern every toggle module follows); an unchanged
environment leaves programmatic overrides alone.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

_ENV_VAR = "REPRO_ADAPT"
_OFF_VALUES = ("0", "false", "no", "off")


def _parse(raw: str | None) -> bool:
    return (raw if raw is not None else "1").lower() not in _OFF_VALUES


_ENV_RAW: str | None = os.environ.get(_ENV_VAR)
_ENABLED: bool = _parse(_ENV_RAW)


def enabled() -> bool:
    """Whether the adaptive optimizer is active by default."""
    return _ENABLED


def refresh_from_env() -> bool:
    """Re-read ``REPRO_ADAPT`` if it changed; returns the setting.

    Called at :class:`~repro.core.engine.Qurk` /
    :class:`~repro.core.session.EngineSession` construction. A *changed*
    environment value wins over any programmatic :func:`set_enabled`; an
    unchanged one leaves programmatic overrides (and :func:`forced`
    contexts) alone, so tests toggling the switch in-process keep working.
    """
    global _ENABLED, _ENV_RAW
    raw = os.environ.get(_ENV_VAR)
    if raw != _ENV_RAW:
        _ENV_RAW = raw
        _ENABLED = _parse(raw)
    return _ENABLED


def set_enabled(flag: bool) -> bool:
    """Switch the adaptive optimizer on/off; returns the previous setting."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(flag)
    return previous


@contextmanager
def forced(flag: bool) -> Iterator[None]:
    """Temporarily force the adaptive optimizer on or off (tests, benchmarks)."""
    previous = set_enabled(flag)
    try:
        yield
    finally:
        set_enabled(previous)
