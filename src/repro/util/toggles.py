"""The ``REPRO_*`` environment toggles, declared in one table.

Each extension beyond the paper sits behind one :class:`Toggle` in
:data:`TOGGLES`; ``docs/API.md`` says what each one switches. Every
toggle shares one contract:

* the environment value is captured at import, and :func:`refresh_all`
  re-reads it at every ``Qurk``/``EngineSession`` construction, so a value
  exported after ``import repro`` still takes effect;
* a *changed* value wins over :meth:`Toggle.set_enabled` and
  :meth:`Toggle.forced`; an unchanged one leaves them alone;
* ``1/true/yes/on`` and ``0/false/no/off`` are accepted, case-insensitive,
  with surrounding whitespace ignored, and an empty value counts as unset.
  Any other value raises :class:`~repro.errors.PlanError` at construction
  (never at import), so a typo cannot silently pick a determinism domain;
* a toggle whose ``requires`` module does not import stays off, with a
  :class:`RuntimeWarning` and an EXPLAIN footer note
  (:meth:`Toggle.status_note`) instead of an ``ImportError``.
"""

from __future__ import annotations

import importlib
import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.errors import PlanError

_ON = ("1", "true", "yes", "on")
_OFF = ("0", "false", "no", "off")


@dataclass(eq=False)
class Toggle:
    """One ``REPRO_*`` switch and its process-wide setting."""

    env: str
    default: bool
    doc: str
    requires: str | None = None
    """A module the feature imports; without it the toggle stays off."""

    def __post_init__(self) -> None:
        self._raw = os.environ.get(self.env, "")
        try:
            self._on = self._parse(self._raw)
        except PlanError:  # importing never raises; refresh() reports it
            self._on = self.default
        self._available: bool | None = None

    def _parse(self, raw: str) -> bool:
        word = raw.strip().lower()
        if not word:
            return self.default
        if word in _ON or word in _OFF:
            return word in _ON
        raise PlanError(
            f"{self.env}={raw!r} is not a toggle value: use one of "
            f"{', '.join(_ON + _OFF)} (any case), or leave it empty"
        )

    def requested(self) -> bool:
        """The setting, whether or not ``requires`` imports."""
        return self._on

    def available(self) -> bool:
        """Whether the ``requires`` module imports (probed once, on demand)."""
        if self._available is None:
            self._available = True
            if self.requires is not None:
                try:
                    importlib.import_module(self.requires)
                except ImportError:
                    self._available = False
        return self._available

    def enabled(self) -> bool:
        """Whether the feature is on: requested, and available."""
        return self._on and self.available()

    def resolve(self, override: bool | None) -> bool:
        """The setting for one query: a non-``None`` config field wins."""
        return self.enabled() if override is None else override

    def status_note(self) -> str | None:
        """Why a requested toggle is off, or ``None`` when nothing is wrong."""
        if self._on and not self.available():
            return (
                f"{self.env} requested but {self.requires} is not installed; "
                f"running as {self.env}=0"
            )
        return None

    def _warn_if_degraded(self) -> None:
        note = self.status_note()
        if note is not None:
            warnings.warn(note, RuntimeWarning, stacklevel=3)

    def refresh(self) -> None:
        """Re-read the environment; a changed value replaces the setting.

        Raises :class:`PlanError` for a malformed value, changed or not.
        """
        raw = os.environ.get(self.env, "")
        on = self._parse(raw)
        if raw != self._raw:
            self._raw, self._on = raw, on
        self._warn_if_degraded()

    def set_enabled(self, flag: bool) -> bool:
        """Set the toggle in-process; returns the previous setting."""
        previous, self._on = self._on, bool(flag)
        if self._on:
            self._warn_if_degraded()
        return previous

    @contextmanager
    def forced(self, flag: bool) -> Iterator[None]:
        """Temporarily set the toggle (tests, benchmarks, scripts)."""
        previous = self.set_enabled(flag)
        try:
            yield
        finally:
            self.set_enabled(previous)


ADAPT = Toggle(
    "REPRO_ADAPT",
    True,
    "The cost-based adaptive re-optimizer (repro.core.adaptive); off runs "
    "the paper's static rewriter. ExecutionConfig.adapt overrides it.",
)
RESILIENCE = Toggle(
    "REPRO_RESILIENCE",
    True,
    "Fault injection from a marketplace's FaultPlan and the engine's "
    "retry/repost/degrade layer (repro.hits.resilience). "
    "ExecutionConfig.resilience overrides it.",
)
STORE = Toggle(
    "REPRO_STORE",
    True,
    "Attach the persistent answer store passed as store=; off ignores it "
    "without opening the file (repro.hits.store).",
)
VECTOR = Toggle(
    "REPRO_VECTOR",
    False,
    "The numpy marketplace dispatch kernel (repro.crowd.vector), a second "
    "pinned determinism domain.",
    requires="numpy",
)

TOGGLES = (ADAPT, RESILIENCE, STORE, VECTOR)


def refresh_all() -> None:
    """Re-read every toggle; both facades call this at construction."""
    for toggle in TOGGLES:
        toggle.refresh()
