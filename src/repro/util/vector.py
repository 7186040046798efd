"""Global switch for the vectorized (numpy) marketplace dispatch kernel.

The vector kernel cannot replay the scalar dispatch loop's
``random.Random`` draw stream — numpy's bulk generators produce different
bits by construction. The kernel is therefore a *second pinned determinism
domain*:

* ``REPRO_VECTOR=0`` (the default) leaves the scalar dispatch paths in
  charge and is bit-identical to the pinned golden trace;
* ``REPRO_VECTOR=1`` routes group dispatch through
  :mod:`repro.crowd.vector`, which is bit-reproducible run-to-run under a
  fixed seed against its own golden trace
  (``tests/golden/determinism_trace_vector.json``) and statistically
  equivalent to the scalar path (``tests/test_vector_stats.py``).

Because the default is *off*, this toggle inverts the usual convention:
setting the environment variable (or calling :func:`set_enabled`) opts in.

numpy is an optional dependency (the ``[vector]`` extra in
``pyproject.toml``). When the toggle is requested but numpy is missing,
:func:`enabled` reports ``False`` — the engine keeps working on the scalar
path — and a :class:`RuntimeWarning` plus an EXPLAIN footer note
(:func:`status_note`) say why, instead of an ``ImportError`` at engine
construction.

The environment variable is re-read by :func:`refresh_from_env`, which the
engine and session facades call at construction time, matching the other
toggles' contract.
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager
from typing import Iterator

_ENV_VAR = "REPRO_VECTOR"
_OFF_VALUES = ("0", "false", "no", "off")


def _parse(raw: str | None) -> bool:
    # Default OFF: the scalar path owns the primary determinism domain.
    return (raw if raw is not None else "0").lower() not in _OFF_VALUES


_ENV_RAW: str | None = os.environ.get(_ENV_VAR)
_ENABLED: bool = _parse(_ENV_RAW)

_NUMPY = None
_NUMPY_PROBED = False


def numpy_module():
    """The numpy module, or ``None`` when the optional extra is missing."""
    global _NUMPY, _NUMPY_PROBED
    if not _NUMPY_PROBED:
        _NUMPY_PROBED = True
        try:
            import numpy
        except ImportError:
            _NUMPY = None
        else:
            _NUMPY = numpy
    return _NUMPY


def available() -> bool:
    """Whether numpy is importable (the ``[vector]`` extra)."""
    return numpy_module() is not None


def enabled() -> bool:
    """Whether the vectorized dispatch kernel is active.

    True only when the toggle is on *and* numpy is importable; a requested
    but unavailable kernel degrades to the scalar path (see
    :func:`status_note`).
    """
    return _ENABLED and available()


def requested() -> bool:
    """The raw toggle state, ignoring numpy availability."""
    return _ENABLED


def requested_but_unavailable() -> bool:
    """Whether the kernel was asked for but numpy is missing."""
    return _ENABLED and not available()


def status_note() -> str | None:
    """Human-readable degradation note, or ``None`` when healthy.

    Surfaced in EXPLAIN footers and as a :class:`RuntimeWarning` so a
    ``REPRO_VECTOR=1`` run without numpy is loud about silently using the
    scalar path.
    """
    if requested_but_unavailable():
        return (
            "REPRO_VECTOR requested but numpy is not installed "
            "(install the [vector] extra); scalar dispatch in use"
        )
    return None


def _warn_if_degraded() -> None:
    note = status_note()
    if note is not None:
        warnings.warn(note, RuntimeWarning, stacklevel=3)


def refresh_from_env() -> bool:
    """Re-read ``REPRO_VECTOR`` if it changed; returns :func:`enabled`.

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
    _warn_if_degraded()
    return enabled()


def set_enabled(flag: bool) -> bool:
    """Switch the vector kernel on/off; returns the previous setting."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(flag)
    if _ENABLED:
        _warn_if_degraded()
    return previous


@contextmanager
def forced(flag: bool) -> Iterator[None]:
    """Temporarily force the vector kernel on or off (tests, benchmarks)."""
    previous = set_enabled(flag)
    try:
        yield
    finally:
        set_enabled(previous)
