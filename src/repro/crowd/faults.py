"""Deterministic marketplace fault injection.

A :class:`FaultPlan` describes, as independent per-event probabilities, the
ways a real crowd marketplace misbehaves:

* **assignment abandonment** — a worker accepts a slot, holds it, and
  returns it without submitting; the slot is simply never completed;
* **HIT-group expiration** — a group's lifetime deadline lapses early and
  any slot not yet accepted by then goes unfilled;
* **straggler tail latency** — an assignment takes a large multiple of its
  nominal work time to come back;
* **spam/garbage answers** — an otherwise-normal worker submits the kind
  of answers a spammer would (:func:`repro.crowd.behavior.spam_answer_hit`);
* **transient API errors** — a post or harvest call fails with
  :class:`~repro.errors.TransientMarketplaceError` and must be retried.

Determinism
-----------
Faults are applied as a post-processing overlay over a group's dispatched
assignments, *never* inside the dispatch loops themselves — the scalar and
vectorized (``REPRO_VECTOR``) dispatch implementations stay byte-for-byte
untouched. The overlay consumes only the dispatcher's
returned ``(completed, now, incomplete)`` triple, so it composes with any
registered dispatcher unchanged. All fault draws come from a dedicated
child stream derived from the group's own stream seed
(``"<group seed>:faults"``), not from any dispatch stream — in particular
not from the vector kernel's numpy generator — so:

* a given marketplace seed yields an identical fault trace run-to-run and
  on blocking and overlapping platforms alike (group streams are keyed by
  posting order, which both share); within one dispatch domain the fault
  decisions for a group depend only on its assignment list, never on which
  loop produced it;
* a zero-rate plan consults no stream at all (every draw is guarded by a
  ``rate > 0`` check), leaving the marketplace bit-identical to having no
  plan — the golden-trace contract ``tests/test_determinism_trace.py``
  pins.

The overlay itself lives in
:meth:`repro.crowd.marketplace.SimulatedMarketplace._apply_faults`; this
module owns the plan and the per-group bookkeeping record.
"""

from __future__ import annotations

from dataclasses import dataclass


def _check_rate(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be a probability in [0, 1], got {value}")


@dataclass(frozen=True)
class FaultPlan:
    """Per-event fault probabilities for a simulated marketplace.

    All rates default to zero; a default-constructed plan injects nothing
    and is bit-identical to running without one. Construct with e.g.
    ``FaultPlan(abandonment_rate=0.2, expiration_rate=0.1)`` and pass to
    :class:`~repro.crowd.marketplace.SimulatedMarketplace`.
    """

    abandonment_rate: float = 0.0
    """Probability each completed assignment is abandoned instead (the
    slot was held, then returned — the work never arrives)."""

    expiration_rate: float = 0.0
    """Probability a HIT group's lifetime is truncated to
    ``expiration_lifetime_fraction`` of its accept window; assignments
    accepted after the truncated lifetime lapse unfilled."""

    expiration_lifetime_fraction: float = 0.25
    """Truncated lifetime as a fraction of the group's own accept window
    (post time to last accept), so a truncation always costs the group
    its late-accepted slots."""

    straggler_rate: float = 0.0
    """Probability an assignment is a straggler: its work duration is
    multiplied by ``straggler_factor``, stretching the group's tail."""

    straggler_factor: float = 8.0
    """Work-time multiplier for straggler assignments."""

    spam_rate: float = 0.0
    """Probability an assignment's answers are replaced with the garbage a
    spammer would submit (the worker's honest draws are discarded)."""

    transient_error_rate: float = 0.0
    """Probability a ``submit_hit_group``/``harvest`` call raises
    :class:`~repro.errors.TransientMarketplaceError` before doing any
    work (the call is safe to retry)."""

    def __post_init__(self) -> None:
        _check_rate("abandonment_rate", self.abandonment_rate)
        _check_rate("expiration_rate", self.expiration_rate)
        _check_rate("straggler_rate", self.straggler_rate)
        _check_rate("spam_rate", self.spam_rate)
        _check_rate("transient_error_rate", self.transient_error_rate)
        if not 0.0 < self.expiration_lifetime_fraction <= 1.0:
            raise ValueError(
                "expiration_lifetime_fraction must be in (0, 1], got "
                f"{self.expiration_lifetime_fraction}"
            )
        if self.straggler_factor < 1.0:
            raise ValueError(
                f"straggler_factor must be >= 1, got {self.straggler_factor}"
            )

    @property
    def active(self) -> bool:
        """Whether any fault rate is non-zero."""
        return (
            self.abandonment_rate > 0
            or self.expiration_rate > 0
            or self.straggler_rate > 0
            or self.spam_rate > 0
            or self.transient_error_rate > 0
        )

    @property
    def disrupts_dispatch(self) -> bool:
        """Whether the plan alters dispatched assignments (everything but
        transient API errors, which strike the call sites instead)."""
        return (
            self.abandonment_rate > 0
            or self.expiration_rate > 0
            or self.straggler_rate > 0
            or self.spam_rate > 0
        )


@dataclass(frozen=True)
class GroupFaultRecord:
    """What the fault overlay did to one HIT group (ticket telemetry)."""

    abandoned: int = 0
    expired_slots: int = 0
    stragglers: int = 0
    spammed: int = 0

    @property
    def dropped(self) -> int:
        """Assignments removed from the group (abandoned + expired)."""
        return self.abandoned + self.expired_slots
