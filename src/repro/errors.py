"""Exception hierarchy for the repro package.

All library-raised errors derive from :class:`QurkError` so callers can catch
the package's failures with a single except clause while letting programming
errors (TypeError etc.) propagate.
"""

from __future__ import annotations


class QurkError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(QurkError):
    """A schema was malformed or a row did not conform to its schema."""


class CatalogError(QurkError):
    """A table or task was missing from, or duplicated in, the catalog."""


class ParseError(QurkError):
    """The query or TASK-DSL text could not be parsed.

    Carries the offending line/column when known.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        location = ""
        if line is not None:
            location = f" at line {line}"
            if column is not None:
                location += f", column {column}"
        super().__init__(message + location)
        self.line = line
        self.column = column


class PlanError(QurkError):
    """The planner could not translate a parsed query into a plan."""


class ConfigError(PlanError, ValueError, TypeError):
    """A config field got a value its rule (:mod:`repro.util.fields`)
    rejects. Also a ``ValueError`` and a ``TypeError``, the builtins these
    classes raised before, so code that caught those still catches it."""


class StoreConfigError(ConfigError):
    """A persistent-store spec (``store=``, :class:`~repro.hits.store.StoreConfig`)
    was unusable: a knob out of range, or a spec of the wrong type."""


class ExecutionError(QurkError):
    """An operator failed while executing a plan."""


class TaskError(QurkError):
    """A task template was malformed or misused."""


class MarketplaceError(QurkError):
    """The crowd platform rejected or could not complete a request."""


class TransientMarketplaceError(MarketplaceError):
    """A platform API call failed in a way that is safe to retry.

    The fault-injection layer (:mod:`repro.crowd.faults`) raises this on
    simulated post/harvest failures; a real platform shim would raise it
    for throttling or 5xx responses. The Task Manager's resilience layer
    retries these behind a circuit breaker; callers without that layer see
    it as an ordinary :class:`MarketplaceError`.
    """


class HITUncompletedError(MarketplaceError):
    """A posted HIT attracted no willing workers within the deadline.

    The paper observes this with compare groups of size 20 (§4.2.2): the HITs
    sat uncompleted for hours because the work/price ratio was unacceptable.
    """

    def __init__(self, message: str, hit_ids: list[str] | None = None):
        super().__init__(message)
        self.hit_ids = hit_ids or []


class BudgetExceededError(QurkError):
    """A query or operator would exceed its allocated budget."""


class BatchTuningError(QurkError):
    """Batch-size tuning found no acceptable size — even the minimum batch
    failed its probe.

    Carries the failing :class:`~repro.core.batch_tuner.ProbeResult` so the
    caller can tell refusal from an accuracy or latency violation and decide
    whether to raise pay or abandon the task.
    """

    def __init__(self, message: str, probe=None):
        super().__init__(message)
        self.probe = probe


class CombinerError(QurkError):
    """Answer combination failed (e.g. no votes to combine)."""
