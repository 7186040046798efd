"""Pluggable task-executor registry (ROADMAP item 2).

The paper's engine hardwires four task templates (§2.1). This module turns
task-type identity into *data*: each crowd task type is a self-describing
:class:`TaskTypeSpec` plugin declaring how its DSL declaration builds a
:class:`~repro.tasks.base.Task`, which engine lane (*role*) executes it,
its default combiner, its per-unit effort (the cost-model / marketplace
refusal input), an optional HIT payload builder, an optional ground-truth
installation hook, and an EXPLAIN label. Every layer that used to
switch-case on task classes — planner, executor, cost model, HIT
compiler, crowd behaviour — now dispatches through a registry lookup, so a
new task type registers from outside the engine with zero engine edits
(see ``src/repro/scenarios/`` and the toy-task test in
``tests/test_registry.py``).

Two registry shapes live here:

* :class:`TaskExecutorRegistry` — task-type specs keyed by the DSL ``TYPE``
  identifier (``TASK f(a) TYPE Filter:`` resolves ``"Filter"``);
* :class:`DispatchTable` — a generic string-keyed handler table used for
  plan-node generators and cost models, payload renderers/effort/mergers,
  and crowd behaviour models, all keyed by the ``kind`` tag carried on
  plan nodes and HIT payloads.

Determinism notes: registration errors are raised eagerly and
deterministically (duplicate keys are rejected, not last-writer-wins), and
every "unknown key" error names the available keys in sorted order, so
lookup failures read the same regardless of registration order.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, Union

from repro.errors import TaskError

if TYPE_CHECKING:  # pragma: no cover
    from repro.crowd.truth import GroundTruth
    from repro.language.ast import TaskDefinition
    from repro.tasks.base import Task

#: Engine lanes. A task type's *role* selects which operator machinery runs
#: it: predicate evaluation (filter), feature extraction (generative), sort
#: interfaces (rank), or the join interfaces (join). New task types reuse a
#: lane by declaring its role and duck-typing the lane's task protocol —
#: the lane code never names concrete task classes.
ROLE_FILTER = "filter"
ROLE_GENERATIVE = "generative"
ROLE_RANK = "rank"
ROLE_JOIN = "join"
ROLES = (ROLE_FILTER, ROLE_GENERATIVE, ROLE_RANK, ROLE_JOIN)


@dataclass(frozen=True)
class TaskTypeSpec:
    """One pluggable crowd task type.

    ``key`` is the DSL ``TYPE`` identifier; ``builder`` turns a parsed
    :class:`~repro.language.ast.TaskDefinition` into a concrete task object
    whose ``type_key`` class attribute equals ``key``. ``unit_effort_seconds``
    is either a constant or a callable of the built task (e.g. generative
    effort scales with field count) — it feeds batch-size tuning and the
    marketplace refusal model, so new types price correctly instead of
    inheriting a hardcoded 3.0. ``payload_builder`` (role-specific
    signature, see the lane that consumes it) overrides the lane's default
    HIT payload construction. ``truth_hook`` installs ground truth for the
    type (``hook(truth, task_name, data)``); the builtin hooks delegate to
    the corresponding :class:`~repro.crowd.truth.GroundTruth` stores.
    """

    key: str
    role: str
    builder: Callable[["TaskDefinition"], "Task"]
    combiner_default: str = "MajorityVote"
    unit_effort_seconds: Union[float, Callable[["Task"], float]] = 3.0
    payload_builder: Callable[..., object] | None = None
    truth_hook: Callable[["GroundTruth", str, object], None] | None = None
    explain_label: str = ""

    def __post_init__(self) -> None:
        if not self.key:
            raise TaskError("task type key must be non-empty")
        if self.role not in ROLES:
            raise TaskError(
                f"task type {self.key!r} declares unknown role {self.role!r}; "
                f"expected one of {list(ROLES)}"
            )

    def effort(self, task: "Task") -> float:
        """Per-unit worker effort in seconds for ``task`` (§6 batch sizing)."""
        value = self.unit_effort_seconds
        return float(value(task)) if callable(value) else float(value)

    def label(self) -> str:
        """The EXPLAIN label for this type (defaults to the key)."""
        return self.explain_label or self.key


class TaskExecutorRegistry:
    """Task-type specs keyed by DSL ``TYPE`` identifier."""

    def __init__(self) -> None:
        self._specs: dict[str, TaskTypeSpec] = {}

    def register(self, spec: TaskTypeSpec, replace: bool = False) -> TaskTypeSpec:
        """Register a spec; duplicate keys are rejected deterministically."""
        if spec.key in self._specs and not replace:
            raise TaskError(
                f"task type {spec.key!r} already registered; "
                "pass replace=True to override"
            )
        self._specs[spec.key] = spec
        return spec

    def unregister(self, key: str) -> None:
        self._specs.pop(key, None)

    def has(self, key: str) -> bool:
        return key in self._specs

    def available(self) -> list[str]:
        """Registered type keys, sorted (registration-order independent)."""
        return sorted(self._specs)

    def get(self, key: str) -> TaskTypeSpec:
        spec = self._specs.get(key)
        if spec is None:
            raise TaskError(
                f"unknown task type {key!r}; expected one of {self.available()} "
                "(register new types via repro.tasks.registry.register_task_type)"
            )
        return spec

    def build(self, defn: "TaskDefinition") -> "Task":
        """Resolve ``defn.task_type`` against the registry and build the task."""
        return self.get(defn.task_type).builder(defn)

    @contextmanager
    def temporary(self, *specs: TaskTypeSpec) -> Iterator["TaskExecutorRegistry"]:
        """Register specs for the duration of a ``with`` block (tests)."""
        registered: list[str] = []
        try:
            for spec in specs:
                self.register(spec)
                registered.append(spec.key)
            yield self
        finally:
            for key in reversed(registered):
                self.unregister(key)


class DispatchTable:
    """A string-keyed handler table with deterministic registration.

    The generic half of the registry: plan-node generators, payload
    effort models, payload renderers, payload mergers, and crowd behaviour
    models are each one of these, keyed by the ``kind`` tag on plan nodes
    and HIT payloads. ``register`` doubles as a decorator factory when called
    without a handler.
    """

    def __init__(self, description: str) -> None:
        self.description = description
        self._handlers: dict[str, Callable[..., object]] = {}

    def register(
        self,
        key: str,
        handler: Callable[..., object] | None = None,
        *,
        replace: bool = False,
    ):
        if handler is None:

            def _decorator(fn: Callable[..., object]) -> Callable[..., object]:
                self.register(key, fn, replace=replace)
                return fn

            return _decorator
        if key in self._handlers and not replace:
            raise TaskError(
                f"{self.description} for kind {key!r} already registered; "
                "pass replace=True to override"
            )
        self._handlers[key] = handler
        return handler

    def unregister(self, key: str) -> None:
        self._handlers.pop(key, None)

    def available(self) -> list[str]:
        return sorted(self._handlers)

    def lookup(self, key: str) -> Callable[..., object] | None:
        """The handler for ``key``, or None (caller raises its own error)."""
        return self._handlers.get(key)

    def resolve(self, key: str) -> Callable[..., object]:
        handler = self._handlers.get(key)
        if handler is None:
            raise TaskError(
                f"no {self.description} registered for kind {key!r}; "
                f"known kinds: {self.available()}"
            )
        return handler


# ---------------------------------------------------------------------------
# The default registry: the four paper types self-register as plugins on
# first use, through exactly the API third-party types use.

_DEFAULT = TaskExecutorRegistry()
_builtins_loaded = False


def _ensure_builtins() -> None:
    """Idempotently register the four paper task types (lazy: avoids an
    import cycle with the task modules, which import this module to build
    their specs)."""
    global _builtins_loaded
    if _builtins_loaded:
        return
    _builtins_loaded = True
    from repro.tasks import equijoin, filter as filter_mod, generative, rank

    for module in (filter_mod, generative, rank, equijoin):
        spec = module.SPEC
        if not _DEFAULT.has(spec.key):
            _DEFAULT.register(spec)


def default_registry() -> TaskExecutorRegistry:
    """The process-wide registry (builtins guaranteed present)."""
    _ensure_builtins()
    return _DEFAULT


def register_task_type(
    spec: TaskTypeSpec,
    *,
    registry: TaskExecutorRegistry | None = None,
    replace: bool = False,
) -> TaskTypeSpec:
    """Register a task type (the third-party extension entry point)."""
    return (registry or default_registry()).register(spec, replace=replace)


def task_type_spec(
    key: str, registry: TaskExecutorRegistry | None = None
) -> TaskTypeSpec:
    return (registry or default_registry()).get(key)


def spec_for_task(
    task: "Task", registry: TaskExecutorRegistry | None = None
) -> TaskTypeSpec:
    """The spec a built task instance resolves to (via its ``type_key``)."""
    key = getattr(task, "type_key", "")
    if not key:
        raise TaskError(
            f"task {getattr(task, 'name', task)!r} ({type(task).__name__}) "
            "declares no type_key; register its type via "
            "repro.tasks.registry.register_task_type and set type_key on the class"
        )
    return (registry or default_registry()).get(key)


def task_role(task: "Task", registry: TaskExecutorRegistry | None = None) -> str:
    """Which engine lane runs ``task`` (see the ROLE_* constants)."""
    return spec_for_task(task, registry).role


def install_truth(
    truth: "GroundTruth",
    key: str,
    task_name: str,
    data: object,
    *,
    registry: TaskExecutorRegistry | None = None,
) -> None:
    """Install ground truth for a task through its type's truth hook.

    Datasets call this instead of naming a per-type ``GroundTruth`` store,
    so a scenario pack's truth wiring goes through the same plugin surface
    as everything else.
    """
    spec = (registry or default_registry()).get(key)
    if spec.truth_hook is None:
        raise TaskError(f"task type {key!r} declares no truth hook")
    spec.truth_hook(truth, task_name, data)
