"""Base task machinery shared by the four template types."""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Mapping

from repro.errors import TaskError
from repro.language.templates import PromptTemplate

if TYPE_CHECKING:  # pragma: no cover
    from repro.language.ast import TaskDefinition


class TaskType(enum.Enum):
    """The paper's pre-defined task template types (§2.1).

    Kept for the four builtin templates' public identity
    (``task.task_type``); the open set of task types — builtins plus any
    scenario-pack or third-party registrations — lives in
    :mod:`repro.tasks.registry`, keyed by the string ``type_key``.
    """

    FILTER = "Filter"
    GENERATIVE = "Generative"
    RANK = "Rank"
    EQUIJOIN = "EquiJoin"


class Task:
    """A named crowd task template.

    Subclasses add the type-specific prompt/response configuration. A task
    declares formal parameters; a query binds them to columns when it calls
    the task as a UDF (``gender(c.img)`` binds parameter ``field`` to the
    ``img`` column of alias ``c``).

    ``type_key`` names the task's :class:`~repro.tasks.registry.TaskTypeSpec`
    in the executor registry — the engine resolves role, effort, combiner
    default, and payload/truth hooks through it.
    """

    type_key: str = ""

    def __init__(self, name: str, params: tuple[str, ...], combiner: str = "MajorityVote") -> None:
        if not name:
            raise TaskError("task name must be non-empty")
        if not params:
            raise TaskError(f"task {name!r} must declare at least one parameter")
        self.name = name
        self.params = params
        self.combiner = combiner

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, params={list(self.params)})"

    def combiners(self) -> tuple[str, ...]:
        """Every combiner name the task declares."""
        return (self.combiner,)

    def unit_effort_seconds(self) -> float:
        """Estimated seconds of worker effort for one unbatched unit.

        The marketplace's refusal/latency model uses this to decide whether a
        batched HIT is still worth $0.01 to a worker (§6, "Choosing Batch
        Size"). Effort is a declared field of the task type's registry spec
        — not a hardcoded base-class constant — so new task types price
        batch tuning and refusal modeling correctly.
        """
        from repro.tasks.registry import spec_for_task

        return spec_for_task(self).effort(self)

    def validate_arity(self, arg_count: int) -> None:
        """Check a UDF call's argument count against the declared parameters."""
        if arg_count != len(self.params):
            raise TaskError(
                f"task {self.name!r} takes {len(self.params)} argument(s), "
                f"called with {arg_count}"
            )


def resolve_item_ref(value: object) -> str:
    """Reduce a bound argument value to a stable item reference string.

    Crowd behaviour models and ground-truth oracles are keyed by these refs.
    Column values (URLs, text) are used directly; when a whole row is bound
    (``isFemale(c)``) the row's ``img`` column is preferred, then ``id``,
    then the first column — matching how the paper's prompts always end up
    displaying the tuple's image.
    """
    if type(value) is str:
        return value
    if isinstance(value, Mapping):
        for key in ("img", "url", "id"):
            if key in value:
                return str(value[key])
            # Alias-qualified rows store e.g. "c.img".
            for column in value:
                if str(column).endswith(f".{key}"):
                    return str(value[column])
        if not value:
            raise TaskError("cannot derive an item reference from an empty row")
        first_column = next(iter(value))
        return str(value[first_column])
    return str(value)


def _template_property(defn: "TaskDefinition", key: str, required: bool = True) -> PromptTemplate | None:
    """Fetch a PromptTemplate property from a parsed definition."""
    if key not in defn.properties:
        if required:
            raise TaskError(f"task {defn.name!r} is missing property {key!r}")
        return None
    value = defn.properties[key]
    if isinstance(value, str):
        value = PromptTemplate(text=value)
    if not isinstance(value, PromptTemplate):
        raise TaskError(f"task {defn.name!r} property {key!r} must be a template/string")
    return value


def _string_property(defn: "TaskDefinition", key: str, default: str | None = None) -> str:
    """Fetch a plain-string property from a parsed definition."""
    if key not in defn.properties:
        if default is None:
            raise TaskError(f"task {defn.name!r} is missing property {key!r}")
        return default
    value = defn.properties[key]
    if isinstance(value, PromptTemplate):
        if value.args:
            raise TaskError(f"task {defn.name!r} property {key!r} must not take arguments")
        return value.text
    if not isinstance(value, str):
        raise TaskError(f"task {defn.name!r} property {key!r} must be a string")
    return value


def task_from_definition(defn: "TaskDefinition") -> Task:
    """Build the concrete :class:`Task` for a parsed ``TASK`` definition.

    Resolves ``defn.task_type`` against the executor registry, so task
    types registered from outside the engine build through the same path
    as the four paper templates. Unknown types raise :class:`TaskError`
    naming the available types.
    """
    from repro.tasks.registry import default_registry

    return default_registry().build(defn)
