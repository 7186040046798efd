"""Generative tasks: unconstrained or categorical data generation (§2.2).

A generative task shows a prompt and collects one or more named fields from
each worker. Each field has a response widget (free ``Text`` or constrained
``Radio``), a combiner, and — for free text — a normalizer applied before
combination. Radio fields may include the special ``UNKNOWN`` option used by
feature extraction (§2.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Mapping

from repro.errors import TaskError
from repro.hits.hit import GenerativeFieldSpec
from repro.language.ast import ResponseSpec
from repro.language.templates import PromptTemplate
from repro.tasks.base import Task, TaskType, _string_property, _template_property
from repro.tasks.registry import ROLE_GENERATIVE, TaskTypeSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.language.ast import TaskDefinition

DEFAULT_FIELD = "value"
"""Field name used when a generative task declares a bare ``Response``."""


@dataclass(frozen=True)
class GenerativeField:
    """One output field of a generative task."""

    name: str
    response: ResponseSpec
    combiner: str = "MajorityVote"
    normalizer: str | None = None

    @property
    def is_categorical(self) -> bool:
        """Whether the field has a constrained (Radio) input space."""
        return self.response.kind.lower() == "radio"

    @property
    def options(self) -> tuple[object, ...]:
        """The categorical options (empty for free text)."""
        return self.response.options


class GenerativeTask(Task):
    """A prompt plus one or more generated output fields."""

    task_type = TaskType.GENERATIVE
    type_key = TaskType.GENERATIVE.value

    def __init__(
        self,
        name: str,
        params: tuple[str, ...],
        prompt: PromptTemplate,
        fields: tuple[GenerativeField, ...],
        combiner: str = "MajorityVote",
    ) -> None:
        super().__init__(name, params, combiner)
        if not fields:
            raise TaskError(f"generative task {name!r} must declare at least one field")
        names = [field.name for field in fields]
        if len(set(names)) != len(names):
            raise TaskError(f"generative task {name!r} has duplicate field names")
        self.prompt = prompt
        self.fields = fields

    def combiners(self) -> tuple[str, ...]:
        """The task-level combiner and every field's."""
        return (self.combiner, *(field.combiner for field in self.fields))

    @property
    def single_field(self) -> GenerativeField:
        """The sole field of a single-field task (feature-extraction style)."""
        if len(self.fields) != 1:
            raise TaskError(
                f"task {self.name!r} has {len(self.fields)} fields; "
                "a single field was expected"
            )
        return self.fields[0]

    @cached_property
    def field_specs(self) -> tuple[GenerativeFieldSpec, ...]:
        """The fields as payload descriptors, built once and shared by
        every payload of this task."""
        return tuple(
            GenerativeFieldSpec(
                name=f.name,
                kind=f.response.kind,
                options=f.options,
                normalizer=f.normalizer,
            )
            for f in self.fields
        )

    def field(self, name: str) -> GenerativeField:
        """Look up a field by name."""
        for field in self.fields:
            if field.name == name:
                return field
        raise TaskError(
            f"task {self.name!r} has no field {name!r}; "
            f"fields: {[f.name for f in self.fields]}"
        )

    @classmethod
    def from_definition(cls, defn: "TaskDefinition") -> "GenerativeTask":
        """Build from a parsed ``TASK ... TYPE Generative`` definition.

        Accepts either a ``Fields: { name: {Response: ..., ...}, ... }``
        block or the single-field shorthand with a top-level ``Response``.
        """
        prompt = _template_property(defn, "Prompt")
        assert prompt is not None
        fields: list[GenerativeField] = []
        if "Fields" in defn.properties:
            block = defn.properties["Fields"]
            if not isinstance(block, Mapping):
                raise TaskError(f"task {defn.name!r} Fields must be a block")
            for field_name, spec in block.items():
                fields.append(_field_from_spec(defn.name, field_name, spec))
        elif "Response" in defn.properties:
            response = defn.properties["Response"]
            if not isinstance(response, ResponseSpec):
                raise TaskError(
                    f"task {defn.name!r} Response must be Text(...) or Radio(...)"
                )
            fields.append(
                GenerativeField(
                    name=DEFAULT_FIELD,
                    response=response,
                    combiner=_string_property(defn, "Combiner", "MajorityVote"),
                    normalizer=defn.properties.get("Normalizer")
                    if isinstance(defn.properties.get("Normalizer"), str)
                    else None,
                )
            )
        else:
            raise TaskError(
                f"generative task {defn.name!r} needs a Fields block or a Response"
            )
        return cls(
            name=defn.name,
            params=defn.params,
            prompt=prompt,
            fields=tuple(fields),
            combiner=_string_property(defn, "Combiner", "MajorityVote"),
        )


def _field_from_spec(task_name: str, field_name: str, spec: object) -> GenerativeField:
    """Interpret one entry of a ``Fields`` block."""
    if isinstance(spec, ResponseSpec):
        return GenerativeField(name=field_name, response=spec)
    if not isinstance(spec, Mapping):
        raise TaskError(
            f"task {task_name!r} field {field_name!r} must be a block or Response spec"
        )
    response = spec.get("Response")
    if not isinstance(response, ResponseSpec):
        raise TaskError(
            f"task {task_name!r} field {field_name!r} is missing a Response spec"
        )
    combiner = spec.get("Combiner", "MajorityVote")
    normalizer = spec.get("Normalizer")
    if not isinstance(combiner, str):
        raise TaskError(f"field {field_name!r} Combiner must be a name")
    if normalizer is not None and not isinstance(normalizer, str):
        raise TaskError(f"field {field_name!r} Normalizer must be a name")
    return GenerativeField(
        name=field_name,
        response=response,
        combiner=combiner,
        normalizer=normalizer,
    )


def _install_generative_truth(truth, task_name: str, data: Mapping) -> None:
    """Route each field's truth to the categorical or free-text store.

    ``data`` maps field name -> a :class:`~repro.crowd.truth.FeatureTruth`
    (categorical, recognised by its ``answer_distribution`` method) or a
    plain item->string mapping (free text).
    """
    for field_name, field_truth in data.items():
        if hasattr(field_truth, "answer_distribution"):
            truth.add_feature_task(task_name, field_name, field_truth)
        else:
            truth.add_text_task(task_name, field_name, field_truth)


SPEC = TaskTypeSpec(
    key=GenerativeTask.type_key,
    role=ROLE_GENERATIVE,
    builder=GenerativeTask.from_definition,
    combiner_default="MajorityVote",
    # Roughly 4 seconds per generated field.
    unit_effort_seconds=lambda task: 4.0 * len(task.fields),
    truth_hook=_install_generative_truth,
    explain_label="Generative",
)
"""The generative template's registry plugin (per-field effort scaling)."""
