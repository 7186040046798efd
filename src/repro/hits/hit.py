"""HIT, assignment, and payload data model.

A *payload* is the machine-readable description of the questions inside a
HIT. The HTML the crowd sees is compiled from payloads by
:class:`~repro.hits.compiler.HITCompiler`; the simulated marketplace answers
payloads directly (workers "read" the payload the way a human reads the
form). Each atomic question has a stable question id (``qid``) so that votes
from different assignments — and different interfaces asking the same
underlying question — aggregate together.

Question id conventions:

* filter: ``task:filter:item``
* generative field: ``task:gen:item:field``
* rating: ``task:rate:item``
* comparison pair: ``task:cmp:a|b`` with ``(a, b)`` sorted — the vote value
  is the winning item ref
* join pair: ``task:join:left|right`` — the vote value is a bool
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, ClassVar, NamedTuple, Sequence, Union

from repro.errors import TaskError


def compare_qid(task_name: str, a: str, b: str) -> str:
    """Canonical question id for the comparison of items ``a`` and ``b``."""
    lo, hi = sorted((a, b))
    return f"{task_name}:cmp:{lo}|{hi}"


def join_qid(task_name: str, left: str, right: str) -> str:
    """Question id for the join candidate ``(left, right)``.

    Left/right are *not* sorted: the pair is ordered (R tuple, S tuple).
    """
    return f"{task_name}:join:{left}|{right}"


def filter_qid(task_name: str, item: str) -> str:
    """Question id for a filter question on one item."""
    return f"{task_name}:filter:{item}"


def generative_qid(task_name: str, item: str, field_name: str) -> str:
    """Question id for one generative field on one item."""
    return f"{task_name}:gen:{item}:{field_name}"


def rate_qid(task_name: str, item: str) -> str:
    """Question id for a rating question on one item."""
    return f"{task_name}:rate:{item}"


# ---------------------------------------------------------------------------
# Payloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FilterQuestion:
    """One yes/no question on one item."""

    item: str
    prompt_html: str = ""

    def qid(self, task_name: str) -> str:
        """The question id under the given task."""
        return filter_qid(task_name, self.item)


@dataclass(frozen=True)
class FilterPayload:
    """A batch of filter questions from one task (merging batches tuples)."""

    kind: ClassVar[str] = "filter"

    task_name: str
    questions: tuple[FilterQuestion, ...]
    yes_text: str = "Yes"
    no_text: str = "No"

    @property
    def unit_count(self) -> int:
        """Number of atomic questions (drives effort and error scaling)."""
        return len(self.questions)


@dataclass(frozen=True)
class GenerativeFieldSpec:
    """Descriptor of one generated field: widget kind plus options."""

    name: str
    kind: str = "Text"
    options: tuple[object, ...] = ()
    normalizer: str | None = None

    @property
    def is_categorical(self) -> bool:
        """Whether the field is a constrained (Radio) input."""
        return self.kind.lower() == "radio"


@dataclass(frozen=True)
class GenerativeQuestion:
    """One generative prompt on one item."""

    item: str
    prompt_html: str = ""


@dataclass(frozen=True)
class GenerativePayload:
    """A batch of generative questions sharing one task's field specs."""

    kind: ClassVar[str] = "generative"

    task_name: str
    questions: tuple[GenerativeQuestion, ...]
    fields: tuple[GenerativeFieldSpec, ...]

    @property
    def unit_count(self) -> int:
        return len(self.questions) * max(1, len(self.fields))


@dataclass(frozen=True)
class CompareGroup:
    """One group of items a worker ranks relative to one another (§4.1.1).

    A completed group yields C(S, 2) pairwise comparison votes.
    """

    items: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.items) < 2:
            raise TaskError("comparison group needs at least two items")
        if len(set(self.items)) != len(self.items):
            raise TaskError(f"comparison group has duplicate items: {self.items}")

    def pair_qids(self, task_name: str) -> list[str]:
        """Question ids of every pair in the group."""
        qids = []
        for i in range(len(self.items)):
            for j in range(i + 1, len(self.items)):
                qids.append(compare_qid(task_name, self.items[i], self.items[j]))
        return qids


@dataclass(frozen=True)
class ComparePayload:
    """A batch of comparison groups (batching b groups per HIT, §4.1.1)."""

    kind: ClassVar[str] = "compare"

    task_name: str
    groups: tuple[CompareGroup, ...]
    question: str = ""
    item_html: dict[str, str] = field(default_factory=dict, compare=False, hash=False)

    @property
    def unit_count(self) -> int:
        return sum(len(group.items) for group in self.groups)


@dataclass(frozen=True)
class RateQuestion:
    """One rating question on one item."""

    item: str
    prompt_html: str = ""


@dataclass(frozen=True)
class RatePayload:
    """A batch of rating questions with shared context anchors (§4.1.2).

    ``anchors`` are the ~10 randomly sampled items shown along the top of the
    interface to give the worker a sense of the dataset's distribution.
    """

    kind: ClassVar[str] = "rate"

    task_name: str
    questions: tuple[RateQuestion, ...]
    anchors: tuple[str, ...] = ()
    scale_points: int = 7
    question: str = ""

    @property
    def unit_count(self) -> int:
        return len(self.questions)


@dataclass(frozen=True)
class JoinPair:
    """One candidate pair for a join predicate."""

    left: str
    right: str


@dataclass(frozen=True)
class JoinPairsPayload:
    """SimpleJoin (one pair) or NaiveBatch (b pairs stacked vertically)."""

    kind: ClassVar[str] = "join_pairs"

    task_name: str
    pairs: tuple[JoinPair, ...]
    question: str = ""

    @property
    def unit_count(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class JoinGridPayload:
    """SmartBatch: an r × s grid; workers click matching pairs (§3.1.3)."""

    kind: ClassVar[str] = "join_grid"

    task_name: str
    left_items: tuple[str, ...]
    right_items: tuple[str, ...]
    question: str = ""

    def __post_init__(self) -> None:
        if not self.left_items or not self.right_items:
            raise TaskError("smart batch grid needs items in both columns")

    @property
    def cell_count(self) -> int:
        """Number of candidate pairs the grid covers."""
        return len(self.left_items) * len(self.right_items)

    @property
    def unit_count(self) -> int:
        return self.cell_count

    def pair_qids(self, task_name: str | None = None) -> list[str]:
        """Question ids of every cell pair."""
        name = task_name or self.task_name
        return [
            join_qid(name, left, right)
            for left in self.left_items
            for right in self.right_items
        ]


@dataclass(frozen=True)
class PickBestPayload:
    """MAX/MIN interface: pick the best element from a batch (§2.3)."""

    kind: ClassVar[str] = "pick_best"

    task_name: str
    items: tuple[str, ...]
    question: str = ""
    pick_most: bool = True

    def __post_init__(self) -> None:
        if len(self.items) < 2:
            raise TaskError("pick-best needs at least two items")

    @property
    def unit_count(self) -> int:
        return len(self.items)

    def qid(self) -> str:
        """The single question id for the whole batch."""
        direction = "max" if self.pick_most else "min"
        return f"{self.task_name}:{direction}:{'|'.join(self.items)}"


Payload = Union[
    FilterPayload,
    GenerativePayload,
    ComparePayload,
    RatePayload,
    JoinPairsPayload,
    JoinGridPayload,
    PickBestPayload,
]
"""The builtin payload kinds a HIT may carry.

Out-of-tree payloads are duck-typed: any frozen dataclass with ``kind``
(a :data:`~typing.ClassVar` string), ``task_name``, and ``unit_count``
participates once its kind is registered with the compiler
(:func:`repro.hits.compiler.register_payload_kind`) and the behaviour
model (:func:`repro.crowd.behavior.register_payload_answerer`)."""


# ---------------------------------------------------------------------------
# HITs and assignments
# ---------------------------------------------------------------------------


@dataclass
class HIT:
    """One posted HIT: payloads + compiled HTML + posting parameters.

    ``payloads`` must not be mutated after construction: the unit count and
    the task-cache key are computed once and cached, and the HTML form is
    rendered lazily from the payloads on first access of :attr:`html`.
    """

    hit_id: str
    payloads: tuple[Payload, ...]
    assignments_requested: int = 5
    reward: float = 0.01
    effort_seconds: float = 0.0
    group_id: str | None = None

    @property
    def unit_count(self) -> int:
        """Total atomic work units across payloads (batch-size proxy)."""
        units = self._unit_count
        if units is None:
            units = self._unit_count = sum(
                payload.unit_count for payload in self.payloads
            )
        return units

    @property
    def html(self) -> str:
        """The compiled HTML form, rendered on first access.

        The simulated marketplace answers payloads directly and never reads
        the HTML, so deferring the render keeps it off the dispatch hot
        path; a real platform (or a test) still sees the same form.
        """
        rendered = self._html
        if rendered is None:
            builder = self._html_builder
            rendered = self._html = builder(self) if builder is not None else ""
        return rendered

    def defer_html(self, builder: Callable[["HIT"], str]) -> None:
        """Arrange for ``builder(self)`` to render the HTML on first access."""
        self._html_builder = builder
        self._html = None

    @property
    def combined_generative(self) -> bool:
        """Whether payloads span more than one Generative task (*combining*,
        §2.6) — scales feature-answer confusion in the behaviour models.
        Computed once; payloads are immutable after construction."""
        flag = self._combined_generative
        if flag is None:
            names = {
                payload.task_name
                for payload in self.payloads
                if isinstance(payload, GenerativePayload)
            }
            flag = self._combined_generative = len(names) > 1
        return flag

    @property
    def cache_key(self) -> str:
        """Deterministic task-cache key for this HIT's content.

        Payload dataclasses are frozen; their ``repr`` includes every
        question and item reference, so two HITs asking exactly the same
        questions with the same replication collide (which is the point).
        Computed once per HIT instead of re-``repr``-ing every payload on
        each cache lookup/store.
        """
        key = self._cache_key
        if key is None:
            body = ";".join(sorted(repr(payload) for payload in self.payloads))
            key = self._cache_key = f"a={self.assignments_requested}|{body}"
        return key

    def __post_init__(self) -> None:
        if not self.payloads:
            raise TaskError("a HIT must carry at least one payload")
        if self.assignments_requested < 1:
            raise TaskError("a HIT must request at least one assignment")
        self._unit_count: int | None = None
        self._combined_generative: bool | None = None
        self._cache_key: str | None = None
        self._html: str | None = ""
        self._html_builder: Callable[["HIT"], str] | None = None


class Assignment(NamedTuple):
    """One worker's completed pass over a HIT.

    A ``NamedTuple`` rather than a frozen dataclass: the marketplace
    constructs one per completed assignment on the hot path, and tuple
    construction is several times cheaper than ``object.__setattr__``-based
    frozen-dataclass init. Field semantics are unchanged.
    """

    assignment_id: str
    hit_id: str
    worker_id: str
    answers: dict[str, object]
    accept_time: float = 0.0
    submit_time: float = 0.0

    @property
    def duration(self) -> float:
        """Seconds between accept and submit."""
        return self.submit_time - self.accept_time


class Vote(NamedTuple):
    """One worker's answer to one question.

    ``NamedTuple`` for the same hot-path reason as :class:`Assignment` —
    one ``Vote`` is built per answer per assignment when collecting a
    round's corpus.
    """

    worker_id: str
    value: object


def count_vote_values(votes: Sequence["Vote"]) -> dict[object, int]:
    """Multiset of the values in a vote list, as a plain dict.

    The shared counting step of every combiner/agreement path. Vote lists
    are typically ~5 long and there is one per question, so
    ``collections.Counter`` construction dominates combining on large
    corpora — a hand-rolled dict loop is several times cheaper and
    semantically identical.
    """
    counts: dict[object, int] = {}
    for vote in votes:
        value = vote.value
        counts[value] = counts.get(value, 0) + 1
    return counts
