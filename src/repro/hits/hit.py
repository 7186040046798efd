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

In a pair id each ref has ``\\`` and ``|`` backslash-escaped, so the
``|`` between the two refs is the only bare one (``("a|b", "c")`` and
``("a", "b|c")`` ask different questions); a ref containing neither
character appears verbatim. :func:`split_pair` decodes the ``a|b`` body.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    ClassVar,
    Iterable,
    NamedTuple,
    Sequence,
    Union,
)

from repro.errors import TaskError

if TYPE_CHECKING:
    from repro.crowd.faults import GroupFaultRecord


def _pair_ref(ref: str) -> str:
    """``ref`` as one side of a pair id: ``\\`` and ``|`` escaped."""
    if "|" in ref or "\\" in ref:
        return ref.replace("\\", "\\\\").replace("|", "\\|")
    return ref


_PAIR_BODY = re.compile(r"((?:[^\\|]|\\.)*)\|((?:[^\\|]|\\.)*)", re.DOTALL)
_ESCAPED = re.compile(r"\\(.)", re.DOTALL)


def split_pair(body: str) -> tuple[str, str] | None:
    """The two refs a pair id's ``a|b`` body encodes (the id's text after
    ``task:join:`` or ``task:cmp:``), or None when it encodes no pair."""
    if "\\" not in body:
        a, sep, b = body.partition("|")
        return (a, b) if sep and "|" not in b else None
    match = _PAIR_BODY.fullmatch(body)
    if match is None:
        return None
    return _ESCAPED.sub(r"\1", match[1]), _ESCAPED.sub(r"\1", match[2])


def compare_qid(task_name: str, a: str, b: str) -> str:
    """Canonical question id for the comparison of items ``a`` and ``b``."""
    lo, hi = sorted((a, b))
    return f"{task_name}:cmp:{_pair_ref(lo)}|{_pair_ref(hi)}"


def compare_pairs(
    task_name: str, groups: Iterable[Sequence[str]]
) -> dict[str, tuple[str, str]]:
    """Comparison question id → its ``(lo, hi)`` item refs, for every pair
    of every group.

    Readers decode a comparison question through this map rather than
    with :func:`split_pair`, so a question that was never posted is caught.
    """
    pairs: dict[str, tuple[str, str]] = {}
    for group in groups:
        for i, a in enumerate(group):
            for b in group[i + 1 :]:
                lo, hi = sorted((a, b))
                pairs[compare_qid(task_name, lo, hi)] = (lo, hi)
    return pairs


def join_qid(task_name: str, left: str, right: str) -> str:
    """Question id for the join candidate ``(left, right)``.

    Left/right are *not* sorted: the pair is ordered (R tuple, S tuple).
    """
    return f"{task_name}:join:{_pair_ref(left)}|{_pair_ref(right)}"


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

    def pair_layout(self, task_name: str) -> tuple[tuple[int, int, str], ...]:
        """``(i, j, qid)`` for every pair ``i < j`` of the group's items."""
        items = self.items
        return tuple(
            (i, j, compare_qid(task_name, items[i], items[j]))
            for i in range(len(items))
            for j in range(i + 1, len(items))
        )

    def pair_qids(self, task_name: str) -> list[str]:
        """Question ids of every pair in the group."""
        return [qid for _, _, qid in self.pair_layout(task_name)]


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

    def pair_layouts(self) -> tuple[tuple[tuple[int, int, str], ...], ...]:
        """Each group's :meth:`CompareGroup.pair_layout`, in group order.

        Built on the first call and kept in the instance ``__dict__``, outside
        the dataclass fields, so ``repr``, ``==`` and ``hash`` (and with them
        :attr:`HIT.cache_key`) ignore it. Every assignment of a HIT answers
        the same payload object, so they share one layout, and it goes away
        with the HIT.
        """
        layouts = self.__dict__.get("_pair_layouts")
        if layouts is None:
            layouts = self.__dict__["_pair_layouts"] = tuple(
                group.pair_layout(self.task_name) for group in self.groups
            )
        return layouts


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


ASKED_QIDS: dict[str, Callable[..., Iterable[str]]] = {
    "filter": lambda p: [q.qid(p.task_name) for q in p.questions],
    "generative": lambda p: [
        generative_qid(p.task_name, q.item, f.name) for q in p.questions for f in p.fields
    ],
    "compare": lambda p: [qid for layout in p.pair_layouts() for _, _, qid in layout],
    "rate": lambda p: [rate_qid(p.task_name, q.item) for q in p.questions],
    "join_pairs": lambda p: [join_qid(p.task_name, x.left, x.right) for x in p.pairs],
    "join_grid": lambda p: p.pair_qids(),
    "pick_best": lambda p: [p.qid()],
}
"""Builtin payload kind → the question ids a payload of that kind asks."""


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
    cache_round: int = 1
    """Which collection round of one query posted this HIT. Adaptive
    top-ups re-post the same units round after round; rounds after the
    first key the task cache apart (see :attr:`cache_key`), so a top-up
    never replays an earlier round's answers."""

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
        each cache lookup/store. A HIT of collection round ``r > 1`` keys
        as ``r=<r>|`` + the round-1 key, exactly like
        :func:`repro.hits.cache.payload_cache_key`.
        """
        key = self._cache_key
        if key is None:
            body = ";".join(sorted(repr(payload) for payload in self.payloads))
            key = f"a={self.assignments_requested}|{body}"
            if self.cache_round > 1:
                key = f"r={self.cache_round}|{key}"
            self._cache_key = key
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


@dataclass(frozen=True)
class HITGroupTicket:
    """A submitted HIT group, collected by the platform's ``harvest``
    (:class:`~repro.hits.manager.CrowdPlatform`).

    The simulation resolves a group at submission, but its assignments stay
    embargoed behind the ticket until harvested, when the group's completion
    folds into the platform clock. ``finish_time`` is when the group
    resolved: its last submission, or when the platform gave up on the HITs
    it left uncompleted.
    """

    ticket_id: int
    group_id: str | None
    post_time: float
    finish_time: float
    assignments: tuple[Assignment, ...]
    incomplete_hit_ids: frozenset[str]
    faults: GroupFaultRecord | None = None
    """What the fault overlay did to this group (``None``: nothing injected)."""


class Vote(NamedTuple):
    """One worker's answer to one question.

    Engine code counts votes as columns
    (:class:`~repro.hits.vote_columns.VoteColumns`) and never builds these; a
    ``Vote`` is what :class:`~repro.hits.vote_columns.VotesView` yields when a
    caller iterates one question's votes, and what
    :meth:`~repro.hits.vote_columns.VoteColumns.from_corpus` reads.
    """

    worker_id: str
    value: object
