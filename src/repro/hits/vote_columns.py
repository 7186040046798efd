"""Votes as columns: the answers of harvested HIT groups, held for counting.

A harvested group's answers live in ``Assignment.answers``, one dict per
assignment (question id → value); that dict stays the one source of votes,
because the golden traces, the task cache and the store record it and the
fault overlay rewrites it. Every reader downstream (combiners, agreement
metrics, sort and join readers) needs the same thing from it: per
question, how many workers gave each value. :class:`VoteColumns` keeps the
answers as three parallel per-vote columns (question id, worker id, value),
each one C-level concatenation over the assignments, and counts them in
C-level passes that every reader of a column set shares: the question
table with its vote counts (:meth:`~VoteColumns.sizes`), the truthy votes
per question (:meth:`~VoteColumns.truthy_counts`, all a yes/no question
needs), and every (question, value) pair (:meth:`~VoteColumns.tally`).

Two order contracts make results reproducible (rating means are float
sums, and Dawid–Skene accumulates floats question by question):

* questions come in the order of the table: first appearance among the
  votes, or the order a caller :meth:`~VoteColumns.select`\\ ed;
* within a question, votes keep the order they were added: assignment
  order, then the order of each assignment's answers.

:class:`VotesView` is the read-only ``Mapping[str, Sequence[Vote]]`` face
of a column set. Each question's length is known without building
anything; :class:`~repro.hits.hit.Vote` tuples are built only when a caller
iterates a question's votes.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping, Sequence, ValuesView
from itertools import chain, compress, repeat
from operator import attrgetter
from typing import Callable, Iterable, Iterator

from repro.hits.hit import Assignment, Vote

_answers = attrgetter("answers")
_worker_id = attrgetter("worker_id")


class VoteColumns:
    """The votes of one or more HIT groups as parallel per-vote columns.

    Vote ``i`` is worker ``worker[i]`` answering ``value[i]`` to question
    ``question[i]``. The question column holds the question ids themselves
    (the answers dicts' own key strings, so filling it allocates nothing).
    :meth:`sizes` is the question table; it may also list questions that
    have no votes (see :meth:`from_corpus` and :meth:`select`). Columns are
    filled when built and grown only by :meth:`extend`; readers must not
    mutate them or the dicts the counting methods return.
    """

    __slots__ = ("question", "worker", "value", "_table", "_sizes", "_tally", "_truthy")

    def __init__(
        self,
        question: list[str] | None = None,
        worker: list[str] | None = None,
        value: list[object] | None = None,
        table: dict[str, int] | None = None,
    ) -> None:
        self.question: list[str] = [] if question is None else question
        self.worker: list[str] = [] if worker is None else worker
        self.value: list[object] = [] if value is None else value
        # An explicit question table (qid → vote count) when its order is
        # not simply first appearance, or it lists questions without votes.
        self._table = table
        self._forget()

    def _forget(self) -> None:
        self._sizes: dict[str, int] | None = self._table
        self._tally: dict[str, dict[object, int]] | None = None
        self._truthy: Counter | None = None

    @classmethod
    def from_assignments(cls, assignments: Sequence[Assignment]) -> "VoteColumns":
        """One vote per answer of every assignment, in assignment order
        (each column is one C-level pass over the assignments)."""
        answers = list(map(_answers, assignments))
        lengths = map(len, answers)
        return cls(
            list(chain.from_iterable(answers)),
            list(chain.from_iterable(map(repeat, map(_worker_id, assignments), lengths))),
            list(chain.from_iterable(map(dict.values, answers))),
        )

    @classmethod
    def from_corpus(cls, corpus: Mapping[str, Iterable[Vote]]) -> "VoteColumns":
        """Columns of a ``{qid: [Vote, ...]}`` corpus, questions in its order.

        A question mapped to no votes stays in the table, so
        :func:`~repro.combine.base.combine_corpus` still rejects it.
        """
        question: list[str] = []
        worker: list[str] = []
        value: list[object] = []
        table: dict[str, int] = {}
        for qid, votes in corpus.items():
            before = len(value)
            for worker_id, answer in votes:
                question.append(qid)
                worker.append(worker_id)
                value.append(answer)
            table[qid] = len(value) - before
        return cls(question, worker, value, table)

    def sizes(self) -> dict[str, int]:
        """The question table: question id → vote count, in table order.

        Without an explicit table this is one C-level count of the
        question column (first appearance order, no empty questions)."""
        sizes = self._sizes
        if sizes is None:
            sizes = self._sizes = Counter(self.question)
        return sizes

    def __len__(self) -> int:
        """Number of questions (with or without votes)."""
        return len(self.sizes())

    def __contains__(self, qid: object) -> bool:
        return qid in self.sizes()

    def __iter__(self) -> Iterator[str]:
        return iter(self.sizes())

    def __repr__(self) -> str:
        return f"VoteColumns({len(self)} questions, {len(self.value)} votes)"

    def extend(self, other: "VoteColumns") -> None:
        """Append another column set's votes; new questions join the table
        after this one's, in the other's order."""
        if self._table is not None or other._table is not None:
            table = dict(self.sizes())
            for qid, count in other.sizes().items():
                table[qid] = table.get(qid, 0) + count
            self._table = table
        self.question.extend(other.question)
        self.worker.extend(other.worker)
        self.value.extend(other.value)
        self._forget()

    def select(self, qids: Iterable[str]) -> "VoteColumns":
        """The given questions, in the given order, with all their votes.

        A requested question without votes stays in the table with none.
        Returns ``self`` when the selection is the whole table in order.
        """
        qids = list(qids)
        own = self.sizes()
        if len(qids) == len(own) and qids == list(own):
            return self
        table = {qid: own.get(qid, 0) for qid in qids}
        keep = list(map(table.__contains__, self.question))
        return VoteColumns(
            list(compress(self.question, keep)),
            list(compress(self.worker, keep)),
            list(compress(self.value, keep)),
            table,
        )

    def matching(self, marker: str) -> "VoteColumns":
        """The questions whose id contains ``marker`` (e.g. ``":join:"``)."""
        return self.select([qid for qid in self.sizes() if marker in qid])

    def with_values(self, value: list[object]) -> "VoteColumns":
        """The same votes carrying ``value`` (one entry per vote) instead."""
        if len(value) != len(self.value):
            raise ValueError("with_values needs exactly one value per vote")
        return VoteColumns(list(self.question), list(self.worker), value, self._table)

    def tally(self) -> dict[str, dict[object, int]]:
        """Per question, in table order: value → vote count.

        Values come in the order the question first received them; a
        question without votes maps to an empty dict. Values merge by
        equality (``True`` and ``1`` count together under whichever came
        first), the way a per-question dict count merges them. Computed
        once — ``Counter(zip(question, value))`` runs in C — and shared
        by every reader until :meth:`extend` changes the columns.
        """
        tally = self._tally
        if tally is None:
            tally = {}
            for (qid, value), count in Counter(zip(self.question, self.value)).items():
                tally.setdefault(qid, {})[value] = count
            if self._table is not None:
                # An explicit table sets the order and may list questions
                # without votes; pairs come in first-appearance order.
                tally = {qid: tally.get(qid, {}) for qid in self._table}
            self._tally = tally
        return tally

    def truthy_counts(self) -> Counter:
        """Per question: how many of its votes are truthy (a ``Counter``, so
        a question with none reads 0). One C-level pass, computed once."""
        truthy = self._truthy
        if truthy is None:
            truthy = self._truthy = Counter(compress(self.question, self.value))
        return truthy

    def all_bool(self) -> bool:
        """Whether there are votes and every value is ``True`` or ``False``
        (not merely equal to one: ``1`` is no bool)."""
        return set(map(type, self.value)) == {bool}

    def grouped(self) -> dict[str, tuple[list[str], list[object]]]:
        """Per question, in table order: its votes' workers and values, in
        vote order (for readers whose float sums follow that order)."""
        groups: dict[str, tuple[list[str], list[object]]] = {
            qid: ([], []) for qid in self.sizes()
        }
        for qid, worker, value in zip(self.question, self.worker, self.value):
            workers, values = groups[qid]
            workers.append(worker)
            values.append(value)
        return groups


def normalized_values(
    values: Sequence[object], normalizer: Callable[[str], object]
) -> list[object]:
    """``normalizer(str(value))`` for every value, normalizing each distinct
    text once. The memo keys on ``str(value)``, not on the value: ``True``
    and ``1`` are equal but their texts differ."""
    texts = list(map(str, values))
    normal = {text: normalizer(text) for text in dict.fromkeys(texts)}
    return list(map(normal.__getitem__, texts))


class VotesView(Mapping):
    """Read-only ``Mapping[str, Sequence[Vote]]`` over a :class:`VoteColumns`.

    Question lengths come from the columns' :meth:`VoteColumns.sizes`;
    :class:`~repro.hits.hit.Vote` tuples are built only when a question's
    votes are iterated. Engine code reads the columns; the view serves
    callers that count votes per question (the benchmark tracer's
    ``_finalize_outcome`` hook) and tests.
    """

    __slots__ = ("_columns", "_positions")

    def __init__(self, columns: VoteColumns) -> None:
        self._columns = columns
        self._positions: dict[str, list[int]] | None = None

    def __getitem__(self, qid: str) -> "QuestionVotes":
        sizes = self._columns.sizes()
        if qid not in sizes:
            raise KeyError(qid)
        return QuestionVotes(self, qid, sizes[qid])

    def __iter__(self) -> Iterator[str]:
        return iter(self._columns)

    def __len__(self) -> int:
        return len(self._columns)

    def values(self) -> "_QuestionVotesView":
        return _QuestionVotesView(self)

    def _votes_of(self, qid: str) -> list[Vote]:
        """One question's votes as :class:`Vote` tuples, in vote order."""
        positions = self._positions
        if positions is None:
            positions = self._positions = {}
            for index, question in enumerate(self._columns.question):
                positions.setdefault(question, []).append(index)
        worker, value = self._columns.worker, self._columns.value
        return [Vote(worker[i], value[i]) for i in positions.get(qid, ())]


class _QuestionVotesView(ValuesView):
    """``values()`` of a :class:`VotesView`, one question at a time, so
    counting every question's votes keeps no per-question object alive."""

    def __iter__(self) -> Iterator["QuestionVotes"]:
        view = self._mapping
        for qid, size in view._columns.sizes().items():
            yield QuestionVotes(view, qid, size)


class QuestionVotes(Sequence):
    """One question's votes in a :class:`VotesView`; ``len`` is O(1)."""

    __slots__ = ("_view", "_qid", "_size")

    def __init__(self, view: VotesView, qid: str, size: int) -> None:
        self._view = view
        self._qid = qid
        self._size = size

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, index):
        return self._view._votes_of(self._qid)[index]

    def __iter__(self) -> Iterator[Vote]:
        return iter(self._view._votes_of(self._qid))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Sequence):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return repr(list(self))
