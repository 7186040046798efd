"""A boto-style Mechanical Turk API facade over any crowd platform.

Qurk's declarative interface promises platform independence (§1). This
module provides the familiar imperative MTurk SDK surface — create a HIT,
poll for reviewable HITs, fetch and approve assignments — implemented
against the post-and-wait platform protocol
(:class:`~repro.hits.manager.PostAndWaitPlatform`). It exists so that
code written against the real (boto-era) SDK can run unmodified against the
simulator, and it documents exactly which slice of the MTurk API Qurk needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import MarketplaceError
from repro.hits.compiler import HITCompiler
from repro.hits.hit import HIT, Assignment, Payload
from repro.hits.manager import PostAndWaitPlatform


@dataclass(frozen=True)
class HITTypeParams:
    """Posting parameters shared by a family of HITs."""

    title: str
    description: str = ""
    reward: float = 0.01
    assignments: int = 5
    keywords: tuple[str, ...] = ()


@dataclass
class HITStatus:
    """Lifecycle record the connection keeps per created HIT."""

    hit: HIT
    params: HITTypeParams
    assignments: list[Assignment] = field(default_factory=list)
    posted: bool = False
    disposed: bool = False
    approved_assignment_ids: set[str] = field(default_factory=set)

    @property
    def is_reviewable(self) -> bool:
        """Whether results are ready to review (posted and collected)."""
        return self.posted and not self.disposed


class MTurkConnection:
    """The imperative API: create → (implicitly run) → review → approve.

    Because the simulated platform resolves a posting synchronously in
    virtual time, ``create_hit`` both posts and collects; ``get_assignments``
    then returns immediately. Against a real platform the same call order
    holds, only the blocking point moves.
    """

    def __init__(self, platform: PostAndWaitPlatform) -> None:
        self.platform = platform
        self._compiler = HITCompiler()
        self._hits: dict[str, HITStatus] = {}
        self._counter = 0

    def create_hit(
        self, payloads: tuple[Payload, ...], params: HITTypeParams
    ) -> str:
        """Create and post one HIT; returns its HIT id."""
        self._counter += 1
        hit = HIT(
            hit_id=f"mturk-{self._counter:05d}",
            payloads=payloads,
            assignments_requested=params.assignments,
            reward=params.reward,
        )
        self._compiler.compile(hit)
        status = HITStatus(hit=hit, params=params)
        self._hits[hit.hit_id] = status
        status.assignments = self.platform.post_hit_group([hit], group_id=params.title)
        status.posted = True
        return hit.hit_id

    def get_reviewable_hits(self) -> list[str]:
        """Ids of HITs with collected work awaiting review."""
        return [
            hit_id for hit_id, status in self._hits.items() if status.is_reviewable
        ]

    def get_assignments(self, hit_id: str) -> list[Assignment]:
        """Completed assignments for one HIT."""
        return list(self._status(hit_id).assignments)

    def approve_assignment(self, hit_id: str, assignment_id: str) -> None:
        """Approve one assignment (pays the worker; §6 notes quick approval
        builds requester reputation)."""
        status = self._status(hit_id)
        if all(a.assignment_id != assignment_id for a in status.assignments):
            raise MarketplaceError(
                f"assignment {assignment_id!r} does not belong to HIT {hit_id!r}"
            )
        status.approved_assignment_ids.add(assignment_id)

    def approve_all(self, hit_id: str) -> int:
        """Approve every assignment of a HIT; returns how many."""
        status = self._status(hit_id)
        for assignment in status.assignments:
            status.approved_assignment_ids.add(assignment.assignment_id)
        return len(status.approved_assignment_ids)

    def dispose_hit(self, hit_id: str) -> None:
        """Dispose a HIT once reviewed."""
        self._status(hit_id).disposed = True

    def hit_html(self, hit_id: str) -> str:
        """The compiled HTML form workers saw for this HIT."""
        return self._status(hit_id).hit.html

    def _status(self, hit_id: str) -> HITStatus:
        try:
            return self._hits[hit_id]
        except KeyError as exc:
            raise MarketplaceError(f"unknown HIT id {hit_id!r}") from exc
