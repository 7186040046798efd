"""Worker pools: who is available and who picks up the next assignment.

Pick-up follows a Zipfian distribution over workers — the paper (and
CrowdDB) observe that a small number of workers complete a large fraction of
the work (§3.3.3). Spammers' pick-up weight additionally grows with HIT
batch size, implementing the observation that big batched HITs
disproportionately attract low-quality workers.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import ClassVar, Iterable, Sequence

from repro.crowd.worker import WorkerProfile, make_reliable, make_sloppy, make_spammer
from repro.errors import ConfigError
from repro.util.fields import Rule, check_fields, integer, real
from repro.util.rng import RandomSource


@dataclass(frozen=True)
class PoolConfig:
    """Composition and attraction parameters of a worker pool."""

    size: int = 150
    reliable_fraction: float = 0.77
    sloppy_fraction: float = 0.17
    spammer_fraction: float = 0.06
    zipf_exponent: float = 0.9
    spammer_batch_affinity: float = 0.15

    rules: ClassVar[dict[str, Rule]] = {
        "size": integer(3),
        "reliable_fraction": real(0, 1),
        "sloppy_fraction": real(0, 1),
        "spammer_fraction": real(0, 1),
        "zipf_exponent": real(0),
        "spammer_batch_affinity": real(0),
    }

    def __post_init__(self) -> None:
        check_fields(self, self.rules, ConfigError)
        total = self.reliable_fraction + self.sloppy_fraction + self.spammer_fraction
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"PoolConfig archetype fractions must sum to 1, got {total}")


EXCLUSION_MARGIN = 1e-13
"""Per-worker relative margin an exclusion pick's point must keep from the
cached boundaries around it (see :meth:`WorkerPool.pick_candidate`)."""


def _rebuilt_pick(
    workers: list[WorkerProfile],
    weights: list[float],
    drop: list[int],
    u: float,
) -> WorkerProfile:
    """The exclusion pick from sums rebuilt without the ``drop`` positions
    (sorted ascending, at least one kept): the definition
    :meth:`WorkerPool.pick_candidate` reproduces from the cached sums."""
    workers = workers.copy()
    weights = weights.copy()
    for position in reversed(drop):
        del workers[position]
        del weights[position]
    cumulative = list(accumulate(weights))
    index = bisect_right(cumulative, u * float(sum(weights)))
    last = len(cumulative) - 1
    return workers[index if index < last else last]


class WorkerPool:
    """A fixed population of workers with Zipfian pick-up behaviour."""

    def __init__(self, workers: Sequence[WorkerProfile], config: PoolConfig, seed: int) -> None:
        if not workers:
            raise ValueError("worker pool must be non-empty")
        self.workers = list(workers)
        self.config = config
        self._rng = RandomSource(seed).child("pool")
        self._banned: set[str] = set()
        # Zipf rank is assigned by shuffled position so archetypes are
        # interleaved among the heavy hitters.
        self._zipf_weights = [
            1.0 / (rank + 1) ** config.zipf_exponent for rank in range(len(self.workers))
        ]
        # Fast-path candidate tables, keyed by batch_units. Each entry holds
        # the non-banned workers in pool order, their batch-adjusted weights,
        # the cumulative sums of those weights, the builtin-sum total, and a
        # worker_id -> position map for applying per-HIT exclusions.
        # Invalidated by ban().
        self._candidate_tables: dict[
            int,
            tuple[list[WorkerProfile], list[float], list[float], float, dict[str, int]],
        ] = {}
        # Scratch space for the vectorized dispatch kernel
        # (repro.crowd.vector): numpy mirrors of the candidate tables plus
        # per-worker parameter arrays, keyed by the kernel. Owned here only
        # so ban() can invalidate every derived view in one place; the pool
        # itself never reads it (and it stays empty with REPRO_VECTOR off).
        self.vector_cache: dict[object, object] = {}

    @classmethod
    def build(cls, config: PoolConfig | None = None, seed: int = 0) -> "WorkerPool":
        """Create a pool with the archetype mix in ``config``."""
        config = config or PoolConfig()
        rng = RandomSource(seed).child("pool-build")
        counts = {
            "reliable": round(config.size * config.reliable_fraction),
            "sloppy": round(config.size * config.sloppy_fraction),
        }
        counts["spammer"] = config.size - counts["reliable"] - counts["sloppy"]
        makers = {
            "reliable": make_reliable,
            "sloppy": make_sloppy,
            "spammer": make_spammer,
        }
        workers: list[WorkerProfile] = []
        index = 0
        for archetype, count in counts.items():
            for _ in range(count):
                workers.append(
                    makers[archetype](f"W{index:04d}", rng.child(archetype, index))
                )
                index += 1
        workers = rng.shuffled(workers)
        # Professional Turkers: the heaviest workers skew reliable, which
        # yields the paper's slightly *positive* accuracy-vs-volume slope
        # (§3.3.3: β > 0, R² = 0.028).
        head = max(3, len(workers) // 20)
        reliable_tail = [w for w in workers[head:] if w.archetype == "reliable"]
        for position in range(head):
            if workers[position].archetype != "reliable" and reliable_tail:
                swap = reliable_tail.pop()
                swap_index = workers.index(swap)
                workers[position], workers[swap_index] = (
                    workers[swap_index],
                    workers[position],
                )
        return cls(workers, config, seed)

    def __len__(self) -> int:
        return len(self.workers)

    def by_id(self, worker_id: str) -> WorkerProfile:
        """Look up a worker by id."""
        for worker in self.workers:
            if worker.worker_id == worker_id:
                return worker
        raise KeyError(worker_id)

    def ban(self, worker_ids: Iterable[str]) -> None:
        """Exclude workers from future pick-ups (§6: acting on QA output)."""
        self._banned.update(worker_ids)
        self._candidate_tables.clear()
        self.vector_cache.clear()

    @property
    def banned(self) -> frozenset[str]:
        """Currently banned worker ids."""
        return frozenset(self._banned)

    def archetype_counts(self) -> dict[str, int]:
        """How many workers of each archetype the pool holds."""
        counts: dict[str, int] = {}
        for worker in self.workers:
            counts[worker.archetype] = counts.get(worker.archetype, 0) + 1
        return counts

    def pick_candidate(
        self,
        rng: RandomSource,
        batch_units: int = 1,
        exclude: set[str] | None = None,
    ) -> WorkerProfile | None:
        """Sample the next worker to *consider* an assignment.

        Returns None, without a draw, when every eligible worker is
        excluded. The caller then applies
        :meth:`WorkerProfile.acceptance_probability` to decide whether the
        candidate actually takes the HIT.

        Consumes exactly one ``random()`` draw ``u`` and returns the worker
        at ``bisect_right(cumulative, u * total)`` (clamped to the last),
        where ``cumulative`` and ``total`` are the ``accumulate`` prefix
        sums and the builtin ``sum`` of the eligible workers'
        batch-adjusted weights in pool order, ``exclude``d workers removed.
        The weights and their sums over all non-banned workers are cached
        per ``batch_units``; without exclusions the pick is one bisect.

        Exclusions are the common case: a HIT's second to fifth assignment
        excludes the workers already on it. Rather than rebuild the sums,
        the pick walks the runs of kept positions between the sorted
        dropped ones and bisects the cached array for ``u * (total -
        dropped) + before``, where ``dropped`` is the excluded weight and
        ``before`` the part of it ahead of the run. In exact arithmetic
        the rebuilt prefix sum at kept position ``p`` is ``cumulative[p] -
        before``, so the cached boundaries ``cumulative[p - 1]`` and
        ``cumulative[p]`` stand for the rebuilt ones around the point.

        Rounding moves each side by a bounded amount. With weights
        positive, ``n`` eligible workers, ``k`` of them excluded and ε =
        2⁻⁵³, every sum above is within (terms − 1)·ε·total of its exact
        value (builtin ``sum`` is compensated from Python 3.12 on, which
        only tightens this). The rebuilt point and each rebuilt boundary
        then lie within n·ε·total of exact, each cached boundary within
        n·ε·total and the walked target within (n + 2k + 2)·ε·total, so
        the rebuilt and the walked comparisons can disagree only inside
        (4n + 2k + 2)·ε·total of a boundary, to first order in ε. The
        walked answer is kept when the target clears both neighbouring
        boundaries by ``EXCLUSION_MARGIN · n · total``, over 100 times
        that bound for any k ≤ n. Otherwise (a chance of about
        2·10⁻¹³·n per pick; always for ``u == 0.0``, and for a target past
        the last kept boundary, which only rounding produces) the pick
        rebuilds the sums without the excluded workers and bisects them
        from the same ``u``.
        """
        table = self._candidate_tables.get(batch_units)
        if table is None:
            table = self._candidate_table(batch_units)
        workers, weights, cumulative, total, positions = table
        if exclude:
            drop = [positions[wid] for wid in exclude if wid in positions]
            if drop:
                count = len(workers)
                if len(drop) == count:
                    return None
                drop.sort()
                u = rng.raw.random()
                dropped = 0.0
                for position in drop:
                    dropped += weights[position]
                point = u * (total - dropped)
                # Walk the kept runs [start, end) between dropped positions;
                # ``before`` is the dropped weight ahead of the run.
                before = 0.0
                start = 0
                for end in (*drop, count):
                    if start < end:
                        target = point + before
                        index = bisect_right(cumulative, target, start, end)
                        if index < end:
                            margin = EXCLUSION_MARGIN * count * total
                            lower = cumulative[index - 1] if index else 0.0
                            if (
                                target - lower > margin
                                and cumulative[index] - target > margin
                            ):
                                return workers[index]
                            break
                    if end < count:
                        before += weights[end]
                    start = end + 1
                return _rebuilt_pick(workers, weights, drop, u)
        if not workers:
            return None
        # Inlined weighted_index_cumulative; pool weights are Zipfian and
        # strictly positive, so the positive-sum guard can't trip.
        point = rng.raw.random() * total
        index = bisect_right(cumulative, point)
        last = len(cumulative) - 1
        return workers[index if index < last else last]

    def _candidate_table(
        self, batch_units: int
    ) -> tuple[list[WorkerProfile], list[float], list[float], float, dict[str, int]]:
        table = self._candidate_tables.get(batch_units)
        if table is None:
            workers: list[WorkerProfile] = []
            weights: list[float] = []
            affinity = self.config.spammer_batch_affinity
            for weight, worker in zip(self._zipf_weights, self.workers):
                if worker.worker_id in self._banned:
                    continue
                if worker.is_spammer and batch_units > 1:
                    weight = weight * (1.0 + min(4.0, affinity * (batch_units - 1)))
                workers.append(worker)
                weights.append(weight)
            positions = {w.worker_id: i for i, w in enumerate(workers)}
            # The total is the builtin ``sum``, the scale
            # RandomSource.weighted_index uses (see its docstring).
            table = (
                workers,
                weights,
                list(accumulate(weights)),
                float(sum(weights)),
                positions,
            )
            self._candidate_tables[batch_units] = table
        return table
