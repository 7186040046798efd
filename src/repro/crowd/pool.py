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
from typing import Iterable, Sequence

from repro.crowd.worker import WorkerProfile, make_reliable, make_sloppy, make_spammer
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

    def __post_init__(self) -> None:
        total = self.reliable_fraction + self.sloppy_fraction + self.spammer_fraction
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"archetype fractions must sum to 1, got {total}")
        if self.size < 3:
            raise ValueError("pool must have at least 3 workers")


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

        Returns None when every eligible worker is excluded. The caller then
        applies :meth:`WorkerProfile.acceptance_probability` to decide
        whether the candidate actually takes the HIT.

        Consumes exactly one ``random()`` draw. The batch-adjusted weight
        vector is cached per ``batch_units``; exclusions are rare and
        small, so most draws are an O(log n) bisect over a cached
        cumulative array.
        """
        table = self._candidate_tables.get(batch_units)
        if table is None:
            table = self._candidate_table(batch_units)
        workers, weights, cumulative, total, positions = table
        if exclude:
            drop = [positions[wid] for wid in exclude if wid in positions]
            if drop:
                if len(drop) > 1:
                    drop.sort(reverse=True)
                workers = workers.copy()
                weights = weights.copy()
                for position in drop:
                    del workers[position]
                    del weights[position]
                if not workers:
                    return None
                cumulative = list(accumulate(weights))
                total = float(sum(weights))
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
