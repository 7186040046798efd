"""Deterministic random-number plumbing.

Every stochastic component in the simulator (worker pool, latency model,
behaviour models, samplers) draws from a :class:`RandomSource` that is
explicitly seeded, so that experiments are reproducible run-to-run. Child
streams are derived with :func:`child_seed` so that two components never share
a stream even when built from the same top-level seed.
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_right
from functools import lru_cache
from itertools import accumulate
from typing import Iterable, Sequence, TypeVar

T = TypeVar("T")

_mt_seed = random.Random.__mro__[1].seed
"""The C-level Mersenne-Twister seed (``_random.Random.seed``)."""


def child_seed(seed: int, *labels: object) -> int:
    """Derive a stable 63-bit child seed from ``seed`` and a label path.

    The derivation hashes the parent seed together with the string forms of
    the labels, so ``child_seed(1, "workers")`` and ``child_seed(1, "latency")``
    are independent, and the mapping is stable across processes (unlike
    ``hash``, which is salted). Nothing is memoized: a derivation costs a few
    microseconds, and a table of past ones would grow with every seed a
    long-lived process ever sees.
    """
    return child_seed_from_material(
        ":".join([str(seed), *[str(label) for label in labels]])
    )


def stable_seed(material: str) -> int:
    """A stable 63-bit integer from a string, for seeds and cache keys.

    The process-independent replacement for ``hash(some_id)``: builtin
    ``hash`` of str/bytes is salted by ``PYTHONHASHSEED`` and therefore
    differs between runs, while this digest (blake2b) is identical across
    processes, platforms, and Python versions. Use it wherever a run id,
    query id, or payload string needs to deterministically influence a seed.
    """
    digest = hashlib.blake2b(material.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") & 0x7FFF_FFFF_FFFF_FFFF


def child_seed_from_material(material: str) -> int:
    """:func:`child_seed` given the already-joined label material.

    Hot loops that derive one child per assignment build the material string
    directly (an f-string over known labels) and skip the label join.
    ``child_seed(seed, *labels)`` is this function of
    ``":".join(str(x) for x in (seed, *labels))``.
    """
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & 0x7FFF_FFFF_FFFF_FFFF


# repro-lint: disable=RL013 -- keyed by pool shape, not by work: at most 256 small tables
@lru_cache(maxsize=256)
def _zipf_cumulative(n: int, exponent: float) -> tuple[tuple[float, ...], float]:
    """(cumulative Zipfian weights, builtin-``sum`` total), the two inputs
    :meth:`RandomSource.weighted_index_cumulative` takes (see
    :meth:`RandomSource.weighted_index` for why the total is a separate
    builtin ``sum``).

    The one process-wide memo on the engine path. It is keyed by pool
    shape ``(n, exponent)``, so it grows with the distinct shapes a process
    builds (at most 256 tables), not with the queries it runs.
    """
    weights = [1.0 / (i + 1) ** exponent for i in range(n)]
    return tuple(accumulate(weights)), float(sum(weights))


class RandomSource:
    """A seeded random stream with the handful of draws the simulator needs.

    Wraps :class:`random.Random` rather than exposing it directly so that the
    simulator code documents exactly which distributions it relies on, and so
    the implementation could be swapped (e.g. for numpy) without touching
    call sites.
    """

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self._random = random.Random(self.seed)

    def reseed(self, seed: int) -> None:
        """Re-point this source at a new stream, as if freshly constructed.

        Hot loops that would otherwise build one short-lived child source
        per assignment reuse a single instance via ``reseed``. Calling the
        C-level seed directly and clearing the cached gauss value is
        exactly what ``random.Random.seed`` does for an int argument, so
        the draws are identical to those of ``RandomSource(seed)``.
        """
        self.seed = seed = int(seed)
        target = self._random
        _mt_seed(target, seed)
        target.gauss_next = None

    def child(self, *labels: object) -> "RandomSource":
        """Return an independent stream derived from this one."""
        return RandomSource(child_seed(self.seed, *labels))

    @property
    def raw(self) -> random.Random:
        """The underlying stream, for hot loops that bypass wrapper overhead.

        Draws taken here advance the same stream the wrapper methods
        consume, so mixing ``raw`` calls with wrapper calls is safe as long
        as the *sequence* of draws is unchanged.
        """
        return self._random

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """Uniform float in ``[low, high)``."""
        return self._random.uniform(low, high)

    def random(self) -> float:
        """Uniform float in ``[0, 1)``."""
        return self._random.random()

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in ``[low, high]`` (both inclusive)."""
        return self._random.randint(low, high)

    def gauss(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        """Normal draw with mean ``mu`` and standard deviation ``sigma``."""
        return self._random.gauss(mu, sigma)

    def lognormal(self, mu: float, sigma: float) -> float:
        """Log-normal draw (``exp`` of a normal with the given parameters)."""
        return self._random.lognormvariate(mu, sigma)

    def exponential(self, rate: float) -> float:
        """Exponential inter-arrival draw with the given rate (events/unit)."""
        if rate <= 0:
            raise ValueError(f"exponential rate must be positive, got {rate}")
        return self._random.expovariate(rate)

    def chance(self, probability: float) -> bool:
        """Bernoulli draw: True with the given probability."""
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        return self._random.random() < probability

    def choice(self, options: Sequence[T]) -> T:
        """Uniform choice from a non-empty sequence."""
        return self._random.choice(options)

    def sample(self, options: Sequence[T], k: int) -> list[T]:
        """Sample ``k`` distinct elements without replacement."""
        return self._random.sample(options, k)

    def shuffled(self, items: Iterable[T]) -> list[T]:
        """Return a new list with the items in shuffled order."""
        result = list(items)
        self._random.shuffle(result)
        return result

    def weighted_index(self, weights: Sequence[float]) -> int:
        """Pick an index with probability proportional to ``weights``.

        Consumes exactly one ``random()`` draw, scales it by the builtin
        ``sum`` of the weights, and returns the first index whose running
        left-to-right sum exceeds it (a bisect over the cumulative sums).
        The scale is the builtin ``sum`` rather than the last running sum
        because the pinned draw stream was recorded that way: on Python
        3.12+ ``sum`` of floats is Neumaier-compensated and can differ from
        the naive running sum by an ulp.
        """
        return self.weighted_index_cumulative(
            list(accumulate(weights)), float(sum(weights))
        )

    def weighted_index_cumulative(
        self, cumulative: Sequence[float], total: float | None = None
    ) -> int:
        """Pick an index given precomputed cumulative weights.

        ``cumulative`` must be the running left-to-right sums of the weight
        vector (``itertools.accumulate``); hot callers cache it so each draw
        costs O(log n) instead of O(n). ``total`` is the builtin-``sum`` of
        the weights when the caller has it (see :meth:`weighted_index` for
        why it may differ from ``cumulative[-1]`` by an ulp); it defaults to
        ``cumulative[-1]``. Consumes exactly one ``random()`` draw, like
        :meth:`weighted_index`.
        """
        if not cumulative:
            raise ValueError("weights must have a positive sum")
        if total is None:
            total = cumulative[-1]
        if total <= 0:
            raise ValueError("weights must have a positive sum")
        point = self._random.random() * total
        index = bisect_right(cumulative, point)
        last = len(cumulative) - 1
        return index if index < last else last

    def zipf_index(self, n: int, exponent: float = 1.0) -> int:
        """Pick an index in ``[0, n)`` with Zipfian weights ``1/(i+1)^s``.

        Used to model the paper's observation (§3.3.3) that the number of
        tasks completed per worker is roughly Zipfian. The weight vector for
        each ``(n, exponent)`` is memoized.
        """
        cumulative, total = _zipf_cumulative(n, float(exponent))
        return self.weighted_index_cumulative(cumulative, total)


def spawn_rng(seed: int, *labels: object) -> RandomSource:
    """Convenience: build a :class:`RandomSource` for a labelled component."""
    return RandomSource(child_seed(seed, *labels))
