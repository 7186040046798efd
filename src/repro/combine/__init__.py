"""Answer combination: turning multiple worker votes into one answer.

Provides the paper's two combiners — :class:`MajorityVote` and
:class:`QualityAdjust` (the Ipeirotis et al. bias-aware extension of the
Dawid & Skene EM estimator) — plus text normalizers and the §6 adaptive
assignment-count extension.
"""

from repro.combine.adaptive import AdaptivePolicy, needs_more_votes
from repro.combine.base import Combiner, combine_corpus
from repro.combine.dawid_skene import DawidSkeneResult, dawid_skene
from repro.combine.majority import MajorityVote
from repro.combine.normalize import get_normalizer, register_normalizer
from repro.combine.quality_adjust import QualityAdjust
from repro.errors import TaskError

_COMBINERS = {
    "MajorityVote": MajorityVote,
    "QualityAdjust": QualityAdjust,
}


def combiner_names() -> tuple[str, ...]:
    """The TASK-DSL combiner names :func:`get_combiner` accepts, sorted."""
    return tuple(sorted(_COMBINERS))


def get_combiner(name: str, **kwargs) -> Combiner:
    """Instantiate a combiner by its TASK-DSL name; an unknown name raises
    :class:`~repro.errors.TaskError` naming the known ones."""
    try:
        combiner = _COMBINERS[name]
    except KeyError:
        raise TaskError(
            f"unknown combiner {name!r}; known combiners: {list(combiner_names())}"
        ) from None
    return combiner(**kwargs)


__all__ = [
    "AdaptivePolicy",
    "Combiner",
    "DawidSkeneResult",
    "MajorityVote",
    "QualityAdjust",
    "combine_corpus",
    "combiner_names",
    "dawid_skene",
    "get_combiner",
    "get_normalizer",
    "needs_more_votes",
    "register_normalizer",
]
