"""Ground-truth oracles: what a perfectly informed worker would answer.

The simulated marketplace separates *what is true* (this module, supplied by
datasets) from *how workers err* (:mod:`repro.crowd.behavior`). Items are
identified by opaque reference strings (usually the image URL rendered into
the HIT), so the oracle never needs to see rows or schemas.

Latent values for rank tasks are normalised to [0, 1]; per-task ambiguity
multipliers scale worker noise, which is how "sort squares by size" (crisp)
and "sort animals by how much they belong on Saturn" (hopeless) differ.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import MarketplaceError


@dataclass
class RankTruth:
    """Latent values and ambiguity for one rank (sort) task."""

    latents: dict[str, float]
    comparison_ambiguity: float = 1.0
    rating_ambiguity: float = 1.0
    random_answers: bool = False

    def normalized(self) -> "RankTruth":
        """Copy with latent values rescaled to [0, 1]."""
        values = list(self.latents.values())
        lo, hi = min(values), max(values)
        span = (hi - lo) or 1.0
        return RankTruth(
            latents={item: (value - lo) / span for item, value in self.latents.items()},
            comparison_ambiguity=self.comparison_ambiguity,
            rating_ambiguity=self.rating_ambiguity,
            random_answers=self.random_answers,
        )


@dataclass
class FeatureTruth:
    """True categorical values plus worker-confusion kernels for one field.

    ``confusion`` maps a true value to the label distribution a *careful*
    worker draws from — e.g. true ``blond`` hair might be reported ``white``
    30% of the time (§3.3.4). ``confusion_combined`` overrides it when the
    question is asked in a combined (multi-feature) interface, where the
    paper found workers more accurate on hair and more comfortable with skin
    color.
    """

    values: dict[str, object]
    options: tuple[object, ...] = ()
    confusion: dict[object, dict[object, float]] = field(default_factory=dict)
    confusion_combined: dict[object, dict[object, float]] = field(default_factory=dict)

    def answer_distribution(self, item: str, combined: bool) -> dict[object, float]:
        """The careful-worker label distribution for one item."""
        try:
            truth = self.values[item]
        except KeyError as exc:
            raise MarketplaceError(f"no feature value for item {item!r}") from exc
        table = self.confusion_combined if combined else self.confusion
        if truth in table:
            return dict(table[truth])
        return {truth: 1.0}


class GroundTruth:
    """Composable oracle covering every question kind the simulator answers.

    Datasets build one of these (or subclass) and hand it to the
    marketplace. All lookups raise :class:`MarketplaceError` for unknown
    tasks/items so that miswired experiments fail loudly instead of silently
    producing noise.
    """

    def __init__(self) -> None:
        self._filters: dict[str, dict[str, bool]] = {}
        self._ranks: dict[str, RankTruth] = {}
        self._features: dict[tuple[str, str], FeatureTruth] = {}
        self._texts: dict[tuple[str, str], dict[str, str]] = {}
        self._joins: dict[str, set[tuple[str, str]]] = {}
        self._custom: dict[tuple[str, str], object] = {}

    # -- registration (used by datasets) ----------------------------------

    def add_filter_task(self, task_name: str, answers: Mapping[str, bool]) -> None:
        """Register yes/no truth for a filter task."""
        self._filters.setdefault(task_name, {}).update(answers)

    def add_rank_task(
        self,
        task_name: str,
        latents: Mapping[str, float],
        comparison_ambiguity: float = 1.0,
        rating_ambiguity: float | None = None,
        random_answers: bool = False,
    ) -> None:
        """Register latent values (auto-normalised) for a rank task."""
        truth = RankTruth(
            latents=dict(latents),
            comparison_ambiguity=comparison_ambiguity,
            rating_ambiguity=(
                rating_ambiguity if rating_ambiguity is not None else comparison_ambiguity
            ),
            random_answers=random_answers,
        )
        self._ranks[task_name] = truth.normalized()

    def add_feature_task(
        self, task_name: str, field_name: str, truth: FeatureTruth
    ) -> None:
        """Register categorical truth for one generative field."""
        self._features[(task_name, field_name)] = truth

    def add_text_task(
        self, task_name: str, field_name: str, answers: Mapping[str, str]
    ) -> None:
        """Register free-text truth for one generative field."""
        self._texts.setdefault((task_name, field_name), {}).update(answers)

    def add_join_task(
        self, task_name: str, matches: Mapping[tuple[str, str], bool] | set[tuple[str, str]]
    ) -> None:
        """Register the true matching pairs of an equijoin task."""
        pairs = self._joins.setdefault(task_name, set())
        if isinstance(matches, set):
            pairs.update(matches)
        else:
            pairs.update(pair for pair, is_match in matches.items() if is_match)

    def add_custom_task(self, kind: str, task_name: str, oracle: object) -> None:
        """Register an opaque oracle for an out-of-tree task kind.

        The engine never interprets ``oracle`` — a registered task type's
        behaviour model fetches it back with :meth:`custom_answer` and
        applies its own semantics. ``kind`` namespaces oracles so two task
        types can reuse a task name without colliding.
        """
        self._custom[(kind, task_name)] = oracle

    def custom_answer(self, kind: str, task_name: str) -> object:
        """The opaque oracle registered for an out-of-tree task."""
        try:
            return self._custom[(kind, task_name)]
        except KeyError as exc:
            raise MarketplaceError(
                f"no {kind!r} truth for task {task_name!r}"
            ) from exc

    def merge(self, other: "GroundTruth") -> None:
        """Fold another oracle's registrations into this one."""
        for task, answers in other._filters.items():
            self.add_filter_task(task, answers)
        self._ranks.update(other._ranks)
        self._features.update(other._features)
        for key, answers in other._texts.items():
            self._texts.setdefault(key, {}).update(answers)
        for task, pairs in other._joins.items():
            self._joins.setdefault(task, set()).update(pairs)
        self._custom.update(other._custom)

    # -- lookups (used by behaviour models) --------------------------------

    def filter_answer(self, task_name: str, item: str) -> bool:
        """True yes/no answer for one filter question."""
        try:
            return self._filters[task_name][item]
        except KeyError as exc:
            raise MarketplaceError(
                f"no filter truth for task {task_name!r}, item {item!r}"
            ) from exc

    def rank_truth(self, task_name: str) -> RankTruth:
        """Latent-value truth for one rank task."""
        try:
            return self._ranks[task_name]
        except KeyError as exc:
            raise MarketplaceError(f"no rank truth for task {task_name!r}") from exc

    def latent_value(self, task_name: str, item: str) -> float:
        """Normalised latent value of one item under one rank task."""
        truth = self.rank_truth(task_name)
        try:
            return truth.latents[item]
        except KeyError as exc:
            raise MarketplaceError(
                f"no latent value for item {item!r} under task {task_name!r}"
            ) from exc

    def has_feature(self, task_name: str, field_name: str) -> bool:
        """Whether categorical truth exists for this task/field."""
        return (task_name, field_name) in self._features

    def feature_truth(self, task_name: str, field_name: str) -> FeatureTruth:
        """Categorical truth for one generative field."""
        try:
            return self._features[(task_name, field_name)]
        except KeyError as exc:
            raise MarketplaceError(
                f"no feature truth for task {task_name!r} field {field_name!r}"
            ) from exc

    def text_answer(self, task_name: str, field_name: str, item: str) -> str:
        """Free-text truth for one generative field."""
        try:
            return self._texts[(task_name, field_name)][item]
        except KeyError as exc:
            raise MarketplaceError(
                f"no text truth for task {task_name!r} field {field_name!r} "
                f"item {item!r}"
            ) from exc

    def join_match(self, task_name: str, left: str, right: str) -> bool:
        """Whether a candidate pair truly matches."""
        try:
            pairs = self._joins[task_name]
        except KeyError as exc:
            raise MarketplaceError(f"no join truth for task {task_name!r}") from exc
        return (left, right) in pairs
