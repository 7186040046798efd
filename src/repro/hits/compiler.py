"""HIT compiler: payloads → the HTML form a worker would see (§2.6).

The Task Cache/Model/HIT Compiler stage of Qurk's architecture generates
HTML for each HIT and estimates worker effort. The simulated marketplace
answers payloads directly, but the HTML is still produced (and tested)
because it is the artifact a real crowd platform would receive, and because
interface realism is what the paper's batching limits are about.

Effort estimation, rendering, and merging all dispatch on ``payload.kind``
through per-kind tables; out-of-tree payload kinds plug in via
:func:`register_payload_kind` without touching this module.
"""

from __future__ import annotations

import html as _html

from repro.errors import TaskError
from repro.hits.hit import (
    HIT,
    CompareGroup,
    ComparePayload,
    FilterPayload,
    GenerativePayload,
    JoinGridPayload,
    JoinPairsPayload,
    Payload,
    PickBestPayload,
    RatePayload,
)
from repro.tasks.registry import DispatchTable

PAYLOAD_EFFORTS = DispatchTable("payload effort model")
"""``kind`` → ``(effort_model, payload) -> seconds`` handlers."""

PAYLOAD_RENDERERS = DispatchTable("payload HTML renderer")
"""``kind`` → ``(compiler, payload) -> html`` handlers."""

PAYLOAD_MERGERS = DispatchTable("payload merger")
"""``kind`` → ``(payloads) -> payload`` handlers (merging, §2.6).

Kinds without a merger (grids, pick-best) simply never batch across units.
"""


def register_payload_kind(
    kind: str,
    *,
    effort=None,
    renderer=None,
    merger=None,
    replace: bool = False,
) -> None:
    """Register compiler hooks for a payload kind in one call.

    ``effort`` takes ``(effort_model, payload)``; ``renderer`` takes
    ``(compiler, payload)``; ``merger`` takes a non-empty same-kind,
    same-task payload list. Any hook may be omitted: a kind without an
    effort model or renderer raises on use, one without a merger never
    batches.
    """
    if effort is not None:
        PAYLOAD_EFFORTS.register(kind, effort, replace=replace)
    if renderer is not None:
        PAYLOAD_RENDERERS.register(kind, renderer, replace=replace)
    if merger is not None:
        PAYLOAD_MERGERS.register(kind, merger, replace=replace)


class EffortModel:
    """Estimated seconds of honest work per payload.

    These constants drive the marketplace's batch-refusal behaviour: workers
    decline HITs whose effort is out of proportion to the $0.01 reward
    (§4.2.2 saw comparison groups of 20 go uncompleted; §6 discusses batch
    sizing). Values are per atomic unit and were chosen so that the paper's
    accepted/refused batch sizes fall on the right side of the default
    worker threshold distribution.
    """

    FILTER_SECONDS = 2.0
    GENERATIVE_TEXT_FIELD_SECONDS = 4.0
    GENERATIVE_RADIO_FIELD_SECONDS = 1.2
    RATE_SECONDS = 3.0
    RATE_ANCHOR_SECONDS = 0.2
    JOIN_PAIR_SECONDS = 2.5
    GRID_ITEM_SECONDS = 2.0
    COMPARE_ITEM_SECONDS = 3.0
    PICK_BEST_ITEM_SECONDS = 1.2

    def effort(self, payload: Payload) -> float:
        """Seconds of honest effort for one payload."""
        handler = PAYLOAD_EFFORTS.lookup(payload.kind)
        if handler is None:
            raise TaskError(
                f"no effort model for payload type {type(payload).__name__}"
            )
        return handler(self, payload)

    def _effort_filter(self, payload: FilterPayload) -> float:
        return self.FILTER_SECONDS * len(payload.questions)

    def _effort_generative(self, payload: GenerativePayload) -> float:
        # Radio clicks are quick "demographic survey" answers (§3.3.4);
        # free-text fields take real typing time.
        per_tuple = sum(
            self.GENERATIVE_RADIO_FIELD_SECONDS
            if spec.is_categorical
            else self.GENERATIVE_TEXT_FIELD_SECONDS
            for spec in payload.fields
        ) or self.GENERATIVE_TEXT_FIELD_SECONDS
        return per_tuple * len(payload.questions)

    def _effort_rate(self, payload: RatePayload) -> float:
        return (
            self.RATE_SECONDS * len(payload.questions)
            + self.RATE_ANCHOR_SECONDS * len(payload.anchors)
        )

    def _effort_join_pairs(self, payload: JoinPairsPayload) -> float:
        return self.JOIN_PAIR_SECONDS * len(payload.pairs)

    def _effort_join_grid(self, payload: JoinGridPayload) -> float:
        # Smart batching is efficient: workers scan the two columns
        # rather than every cell, so effort grows with r + s, not r × s.
        return self.GRID_ITEM_SECONDS * (
            len(payload.left_items) + len(payload.right_items)
        )

    def _effort_compare(self, payload: ComparePayload) -> float:
        return self.COMPARE_ITEM_SECONDS * sum(
            len(group.items) for group in payload.groups
        )

    def _effort_pick_best(self, payload: PickBestPayload) -> float:
        return self.PICK_BEST_ITEM_SECONDS * len(payload.items)


def _esc(text: str) -> str:
    return _html.escape(str(text), quote=True)


def _item_html(provided: str, item: str) -> str:
    """Use task-rendered HTML when available, else a plain image tag."""
    if provided:
        return provided
    return f"<img src='{_esc(item)}' class='lgImg'>"


class HITCompiler:
    """Compiles payload bundles into a single HTML form and an effort score."""

    def __init__(self, effort_model: EffortModel | None = None) -> None:
        self.effort_model = effort_model or EffortModel()

    def compile(self, hit: HIT) -> HIT:
        """Fill in ``hit.html`` and ``hit.effort_seconds`` in place; returns it.

        Effort is always estimated eagerly — the marketplace needs it for
        acceptance decisions. The HTML render is the expensive half and is
        only needed when something actually reads ``hit.html`` (a real
        platform, a test), so it is deferred to first access.
        """
        hit.effort_seconds = self.estimate_effort(hit)
        hit.defer_html(self.render_hit)
        return hit

    def estimate_effort(self, hit: HIT) -> float:
        """Seconds of honest work across the HIT's payloads."""
        return sum(self.effort_model.effort(payload) for payload in hit.payloads)

    def render_hit(self, hit: HIT) -> str:
        """The full HTML form for a HIT (all payload sections)."""
        sections = [self.render_payload(payload) for payload in hit.payloads]
        body = "\n<hr>\n".join(sections)
        return (
            "<form method='post' class='qurk-hit'>\n"
            f"{body}\n"
            "<input type='submit' value='Submit'>\n"
            "</form>"
        )

    def render_payload(self, payload: Payload) -> str:
        """HTML for one payload."""
        handler = PAYLOAD_RENDERERS.lookup(payload.kind)
        if handler is None:
            raise TaskError(f"cannot render payload type {type(payload).__name__}")
        return handler(self, payload)

    # -- per-payload renderers -------------------------------------------

    def _render_filter(self, payload: FilterPayload) -> str:
        blocks = []
        for question in payload.questions:
            name = _esc(question.qid(payload.task_name))
            blocks.append(
                "<div class='filter-question'>\n"
                f"{_item_html(question.prompt_html, question.item)}\n"
                f"<label><input type='radio' name='{name}' value='yes'> "
                f"{_esc(payload.yes_text)}</label>\n"
                f"<label><input type='radio' name='{name}' value='no'> "
                f"{_esc(payload.no_text)}</label>\n"
                "</div>"
            )
        return "\n".join(blocks)

    def _render_generative(self, payload: GenerativePayload) -> str:
        blocks = []
        for question in payload.questions:
            inputs = []
            for spec in payload.fields:
                input_name = _esc(f"{payload.task_name}:gen:{question.item}:{spec.name}")
                if spec.is_categorical:
                    options = "\n".join(
                        f"<label><input type='radio' name='{input_name}' "
                        f"value='{_esc(str(option))}'> {_esc(str(option))}</label>"
                        for option in spec.options
                    )
                    inputs.append(f"<div class='radio-field'>{options}</div>")
                else:
                    inputs.append(
                        f"<input type='text' name='{input_name}' "
                        f"placeholder='{_esc(spec.name)}'>"
                    )
            blocks.append(
                "<div class='generative-question'>\n"
                f"{_item_html(question.prompt_html, question.item)}\n"
                + "\n".join(inputs)
                + "\n</div>"
            )
        return "\n".join(blocks)

    def _render_rate(self, payload: RatePayload) -> str:
        anchor_row = ""
        if payload.anchors:
            thumbs = "".join(
                f"<img src='{_esc(anchor)}' class='smImg'>" for anchor in payload.anchors
            )
            anchor_row = f"<div class='anchors'>{thumbs}</div>\n"
        blocks = [anchor_row + f"<p>{_esc(payload.question)}</p>"]
        for question in payload.questions:
            name = _esc(f"{payload.task_name}:rate:{question.item}")
            scale = "\n".join(
                f"<label><input type='radio' name='{name}' value='{point}'> "
                f"{point}</label>"
                for point in range(1, payload.scale_points + 1)
            )
            blocks.append(
                "<div class='rate-question'>\n"
                f"{_item_html(question.prompt_html, question.item)}\n"
                f"{scale}\n</div>"
            )
        return "\n".join(blocks)

    def _render_join_pairs(self, payload: JoinPairsPayload) -> str:
        blocks = [f"<p>{_esc(payload.question)}</p>"]
        for pair in payload.pairs:
            from repro.hits.hit import join_qid

            name = _esc(join_qid(payload.task_name, pair.left, pair.right))
            blocks.append(
                "<div class='join-pair'>\n"
                f"<img src='{_esc(pair.left)}' class='lgImg'>\n"
                f"<img src='{_esc(pair.right)}' class='lgImg'>\n"
                f"<label><input type='radio' name='{name}' value='yes'> Yes</label>\n"
                f"<label><input type='radio' name='{name}' value='no'> No</label>\n"
                "</div>"
            )
        return "\n".join(blocks)

    def _render_join_grid(self, payload: JoinGridPayload) -> str:
        left_column = "\n".join(
            f"<img src='{_esc(item)}' class='smImg' data-side='left' "
            f"data-item='{_esc(item)}'>"
            for item in payload.left_items
        )
        right_column = "\n".join(
            f"<img src='{_esc(item)}' class='smImg' data-side='right' "
            f"data-item='{_esc(item)}'>"
            for item in payload.right_items
        )
        return (
            f"<p>{_esc(payload.question)}</p>\n"
            "<div class='smart-grid'>\n"
            f"<div class='grid-left'>{left_column}</div>\n"
            f"<div class='grid-right'>{right_column}</div>\n"
            "<ul class='selected-pairs'></ul>\n"
            "<label><input type='checkbox' name='no-matches'> "
            "None of the images match</label>\n"
            "</div>"
        )

    def _render_compare(self, payload: ComparePayload) -> str:
        blocks = [f"<p>{_esc(payload.question)}</p>"]
        for index, group in enumerate(payload.groups):
            items = "\n".join(
                "<li class='sortable-item' "
                f"data-item='{_esc(item)}'>"
                f"{_item_html(payload.item_html.get(item, ''), item)}</li>"
                for item in group.items
            )
            blocks.append(
                f"<ol class='compare-group' data-group='{index}'>\n{items}\n</ol>"
            )
        return "\n".join(blocks)

    def _render_pick_best(self, payload: PickBestPayload) -> str:
        name = _esc(payload.qid())
        options = "\n".join(
            f"<label><input type='radio' name='{name}' value='{_esc(item)}'>"
            f"<img src='{_esc(item)}' class='smImg'></label>"
            for item in payload.items
        )
        return f"<p>{_esc(payload.question)}</p>\n<div class='pick-best'>{options}</div>"


def merge_payloads(payloads: list[Payload]) -> Payload:
    """Merge same-type, same-task payloads into one batched payload.

    This implements *merging* (§2.6): one HIT applying one task to several
    tuples. All payloads must share type and task name.
    """
    if not payloads:
        raise TaskError("cannot merge zero payloads")
    first = payloads[0]
    if len(payloads) == 1:
        return first
    if any(type(p) is not type(first) or p.task_name != first.task_name for p in payloads):
        raise TaskError("can only merge payloads of the same type and task")
    merger = PAYLOAD_MERGERS.lookup(first.kind)
    if merger is None:
        raise TaskError(
            f"payload type {type(first).__name__} does not support merging"
        )
    return merger(payloads)


def _merge_filter(payloads: list[FilterPayload]) -> FilterPayload:
    first = payloads[0]
    questions = tuple(q for p in payloads for q in p.questions)
    return FilterPayload(
        task_name=first.task_name,
        questions=questions,
        yes_text=first.yes_text,
        no_text=first.no_text,
    )


def _merge_generative(payloads: list[GenerativePayload]) -> GenerativePayload:
    first = payloads[0]
    questions = tuple(q for p in payloads for q in p.questions)
    return GenerativePayload(
        task_name=first.task_name, questions=questions, fields=first.fields
    )


def _merge_rate(payloads: list[RatePayload]) -> RatePayload:
    first = payloads[0]
    questions = tuple(q for p in payloads for q in p.questions)
    return RatePayload(
        task_name=first.task_name,
        questions=questions,
        anchors=first.anchors,
        scale_points=first.scale_points,
        question=first.question,
    )


def _merge_join_pairs(payloads: list[JoinPairsPayload]) -> JoinPairsPayload:
    first = payloads[0]
    pairs = tuple(pair for p in payloads for pair in p.pairs)
    return JoinPairsPayload(
        task_name=first.task_name, pairs=pairs, question=first.question
    )


def _merge_compare(payloads: list[ComparePayload]) -> ComparePayload:
    first = payloads[0]
    groups: tuple[CompareGroup, ...] = tuple(
        group for p in payloads for group in p.groups
    )
    item_html: dict[str, str] = {}
    for p in payloads:
        item_html.update(p.item_html)
    return ComparePayload(
        task_name=first.task_name,
        groups=groups,
        question=first.question,
        item_html=item_html,
    )


register_payload_kind(
    FilterPayload.kind,
    effort=EffortModel._effort_filter,
    renderer=HITCompiler._render_filter,
    merger=_merge_filter,
)
register_payload_kind(
    GenerativePayload.kind,
    effort=EffortModel._effort_generative,
    renderer=HITCompiler._render_generative,
    merger=_merge_generative,
)
register_payload_kind(
    RatePayload.kind,
    effort=EffortModel._effort_rate,
    renderer=HITCompiler._render_rate,
    merger=_merge_rate,
)
register_payload_kind(
    JoinPairsPayload.kind,
    effort=EffortModel._effort_join_pairs,
    renderer=HITCompiler._render_join_pairs,
    merger=_merge_join_pairs,
)
register_payload_kind(
    JoinGridPayload.kind,
    effort=EffortModel._effort_join_grid,
    renderer=HITCompiler._render_join_grid,
)
register_payload_kind(
    ComparePayload.kind,
    effort=EffortModel._effort_compare,
    renderer=HITCompiler._render_compare,
    merger=_merge_compare,
)
register_payload_kind(
    PickBestPayload.kind,
    effort=EffortModel._effort_pick_best,
    renderer=HITCompiler._render_pick_best,
)
