"""Per-layer wall-time spans installed from outside the engine.

The engine has no tracing of its own, so the benchmark wraps each layer's
public callables in timing wrappers for the duration of one traced
execution and restores the originals afterwards. Wrappers push a span on a
single stack; a span's *self time* is its duration minus the time covered
by the spans it encloses, so the self times of all layers add up exactly to
the time covered by root spans. Wall time in the traced region that no
span covers is reported as unattributed.

A layer is a name plus the modules it owns. Within a module, every public
function and every public method of a public class defined there is
wrapped (properties, generator functions and dunders are left alone, as
are protocol, enum, named-tuple and exception classes). A layer may
instead list explicit ``Class.method`` targets, and any target may carry a
*hook* that turns the call's arguments and result into counters.

Module-level functions are patched wherever a ``repro`` module bound the
same object at import (``from x import f``), so callers going through
their own module globals see the wrapper too. Callables stored inside
containers (dispatch tables) are not patched; their time counts toward the
enclosing span.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

# A hook receives (args, kwargs, result) and returns {counter: increment}.
Hook = Callable[[tuple, dict, object], dict]


def _combine_questions(args, kwargs, result) -> dict:
    corpus = args[1] if len(args) > 1 else kwargs["corpus"]
    return {"questions": len(corpus)}


def _finalized_outcome(args, kwargs, result) -> dict:
    to_post = args[2] if len(args) > 2 else kwargs["to_post"]
    return {
        "votes": sum(len(votes) for votes in result.votes.values()),
        "groups": 1 if to_post else 0,
        "uncompleted_hits": len(result.uncompleted_hit_ids),
    }


@dataclass(frozen=True)
class Layer:
    """A named engine layer: the modules whose public callables it owns,
    or an explicit list of ``(module, "Class.attr" | "function")`` targets."""

    name: str
    modules: tuple[str, ...] = ()
    targets: tuple[tuple[str, str], ...] = ()
    hooks: dict = field(default_factory=dict)
    """``"Class.attr"``/``"function"`` → :data:`Hook` (extends the wrapped set)."""


LAYERS: tuple[Layer, ...] = (
    Layer("language.parser", ("repro.language.parser", "repro.language.lexer")),
    Layer("core.planner", ("repro.core.planner",)),
    Layer("core.optimizer", ("repro.core.optimizer",)),
    Layer("core.adaptive", ("repro.core.adaptive", "repro.core.cost_model")),
    Layer("core.engine", ("repro.core.engine",)),
    Layer("core.session", ("repro.core.session",)),
    Layer("core.executor", ("repro.core.executor",)),
    Layer("core.crowd_calls", ("repro.core.crowd_calls",)),
    Layer("core.join_exec", ("repro.core.join_exec",)),
    Layer("core.sort_exec", ("repro.core.sort_exec",)),
    Layer(
        "joins",
        ("repro.joins.batching", "repro.joins.feature_filter", "repro.joins.selectivity"),
    ),
    Layer(
        "sorting",
        (
            "repro.sorting.graph",
            "repro.sorting.groups",
            "repro.sorting.head_to_head",
            "repro.sorting.hybrid",
            "repro.sorting.rating",
            "repro.sorting.topk",
        ),
    ),
    Layer(
        "combine",
        (
            "repro.combine.base",
            "repro.combine.majority",
            "repro.combine.dawid_skene",
            "repro.combine.quality_adjust",
            "repro.combine.adaptive",
            "repro.combine.normalize",
        ),
        hooks={"combine_corpus": _combine_questions},
    ),
    Layer(
        "hits.manager",
        ("repro.hits.manager",),
        hooks={"TaskManager._finalize_outcome": _finalized_outcome},
    ),
    Layer("hits.compiler", ("repro.hits.compiler",)),
    Layer("hits.cache", ("repro.hits.cache",)),
    Layer("hits.store", ("repro.hits.store",)),
    Layer("crowd.marketplace", ("repro.crowd.marketplace",)),
    Layer("crowd.behavior", ("repro.crowd.behavior",)),
    Layer("crowd.vector", ("repro.crowd.vector",)),
    Layer(
        "relational",
        targets=tuple(
            ("repro.relational.rows", f"Row.{name}")
            for name in ("__init__", "project", "prefixed", "merged", "extended")
        )
        + tuple(
            ("repro.relational.schema", f"Schema.{name}")
            for name in ("__init__", "of", "project", "prefixed", "concat", "extended")
        ),
    ),
)

LAYER_NAMES: tuple[str, ...] = tuple(layer.name for layer in LAYERS)

_SKIPPED_BASES = (enum.Enum, BaseException)


def _wrappable_class(cls: type) -> bool:
    if issubclass(cls, _SKIPPED_BASES) or getattr(cls, "_is_protocol", False):
        return False
    return not (issubclass(cls, tuple) and hasattr(cls, "_fields"))


def _public_targets(module) -> Iterable[str]:
    """``"function"`` / ``"Class.attr"`` names wrapped by default."""
    for name, value in vars(module).items():
        if name.startswith("_"):
            continue
        if inspect.isfunction(value) and value.__module__ == module.__name__:
            if not inspect.isgeneratorfunction(value):
                yield name
        elif (
            inspect.isclass(value)
            and value.__module__ == module.__name__
            and _wrappable_class(value)
        ):
            for attr, raw in vars(value).items():
                if attr.startswith("_"):
                    continue
                func = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
                if inspect.isfunction(func) and not inspect.isgeneratorfunction(func):
                    yield f"{name}.{attr}"


class Tracer:
    """Span stack plus per-layer self time, call counts and hook counters.

    Wrappers only record while :attr:`active` is set, so the traced region
    is exactly the timed one.
    """

    def __init__(self) -> None:
        self.active = False
        self._stack: list[list] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.root_s = 0.0
        """Summed duration of root spans (equals the sum of all self times)."""
        self.calls: Counter[str] = Counter()
        self.counters: defaultdict[str, Counter] = defaultdict(Counter)
        self.max_depth = 0
        self.nesting_errors = 0
        """Spans that were not on top of the stack when they closed."""
        self.spans = 0

    def wrap(self, layer: str, key: str, func: Callable, hook: Hook | None) -> Callable:
        """``func`` recording a ``layer`` span (and ``key`` call count) per call."""
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not self.active:
                return func(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            if len(stack) > self.max_depth:
                self.max_depth = len(stack)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                if stack.pop() is not frame:
                    self.nesting_errors += 1
                self.spans += 1
                self.self_s[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                else:
                    self.root_s += elapsed
            self.calls[key] += 1
            if hook is not None:
                self.counters[layer].update(hook(args, kwargs, result))
            return result

        traced.__perfbench_wrapped__ = True
        return traced


@dataclass
class _Patch:
    owner: object
    attr: str
    original: object
    replacement: object

    def current(self) -> object:
        # Class attributes are read raw so staticmethod/classmethod
        # descriptors compare by identity.
        if inspect.isclass(self.owner):
            return vars(self.owner).get(self.attr)
        return getattr(self.owner, self.attr)


class Instrumentation:
    """The planned patches for every layer; :meth:`installed` applies them
    for one ``with`` block and restores every original afterwards."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.patches: list[_Patch] = []
        self._planned: set[str] = set()
        for layer in LAYERS:
            for module_name in layer.modules:
                module = importlib.import_module(module_name)
                for target in _public_targets(module):
                    self._plan(layer, module, target)
            for module_name, target in layer.targets:
                self._plan(layer, importlib.import_module(module_name), target)
            for target in layer.hooks:
                self._plan(layer, importlib.import_module(layer.modules[0]), target)

    def _plan(self, layer: Layer, module, target: str) -> None:
        key = f"{layer.name}:{target}"
        if key in self._planned:
            return
        self._planned.add(key)
        hook = layer.hooks.get(target)
        owner_name, _, attr = target.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            raw = vars(owner)[attr]
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(self.tracer.wrap(layer.name, key, raw.__func__, hook))
            else:
                wrapped = self.tracer.wrap(layer.name, key, raw, hook)
            self.patches.append(_Patch(owner, attr, raw, wrapped))
            return
        original = getattr(module, attr)
        wrapped = self.tracer.wrap(layer.name, key, original, hook)
        # Patch every repro module that bound this function at import.
        for other in list(sys.modules.values()):
            if not getattr(other, "__name__", "").startswith("repro"):
                continue
            for name, value in list(vars(other).items()):
                if value is original:
                    self.patches.append(_Patch(other, name, original, wrapped))

    def restored(self) -> bool:
        """Whether every patched site holds its original object again."""
        return all(patch.current() is patch.original for patch in self.patches)

    @contextmanager
    def installed(self) -> Iterator[Tracer]:
        """Apply every patch for the block; always restore afterwards."""
        try:
            for patch in self.patches:
                setattr(patch.owner, patch.attr, patch.replacement)
            yield self.tracer
        finally:
            for patch in reversed(self.patches):
                setattr(patch.owner, patch.attr, patch.original)
