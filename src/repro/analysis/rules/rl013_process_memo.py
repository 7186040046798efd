"""RL013 — process-wide memos on the engine path."""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import Finding, ModuleInfo, Rule, register
from repro.analysis.rules.common import imported_roots, resolve_name

_SCOPE = (
    "src/repro/core/",
    "src/repro/crowd/",
    "src/repro/hits/",
    "src/repro/sorting/",
    "src/repro/util/rng.py",
)

_MEMOS = ("functools.lru_cache", "functools.cache")


@register
class ProcessMemoRule(Rule):
    id = "RL013"
    title = "process-wide memo (functools.lru_cache/cache) on the engine path"
    rationale = (
        "A module-level memo in core/, crowd/, hits/, sorting/ or util/rng.py "
        "is keyed by the work a process has done and outlives every query: "
        "it grows with the process and never gives memory back, whatever "
        "its cap. Keep a derived value on the object that owns it (a "
        "payload, a pool, a query) so it goes away with that object."
    )

    def applies(self, module: ModuleInfo) -> bool:
        return module.rel_path.startswith(_SCOPE)

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        roots = imported_roots(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.Name, ast.Attribute)):
                continue
            resolved = resolve_name(node, roots)
            if resolved in _MEMOS:
                yield self.finding(
                    module,
                    node,
                    f"{resolved} keeps a process-wide memo on the engine "
                    "path; store the value on the object that owns it",
                )
