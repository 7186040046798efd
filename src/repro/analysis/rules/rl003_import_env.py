"""RL003 — import-time toggle capture without a refresh hook."""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import Finding, ModuleInfo, Rule, register
from repro.analysis.rules.common import contains_env_read


@register
class ImportTimeEnvCaptureRule(Rule):
    id = "RL003"
    title = "module-level env capture without refresh_from_env()"
    rationale = (
        "A toggle that reads its environment variable only at import time "
        "silently ignores values exported after `import repro` — the PR 3 "
        "bug. Module-level capture is fine *only* when the module also "
        "defines a refresh_from_env() hook. The toggle table captures inside "
        "Toggle instead, and the facades re-read it at construction "
        "(refresh_all())."
    )

    def applies(self, module: ModuleInfo) -> bool:
        return module.in_util

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        has_refresh = any(
            isinstance(node, ast.FunctionDef) and node.name == "refresh_from_env"
            for node in module.tree.body
        )
        if has_refresh:
            return
        # Any env read reachable at import time (module level, including
        # module-level if/try blocks, excluding function/class-method bodies).
        for node in self._module_level_nodes(module.tree):
            if contains_env_read(node):
                yield self.finding(
                    module,
                    node,
                    "module-level environment capture without a "
                    "refresh_from_env() hook; the value is frozen at import "
                    "time (declare a Toggle in repro.util.toggles instead)",
                )

    @staticmethod
    def _module_level_nodes(tree: ast.Module) -> Iterator[ast.stmt]:
        stack: list[ast.stmt] = list(tree.body)
        while stack:
            node = stack.pop(0)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            yield node
