"""RL008 — every REPRO_* toggle must be contract-tested and documented."""

from __future__ import annotations

import ast
import re
from functools import lru_cache
from pathlib import Path
from typing import Iterator, Sequence

from repro.analysis.engine import Finding, ModuleInfo, ProjectRule, register
from repro.analysis.rules.common import dotted_name

_TOGGLE_NAME_RE = re.compile(r"^REPRO_[A-Z][A-Z0-9_]*$")

#: (repo-relative contract file, what it owes each toggle).
CONTRACT_FILES = (
    ("tests/test_toggles.py", "env-contract tests"),
    ("docs/API.md", "toggle documentation"),
)


@lru_cache(maxsize=32)
def _contract_text(path_str: str) -> str | None:
    path = Path(path_str)
    try:
        return path.read_text(encoding="utf-8")
    except OSError:
        return None


@register
class ToggleContractRule(ProjectRule):
    id = "RL008"
    title = "REPRO_* toggle missing from contract tests or docs"
    rationale = (
        "A toggle only honors the determinism contract if something checks "
        "it: tests/test_toggles.py pins the env semantics (changed value "
        "wins at construction, unchanged preserves overrides) and "
        "docs/API.md is the user-facing contract. A toggle declared in "
        "util/ but absent from either is an unenforced promise."
    )

    def check_project(
        self, modules: Sequence[ModuleInfo], repo_root: Path
    ) -> Iterator[Finding]:
        # lru_cache keys on the path string; drop entries between runs so a
        # long-lived process (tests) re-reads edited contract files.
        _contract_text.cache_clear()
        for module in modules:
            if not module.in_util:
                continue
            for name, node in self._declared_toggles(module.tree):
                for rel_contract, owes in CONTRACT_FILES:
                    text = _contract_text(str(repo_root / rel_contract))
                    if text is None:
                        yield self.finding(
                            module, node,
                            f"toggle {name} declared but contract file "
                            f"{rel_contract} is missing",
                        )
                    elif name not in text:
                        yield self.finding(
                            module, node,
                            f"toggle {name} missing from {rel_contract} "
                            f"({owes})",
                        )

    @staticmethod
    def _declared_toggles(tree: ast.Module) -> Iterator[tuple[str, ast.AST]]:
        """``Toggle("REPRO_X", ...)`` calls — the declaration idiom of the
        toggle table in util/toggles.py."""
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and node.args):
                continue
            callee = dotted_name(node.func) or ""
            env = node.args[0]
            if (
                callee.rpartition(".")[2] == "Toggle"
                and isinstance(env, ast.Constant)
                and isinstance(env.value, str)
                and _TOGGLE_NAME_RE.match(env.value)
            ):
                yield env.value, node
