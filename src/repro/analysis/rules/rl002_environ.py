"""RL002 — environment reads outside util/toggles.py."""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import Finding, ModuleInfo, Rule, register
from repro.analysis.rules.common import is_env_read

TOGGLES_PATH = "src/repro/util/toggles.py"


@register
class EnvironOutsideUtilRule(Rule):
    id = "RL002"
    title = "os.environ read outside repro.util.toggles"
    rationale = (
        "Every REPRO_* toggle is a Toggle declared in util/toggles.py, the "
        "one module that reads the environment, so env semantics (strict "
        "parsing, changed value wins, unchanged preserves programmatic "
        "overrides) live in one audited place. Scattered os.environ reads "
        "re-open the bug class where a value exported after import is ignored."
    )

    def applies(self, module: ModuleInfo) -> bool:
        return module.in_src and module.rel_path != TOGGLES_PATH

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if is_env_read(node):
                yield self.finding(
                    module,
                    node,
                    "environment read outside repro.util.toggles; declare "
                    "(or reuse) a Toggle there instead",
                )
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                bad = [a.name for a in node.names if a.name in ("environ", "getenv")]
                if bad:
                    yield self.finding(
                        module,
                        node,
                        f"importing {', '.join(bad)} from os outside "
                        "repro.util.toggles; route environment access through "
                        "a Toggle",
                    )
