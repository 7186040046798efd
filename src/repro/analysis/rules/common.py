"""AST helpers shared by the rule implementations."""

from __future__ import annotations

import ast
from typing import Iterator


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def imported_roots(tree: ast.Module) -> dict[str, str]:
    """Map of local alias -> imported module path for plain imports.

    ``import time`` -> {"time": "time"}; ``import numpy as np`` ->
    {"np": "numpy"}. ``from x import y`` contributes ``{"y": "x.y"}`` (or
    the asname), so bare calls to imported functions resolve too.
    """
    roots: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                roots[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                local = alias.asname or alias.name
                roots[local] = f"{node.module}.{alias.name}"
    return roots


def resolve_call(node: ast.Call, roots: dict[str, str]) -> str | None:
    """The fully-qualified name a call targets, best-effort.

    ``time.time()`` with ``import time`` -> "time.time";
    ``uuid4()`` with ``from uuid import uuid4`` -> "uuid.uuid4".
    Unresolvable (method calls on objects, locals shadowing) -> None
    unless the root name is a known import.
    """
    return resolve_name(node.func, roots)


def resolve_name(node: ast.AST, roots: dict[str, str]) -> str | None:
    """The fully-qualified name a Name/Attribute chain refers to, when its
    root is a known import (see :func:`resolve_call`), else None."""
    name = dotted_name(node)
    if name is None:
        return None
    root, _, rest = name.partition(".")
    if root not in roots:
        return None
    resolved = roots[root]
    return f"{resolved}.{rest}" if rest else resolved


def is_env_read(node: ast.AST) -> bool:
    """Is this node an ``os.environ`` / ``os.getenv`` access?"""
    if isinstance(node, ast.Attribute):
        name = dotted_name(node)
        return name in ("os.environ", "os.getenv")
    return False


def contains_env_read(node: ast.AST) -> bool:
    return any(is_env_read(child) for child in ast.walk(node))


def walk_scopes(tree: ast.Module) -> Iterator[tuple[ast.AST, list[ast.stmt]]]:
    """Yield (scope node, body) for the module and every function/method.

    Nested functions are yielded as their own scopes; class bodies belong to
    the enclosing scope for our purposes (no new local namespace that the
    rules care about).
    """
    yield tree, tree.body
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, node.body


def scope_nodes(scope: ast.AST) -> Iterator[ast.AST]:
    """Walk one scope's nodes without entering nested function scopes.

    The scope root's own body is walked; any function definition found on
    the way is yielded (so rules can inspect its signature) but its body is
    not descended into — :func:`walk_scopes` hands each function out as its
    own scope.
    """
    roots = (
        scope.body
        if isinstance(scope, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef))
        else [scope]
    )
    stack: list[ast.AST] = list(roots)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


SETISH_BUILTINS = ("set", "frozenset")


def is_setish_expr(node: ast.AST, set_names: frozenset[str] = frozenset()) -> bool:
    """Expression whose value is (statically obviously) a set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in SETISH_BUILTINS
    ):
        return True
    if isinstance(node, ast.Name) and node.id in set_names:
        return True
    return False
