"""Catalog of registered tables and task templates.

The engine resolves ``FROM`` clauses and UDF names against a catalog; the
catalog owns nothing crowd-specific so the relational substrate remains
usable standalone.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterator

from repro.errors import CatalogError, TaskError
from repro.relational.table import Table

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.tasks.base import Task


class Catalog:
    """Name → table / task / scalar-function registry."""

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}
        self._tasks: dict[str, "Task"] = {}
        self._functions: dict[str, Callable[..., object]] = {}

    # -- tables ---------------------------------------------------------

    def register_table(self, table: Table, replace: bool = False) -> None:
        """Register a table under its name."""
        if table.name in self._tables and not replace:
            raise CatalogError(f"table {table.name!r} already registered")
        self._tables[table.name] = table

    def table(self, name: str) -> Table:
        """Look up a table; raises :class:`CatalogError` when absent."""
        try:
            return self._tables[name]
        except KeyError as exc:
            raise CatalogError(
                f"unknown table {name!r}; registered: {sorted(self._tables)}"
            ) from exc

    def tables(self) -> Iterator[Table]:
        """Iterate registered tables."""
        return iter(self._tables.values())

    def has_table(self, name: str) -> bool:
        """Whether a table with this name is registered."""
        return name in self._tables

    # -- tasks ----------------------------------------------------------

    def register_task(self, task: "Task", replace: bool = False) -> None:
        """Register a crowd task template under its name.

        Every task enters the engine here, so this is where a combiner name
        :func:`~repro.combine.get_combiner` does not know, at task or field
        level, raises :class:`TaskError`: before any HIT is paid for.
        """
        # Imported here: repro.combine's own imports (hits, tasks, language)
        # load this module, so a module-level import would be circular.
        from repro.combine import combiner_names

        known = combiner_names()
        for name in task.combiners():
            if name not in known:
                raise TaskError(
                    f"task {task.name!r} names unknown combiner {name!r}; "
                    f"known combiners: {list(known)}"
                )
        if task.name in self._tasks and not replace:
            raise CatalogError(f"task {task.name!r} already registered")
        self._tasks[task.name] = task

    def task(self, name: str) -> "Task":
        """Look up a task template; raises :class:`CatalogError` when absent."""
        try:
            return self._tasks[name]
        except KeyError as exc:
            raise CatalogError(
                f"unknown task {name!r}; registered: {sorted(self._tasks)}"
            ) from exc

    def has_task(self, name: str) -> bool:
        """Whether a task with this name is registered."""
        return name in self._tasks

    # -- computer-evaluable scalar functions ------------------------------

    def register_function(self, name: str, fn: Callable[..., object], replace: bool = False) -> None:
        """Register a non-crowd scalar function usable in expressions.

        These are the "relational operations that can be performed by a
        computer rather than humans" (§2.5) that the optimizer pushes down.
        """
        if name in self._functions and not replace:
            raise CatalogError(f"function {name!r} already registered")
        self._functions[name] = fn

    def function(self, name: str) -> Callable[..., object]:
        """Look up a scalar function; raises :class:`CatalogError` when absent."""
        try:
            return self._functions[name]
        except KeyError as exc:
            raise CatalogError(f"unknown function {name!r}") from exc

    def has_function(self, name: str) -> bool:
        """Whether a scalar function with this name is registered."""
        return name in self._functions

    def functions(self) -> dict[str, Callable[..., object]]:
        """A copy of the scalar-function environment for expression eval."""
        return dict(self._functions)
