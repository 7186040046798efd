"""Typed schemas for in-memory tables.

A :class:`Schema` is an ordered collection of named, typed columns. Schemas
validate rows on insert (catching simulator bugs early) and support the
derivations the planner needs: projection, renaming with an alias prefix, and
concatenation for join outputs.

Schemas are immutable, so each one caches the schemas derived from it: an
operator deriving rows one at a time (alias binding, join output) builds its
output schema once, and every derived row shares that one object. Beside
them it caches its compiled row check (:attr:`Schema.row_check`), the one
validation that ``Row(schema, mapping)``, :meth:`Schema.validate` and table
ingest share.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Hashable, Iterable, Iterator, Mapping

from repro.errors import SchemaError

_TYPE_SAMPLES = ("", 0, 0.0, False, None)
"""One value of each builtin type rows hold. A column admits these types on
sight when :meth:`ColumnType.accepts` admits the sample; any other value
type (a ``str`` subclass, a numpy scalar) is asked of ``accepts`` itself."""


class ColumnType(enum.Enum):
    """The column types Qurk queries manipulate.

    ``ANY`` admits any value and is used for UDF-computed columns whose type
    is not declared (e.g. generative task outputs).
    """

    TEXT = "text"
    INTEGER = "integer"
    FLOAT = "float"
    BOOLEAN = "boolean"
    URL = "url"
    ANY = "any"

    def accepts(self, value: object) -> bool:
        """Whether ``value`` conforms to this column type (None is allowed)."""
        if value is None or self is ColumnType.ANY:
            return True
        if self is ColumnType.TEXT or self is ColumnType.URL:
            return isinstance(value, str)
        if self is ColumnType.INTEGER:
            return isinstance(value, int) and not isinstance(value, bool)
        if self is ColumnType.FLOAT:
            return isinstance(value, (int, float)) and not isinstance(value, bool)
        if self is ColumnType.BOOLEAN:
            return isinstance(value, bool)
        raise AssertionError(f"unhandled column type {self}")


@dataclass(frozen=True)
class Column:
    """A named, typed column."""

    name: str
    type: ColumnType = ColumnType.ANY

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("column name must be non-empty")

    def renamed(self, name: str) -> "Column":
        """A copy of this column with a different name."""
        return Column(name=name, type=self.type)


class Schema:
    """An ordered, duplicate-free collection of columns."""

    def __init__(self, columns: Iterable[Column]) -> None:
        self.columns: tuple[Column, ...] = tuple(columns)
        names = tuple(column.name for column in self.columns)
        self._index = {name: i for i, name in enumerate(names)}
        if len(self._index) != len(names):
            duplicates = {name for name in names if names.count(name) > 1}
            raise SchemaError(f"duplicate column names: {sorted(duplicates)}")
        self._names = names
        self._hash: int | None = None
        self._derived: dict[Hashable, Schema] = {}
        self._row_check: Callable[[Mapping[str, object]], tuple] | None = None

    @classmethod
    def of(cls, *specs: str) -> "Schema":
        """Build a schema from ``"name type"`` strings, e.g. ``"img url"``.

        The type defaults to ``any`` when omitted, mirroring the paper's
        schema notation like ``celeb(name text, img url)``.
        """
        columns = []
        for spec in specs:
            parts = spec.split()
            if len(parts) == 1:
                columns.append(Column(parts[0]))
            elif len(parts) == 2:
                try:
                    column_type = ColumnType(parts[1].lower())
                except ValueError as exc:
                    raise SchemaError(f"unknown column type in {spec!r}") from exc
                columns.append(Column(parts[0], column_type))
            else:
                raise SchemaError(f"bad column spec {spec!r}; want 'name [type]'")
        return cls(columns)

    @property
    def names(self) -> tuple[str, ...]:
        """Column names in declaration order."""
        return self._names

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self) -> Iterator[Column]:
        return iter(self.columns)

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Schema) and self.columns == other.columns

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.columns)
        return self._hash

    def __repr__(self) -> str:
        cols = ", ".join(f"{c.name} {c.type.value}" for c in self.columns)
        return f"Schema({cols})"

    def column(self, name: str) -> Column:
        """The column with the given name; raises :class:`SchemaError`."""
        return self.columns[self.index_of(name)]

    def index_of(self, name: str) -> int:
        """Position of the named column; raises :class:`SchemaError`."""
        try:
            return self._index[name]
        except KeyError as exc:
            raise SchemaError(
                f"no column {name!r}; have {list(self._names)}"
            ) from exc

    def _derive(self, key: Hashable, build: Callable[[], "Schema"]) -> "Schema":
        """The cached derived schema under ``key``, built on first use.

        A derivation that raises caches nothing, so it raises on every call.
        """
        derived = self._derived.get(key)
        if derived is None:
            derived = self._derived[key] = build()
        return derived

    def project(self, names: Iterable[str]) -> "Schema":
        """Schema containing only the given columns, in the given order."""
        names = tuple(names)
        return self._derive(
            ("project", names), lambda: Schema([self.column(name) for name in names])
        )

    def prefixed(self, prefix: str) -> "Schema":
        """Schema with every column renamed to ``prefix.name``.

        Used when binding a table under an alias so join outputs keep both
        sides' columns addressable (``c.img``, ``p.img``).
        """
        return self._derive(
            ("prefixed", prefix),
            lambda: Schema(
                [column.renamed(f"{prefix}.{column.name}") for column in self.columns]
            ),
        )

    def concat(self, other: "Schema") -> "Schema":
        """Schema with this schema's columns followed by ``other``'s."""
        return self._derive(
            ("concat", other), lambda: Schema([*self.columns, *other.columns])
        )

    def extended(self, column: Column) -> "Schema":
        """Schema with one extra column appended."""
        return self._derive(
            ("extended", column), lambda: Schema([*self.columns, column])
        )

    @property
    def row_check(self) -> Callable[[Mapping[str, object]], tuple]:
        """This schema's row check, compiled on first use.

        It takes a mapping and returns its values as a tuple in column
        order. It raises :class:`SchemaError` when the mapping misses
        columns, else when it has unknown ones, else naming the first
        column, in schema order, whose value its type does not accept.
        """
        if self._row_check is None:
            self._row_check = _compile_row_check(self.columns)
        return self._row_check

    def validate(self, values: Mapping[str, object]) -> None:
        """Check that ``values`` binds exactly this schema's columns with
        type-conforming values; raises :class:`SchemaError` otherwise."""
        self.row_check(values)


def _compile_row_check(
    columns: tuple[Column, ...],
) -> Callable[[Mapping[str, object]], tuple]:
    """A check of one mapping against ``columns`` (see :attr:`Schema.row_check`).

    The common row costs one key-set comparison, one fetch and one pass of
    exact-type lookups; :meth:`ColumnType.accepts` is asked only for value
    types outside a column's builtin set, and to word the errors.
    """
    names = tuple(column.name for column in columns)
    name_set = frozenset(names)
    exact = tuple(
        frozenset(type(sample) for sample in _TYPE_SAMPLES if column.type.accepts(sample))
        for column in columns
    )
    if len(names) > 1:
        fetch = itemgetter(*names)
    else:  # itemgetter returns a bare value for one name and takes no zero

        def fetch(values):
            return tuple([values[name] for name in names])

    contains = frozenset.__contains__

    def check(values: Mapping[str, object]) -> tuple:
        if values.keys() != name_set:
            missing = [name for name in names if name not in values]
            if missing:
                raise SchemaError(f"row missing columns {missing}")
            extra = [name for name in values if name not in name_set]
            if extra:
                raise SchemaError(f"row has unknown columns {sorted(extra)}")
        row = fetch(values)
        if not all(map(contains, exact, map(type, row))):
            for column, allowed, value in zip(columns, exact, row):
                if type(value) not in allowed and not column.type.accepts(value):
                    raise SchemaError(
                        f"column {column.name!r} expects {column.type.value}, "
                        f"got {value!r} ({type(value).__name__})"
                    )
        return row

    return check
