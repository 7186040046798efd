"""Immutable rows bound to a schema.

Rows are validated where they enter the engine and trusted inside it. The
public constructor ``Row(schema, mapping)`` checks every value against the
schema through the schema's compiled :attr:`~Schema.row_check`; the
select-list projection uses it, and table ingest (:meth:`Table.insert`,
:meth:`Table.extend`, :meth:`Table.from_tsv`) runs the same check. The
derivations operators apply to already-valid rows — :meth:`Row.prefixed`,
:meth:`Row.merged`, :meth:`Row.extended` and :meth:`Row.project` — cannot
produce an invalid row, so they reuse or concatenate the source value
tuple under the source schema's cached derived schema without validating
again.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from repro.errors import SchemaError
from repro.relational.schema import Column, ColumnType, Schema


class Row(Mapping[str, object]):
    """An immutable, schema-validated tuple of named values.

    Rows behave like read-only mappings from column name to value. They are
    hashable (so operators can use them in sets/dicts for deduplication and
    caching) as long as their values are hashable.
    """

    __slots__ = ("_schema", "_values")

    def __init__(self, schema: Schema, values: Mapping[str, object]) -> None:
        self._values = schema.row_check(values)
        self._schema = schema

    @classmethod
    def _trusted(cls, schema: Schema, values: tuple) -> "Row":
        """A row over ``values`` already known to conform to ``schema``.

        The one constructor that skips validation; only derivations of
        validated rows and table ingest, which has just run
        ``schema.row_check``, may call it.
        """
        row = object.__new__(cls)
        row._schema = schema
        row._values = values
        return row

    @property
    def schema(self) -> Schema:
        """The schema this row conforms to."""
        return self._schema

    def __getitem__(self, name: str) -> object:
        return self._values[self._schema.index_of(name)]

    def __contains__(self, name: object) -> bool:
        return name in self._schema

    def __iter__(self) -> Iterator[str]:
        return iter(self._schema.names)

    def __len__(self) -> int:
        return len(self._values)

    def __hash__(self) -> int:
        return hash((self._schema.names, self._values))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Row):
            return NotImplemented
        return (
            self._schema.names == other._schema.names
            and self._values == other._values
        )

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{name}={value!r}" for name, value in zip(self._schema.names, self._values)
        )
        return f"Row({pairs})"

    def get(self, name: str, default: object = None) -> object:
        """Value of ``name``, or ``default`` if the column does not exist."""
        if name not in self._schema:
            return default
        return self[name]

    def as_dict(self) -> dict[str, object]:
        """A plain mutable dict copy of the row."""
        return dict(zip(self._schema.names, self._values))

    def project(self, names: list[str]) -> "Row":
        """Row restricted to the given columns (new schema)."""
        schema = self._schema.project(names)
        return Row._trusted(schema, tuple(self[name] for name in schema.names))

    def prefixed(self, prefix: str) -> "Row":
        """Row with columns renamed to ``prefix.name`` (alias binding)."""
        return Row._trusted(self._schema.prefixed(prefix), self._values)

    def merged(self, other: "Row") -> "Row":
        """Row with this row's columns followed by ``other``'s (join output)."""
        try:
            schema = self._schema.concat(other._schema)
        except SchemaError:
            overlap = set(self._schema.names) & set(other._schema.names)
            raise SchemaError(
                f"cannot merge rows sharing columns {sorted(overlap)}"
            ) from None
        return Row._trusted(schema, self._values + other._values)

    def extended(self, name: str, value: object) -> "Row":
        """Row with one extra ``any``-typed column appended."""
        schema = self._schema.extended(Column(name, ColumnType.ANY))
        return Row._trusted(schema, self._values + (value,))
