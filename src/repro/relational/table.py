"""In-memory tables.

Qurk is described as "a Scala workflow engine with several types of input
including relational databases and tab-delimited text files" (§2.6). This
module provides the equivalent storage layer: named, schema-typed tables with
TSV import/export and the handful of relational conveniences the operators
and datasets need.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.errors import SchemaError
from repro.relational.rows import Row
from repro.relational.schema import Column, ColumnType, Schema


class Table:
    """A named collection of rows sharing one schema."""

    def __init__(self, name: str, schema: Schema, rows: Iterable[Mapping[str, object]] = ()) -> None:
        if not name:
            raise SchemaError("table name must be non-empty")
        self.name = name
        self.schema = schema
        self._rows: list[Row] = []
        self.extend(rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __repr__(self) -> str:
        return f"Table({self.name!r}, {len(self)} rows, {self.schema!r})"

    @property
    def rows(self) -> tuple[Row, ...]:
        """The table's rows as an immutable snapshot."""
        return tuple(self._rows)

    def insert(self, values: Mapping[str, object] | Row) -> Row:
        """Validate and append a row; returns the stored :class:`Row`."""
        self.extend((values,))
        return self._rows[-1]

    def extend(self, rows: Iterable[Mapping[str, object] | Row]) -> None:
        """Validate every row, then append them all in order.

        A row that fails the schema's check raises :class:`SchemaError` and
        leaves the table as it was. A :class:`Row` already over this schema
        is stored as it is.
        """
        schema = self.schema
        check = schema.row_check
        trusted = Row._trusted
        self._rows.extend([
            values
            if type(values) is Row and values.schema == schema
            else trusted(schema, check(values))
            for values in rows
        ])

    def scan(self) -> Iterator[Row]:
        """Iterate rows in insertion order (the physical scan)."""
        return iter(self._rows)

    def filter(self, predicate: Callable[[Row], bool]) -> "Table":
        """New table with the rows satisfying ``predicate``."""
        result = Table(self.name, self.schema)
        result._rows = [row for row in self._rows if predicate(row)]
        return result

    def project(self, names: Sequence[str]) -> "Table":
        """New table with only the named columns."""
        result = Table(self.name, self.schema.project(list(names)))
        result._rows = [row.project(list(names)) for row in self._rows]
        return result

    def column_values(self, name: str) -> list[object]:
        """All values of one column, in row order."""
        self.schema.column(name)
        return [row[name] for row in self._rows]

    def head(self, count: int) -> "Table":
        """New table with the first ``count`` rows."""
        result = Table(self.name, self.schema)
        result._rows = self._rows[:count]
        return result

    # ------------------------------------------------------------------
    # TSV import/export (the paper's tab-delimited input path, §2.6)
    # ------------------------------------------------------------------

    @classmethod
    def from_tsv(cls, name: str, text: str, schema: Schema | None = None) -> "Table":
        """Parse a tab-delimited string whose first line is the header.

        When ``schema`` is omitted each header cell names one column typed
        ``any``, and values are kept as strings (with int/float coercion
        attempted per cell). A cell its column's type cannot parse raises
        :class:`SchemaError` naming the line, the column and the cell.
        """
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            raise SchemaError("empty TSV input")
        header = lines[0].split("\t")
        if schema is None:
            schema = Schema(Column(cell) for cell in header)
        elif list(schema.names) != header:
            raise SchemaError(
                f"TSV header {header} does not match schema {list(schema.names)}"
            )
        table = cls(name, schema)
        for line_number, line in enumerate(lines[1:], start=2):
            cells = line.split("\t")
            if len(cells) != len(header):
                raise SchemaError(
                    f"TSV line {line_number} has {len(cells)} cells, "
                    f"expected {len(header)}"
                )
            values: dict[str, object] = {}
            for column, cell in zip(schema.columns, cells):
                try:
                    values[column.name] = _coerce(cell, column.type)
                except ValueError:
                    raise SchemaError(
                        f"TSV line {line_number}, column {column.name!r}: "
                        f"cannot parse {column.type.value} from {cell!r}"
                    ) from None
            table.insert(values)
        return table

    def to_tsv(self) -> str:
        """Serialize to a tab-delimited string with a header line."""
        lines = ["\t".join(self.schema.names)]
        for row in self._rows:
            lines.append(
                "\t".join("" if row[name] is None else str(row[name]) for name in self.schema.names)
            )
        return "\n".join(lines)


def _coerce(cell: str, column_type: ColumnType) -> object:
    """Coerce a TSV cell to the column type (best effort for ``any``);
    raises ``ValueError`` for a typed cell that does not parse."""
    if cell == "":
        return None
    if column_type is ColumnType.INTEGER:
        return int(cell)
    if column_type is ColumnType.FLOAT:
        return float(cell)
    if column_type is ColumnType.BOOLEAN:
        lowered = cell.strip().lower()
        if lowered in ("true", "1", "yes"):
            return True
        if lowered in ("false", "0", "no"):
            return False
        raise ValueError(cell)
    if column_type in (ColumnType.TEXT, ColumnType.URL):
        return cell
    for caster in (int, float):
        try:
            return caster(cell)
        except ValueError:
            continue
    return cell
