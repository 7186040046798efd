"""Tests for in-memory tables and TSV import/export."""

import re
from collections import Counter

import pytest

from repro.errors import SchemaError
from repro.relational.rows import Row
from repro.relational.schema import ColumnType, Schema
from repro.relational.table import Table


@pytest.fixture
def table() -> Table:
    t = Table("people", Schema.of("name text", "age integer"))
    t.extend([{"name": "ada", "age": 36}, {"name": "bob", "age": 25}])
    return t


def test_insert_and_len(table):
    assert len(table) == 2
    table.insert({"name": "carol", "age": 51})
    assert len(table) == 3


def test_insert_validates(table):
    with pytest.raises(SchemaError):
        table.insert({"name": "dave", "age": "old"})


def test_extend_is_all_or_nothing(table):
    with pytest.raises(SchemaError, match="column 'age' expects integer"):
        table.extend([{"name": "carol", "age": 51}, {"name": "dave", "age": "old"}])
    assert [row["name"] for row in table] == ["ada", "bob"]
    with pytest.raises(SchemaError, match="row missing columns"):
        Table("people", table.schema, [{"name": "erin", "age": 3}, {"name": "fay"}])


def test_insert_stores_a_row_over_the_same_schema_as_is(table):
    row = Row(table.schema, {"name": "carol", "age": 51})
    assert table.insert(row) is row
    other = Row(Schema.of("name text", "age float"), {"name": "dan", "age": 2.5})
    with pytest.raises(SchemaError, match="column 'age' expects integer"):
        table.insert(other)
    retyped = table.insert(Row(Schema.of("name", "age"), {"name": "eve", "age": 4}))
    assert retyped.schema is table.schema
    assert len(table) == 4


def test_loading_rows_asks_accepts_per_column_not_per_row(monkeypatch):
    """Builtin-typed values pass the schema's one compiled check on their
    exact type, so ``ColumnType.accepts`` runs while the check is built (once
    per builtin sample: str, int, float, bool, None), not per row, whichever
    entry point loads the rows."""
    calls = Counter()
    accepts = ColumnType.accepts

    def counting(self, value):
        calls[self] += 1
        return accepts(self, value)

    monkeypatch.setattr(ColumnType, "accepts", counting)
    schema = Schema.of("id integer", "score float", "name text", "img url", "ok boolean", "blob")
    rows = [
        {"id": i, "score": i / 2, "name": f"n{i}", "img": f"img://{i}",
         "ok": i % 2 == 0, "blob": None if i % 3 else i}
        for i in range(1000)
    ]
    table = Table("t", schema, rows[:500])
    for values in rows[500:]:
        table.insert(values)
        schema.validate(values)
        Row(schema, values)
    assert len(table) == 1000
    assert set(calls) == set(ColumnType)
    assert max(calls.values()) <= 5


def test_scan_order(table):
    assert [row["name"] for row in table.scan()] == ["ada", "bob"]


def test_filter_returns_new_table(table):
    adults = table.filter(lambda row: row["age"] > 30)
    assert len(adults) == 1
    assert len(table) == 2


def test_project(table):
    names = table.project(["name"])
    assert names.schema.names == ("name",)
    assert names.column_values("name") == ["ada", "bob"]


def test_column_values_unknown_column(table):
    with pytest.raises(SchemaError):
        table.column_values("height")


def test_head(table):
    assert len(table.head(1)) == 1
    assert len(table.head(10)) == 2


def test_tsv_roundtrip(table):
    text = table.to_tsv()
    parsed = Table.from_tsv("people", text, table.schema)
    assert [row.as_dict() for row in parsed] == [row.as_dict() for row in table]


def test_tsv_type_coercion():
    parsed = Table.from_tsv(
        "t", "a\tb\tc\n1\t2.5\ttrue", Schema.of("a integer", "b float", "c boolean")
    )
    row = parsed.rows[0]
    assert row["a"] == 1 and row["b"] == 2.5 and row["c"] is True


def test_tsv_untyped_coerces_best_effort():
    parsed = Table.from_tsv("t", "a\tb\n1\thello")
    assert parsed.rows[0]["a"] == 1
    assert parsed.rows[0]["b"] == "hello"


@pytest.mark.parametrize("header", ["img url", "my col"])
def test_tsv_header_without_schema_is_plain_column_names(header):
    parsed = Table.from_tsv("t", f"{header}\tb\nimg://1\t7")
    assert parsed.schema.names == (header, "b")
    assert [column.type for column in parsed.schema] == [ColumnType.ANY] * 2
    assert parsed.rows[0][header] == "img://1"


@pytest.mark.parametrize(
    "spec, cell", [("n integer", "abc"), ("x float", "fast"), ("ok boolean", "maybe")]
)
def test_tsv_unparseable_cell_names_line_column_and_cell(spec, cell):
    schema = Schema.of("name text", spec)
    column = schema.columns[1]
    text = f"name\t{column.name}\nada\t\nbob\t{cell}"
    message = (
        f"TSV line 3, column {column.name!r}: "
        f"cannot parse {column.type.value} from {cell!r}"
    )
    with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
        Table.from_tsv("t", text, schema)


def test_tsv_header_mismatch():
    with pytest.raises(SchemaError):
        Table.from_tsv("t", "x\n1", Schema.of("a integer"))


def test_tsv_ragged_row():
    with pytest.raises(SchemaError):
        Table.from_tsv("t", "a\tb\n1")


def test_tsv_empty_input():
    with pytest.raises(SchemaError):
        Table.from_tsv("t", "   \n  ")


def test_tsv_empty_cell_is_none():
    parsed = Table.from_tsv("t", "a\tb\n\tx", Schema.of("a integer", "b text"))
    assert parsed.rows[0]["a"] is None


def test_table_requires_name():
    with pytest.raises(SchemaError):
        Table("", Schema.of("a"))
