"""Tests for schemas and column types."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchemaError
from repro.relational.rows import Row
from repro.relational.schema import Column, ColumnType, Schema

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=200)


def test_schema_of_parses_types():
    schema = Schema.of("name text", "img url", "n integer", "score float", "ok boolean", "blob")
    assert schema.column("name").type is ColumnType.TEXT
    assert schema.column("img").type is ColumnType.URL
    assert schema.column("n").type is ColumnType.INTEGER
    assert schema.column("score").type is ColumnType.FLOAT
    assert schema.column("ok").type is ColumnType.BOOLEAN
    assert schema.column("blob").type is ColumnType.ANY


def test_schema_of_rejects_unknown_type():
    with pytest.raises(SchemaError):
        Schema.of("x varchar")


def test_schema_rejects_duplicates():
    with pytest.raises(SchemaError):
        Schema.of("a", "a")


def test_column_requires_name():
    with pytest.raises(SchemaError):
        Column("")


def test_type_acceptance():
    assert ColumnType.INTEGER.accepts(3)
    assert not ColumnType.INTEGER.accepts(True)  # bool is not an integer here
    assert not ColumnType.INTEGER.accepts("3")
    assert ColumnType.FLOAT.accepts(3)
    assert ColumnType.FLOAT.accepts(2.5)
    assert ColumnType.BOOLEAN.accepts(False)
    assert ColumnType.TEXT.accepts("hi")
    assert not ColumnType.TEXT.accepts(5)
    assert ColumnType.ANY.accepts(object())
    assert ColumnType.TEXT.accepts(None)  # NULLs allowed everywhere


def test_validate_catches_missing_extra_and_badly_typed():
    schema = Schema.of("a integer", "b text")
    schema.validate({"a": 1, "b": "x"})
    with pytest.raises(SchemaError):
        schema.validate({"a": 1})
    with pytest.raises(SchemaError):
        schema.validate({"a": 1, "b": "x", "c": 2})
    with pytest.raises(SchemaError):
        schema.validate({"a": "one", "b": "x"})


def test_project_preserves_order_and_types():
    schema = Schema.of("a integer", "b text", "c float")
    projected = schema.project(["c", "a"])
    assert projected.names == ("c", "a")
    assert projected.column("c").type is ColumnType.FLOAT


def test_prefixed():
    schema = Schema.of("name text").prefixed("c")
    assert schema.names == ("c.name",)


def test_concat_and_extended():
    left = Schema.of("a")
    right = Schema.of("b")
    combined = left.concat(right)
    assert combined.names == ("a", "b")
    extended = combined.extended(Column("c"))
    assert extended.names == ("a", "b", "c")


def test_concat_duplicate_fails():
    with pytest.raises(SchemaError):
        Schema.of("a").concat(Schema.of("a"))


def test_index_of_and_contains():
    schema = Schema.of("a", "b")
    assert schema.index_of("b") == 1
    assert "a" in schema and "z" not in schema
    with pytest.raises(SchemaError):
        schema.index_of("z")


def test_equality_and_hash():
    assert Schema.of("a integer") == Schema.of("a integer")
    assert Schema.of("a integer") != Schema.of("a text")
    assert hash(Schema.of("a")) == hash(Schema.of("a"))


# -- the compiled row check ----------------------------------------------------


def test_row_check_is_compiled_once_and_returns_values_in_column_order():
    schema = Schema.of("a integer", "b text")
    assert schema.row_check is schema.row_check
    assert schema.row_check({"b": "x", "a": 1}) == (1, "x")
    assert Schema([]).row_check({}) == ()
    assert Schema.of("a").row_check({"a": [1]}) == ([1],)


@pytest.mark.parametrize(
    "values, message",
    [
        ({"b": 5, "z": 1}, "row missing columns ['a', 'c']"),
        ({"a": "x", "b": 5, "c": 1.0, "z": 1, "y": 2}, "row has unknown columns ['y', 'z']"),
        ({"a": 1, "b": 5, "c": "x"}, "column 'b' expects text, got 5 (int)"),
        ({"a": True, "b": "x", "c": 1.0}, "column 'a' expects integer, got True (bool)"),
    ],
    ids=["missing-before-unknown", "unknown-before-type", "first-bad-column", "bool"],
)
def test_row_check_error_precedence_and_text(values, message):
    """Missing columns first, then unknown ones, then the first badly typed
    column in schema order."""
    schema = Schema.of("a integer", "b text", "c float")
    with pytest.raises(SchemaError) as info:
        schema.validate(values)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "type_name, value, accepted",
    [
        ("integer", True, False),
        ("float", True, False),
        ("float", 3, True),
        ("integer", 3, True),
        ("integer", 2.5, False),
        ("boolean", 1, False),
        ("text", b"x", False),
        *((column_type.value, None, True) for column_type in ColumnType),
    ],
)
def test_row_check_type_rules(type_name, value, accepted):
    schema = Schema.of(f"v {type_name}")
    if accepted:
        assert schema.row_check({"v": value}) == (value,)
    else:
        with pytest.raises(SchemaError, match=f"column 'v' expects {type_name}"):
            schema.row_check({"v": value})


class _Text(str):
    pass


class _Count(int):
    pass


VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=3),
    st.builds(_Text, st.text(max_size=3)),
    st.builds(_Count, st.integers()),
    st.binary(max_size=2),
    st.lists(st.integers(), max_size=2),
)


@PROPERTY
@given(st.lists(st.tuples(st.sampled_from(list(ColumnType)), VALUES), max_size=5))
def test_row_accepted_exactly_when_accepts_admits_every_value(typed_values):
    schema = Schema([Column(f"c{i}", t) for i, (t, _) in enumerate(typed_values)])
    mapping = {f"c{i}": value for i, (_, value) in enumerate(typed_values)}
    conforms = all(t.accepts(value) for t, value in typed_values)
    try:
        row = Row(schema, mapping)
    except SchemaError:
        assert not conforms
    else:
        assert conforms
        assert row.as_dict() == mapping
