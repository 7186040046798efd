"""Tests for immutable rows."""

import pytest

from repro.core.engine import Qurk
from repro.crowd import SimulatedMarketplace
from repro.crowd.latency import LatencyConfig, LatencyModel
from repro.datasets.movie import movie_dataset
from repro.errors import SchemaError
from repro.experiments.end_to_end import QUERY_WITH_FILTER, Variant
from repro.joins.batching import JoinInterface
from repro.relational.rows import Row
from repro.relational.schema import Schema


@pytest.fixture
def row() -> Row:
    return Row(Schema.of("name text", "img url"), {"name": "ada", "img": "img://1"})


def test_mapping_interface(row):
    assert row["name"] == "ada"
    assert list(row) == ["name", "img"]
    assert len(row) == 2
    assert dict(row) == {"name": "ada", "img": "img://1"}


def test_membership(row):
    assert "name" in row
    assert "missing" not in row
    assert "c.name" not in row.prefixed("d")
    assert "d.name" in row.prefixed("d")


def test_missing_column_raises_schema_error(row):
    with pytest.raises(SchemaError, match="no column 'missing'"):
        row["missing"]


def test_get_with_default(row):
    assert row.get("missing", 42) == 42
    assert row.get("name") == "ada"


def test_validation_on_construction():
    with pytest.raises(SchemaError):
        Row(Schema.of("a integer"), {"a": "nope"})


def test_row_accepted_as_input_mapping(row):
    assert Row(Schema.of("name text", "img url"), row) == row
    assert Row(Schema.of("img url"), row.project(["img"]))["img"] == "img://1"
    with pytest.raises(SchemaError, match=r"row missing columns \['id'\]"):
        Row(Schema.of("name text", "img url", "id integer"), row)
    with pytest.raises(SchemaError, match=r"row has unknown columns \['img'\]"):
        Row(Schema.of("name text"), row)


class _Ref(str):
    pass


@pytest.mark.parametrize("type_name", ["text", "url"])
def test_str_subclass_accepted_for_text_and_url(type_name):
    row = Row(Schema.of(f"v {type_name}"), {"v": _Ref("img://1")})
    assert type(row["v"]) is _Ref


def test_row_errors_name_missing_then_unknown_then_bad_column():
    schema = Schema.of("a integer", "b text")
    with pytest.raises(SchemaError, match=r"^row missing columns \['b'\]$"):
        Row(schema, {"a": "x", "z": 1})
    with pytest.raises(SchemaError, match=r"^row has unknown columns \['z'\]$"):
        Row(schema, {"a": "x", "b": 1, "z": 1})
    with pytest.raises(SchemaError, match=r"^column 'a' expects integer, got 'x' \(str\)$"):
        Row(schema, {"a": "x", "b": 1})


def test_hash_and_equality(row):
    same = Row(row.schema, {"name": "ada", "img": "img://1"})
    other = Row(row.schema, {"name": "bob", "img": "img://2"})
    assert row == same
    assert hash(row) == hash(same)
    assert row != other
    assert len({row, same, other}) == 2


def test_project(row):
    projected = row.project(["img"])
    assert list(projected) == ["img"]
    assert projected["img"] == "img://1"


def test_prefixed(row):
    prefixed = row.prefixed("c")
    assert prefixed["c.name"] == "ada"
    assert "name" not in prefixed.schema


def test_merged(row):
    other = Row(Schema.of("id integer"), {"id": 7})
    merged = row.merged(other)
    assert merged["id"] == 7
    assert merged["name"] == "ada"


def test_merged_overlap_fails(row):
    with pytest.raises(SchemaError):
        row.merged(Row(Schema.of("name text"), {"name": "x"}))


def test_extended(row):
    extended = row.extended("extra", [1, 2])
    assert extended["extra"] == [1, 2]
    assert len(extended) == 3


def test_as_dict_is_copy(row):
    d = row.as_dict()
    d["name"] = "changed"
    assert row["name"] == "ada"


# -- derivations skip validation, so they must equal the validating path ------


def _derivations(row: Row) -> dict[str, tuple[Row, dict[str, object]]]:
    """Each trusted derivation of ``row`` with the mapping it must bind."""
    other = Row(Schema.of("id integer", "score float"), {"id": 7, "score": 0.5})
    return {
        "prefixed": (row.prefixed("c"), {"c.name": "ada", "c.img": "img://1"}),
        "merged": (
            row.merged(other),
            {"name": "ada", "img": "img://1", "id": 7, "score": 0.5},
        ),
        "extended": (row.extended("extra", 3), {"name": "ada", "img": "img://1", "extra": 3}),
        "project": (row.project(["img", "name"]), {"img": "img://1", "name": "ada"}),
    }


@pytest.mark.parametrize("kind", ["prefixed", "merged", "extended", "project"])
def test_derived_row_matches_validated_row(row, kind):
    derived, mapping = _derivations(row)[kind]
    validated = Row(derived.schema, mapping)
    assert derived == validated
    assert hash(derived) == hash(validated)
    assert repr(derived) == repr(validated)
    assert derived.as_dict() == validated.as_dict() == mapping
    assert list(derived) == list(validated) == list(mapping)
    assert [derived[name] for name in mapping] == list(mapping.values())


@pytest.mark.parametrize("kind", ["prefixed", "merged", "extended", "project"])
def test_derived_schema_is_shared_across_rows(row, kind):
    second = Row(row.schema, {"name": "bob", "img": "img://2"})
    assert _derivations(row)[kind][0].schema is _derivations(second)[kind][0].schema


def test_schema_derivations_are_interned():
    schema = Schema.of("name text", "img url")
    other = Schema.of("id integer")
    assert schema.names is schema.names
    assert schema.prefixed("c") is schema.prefixed("c")
    assert schema.prefixed("c") is not schema.prefixed("d")
    assert schema.concat(other) is schema.concat(Schema.of("id integer"))
    assert schema.project(["img"]) is schema.project(("img",))


def test_invalid_derivations_raise_on_every_call(row):
    clash = Row(Schema.of("name text"), {"name": "x"})
    for _ in range(2):
        with pytest.raises(SchemaError, match="cannot merge rows sharing columns"):
            row.merged(clash)
        with pytest.raises(SchemaError, match="duplicate column names"):
            row.extended("name", "again")
        with pytest.raises(SchemaError, match="no column"):
            row.project(["missing"])


def test_table5_schema_constructions_do_not_grow_with_rows(monkeypatch):
    """Operators build each output schema once, not once per row: the
    optimized Table-5 query constructs as many schemas at 4x the data."""
    config = Variant("Filter + Smart 5x5", True, JoinInterface.SMART).config()
    built = {}
    for scale in (1, 4):
        data = movie_dataset(seed=0, scale=scale)
        latency = LatencyModel(LatencyConfig(deadline_hours=8.0 * scale))
        market = SimulatedMarketplace(data.truth, seed=0, latency=latency)
        engine = Qurk(platform=market, config=config)
        engine.register_table(data.actors)
        engine.register_table(data.scenes)
        engine.define(data.task_dsl)

        count = 0
        original = Schema.__init__

        def counting_init(self, columns):
            nonlocal count
            count += 1
            original(self, columns)

        monkeypatch.setattr(Schema, "__init__", counting_init)
        result = engine.execute(QUERY_WITH_FILTER)
        monkeypatch.undo()
        assert len(result) > 0
        built[scale] = count
    assert built[1] == built[4]
