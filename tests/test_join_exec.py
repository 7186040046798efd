"""Tests for the crowd-join execution layer."""

import pytest

from repro.core.context import ExecutionConfig
from repro.core.executor import run_plan
from repro.core.optimizer import optimize
from repro.core.planner import build_plan
from repro.errors import PlanError
from repro.joins.batching import JoinInterface
from repro.language.parser import parse_query
from repro.datasets import celebrity_dataset, movie_dataset

from tests.conftest import make_context


def celebrity_context(n=10, seed=2, **config):
    data = celebrity_dataset(n=n, seed=seed)
    ctx = make_context(
        data.truth, data.task_dsl, seed=seed, config=ExecutionConfig(**config)
    )
    ctx.catalog.register_table(data.celebs)
    ctx.catalog.register_table(data.photos)
    return data, ctx


def run_query(ctx, text):
    plan = optimize(build_plan(parse_query(text), ctx.catalog))
    return run_plan(plan, ctx), plan


JOIN = "SELECT c.name, p.id FROM celeb c JOIN photos p ON samePerson(c.img, p.img)"


def test_simple_join_counts_and_matches():
    data, ctx = celebrity_context(join_interface=JoinInterface.SIMPLE)
    rows, plan = run_query(ctx, JOIN)
    assert ctx.manager.ledger.hits_for("join:pairs") == 100
    correct = sum(
        1 for row in rows if str(row["c.name"]).rsplit("-", 1)[1] == str(row["p.id"])
    )
    assert correct >= 8


def test_naive_join_batches_pairs():
    data, ctx = celebrity_context(
        join_interface=JoinInterface.NAIVE, naive_batch_size=5
    )
    run_query(ctx, JOIN)
    assert ctx.manager.ledger.hits_for("join:pairs") == 20


def test_smart_join_grid_count():
    data, ctx = celebrity_context(
        join_interface=JoinInterface.SMART, grid_rows=5, grid_cols=5
    )
    run_query(ctx, JOIN)
    assert ctx.manager.ledger.hits_for("join:pairs") == 4  # (10/5)²


def test_feature_filter_reduces_join_hits():
    query = (
        JOIN
        + " AND POSSIBLY gender(c.img) = gender(p.img)"
        + " AND POSSIBLY skinColor(c.img) = skinColor(p.img)"
    )
    data, ctx = celebrity_context(join_interface=JoinInterface.SIMPLE)
    run_query(ctx, query)
    assert ctx.manager.ledger.hits_for("join:pairs") < 100
    assert ctx.manager.ledger.hits_for("join:features:left") > 0


def test_unary_possibly_prunes_side():
    data = movie_dataset(seed=1)
    ctx = make_context(
        data.truth,
        data.task_dsl,
        seed=1,
        config=ExecutionConfig(
            join_interface=JoinInterface.SMART,
            grid_rows=5,
            grid_cols=5,
            generative_batch_size=5,
        ),
    )
    ctx.catalog.register_table(data.actors)
    ctx.catalog.register_table(data.scenes)
    rows, plan = run_query(
        ctx,
        "SELECT a.name, s.img FROM actors a JOIN scenes s "
        "ON inScene(a.img, s.img) AND POSSIBLY numInScene(s.img) = 1",
    )
    # Only ~117 of 211 scenes survive the numInScene pass; grids shrink.
    join_node = [n for n in plan.walk() if type(n).__name__ == "JoinNode"][0]
    stats = ctx.node_stats[id(join_node)]
    assert stats.signals["numInScene.selectivity"] < 0.7
    assert ctx.manager.ledger.hits_for("join:pairs") < 43


@pytest.mark.parametrize(
    ("interface", "first_round"),
    [(JoinInterface.SIMPLE, [1] * 100), (JoinInterface.NAIVE, [10] * 10)],
    ids=["simple", "naive-10"],
)
def test_adaptive_votes_keep_the_join_interface(interface, first_round, monkeypatch):
    """Adaptive rounds post the interface's pairs per HIT, not the filter batch."""
    from repro.combine.adaptive import AdaptivePolicy

    _, ctx = celebrity_context(
        join_interface=interface, naive_batch_size=10, adaptive=AdaptivePolicy()
    )
    submit, rounds = ctx.manager.platform.submit_hit_group, []

    def recording_submit(hits, *args, **kwargs):
        rounds.append([hit.unit_count for hit in hits])
        return submit(hits, *args, **kwargs)

    monkeypatch.setattr(ctx.manager.platform, "submit_hit_group", recording_submit)
    run_query(ctx, JOIN)
    assert rounds[0] == first_round and len(rounds) > 1  # top-ups ran
    if interface is JoinInterface.SIMPLE:
        assert {count for posted in rounds for count in posted} == {1}


def test_possibly_ignored_when_disabled():
    query = JOIN + " AND POSSIBLY gender(c.img) = gender(p.img)"
    data, ctx = celebrity_context(
        join_interface=JoinInterface.SIMPLE, use_feature_filters=False
    )
    run_query(ctx, query)
    assert ctx.manager.ledger.hits_for("join:pairs") == 100
    assert ctx.manager.ledger.hits_for("join:features:left") == 0


def test_join_signals_collected():
    query = JOIN + " AND POSSIBLY hairColor(c.img) = hairColor(p.img)"
    data, ctx = celebrity_context(join_interface=JoinInterface.NAIVE)
    rows, plan = run_query(ctx, query)
    join_node = [n for n in plan.walk() if type(n).__name__ == "JoinNode"][0]
    signals = ctx.node_stats[id(join_node)].signals
    assert "hairColor.kappa" in signals
    assert "candidate_pairs" in signals
    assert "filter_selectivity" in signals
    assert signals["filter_selectivity"] < 1.0


def test_auto_feature_selection_drops_hair_color():
    """§3.2's rejection tests on examples/celebrity_join.py's POSSIBLY join
    (30 celebrities, seed 1, Smart 3x3) drop hair color as ambiguous and
    keep gender and skin (Table 3), logging the drop as a re-plan."""
    import runpy

    from determinism_pins import EXAMPLES_DIR

    example = runpy.run_path(str(EXAMPLES_DIR / "celebrity_join.py"))
    config = ExecutionConfig(
        join_interface=JoinInterface.SMART,
        grid_rows=3,
        grid_cols=3,
        auto_feature_selection=True,
    )
    result = example["run"]("auto feature selection", example["FILTERED_JOIN"], config)
    [signals] = [
        stats.signals for stats in result.node_stats.values()
        if "features_kept" in stats.signals
    ]
    assert (signals["features_kept"], signals["features_dropped"]) == (2.0, 1.0)
    events = result.adaptive_summary["events"]
    [drop] = [event for event in events if "(feature-drop)" in event]
    assert "hairColor: ambiguous" in drop
    assert (len(result.rows), result.hit_count) == (20, 92)


def test_empty_side_returns_no_rows():
    data, ctx = celebrity_context(join_interface=JoinInterface.SIMPLE)
    rows, _ = run_query(
        ctx, JOIN.replace("FROM celeb c", "FROM celeb c") + " WHERE c.name = 'nobody'"
    )
    # Computed filter pushed below the join empties the left side.
    assert rows == []
    assert ctx.manager.ledger.total_hits == 0


def test_rank_task_rejected_as_possibly():
    from repro.language.parser import parse_task
    from repro.tasks import task_from_definition

    data, ctx = celebrity_context()
    ctx.catalog.register_task(
        task_from_definition(
            parse_task(
                'TASK rk(field) TYPE Rank:\nHtml: "<img src=\'%s\'>", tuple[field]\n'
            )
        )
    )
    query = JOIN + " AND POSSIBLY rk(c.img) = rk(p.img)"
    with pytest.raises(PlanError):
        run_query(ctx, query)


BAND_DSL = """
TASK sameBand(f1, f2) TYPE EquiJoin:
    SingularName: "band"
    PluralName: "bands"
    LeftPreview: "<img src='%s'>", tuple1[f1]
    LeftNormal: "<img src='%s'>", tuple1[f1]
    RightPreview: "<img src='%s'>", tuple2[f2]
    RightNormal: "<img src='%s'>", tuple2[f2]
    Combiner: MajorityVote
"""


_BAND_REFS = (
    [f"img://band|{i}" for i in range(4)],
    [f"img://photo/{i}" for i in range(4)],
    [(i, i) for i in range(4)],
)
_COLLIDING_REFS = (["a|b", "a"], ["c", "b|c"], [(1, 1)])
"""Left refs, right refs, and the true ``(left, right)`` index pairs;
``("a|b", "c")`` and ``("a", "b|c")`` read ``a|b|c`` joined naively."""


@pytest.mark.parametrize(
    "interface, refs",
    [
        pytest.param(JoinInterface.SIMPLE, _BAND_REFS, id="JoinInterface.SIMPLE"),
        pytest.param(JoinInterface.SMART, _BAND_REFS, id="JoinInterface.SMART"),
        pytest.param(
            JoinInterface.SIMPLE, _COLLIDING_REFS, id="JoinInterface.SIMPLE-colliding"
        ),
        pytest.param(
            JoinInterface.SMART, _COLLIDING_REFS, id="JoinInterface.SMART-colliding"
        ),
    ],
)
def test_join_matches_refs_containing_the_pair_separator(interface, refs):
    """Join question ids read ``task:join:left|right``; refs that
    themselves contain ``|`` must still decode to the pair that was posted,
    and two pairs must never share a question id."""
    from repro import Qurk, SimulatedMarketplace
    from repro.crowd import GroundTruth
    from repro.relational.table import Table
    from repro.relational.schema import Schema

    left_refs, right_refs, matches = refs
    bands = Table("bands", Schema.of("name text", "img url"))
    photos = Table("photos", Schema.of("id text", "img url"))
    truth = GroundTruth()
    for i, ref in enumerate(left_refs):
        bands.insert({"name": f"band-{i}", "img": ref})
    for j, ref in enumerate(right_refs):
        photos.insert({"id": str(j), "img": ref})
    truth.add_join_task(
        "sameBand", {(left_refs[i], right_refs[j]) for i, j in matches}
    )
    engine = Qurk(
        platform=SimulatedMarketplace(truth, seed=3),
        config=ExecutionConfig(join_interface=interface),
    )
    engine.register_table(bands)
    engine.register_table(photos)
    engine.define(BAND_DSL)
    result = engine.execute(
        "SELECT b.name, p.id FROM bands b JOIN photos p ON sameBand(b.img, p.img)"
    )
    assert sorted((row["b.name"], row["p.id"]) for row in result.rows) == [
        (f"band-{i}", str(j)) for i, j in matches
    ]
