"""Golden-trace regression: no change may move a single vote.

The hot path (cumulative-weight sampling, precomputed pickup rates,
per-payload compare layouts, lazy HTML, hoisted behaviour loops) is
*stream-preserving*: for a fixed seed, the emitted per-qid vote stream, the
virtual clock, and the cost-ledger totals are bit-identical to the seed
implementation. This module enforces that promise against a golden trace
(``tests/golden/determinism_trace.json``) captured from the
pre-optimization implementation, plus a digest of a second seed's trace
recorded when the retired reference implementations still ran alongside.

If a future PR *must* break the stream (e.g. a semantically different
sampler), regenerate the golden with
``python scripts/regen_golden_trace.py`` and say so loudly in the PR — see
README.md, "Performance & determinism contract".
"""

from __future__ import annotations

import hashlib
import json

import pytest

from determinism_pins import (
    GOLDEN_PATH,
    UNOPTIMIZED_TRACE_SHA256,
    VECTOR_GOLDEN_PATH,
    collect_trace,
    unoptimized_trace_digest,
)


def test_fast_path_matches_golden():
    """Votes, clock, and ledger are bit-identical to the seed implementation."""
    trace = collect_trace(seed=0)
    golden = json.loads(GOLDEN_PATH.read_text())
    assert trace["votes"] == golden["votes"]
    assert trace["clock_seconds"] == golden["clock_seconds"]
    assert trace["ledger"] == golden["ledger"]
    assert trace["stats"] == golden["stats"]
    assert trace["assignment_ids"] == golden["assignment_ids"]
    assert trace["submit_times"] == golden["submit_times"]
    assert trace["result_rows"] == golden["result_rows"]
    assert trace == golden


def test_single_query_session_reproduces_golden_trace():
    """A one-query EngineSession is the plain engine, bit for bit: same
    votes, clock, ledger, and marketplace counters as the golden trace."""
    trace = collect_trace(seed=0, through_session=True)
    golden = json.loads(GOLDEN_PATH.read_text())
    assert trace == golden


def test_resilience_disabled_matches_golden():
    """REPRO_RESILIENCE=0 reverts bit-identically: with the toggle off the
    retry/repost machinery never arms and the golden query reproduces the
    pinned trace exactly."""
    from repro.util.toggles import RESILIENCE as resilience

    with resilience.forced(False):
        trace = collect_trace(seed=0)
    golden = json.loads(GOLDEN_PATH.read_text())
    assert trace == golden


def test_store_disabled_matches_golden(tmp_path):
    """REPRO_STORE=0 reverts bit-identically: a *configured* persistent
    store is ignored entirely — the pinned trace reproduces exactly and
    the store file is never even created — through both facades."""
    from repro.util.toggles import STORE as store_toggle

    golden = json.loads(GOLDEN_PATH.read_text())
    for through_session in (False, True):
        db_path = tmp_path / f"session-{through_session}.db"
        with store_toggle.forced(False):
            trace = collect_trace(
                seed=0, through_session=through_session, store=db_path
            )
        assert trace == golden
        assert not db_path.exists()


def test_zero_rate_fault_plan_matches_golden():
    """A zero-rate FaultPlan consumes no draws: installing it on the
    marketplace (with the resilience toggle at its default) leaves votes,
    clock, ledger, and counters bit-identical to the golden trace."""
    from repro.crowd import FaultPlan

    trace = collect_trace(seed=0, faults=FaultPlan())
    golden = json.loads(GOLDEN_PATH.read_text())
    assert trace == golden


def test_zero_rate_fault_plan_matches_golden_with_toggle_forced_on():
    """Same pin with REPRO_RESILIENCE explicitly forced on: arming the
    layer against a fault-free marketplace must still change nothing."""
    from repro.crowd import FaultPlan
    from repro.util.toggles import RESILIENCE as resilience

    with resilience.forced(True):
        trace = collect_trace(seed=0, faults=FaultPlan())
    golden = json.loads(GOLDEN_PATH.read_text())
    assert trace == golden


def test_vector_disabled_matches_golden():
    """REPRO_VECTOR=0 reverts bit-identically: with the vector kernel off
    (its default) the scalar fast path runs untouched and the golden query
    reproduces the pinned trace exactly."""
    from repro.util.toggles import VECTOR as vector

    with vector.forced(False):
        trace = collect_trace(seed=0)
    golden = json.loads(GOLDEN_PATH.read_text())
    assert trace == golden


def test_vector_path_matches_vector_golden():
    """REPRO_VECTOR=1 is a *second* pinned determinism domain: the numpy
    kernel draws from its own PCG64 stream, so its trace differs from the
    scalar golden but is pinned against its own
    (``determinism_trace_vector.json``, regenerated with
    ``python scripts/regen_golden_trace.py --vector``)."""
    from repro.util.toggles import VECTOR as vector

    if not vector.available():
        pytest.skip("numpy not installed; vector determinism domain inactive")
    with vector.forced(True):
        trace = collect_trace(seed=0)
    golden = json.loads(VECTOR_GOLDEN_PATH.read_text())
    assert trace == golden


def test_vector_path_bit_reproducible_run_to_run():
    """Two identical runs under REPRO_VECTOR=1 emit identical traces —
    votes, clock, ledger, counters, assignment ids, and submit times."""
    from repro.util.toggles import VECTOR as vector

    if not vector.available():
        pytest.skip("numpy not installed; vector determinism domain inactive")
    with vector.forced(True):
        first = collect_trace(seed=3)
        second = collect_trace(seed=3)
    assert first == second


SEED_7_TRACE_SHA256 = "03050ca3620e3d458924b1a4295caaaa1ad662e402c89e728bf562dae1bd2594"
"""sha256 of ``json.dumps(collect_trace(seed=7), sort_keys=True)``, recorded
at commit 2275d16, where the fast and the retired reference
implementations produced this same trace."""


def test_fast_and_reference_agree_on_other_seeds():
    """A seed the golden does not cover still reproduces the trace both
    implementations agreed on before the reference twins were retired."""
    trace = collect_trace(seed=7)
    assert trace["clock_seconds"] == 1467.5368604156356
    assert trace["ledger"] == {
        "total_hits": 76,
        "total_assignments": 380,
        "total_cost": 5.7,
    }
    digest = hashlib.sha256(json.dumps(trace, sort_keys=True).encode()).hexdigest()
    assert digest == SEED_7_TRACE_SHA256


def test_unoptimized_plan_matches_pinned_digest():
    """The paper's baseline plan (Simple join + Compare sort) streams
    single-pair and compare HITs through scalar dispatch, where four
    worker picks in five exclude the workers already on the HIT: 1,123
    HITs and 5,615 assignments at seed 0, pinned bit for bit."""
    assert unoptimized_trace_digest() == UNOPTIMIZED_TRACE_SHA256


def test_reseed_matches_fresh_construction():
    """RandomSource.reseed is draw-for-draw a fresh RandomSource."""
    from repro.util.rng import RandomSource

    reused = RandomSource(1)
    for seed in (0, 1, 42, 2**61 + 7):
        fresh = RandomSource(seed)
        reused.reseed(seed)
        draws = [
            fresh.random(),
            fresh.gauss(0.0, 1.0),
            fresh.randint(0, 10**6),
            fresh.lognormal(0.0, 0.3),
        ]
        assert draws == [
            reused.random(),
            reused.gauss(0.0, 1.0),
            reused.randint(0, 10**6),
            reused.lognormal(0.0, 0.3),
        ]
