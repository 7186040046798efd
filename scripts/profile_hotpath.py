"""cProfile wrapper for the marketplace hot path.

Runs the Table 5 end-to-end query (optimized plan, optionally scaled) under
cProfile and prints the top cumulative entries.

Usage::

    PYTHONPATH=src python scripts/profile_hotpath.py [--scale N] [--top K]
    PYTHONPATH=src python scripts/profile_hotpath.py --check

``--check`` is the CI guard; it exits nonzero when any hot-path budget is
blown:

1. ``child_seed`` or ``payload_cache_key`` appear among the top-5
   cumulative profile entries — per-assignment seed hashing or per-lookup
   payload ``repr`` crept back onto the dispatch path;
2. the 8-query session's wall-clock throughput regresses more than 5%
   against the ratio recorded in ``benchmarks/BENCH_session.json`` — the
   session loop's round-robin bookkeeping started costing real time over
   running the same queries serially. The comparison is the
   concurrent/serial wall *ratio* (machine-independent), measured
   in-process (best of ``--check-repeats``, interleaved, CPU time) and
   appended to ``BENCH_session.json`` under ``ci_check``;
3. the adaptive optimizer's wall-clock on the macro workload exceeds the
   static rewriter's (``REPRO_ADAPT=0``) by more than 5% — the
   plan-fusion, cost-model, and selectivity-book machinery started
   taxing queries it has nothing to adapt. Same interleaved best-of
   measurement; the result is appended to ``benchmarks/BENCH_adaptive.json``
   under ``ci_check``;
4. graph_order's growth from 200 to 1000 planted-cycle items (CPU time at
   N=1000 over CPU time at N=200) exceeds the ratio recorded in
   ``benchmarks/BENCH_sort.json`` (written by
   ``benchmarks/bench_sort_scale.py``) by more than 5% — the indexed graph
   / incremental-SCC machinery started scaling worse. A growth ratio of
   the same code at two sizes keeps the guard machine-independent without
   a second implementation to compare against; the measurement is appended
   to ``BENCH_sort.json`` under ``ci_check``;
5. the resilience layer's fault-free macro wall-clock exceeds the
   ``REPRO_RESILIENCE=0`` baseline's by more than 5% — the retry/repost
   machinery is gated off entirely on marketplaces without a fault plan,
   so any measurable overhead means the gate leaked onto the dispatch
   path. Same interleaved best-of measurement; the result is appended to
   ``benchmarks/BENCH_resilience.json`` under ``ci_check``;
6. the persistent answer store's warm/cold wall ratio regresses more than
   5% against the one recorded in ``benchmarks/BENCH_store.json`` (written
   by ``benchmarks/bench_store.py``) — the warm run is pure store-read
   path (SQLite fetch, JSON decode, memory-layer promotion), so a rising
   ratio means disk reuse started costing real time against the crowd
   work it replaces. Measured via the shared
   ``repro.experiments.store_workload.measure_cold_warm`` smoke (best-of
   CPU, GC paused, fresh store file per repeat) and appended to
   ``BENCH_store.json`` under ``ci_check``;
7. the ``REPRO_VECTOR`` kernel's wall-clock ratio against the scalar
   path on the 4x macro regresses more than 5% over the ratio recorded in
   ``benchmarks/BENCH_perf_hotpath.json`` (``vector_macro.scale_4x.ratio``,
   written by ``benchmarks/bench_perf_hotpath.py``) — the numpy batch
   kernel stopped paying for its round bookkeeping. Skipped with a warning
   when numpy (the ``[vector]`` extra) is missing or no baseline has been
   recorded; otherwise measured interleaved best-of and appended to
   ``BENCH_perf_hotpath.json`` under ``ci_check``.

``--check-store`` runs only check 6 (no profiling, no macro sweeps) — the
fast lane ``scripts/ci_fast.sh`` uses it alongside the ``-m "not slow"``
pytest suite for a minutes-not-hours smoke signal.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import sys
import time
from pathlib import Path

from repro.core.context import ExecutionConfig
from repro.core.engine import Qurk
from repro.crowd import SimulatedMarketplace
from repro.crowd.latency import LatencyConfig, LatencyModel
from repro.datasets.movie import movie_dataset
from repro.experiments.end_to_end import QUERY_WITH_FILTER
from repro.hits.cache import TaskCache
from repro.joins.batching import JoinInterface
from repro.util import adapt
from repro.util import resilience

CHECK_TOP_N = 5
FORBIDDEN_IN_TOP = ("child_seed", "payload_cache_key")
SESSION_REGRESSION_LIMIT = 1.05
ADAPTIVE_OVERHEAD_LIMIT = 1.05
SORT_GROWTH_REGRESSION_LIMIT = 1.05
RESILIENCE_OVERHEAD_LIMIT = 1.05
STORE_WARM_REGRESSION_LIMIT = 1.05
VECTOR_RATIO_REGRESSION_LIMIT = 1.05
SESSION_QUERY_COUNT = 8
SORT_GROWTH_CHECK_ITEMS = (200, 1000)
VECTOR_CHECK_SCALE = 4
BENCH_SESSION_PATH = Path(__file__).parent.parent / "benchmarks" / "BENCH_session.json"
BENCH_ADAPTIVE_PATH = Path(__file__).parent.parent / "benchmarks" / "BENCH_adaptive.json"
BENCH_SORT_PATH = Path(__file__).parent.parent / "benchmarks" / "BENCH_sort.json"
BENCH_RESILIENCE_PATH = (
    Path(__file__).parent.parent / "benchmarks" / "BENCH_resilience.json"
)
BENCH_STORE_PATH = Path(__file__).parent.parent / "benchmarks" / "BENCH_store.json"
BENCH_PERF_PATH = (
    Path(__file__).parent.parent / "benchmarks" / "BENCH_perf_hotpath.json"
)


def run_workload(scale: int = 1, seed: int = 0) -> None:
    """The profiled workload: the optimized Table 5 query, with a task
    cache configured so the cache-key path is exercised too."""
    data = movie_dataset(seed=seed, scale=scale)
    latency = LatencyModel(LatencyConfig(deadline_hours=8.0 * scale))
    market = SimulatedMarketplace(data.truth, seed=seed, latency=latency)
    config = ExecutionConfig(
        join_interface=JoinInterface.SMART,
        grid_rows=5,
        grid_cols=5,
        use_feature_filters=True,
        generative_batch_size=5,
        sort_method="rate",
        compare_group_size=5,
        rate_batch_size=5,
    )
    engine = Qurk(platform=market, config=config, cache=TaskCache())
    engine.register_table(data.actors)
    engine.register_table(data.scenes)
    engine.define(data.task_dsl)
    engine.execute(QUERY_WITH_FILTER)


def profile(scale: int, seed: int) -> pstats.Stats:
    profiler = cProfile.Profile()
    profiler.enable()
    run_workload(scale=scale, seed=seed)
    profiler.disable()
    return pstats.Stats(profiler)


def _interleaved_best_of(modes, repeats: int) -> dict[str, float]:
    """Best-of CPU timings per mode, interleaved, with GC hygiene.

    ``modes`` is a list of ``(label, thunk)`` pairs; each thunk performs
    one complete run of its mode (including any toggle context or setup).
    Measurement hygiene, because a 5% bound demands it: CPU time instead
    of wall clock (immune to preemption on shared runners), the garbage
    collector paused and drained around each timed run (GC pauses are
    bimodal noise bigger than the bound), and modes interleaved so
    neither systematically runs on a warmer cache.
    """
    import gc

    timings = {label: float("inf") for label, _ in modes}
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(max(1, repeats)):
            for label, thunk in modes:
                gc.collect()
                start = time.process_time()
                thunk()
                timings[label] = min(
                    timings[label], time.process_time() - start
                )
    finally:
        if gc_was_enabled:
            gc.enable()
    return timings


def _append_ci_check(path: Path, report: dict) -> None:
    """Record a check's measurement under ``ci_check`` in a bench JSON."""
    try:
        recorded = json.loads(path.read_text()) if path.exists() else {}
        recorded["ci_check"] = report
        path.write_text(json.dumps(recorded, indent=1))
    except OSError as exc:  # CI sandboxes may mount the repo read-only
        print(f"warning: could not record ci_check results: {exc}", file=sys.stderr)


def _overhead_report(
    run_mode, labels: tuple[str, str], scale: int, seed: int, repeats: int, limit: float
) -> dict:
    """Macro workload timed in a baseline mode vs. a treatment mode.

    ``run_mode(treatment, scale)`` runs the macro once, in the baseline
    mode when ``treatment`` is False. ``labels`` is ``(baseline,
    treatment)``; ``wall_overhead`` is treatment / baseline best-of CPU
    time. A scale floor keeps the dispatch work being compared well above
    timer resolution.
    """
    scale = max(scale, 4)
    run_workload(scale=scale, seed=seed)  # untimed warm-up
    baseline, treatment = labels
    timings = _interleaved_best_of(
        [
            (baseline, lambda: run_mode(False, scale)),
            (treatment, lambda: run_mode(True, scale)),
        ],
        repeats,
    )
    overhead = (
        timings[treatment] / timings[baseline] if timings[baseline] > 0 else 0.0
    )
    return {
        "scale": scale,
        "repeats": repeats,
        f"{baseline}_seconds": round(timings[baseline], 4),
        f"{treatment}_seconds": round(timings[treatment], 4),
        "wall_overhead": round(overhead, 4),
        "limit": limit,
    }


def _with_toggle(toggle, seed: int):
    """A ``run_mode`` for :func:`_overhead_report`: the macro with a toggle
    forced off (baseline) or on (treatment)."""

    def run_mode(flag: bool, scale: int) -> None:
        with toggle.forced(flag):
            run_workload(scale=scale, seed=seed)

    return run_mode


def check_adaptive_overhead(scale: int, seed: int, repeats: int) -> dict:
    """Run the macro workload with the adaptive optimizer on vs. off.

    The Table 5 macro has a single-conjunct plan — nothing to adapt — so
    the measured ratio is the pure overhead of the adaptive machinery
    (toggle resolution, plan fusion scan, cost-model forecast, book
    lookups) on a workload it leaves untouched. Values above
    ``ADAPTIVE_OVERHEAD_LIMIT`` fail CI.
    """
    report = _overhead_report(
        _with_toggle(adapt, seed),
        ("static", "adaptive"),
        scale,
        seed,
        repeats,
        ADAPTIVE_OVERHEAD_LIMIT,
    )
    _append_ci_check(BENCH_ADAPTIVE_PATH, report)
    return report


def check_resilience_overhead(scale: int, seed: int, repeats: int) -> dict:
    """Run the macro workload with the resilience layer armed vs. off.

    The macro's marketplace carries no :class:`~repro.crowd.faults.FaultPlan`,
    so ``build_resilience`` declines to arm and the measured ratio is the
    pure cost of the gating itself (toggle resolution plus the duck-typed
    fault-plan walk per query). Values above ``RESILIENCE_OVERHEAD_LIMIT``
    fail CI.
    """
    report = _overhead_report(
        _with_toggle(resilience, seed),
        ("resilience_off", "resilience_on"),
        scale,
        seed,
        repeats,
        RESILIENCE_OVERHEAD_LIMIT,
    )
    _append_ci_check(BENCH_RESILIENCE_PATH, report)
    return report


def check_session_throughput(seed: int, repeats: int) -> dict | None:
    """Measure the 8-query session's concurrent/serial wall ratio.

    The recorded baseline lives in ``BENCH_session.json`` (written by
    ``benchmarks/bench_session.py``); CI fails when the freshly measured
    ratio exceeds the recorded one by more than
    ``SESSION_REGRESSION_LIMIT``. Ratios rather than absolute seconds keep
    the guard machine-independent; the recorded baseline is floored at 1.0
    so a lucky recording cannot make an honest 1.0x measurement fail.
    Returns None (with a warning) when no baseline has been recorded.
    """
    import gc

    from repro.datasets.movie import movie_dataset
    from repro.experiments.session_workload import build_session

    if not BENCH_SESSION_PATH.exists():
        print(
            "warning: benchmarks/BENCH_session.json missing — run "
            "`pytest benchmarks/bench_session.py` to record the session "
            "baseline; skipping the session throughput check.",
            file=sys.stderr,
        )
        return None
    recorded = json.loads(BENCH_SESSION_PATH.read_text())
    try:
        baseline = recorded["counts"][str(SESSION_QUERY_COUNT)]["wall_overhead"]
    except KeyError:
        print(
            "warning: BENCH_session.json has no 8-query wall_overhead — "
            "re-run the session benchmark; skipping the check.",
            file=sys.stderr,
        )
        return None

    data = movie_dataset(seed=seed)
    # Untimed warm-up of both modes.
    build_session(SESSION_QUERY_COUNT, seed=seed, data=data)[0].run()
    build_session(SESSION_QUERY_COUNT, seed=seed, data=data)[0].run(
        concurrent=False
    )
    # Sessions are one-shot, so each timed run needs a fresh build — kept
    # *outside* the timed region (matching the recorded baseline's
    # semantics), which is why this check cannot share _interleaved_best_of.
    timings = {"serial": float("inf"), "concurrent": float("inf")}
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(max(1, repeats)):
            for concurrent, label in ((False, "serial"), (True, "concurrent")):
                session, _, _ = build_session(
                    SESSION_QUERY_COUNT, seed=seed, data=data
                )
                gc.collect()
                start = time.process_time()
                session.run(concurrent=concurrent)
                timings[label] = min(timings[label], time.process_time() - start)
    finally:
        if gc_was_enabled:
            gc.enable()
    ratio = (
        timings["concurrent"] / timings["serial"] if timings["serial"] > 0 else 0.0
    )
    report = {
        "query_count": SESSION_QUERY_COUNT,
        "repeats": repeats,
        "serial_seconds": round(timings["serial"], 4),
        "concurrent_seconds": round(timings["concurrent"], 4),
        "wall_overhead": round(ratio, 4),
        "recorded_wall_overhead": baseline,
        "limit": SESSION_REGRESSION_LIMIT,
    }
    _append_ci_check(BENCH_SESSION_PATH, report)
    return report


def check_sort_growth(seed: int, repeats: int) -> dict | None:
    """Measure graph_order's 200 → 1000 item growth vs. the recording.

    Runs the planted-cycle sort workload at both sizes in
    ``SORT_GROWTH_CHECK_ITEMS`` in-process (interleaved best-of CPU time,
    GC paused) and compares the large/small time ratio against
    ``growth_1000_over_200`` in ``BENCH_sort.json``; CI fails when the
    fresh ratio exceeds the recorded one by more than
    ``SORT_GROWTH_REGRESSION_LIMIT``. Returns None (with a warning) when no
    baseline has been recorded.
    """
    from repro.experiments.sort_workload import comparison_corpus
    from repro.sorting.graph import graph_order

    if not BENCH_SORT_PATH.exists():
        print(
            "warning: benchmarks/BENCH_sort.json missing — run "
            "`pytest benchmarks/bench_sort_scale.py` to record the sort "
            "baseline; skipping the sort growth check.",
            file=sys.stderr,
        )
        return None
    recorded = json.loads(BENCH_SORT_PATH.read_text())
    baseline = recorded.get("growth_1000_over_200")
    if baseline is None:
        print(
            "warning: BENCH_sort.json has no growth_1000_over_200 — re-run "
            "the sort benchmark; skipping the check.",
            file=sys.stderr,
        )
        return None

    small, large = SORT_GROWTH_CHECK_ITEMS
    corpora = {n: comparison_corpus(n, seed=seed) for n in (small, large)}
    for items, corpus in corpora.values():
        graph_order(items, corpus)  # untimed warm-up

    def size(n: int):
        items, corpus = corpora[n]
        return lambda: graph_order(items, corpus)

    timings = _interleaved_best_of(
        [(str(small), size(small)), (str(large), size(large))], repeats
    )
    growth = (
        timings[str(large)] / timings[str(small)] if timings[str(small)] > 0 else 0.0
    )
    report = {
        "items": [small, large],
        "repeats": repeats,
        f"seconds_{small}": round(timings[str(small)], 5),
        f"seconds_{large}": round(timings[str(large)], 5),
        "growth": round(growth, 3),
        "recorded_growth": baseline,
        "limit": SORT_GROWTH_REGRESSION_LIMIT,
    }
    _append_ci_check(BENCH_SORT_PATH, report)
    return report


def check_store_warm_path(seed: int, repeats: int) -> dict | None:
    """Measure the restart pair's warm/cold wall ratio vs. the recording.

    Runs ``repro.experiments.store_workload.measure_cold_warm`` (the exact
    smoke ``benchmarks/bench_store.py`` records) against a throwaway store
    directory and compares the fresh warm/cold ratio to the recorded one;
    CI fails when it exceeds the recording by more than
    ``STORE_WARM_REGRESSION_LIMIT``. Ratios keep the guard
    machine-independent: the cold run (crowd simulation + write-through)
    anchors the scale the warm run's pure read path is judged against.
    Returns None (with a warning) when no baseline has been recorded.
    """
    import tempfile

    from repro.experiments.store_workload import measure_cold_warm

    if not BENCH_STORE_PATH.exists():
        print(
            "warning: benchmarks/BENCH_store.json missing — run "
            "`pytest benchmarks/bench_store.py` to record the store "
            "baseline; skipping the store warm-path check.",
            file=sys.stderr,
        )
        return None
    recorded = json.loads(BENCH_STORE_PATH.read_text())
    try:
        baseline = recorded["latency"]["warm_cold_ratio"]
    except KeyError:
        print(
            "warning: BENCH_store.json has no latency.warm_cold_ratio — "
            "re-run the store benchmark; skipping the check.",
            file=sys.stderr,
        )
        return None

    with tempfile.TemporaryDirectory(prefix="repro-store-check-") as scratch:
        measured = measure_cold_warm(scratch, seed=seed, repeats=repeats)
    report = dict(measured)
    report["recorded_warm_cold_ratio"] = baseline
    report["limit"] = STORE_WARM_REGRESSION_LIMIT
    _append_ci_check(BENCH_STORE_PATH, report)
    return report


def check_vector_ratio(seed: int, repeats: int) -> dict | None:
    """Measure the vector/fast macro wall ratio vs. the recording.

    Runs the 4x macro workload with the scalar path and with
    ``REPRO_VECTOR`` forced on (interleaved best-of CPU time, GC paused)
    and compares the vector/fast ratio against the one recorded in
    ``BENCH_perf_hotpath.json`` (``vector_macro.scale_4x.ratio``); CI fails
    when the fresh ratio exceeds the recorded one by more than
    ``VECTOR_RATIO_REGRESSION_LIMIT``. Returns None (with a warning) when
    numpy is missing or no vector baseline has been recorded.
    """
    from repro.util import vector as vector_toggle

    if not vector_toggle.available():
        print(
            "warning: numpy not installed ([vector] extra) — skipping the "
            "vector dispatch wall-ratio check.",
            file=sys.stderr,
        )
        return None
    if not BENCH_PERF_PATH.exists():
        print(
            "warning: benchmarks/BENCH_perf_hotpath.json missing — run "
            "`pytest benchmarks/bench_perf_hotpath.py` to record the vector "
            "baseline; skipping the vector dispatch check.",
            file=sys.stderr,
        )
        return None
    recorded = json.loads(BENCH_PERF_PATH.read_text())
    try:
        baseline = recorded["vector_macro"][f"scale_{VECTOR_CHECK_SCALE}x"]["ratio"]
    except KeyError:
        print(
            "warning: BENCH_perf_hotpath.json has no "
            f"vector_macro.scale_{VECTOR_CHECK_SCALE}x ratio — re-run the "
            "perf benchmark with numpy installed; skipping the check.",
            file=sys.stderr,
        )
        return None

    run_workload(scale=VECTOR_CHECK_SCALE, seed=seed)  # untimed warm-up

    def mode(flag: bool):
        def thunk() -> None:
            with vector_toggle.forced(flag):
                run_workload(scale=VECTOR_CHECK_SCALE, seed=seed)

        return thunk

    timings = _interleaved_best_of(
        [("fast", mode(False)), ("vector", mode(True))], repeats
    )
    ratio = timings["vector"] / timings["fast"] if timings["fast"] > 0 else 0.0
    report = {
        "scale": VECTOR_CHECK_SCALE,
        "repeats": repeats,
        "fast_seconds": round(timings["fast"], 4),
        "vector_seconds": round(timings["vector"], 4),
        "wall_ratio": round(ratio, 4),
        "recorded_wall_ratio": baseline,
        "limit": VECTOR_RATIO_REGRESSION_LIMIT,
    }
    _append_ci_check(BENCH_PERF_PATH, report)
    return report


def run_store_check(seed: int, repeats: int) -> int:
    """Run the store warm-path guard; returns a process exit code."""
    report = check_store_warm_path(seed, repeats)
    if report is None:
        return 0
    allowed = report["recorded_warm_cold_ratio"] * STORE_WARM_REGRESSION_LIMIT
    if report["warm_cold_ratio"] > allowed:
        print(
            "CHECK FAILED: store warm-run wall-clock is "
            f"{report['warm_cold_ratio']:.3f}x the cold run, above the "
            f"recorded {report['recorded_warm_cold_ratio']:.3f}x + "
            f"{STORE_WARM_REGRESSION_LIMIT - 1:.0%} headroom: {report}",
            file=sys.stderr,
        )
        return 1
    print(
        "check ok: store warm-run wall-clock is "
        f"{report['warm_cold_ratio']:.3f}x the cold run "
        f"(recorded {report['recorded_warm_cold_ratio']:.3f}x, "
        f"headroom {STORE_WARM_REGRESSION_LIMIT - 1:.0%})"
    )
    return 0


def top_cumulative_entries(stats: pstats.Stats, count: int) -> list[str]:
    """Function names of the top-``count`` entries by cumulative time,
    excluding the profiler scaffolding itself."""
    rows = sorted(
        stats.stats.items(),  # type: ignore[attr-defined]
        key=lambda kv: kv[1][3],  # cumulative time
        reverse=True,
    )
    names = []
    for (filename, _lineno, funcname), _ in rows:
        if funcname in ("profile", "run_workload", "<module>"):
            continue
        names.append(funcname)
        if len(names) >= count:
            break
    return names


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=int, default=1, help="dataset scale factor")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--top", type=int, default=25, help="entries to print")
    parser.add_argument(
        "--check",
        action="store_true",
        help=(
            "exit nonzero if child_seed or payload_cache_key appear in the "
            f"top-{CHECK_TOP_N} cumulative entries, or if any of the wall "
            "and growth guards listed above regresses"
        ),
    )
    def positive_int(value: str) -> int:
        parsed = int(value)
        if parsed < 1:
            raise argparse.ArgumentTypeError("must be >= 1")
        return parsed

    parser.add_argument(
        "--check-repeats",
        type=positive_int,
        default=5,
        help=(
            "repetitions per mode for the --check wall guards "
            "(interleaved, best-of; raise on noisy machines)"
        ),
    )
    parser.add_argument(
        "--check-store",
        action="store_true",
        help=(
            "run only the persistent-store warm-path guard (fast smoke: "
            "no profiling, no macro sweeps) — exit nonzero if the restart "
            "pair's warm/cold wall ratio regresses more than "
            f"{(STORE_WARM_REGRESSION_LIMIT - 1) * 100:.0f}%% vs BENCH_store.json"
        ),
    )
    args = parser.parse_args()

    if args.check_store:
        return run_store_check(args.seed, args.check_repeats)

    stats = profile(args.scale, args.seed)
    stats.sort_stats("cumulative").print_stats(args.top)

    if args.check:
        top = top_cumulative_entries(stats, CHECK_TOP_N)
        offenders = [
            name
            for name in top
            if any(forbidden in name for forbidden in FORBIDDEN_IN_TOP)
        ]
        if offenders:
            print(
                f"CHECK FAILED: {offenders} in the top-{CHECK_TOP_N} cumulative "
                "profile entries — the seed-derivation/cache-key work has "
                "crept back onto the hot path.",
                file=sys.stderr,
            )
            return 1
        print(
            f"check ok: none of {FORBIDDEN_IN_TOP} in the top-{CHECK_TOP_N} "
            f"cumulative entries ({top})"
        )
        adaptive_report = check_adaptive_overhead(
            args.scale, args.seed, args.check_repeats
        )
        if adaptive_report["wall_overhead"] > ADAPTIVE_OVERHEAD_LIMIT:
            print(
                "CHECK FAILED: adaptive optimizer wall-clock is "
                f"{adaptive_report['wall_overhead']:.3f}x the static "
                f"rewriter (limit {ADAPTIVE_OVERHEAD_LIMIT}x) on the macro "
                f"workload: {adaptive_report}",
                file=sys.stderr,
            )
            return 1
        print(
            "check ok: adaptive optimizer wall-clock is "
            f"{adaptive_report['wall_overhead']:.3f}x the static rewriter "
            f"(limit {ADAPTIVE_OVERHEAD_LIMIT}x)"
        )
        resilience_report = check_resilience_overhead(
            args.scale, args.seed, args.check_repeats
        )
        if resilience_report["wall_overhead"] > RESILIENCE_OVERHEAD_LIMIT:
            print(
                "CHECK FAILED: resilience layer (fault-free) wall-clock is "
                f"{resilience_report['wall_overhead']:.3f}x the disabled "
                f"baseline (limit {RESILIENCE_OVERHEAD_LIMIT}x) on the macro "
                f"workload: {resilience_report}",
                file=sys.stderr,
            )
            return 1
        print(
            "check ok: resilience layer (fault-free) wall-clock is "
            f"{resilience_report['wall_overhead']:.3f}x the disabled baseline "
            f"(limit {RESILIENCE_OVERHEAD_LIMIT}x)"
        )
        sort_report = check_sort_growth(args.seed, args.check_repeats)
        if sort_report is not None:
            allowed = sort_report["recorded_growth"] * SORT_GROWTH_REGRESSION_LIMIT
            if sort_report["growth"] > allowed:
                print(
                    "CHECK FAILED: graph_order grows "
                    f"{sort_report['growth']:.3f}x from 200 to 1000 items, "
                    f"above the recorded {sort_report['recorded_growth']:.3f}x "
                    f"+ {SORT_GROWTH_REGRESSION_LIMIT - 1:.0%} headroom: "
                    f"{sort_report}",
                    file=sys.stderr,
                )
                return 1
            print(
                "check ok: graph_order grows "
                f"{sort_report['growth']:.3f}x from 200 to 1000 items "
                f"(recorded {sort_report['recorded_growth']:.3f}x, "
                f"headroom {SORT_GROWTH_REGRESSION_LIMIT - 1:.0%})"
            )
        session_report = check_session_throughput(args.seed, args.check_repeats)
        if session_report is not None:
            allowed = (
                max(session_report["recorded_wall_overhead"], 1.0)
                * SESSION_REGRESSION_LIMIT
            )
            if session_report["wall_overhead"] > allowed:
                print(
                    "CHECK FAILED: 8-query session wall-clock is "
                    f"{session_report['wall_overhead']:.3f}x serial, above the "
                    f"recorded {session_report['recorded_wall_overhead']:.3f}x "
                    f"baseline + {SESSION_REGRESSION_LIMIT - 1:.0%} headroom: "
                    f"{session_report}",
                    file=sys.stderr,
                )
                return 1
            print(
                "check ok: 8-query session wall-clock is "
                f"{session_report['wall_overhead']:.3f}x serial "
                f"(recorded {session_report['recorded_wall_overhead']:.3f}x, "
                f"headroom {SESSION_REGRESSION_LIMIT - 1:.0%})"
            )
        if run_store_check(args.seed, args.check_repeats) != 0:
            return 1
        vector_report = check_vector_ratio(args.seed, args.check_repeats)
        if vector_report is not None:
            allowed = (
                vector_report["recorded_wall_ratio"] * VECTOR_RATIO_REGRESSION_LIMIT
            )
            if vector_report["wall_ratio"] > allowed:
                print(
                    "CHECK FAILED: vector dispatch wall-clock is "
                    f"{vector_report['wall_ratio']:.3f}x the scalar "
                    f"path, above the recorded "
                    f"{vector_report['recorded_wall_ratio']:.3f}x + "
                    f"{VECTOR_RATIO_REGRESSION_LIMIT - 1:.0%} headroom: "
                    f"{vector_report}",
                    file=sys.stderr,
                )
                return 1
            print(
                "check ok: vector dispatch wall-clock is "
                f"{vector_report['wall_ratio']:.3f}x the scalar path "
                f"(recorded {vector_report['recorded_wall_ratio']:.3f}x, "
                f"headroom {VECTOR_RATIO_REGRESSION_LIMIT - 1:.0%})"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
