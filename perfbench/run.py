"""The repository benchmark: end-to-end and per-layer metrics per workload.

Run from the repository root::

    python3 perfbench/run.py --workload t5_vector --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --workload all --record   # re-pin expected.json

A run is closed-loop, single process and single thread: each execution
starts when the previous one ended. ``--seed`` selects the run's inputs:
the workload's ``inputs_per_run`` (n) datasets and marketplace seeds
(``seed * n + i``), so a run's figures are medians and means over several
inputs instead of one. Each dataset is built ``DATASET_BUILDS`` times and
set-up time takes the median build.
Every run executes each input at least once and keeps cycling through them
until ``--seconds`` have passed. Before timing, one untimed warm-up
execution of the first input fills the process-wide memos (seed derivation,
pickup-rate tables, pool caches), the same policy on every workload. Then
the garbage collector freezes everything alive (the run's datasets and
those memos), so collections during an execution scan that execution's
objects, not the inputs the benchmark holds for later executions; it also
runs between executions.

``--trace 0`` reports the end-to-end metrics. Its times are normalised to a
reference machine speed by ``clock.SpeedClock``, which samples the speed
of the shared host throughout the run, so that the host's slow spells do
not read as changes in the program; the raw wall and CPU medians and the
wall tail are printed beside them. ``--trace 1`` alternates an
untraced and a traced execution of the same input and reports the
per-layer metrics (see ``tracer.py``), the tracing overhead and the wall
time no layer span covers.

Every execution is checked: HITs, assignments and dollars must agree
across the query result, the cost ledger and the marketplace; on the
session workload the warm pass must post nothing and return the cold rows;
precision and recall must clear per-workload floors; an input run twice
must give identical outputs; and at the default seed the row digest and
economics must equal ``expected.json``. A failed check counts in
``failed``; the run continues.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from clock import INTERVAL_S, MIN_SAMPLES, SpeedClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED_PATH = HERE / "expected.json"

DATASET_BUILDS = 3
DEFAULT_SEED = 0
MAX_LOOP_SECONDS = 120.0
"""Stop starting executions after this long, whatever ``--seconds`` says."""

END_TO_END = {
    "norm_wall_s.p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "hits": "count",
    "assignments": "count",
    "dollars": "USD",
    "virtual_latency_s": "s",
    "rows": "count",
    "precision": "ratio",
    "recall": "ratio",
}

SELF_TIME_LAYERS = (
    "crowd.marketplace", "crowd.behavior", "crowd.vector", "relational",
    "core.join_exec", "hits.manager", "hits.compiler", "combine", "sorting",
    "core.sort_exec", "hits.cache", "hits.store", "core.session",
    "language.parser", "core.planner", "core.optimizer", "core.crowd_calls",
    "core.executor", "joins", "core.engine", "core.adaptive",
)
CALL_METRICS = {
    "crowd.behavior.calls": "crowd.behavior:answer_hit",
    "crowd.vector.calls": "crowd.vector:dispatch_vector",
    "relational.rows_built": "relational:Row.__init__",
    "relational.schemas_built": "relational:Schema.__init__",
    "hits.compiler.calls": "hits.compiler:HITCompiler.compile",
    "combine.calls": "combine:combine_corpus",
    "hits.store.writes": "hits.store:PersistentAnswerStore.store",
}
HOOK_METRICS = {
    "combine.questions": ("combine", "questions"),
    "hits.manager.votes": ("hits.manager", "votes"),
    "hits.manager.groups": ("hits.manager", "groups"),
    "hits.manager.uncompleted_hits": ("hits.manager", "uncompleted_hits"),
}
STATE_METRICS = {
    "crowd.marketplace.groups": "count",
    "crowd.marketplace.hits_posted": "count",
    "crowd.marketplace.considerations": "count",
    "crowd.marketplace.accept_rate": "ratio",
    "hits.cache.lookups": "count",
    "hits.cache.hit_rate": "ratio",
    "hits.store.lookups": "count",
    "hits.store.persistent_hit_rate": "ratio",
    "hits.store.bytes": "B",
    "core.session.cross_cache_hits": "count",
    "core.scheduler.overlap": "ratio",
}
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in SELF_TIME_LAYERS},
    **{name: "count" for name in CALL_METRICS},
    **{name: "count" for name in HOOK_METRICS},
    **STATE_METRICS,
    "trace.overhead": "ratio",
    "trace.unattributed_s": "s",
}


# -- statistics -------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, str]:
    """The highest of p99.9/p99/p90/p50 with at least ten samples beyond
    it (nearest rank); the maximum when no percentile qualifies."""
    ordered = sorted(values)
    n = len(ordered)
    for p in (99.9, 99.0, 90.0, 50.0):
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= 10:
            return ordered[rank - 1], f"p{p:g}"
    return ordered[-1], "max"


def calibration_seconds() -> float:
    """Best-of-five time of a fixed pure-Python loop: a machine unit that
    budgets can later be normalised by."""
    best = math.inf
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


def provenance() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "calibration_s": calibration_seconds(),
    }


# -- one run ----------------------------------------------------------------


@dataclass
class RunResult:
    metrics: dict[str, float]
    units: dict[str, str]
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    runner: "Runner | None" = None
    instrumentation: object = None

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0

    def as_json(self) -> str:
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": self.units[name]}
                for name, value in self.metrics.items()
            },
        })


class Runner:
    """Executes one workload's inputs, checking every execution."""

    def __init__(self, workload, seed, workdir, inputs_per_run, expected, clock):
        self.workload = workload
        self.clock = clock
        self.seeds = [seed * inputs_per_run + i for i in range(inputs_per_run)]
        self.workdir = workdir
        self.expected = expected
        self.first: dict[int, object] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        os.environ.update(workload.env())
        self.dataset_regions = []
        self.datasets = []
        for input_seed in self.seeds:
            for _ in range(DATASET_BUILDS):
                # Each build starts from the same collector state: the datasets
                # kept before it are frozen, so collections do not rescan them.
                dataset = None
                gc.collect()
                gc.freeze()
                mark = clock.mark()
                dataset = workload.inputs(input_seed)
                self.dataset_regions.append(clock.region(mark))
            self.datasets.append(dataset)

    def warm_up(self) -> bool:
        """The untimed warm-up execution; False (and a failure) if it broke
        or a pinned toggle is not in effect, so nothing wrong gets timed."""
        import importlib

        from workloads import Phases

        gc.collect()
        self.attempted += 1
        try:
            self.workload.execute(
                self.datasets[0], self.seeds[0], self.workdir, Phases(self.clock)
            )
        except Exception as exc:
            self.fail(f"warm-up: {type(exc).__name__}: {exc}")
            return False
        self.attempted -= 1
        gc.collect()
        gc.freeze()
        for var, raw in self.workload.env().items():
            module = importlib.import_module(f"repro.util.{var[len('REPRO_'):].lower()}")
            if module.enabled() != (raw == "1"):
                self.fail(f"{var}={raw} is not in effect")
                return False
        return True

    def execute(self, index: int, phases):
        """One checked execution; returns its outcome, or None if it failed."""
        gc.collect()
        self.attempted += 1
        seed = self.seeds[index]
        try:
            outcome = self.workload.execute(
                self.datasets[index], seed, self.workdir, phases
            )
        except Exception as exc:  # a failed execution is counted, not fatal
            self.fail(f"seed {seed}: {type(exc).__name__}: {exc}")
            return None
        problems = list(outcome.problems)
        first = self.first.setdefault(index, outcome)
        if first.fingerprint() != outcome.fingerprint():
            problems.append(f"output differs from the first run of this input: "
                            f"{outcome.fingerprint()} vs {first.fingerprint()}")
        pinned = self.expected.get(str(seed))
        if pinned is not None:
            got = {"digest": outcome.digest, "hits": outcome.hits,
                   "assignments": outcome.assignments, "dollars": outcome.dollars}
            if any(
                not math.isclose(got[k], pinned[k], rel_tol=1e-9) if k == "dollars"
                else got[k] != pinned[k]
                for k in got
            ):
                problems.append(f"drift from expected.json: {got} vs {pinned}")
        if problems:
            self.fail(f"seed {seed}: " + "; ".join(problems))
            return None
        return outcome

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def outcome_means(self) -> dict[str, float]:
        """Economics averaged over the run's inputs (first execution each)."""
        outcomes = [self.first[i] for i in sorted(self.first)]
        if not outcomes:
            return {}
        names = ("hits", "assignments", "dollars", "virtual_latency_s",
                 "rows", "precision", "recall")
        return {
            name: statistics.fmean(getattr(o, name) for o in outcomes)
            for name in names
        }

    def result(self, metrics, units, notes) -> RunResult:
        return RunResult(
            metrics=metrics, units=units, attempted=self.attempted,
            failed=self.failed, problems=self.problems, notes=notes, runner=self,
        )


def run_end_to_end(runner: Runner, seconds: float) -> RunResult:
    from workloads import Phases

    if not runner.warm_up():
        return runner.result({}, {}, ["warm-up failed"])
    clock = runner.clock
    done: list[Phases] = []
    start = time.perf_counter()
    count = len(runner.seeds)
    i = 0
    while (i < count or time.perf_counter() - start < seconds) and (
        time.perf_counter() - start < MAX_LOOP_SECONDS
    ):
        phases = Phases(clock)
        if runner.execute(i % count, phases) is not None:
            done.append(phases)
        i += 1
    time.sleep(MIN_SAMPLES * INTERVAL_S)  # probes after the last region
    clock.stop()
    if not done:
        return runner.result({}, {}, ["no execution succeeded"])
    walls = [p.wall_s for p in done]
    normalised = [p.normalised() for p in done]
    dataset_s = [clock.normalised(region) for region in runner.dataset_regions]
    tail_value, tail_label = tail(walls)
    metrics = {
        "norm_wall_s.p50": statistics.median(timed for timed, _ in normalised),
        "setup_s": statistics.median(dataset_s)
        + statistics.median(setup for _, setup in normalised),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **runner.outcome_means(),
    }
    notes = [
        f"executions: {len(walls)} timed over {len(runner.seeds)} inputs "
        f"(seeds {runner.seeds[0]}..{runner.seeds[-1]})",
        f"raw wall_s.p50 {statistics.median(walls):.6f} s, "
        f"cpu_s.p50 {statistics.median(p.cpu_s for p in done):.6f} s, "
        f"wall_s.tail {tail_value:.6f} s ({tail_label} of {len(walls)} samples)",
        f"machine speed: mean {statistics.fmean(clock.speeds):.4f} x reference "
        f"over {len(clock.speeds)} probes, {clock.probe_total_s:.3f} s in probes",
        f"failed_frac: {runner.failed / max(1, runner.attempted):.4f}",
    ]
    return runner.result(metrics, dict(END_TO_END), notes)


def run_traced(runner: Runner, seconds: float) -> RunResult:
    from tracer import Instrumentation, Tracer
    from workloads import Phases

    if not runner.warm_up():
        return runner.result({}, {}, ["warm-up failed"])
    instrumentation = Instrumentation(Tracer())
    tracer = instrumentation.tracer
    ratios, traced_walls = [], []
    state_sums: dict[str, float] = {}
    start = time.perf_counter()
    pairs = 0
    while (pairs < 1 or time.perf_counter() - start < seconds) and (
        time.perf_counter() - start < MAX_LOOP_SECONDS
    ):
        index = pairs % len(runner.seeds)
        plain = Phases(runner.clock)
        untraced = runner.execute(index, plain)
        traced_phases = Phases(runner.clock, tracer)
        with instrumentation.installed():
            traced = runner.execute(index, traced_phases)
        pairs += 1
        if untraced is None or traced is None:
            continue
        ratios.append(traced_phases.wall_s / plain.wall_s)
        traced_walls.append(traced_phases.wall_s)
        for name, value in traced.layer_counts.items():
            state_sums[name] = state_sums.get(name, 0.0) + value
    if not traced_walls:
        return runner.result({}, {}, ["no traced execution succeeded"])
    n = len(traced_walls)
    traced_total = sum(traced_walls)
    metrics = {f"{layer}.self_s": tracer.self_s.get(layer, 0.0) / n
               for layer in SELF_TIME_LAYERS}
    metrics.update({name: tracer.calls.get(key, 0) / n
                    for name, key in CALL_METRICS.items()})
    metrics.update({name: tracer.counters[layer].get(counter, 0) / n
                    for name, (layer, counter) in HOOK_METRICS.items()})
    metrics.update({name: state_sums.get(name, 0.0) / n for name in STATE_METRICS})
    metrics["trace.overhead"] = statistics.median(ratios)
    metrics["trace.unattributed_s"] = (traced_total - tracer.root_s) / n
    attributed = sum(tracer.self_s.values()) / n
    notes = [
        f"traced executions: {n} (each paired with an untraced run of the same input)",
        f"traced wall per execution {traced_total / n:.6f} s = layer self times "
        f"{attributed:.6f} s + unattributed {metrics['trace.unattributed_s']:.6f} s",
        f"spans: {tracer.spans}, max depth {tracer.max_depth}, "
        f"nesting errors {tracer.nesting_errors}",
        f"wrappers removed: {instrumentation.restored()}",
    ]
    if tracer.nesting_errors or not instrumentation.restored():
        runner.fail("tracer integrity: spans did not nest or wrappers remained")
    result = runner.result(metrics, dict(PER_LAYER), notes)
    result.instrumentation = instrumentation
    return result


def measure(workload, seed, seconds, trace, workdir, inputs_per_run=None,
            expected=None) -> RunResult:
    clock = SpeedClock()
    if not trace:
        clock.start()
    try:
        runner = Runner(workload, seed, workdir, inputs_per_run or workload.inputs_per_run,
                        expected or {}, clock)
        return run_traced(runner, seconds) if trace else run_end_to_end(runner, seconds)
    finally:
        clock.stop()


# -- reporting ----------------------------------------------------------------


def report(name: str, args, result: RunResult, info: dict) -> None:
    print(f"workload {name}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("provenance " + json.dumps(info, sort_keys=True))
    for note in result.notes:
        print(f"  {note}")
    width = max((len(k) for k in result.metrics), default=10)
    for metric, value in result.metrics.items():
        print(f"  {metric:<{width}}  {value:>16.6f}  {result.units[metric]}")
    print(f"  attempted {result.attempted}  failed {result.failed}")
    for problem in result.problems[:10]:
        print(f"  FAILED {problem}")


def run_all(args) -> int:
    """Each workload in its own process, so no memo crosses workloads."""
    from workloads import WORKLOADS

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        if args.record:
            command.append("--record")
        done = subprocess.run(command, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(done.stderr)
        if done.returncode not in (0, 1) or not lines:
            print(f"workload {name} exited with {done.returncode}")
            return 2
        last = json.loads(lines[-1])
        summary["correct"] &= last["correct"]
        summary["attempted"] += last["attempted"]
        summary["failed"] += last["failed"]
        for metric, body in last["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = body
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def record(name: str, runner: Runner) -> None:
    """Pin the default seed's row digests and economics per input."""
    pinned = json.loads(EXPECTED_PATH.read_text()) if EXPECTED_PATH.exists() else {}
    pinned[name] = {
        str(runner.seeds[i]): {
            "digest": o.digest, "hits": o.hits,
            "assignments": o.assignments, "dollars": o.dollars,
        }
        for i, o in sorted(runner.first.items())
    }
    EXPECTED_PATH.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="re-pin expected.json from this run (default seed only)")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: engine sources not found under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    if args.self_test:
        from selftest import self_test

        return self_test()
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)} or all\n")
        return 2
    if args.record and args.seed != DEFAULT_SEED:
        sys.stderr.write("perfbench: --record pins the default seed only\n")
        return 2
    workload = WORKLOADS[args.workload]
    expected = {}
    if args.seed == DEFAULT_SEED and not args.record and EXPECTED_PATH.exists():
        expected = json.loads(EXPECTED_PATH.read_text()).get(args.workload, {})

    workdir = ROOT / ".bench_build" / "perfbench" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        info = provenance()
        result = measure(workload, args.seed, args.seconds, args.trace, workdir,
                         expected=expected)
        if args.record and result.correct:
            record(args.workload, result.runner)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report(args.workload, args, result, info)
    print(result.as_json())
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
