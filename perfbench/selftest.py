"""Tiny-scale self-test of the benchmark harness (``run.py --self-test``).

Runs every workload at the smallest scale, untraced and traced, and checks
that every metric ``BENCHMARK.json`` names is emitted, that spans nest and
their self times add up, that every wrapper is removed and the speed
clock's timer disarmed afterwards.
"""

from __future__ import annotations

import copy
import inspect
import json
import math
import os
import shutil
import signal
import sys

import run
from tracer import Tracer
from workloads import WORKLOADS, SessionRestart

SELF_TEST_SEED = 424242
"""Not a seed any pinned expectation uses."""


def _tiny(workload):
    tiny = copy.copy(workload)
    if isinstance(tiny, SessionRestart):
        tiny.queries = 4
    else:
        tiny.scale = 1
    return tiny


def _leftover_wrappers() -> list[str]:
    found = []
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for name, value in vars(module).items():
            if getattr(value, "__perfbench_wrapped__", False):
                found.append(f"{module.__name__}.{name}")
            if inspect.isclass(value):
                for attr, raw in vars(value).items():
                    func = getattr(raw, "__func__", raw)
                    if getattr(func, "__perfbench_wrapped__", False):
                        found.append(f"{module.__name__}.{name}.{attr}")
    return found


def _check_span_arithmetic(failures: list[str]) -> None:
    tracer = Tracer()

    def inner():
        return sum(range(20_000))

    inner_w = tracer.wrap("b", "b:inner", inner, None)
    outer_w = tracer.wrap("a", "a:outer", lambda: inner_w() + inner_w(), None)
    tracer.active = True
    outer_w()
    tracer.active = False
    total = tracer.self_s["a"] + tracer.self_s["b"]
    if tracer.max_depth != 2 or tracer.calls["b:inner"] != 2 or tracer.nesting_errors:
        failures.append(f"synthetic spans: depth {tracer.max_depth}, calls {dict(tracer.calls)}")
    if not math.isclose(total, tracer.root_s, rel_tol=1e-9):
        failures.append(f"synthetic self times {total} != root span {tracer.root_s}")
    if run.tail([float(i) for i in range(1, 21)]) != (10.0, "p50"):
        failures.append("tail(): 20 samples should give p50 with 10 beyond")
    if run.tail([1.0, 2.0, 3.0]) != (3.0, "max"):
        failures.append("tail(): 3 samples should give the maximum")


def self_test() -> int:
    failures: list[str] = []
    spec_path = run.ROOT / "BENCHMARK.json"
    end_to_end, per_layer = dict(run.END_TO_END), dict(run.PER_LAYER)
    if spec_path.exists():
        spec = json.loads(spec_path.read_text())
        declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        if declared != end_to_end:
            failures.append(f"BENCHMARK.json end_to_end differs from run.py: {declared}")
        declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
        if declared != per_layer:
            failures.append(f"BENCHMARK.json per_layer differs from run.py: {declared}")
        if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
            failures.append("BENCHMARK.json workloads differ from workloads.py")

    _check_span_arithmetic(failures)
    workdir = run.ROOT / ".bench_build" / "perfbench" / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name, workload in WORKLOADS.items():
            before = len(failures)
            tiny = _tiny(workload)
            for trace, wanted in ((False, end_to_end), (True, per_layer)):
                result = run.measure(tiny, SELF_TEST_SEED, 0.0, trace, workdir,
                                     inputs_per_run=2)
                label = f"{name} trace={int(trace)}"
                if not result.correct:
                    failures.append(f"{label}: failed checks {result.problems}")
                missing = sorted(set(wanted) - set(result.metrics))
                extra = sorted(set(result.metrics) - set(wanted))
                if missing or extra:
                    failures.append(f"{label}: missing {missing}, unexpected {extra}")
                if any(not math.isfinite(v) for v in result.metrics.values()):
                    failures.append(f"{label}: non-finite metric")
                if signal.getitimer(signal.ITIMER_REAL) != (0.0, 0.0):
                    failures.append(f"{label}: the speed clock's timer is still armed")
                if not trace:
                    continue
                tracer = result.instrumentation.tracer
                if tracer.nesting_errors or tracer.max_depth < 3:
                    failures.append(f"{label}: nesting errors {tracer.nesting_errors}, "
                                    f"depth {tracer.max_depth}")
                if not math.isclose(sum(tracer.self_s.values()), tracer.root_s,
                                    rel_tol=1e-9):
                    failures.append(f"{label}: self times do not add up to root spans")
                if not result.instrumentation.restored():
                    failures.append(f"{label}: an original callable was not restored")
                leftovers = _leftover_wrappers()
                if leftovers:
                    failures.append(f"{label}: wrappers left behind: {leftovers[:5]}")
            print(f"self-test {name}: {'ok' if len(failures) == before else 'FAILED'}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for failure in failures:
        print(f"FAILED {failure}")
    print("self-test passed" if not failures else f"self-test failed ({len(failures)})")
    return 1 if failures else 0
