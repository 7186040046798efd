#!/usr/bin/env sh
# Fast CI lane: the full test suite minus the >30s benchmark artifacts,
# plus the persistent-store warm-path smoke guard.
#
#   scripts/ci_fast.sh            # from the repo root
#
# Ten stages, all minutes-not-hours:
#   1. `pytest -m "not slow"` over tests/ — every correctness, contract,
#      determinism, and durability test (the `slow` marker only exists on
#      long benchmark measurements, so nothing tier-1 is skipped);
#   2. `python -m repro.analysis src tests` — the determinism & contract
#      linter (docs/LINT.md): fails on any non-baselined finding and on
#      stale baseline entries (shrink-only);
#   3. registry smoke — the four builtin task types plus the scenario
#      pack resolve through the executor registry, and both scenario
#      types parse/plan end-to-end (a broken registration fails here,
#      before the benchmarks);
#   4. `pytest benchmarks/bench_scenarios.py` — the scenario-pack
#      benchmarks at their fast settings, (re)recording
#      benchmarks/BENCH_scenarios.json;
#   5. `profile_hotpath.py --check-store` — the store cold/warm restart
#      micro-bench in smoke mode, failing on a >5% warm-path wall
#      regression against the ratio recorded in benchmarks/BENCH_store.json
#      (run `pytest benchmarks/bench_store.py` to (re)record it);
#   6. `vector_smoke.py` — the 4x macro under the scalar fast path vs the
#      REPRO_VECTOR numpy kernel: cross-domain workload counts within
#      tolerance and vector run-to-run determinism. Exits 0 with a notice
#      when numpy ([vector] extra) is not installed;
#   7. `perfbench/run.py --self-test` (~6s) — every benchmark workload at
#      its smallest scale, untraced and traced. The tracer patches engine
#      callables by name (Row/Schema derivations, TaskManager._finalize_outcome,
#      combine_corpus), so a rename that breaks `--trace 1` fails here even
#      though no unit test notices;
#   8. every workload pinned in perfbench/expected.json, each seed-0 input
#      once (`perfbench/run.py --workload W --seed 0 --seconds 0`), checked
#      against the pinned row digests and economics:
#      - `session_restart` (~24s on 2 cores): the cold/warm store session,
#        where nearly every lookup is a cache hit, so it pins the cached-vote
#        path;
#      - `t5_unoptimized` (~35s): the Simple join plus Compare sort at 4x,
#        pinning the comparison-vote readers;
#      - `t5_vector` (~22s): the 64x optimized Table-5 plan under
#        REPRO_VECTOR=1. Catches vector-kernel drift that only shows at
#        scale (many rounds, large exclusion sets, repeated generative
#        templates), which the 1x vector golden trace cannot. Skipped with a
#        notice when numpy ([vector] extra) is not installed; the other two
#        need no numpy and always run;
#   9. stage 1 again with numpy and scipy hidden (~25s): a throwaway
#      directory first on PYTHONPATH holds `numpy` and `scipy` packages that
#      raise ModuleNotFoundError, so the engine's no-extras paths (the
#      scalar fallback of REPRO_VECTOR, the tests that skip without an
#      extra) run for real even where both are installed. Any failure or
#      error fails the stage;
#  10. `check_pins.py` (~3-7 s each) under every CPython from 3.10 to 3.13
#      that starts here: `python3.X` on PATH, and each 3.X.* that pyenv
#      lists, run with PYENV_VERSION set (each interpreter once). It checks
#      the scalar golden trace, the unoptimized plan's digest, the example
#      outputs and the paper artifacts' tables (an artifact whose optional
#      extra is missing, EXP-S33 without scipy, is skipped with a notice),
#      and names the interpreter and the first differing record on a
#      mismatch. A minor version with no interpreter that starts gets a
#      notice, not a failure.
#
# The heavyweight lane stays `scripts/profile_hotpath.py --check` plus
# `pytest benchmarks -q`.

set -e

cd "$(dirname "$0")/.."
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
export PYTHONPATH

python -m pytest tests -q -m "not slow"
python -m repro.analysis src tests
python - <<'EOF'
# Registry smoke: builtins + scenario pack resolve, scenarios execute.
from repro.scenarios.categorize import run_categorize_variant, categorize_dataset
from repro.scenarios.er_join import run_er_join_variant, er_join_dataset
from repro.tasks.registry import default_registry

available = default_registry().available()
for key in ("Categorize", "EquiJoin", "ErJoin", "Filter", "Generative", "Rank"):
    assert key in available, f"{key} missing from registry: {available}"

from repro.joins.batching import JoinInterface

er = run_er_join_variant(er_join_dataset(seed=0), "smoke", JoinInterface.SMART, seed=0)
assert er.recall >= 0.7, er
cat = run_categorize_variant(categorize_dataset(n=8, seed=0), "smoke", batch_size=4, seed=0)
assert cat.accuracy >= 0.8, cat
print(f"registry smoke OK: {len(available)} task types, "
      f"er recall={er.recall:.2f}, categorize accuracy={cat.accuracy:.2f}")
EOF
python -m pytest benchmarks/bench_scenarios.py -q
python scripts/profile_hotpath.py --check-store --check-repeats "${CI_STORE_REPEATS:-3}"
python scripts/vector_smoke.py
python perfbench/run.py --self-test
python perfbench/run.py --workload session_restart --seed 0 --seconds 0
python perfbench/run.py --workload t5_unoptimized --seed 0 --seconds 0
if python -c "from repro.util.toggles import VECTOR; raise SystemExit(not VECTOR.available())"; then
    python perfbench/run.py --workload t5_vector --seed 0 --seconds 0
else
    echo "stage 8 t5_vector skipped: numpy ([vector] extra) not installed"
fi
no_extras="$(mktemp -d)"
trap 'rm -rf "$no_extras"' EXIT
for package in numpy scipy; do
    mkdir "$no_extras/$package"
    echo "raise ModuleNotFoundError(\"No module named '$package'\", name='$package')" \
        > "$no_extras/$package/__init__.py"
done
PYTHONPATH="$no_extras:$PYTHONPATH" python -m pytest tests -q -m "not slow"

seen_interpreters=" "
check_pins_with() {
    # $1: a PYENV_VERSION value, or empty; $2: the interpreter command.
    if [ -n "$1" ]; then
        set -- env "PYENV_VERSION=$1" "$2"
    else
        set -- "$2"
    fi
    executable="$("$@" -c 'import sys; print(sys.executable)' 2>/dev/null)" || return 0
    case "$seen_interpreters" in *" $executable "*) return 0 ;; esac
    seen_interpreters="$seen_interpreters$executable "
    "$@" scripts/check_pins.py
}
for minor in 10 11 12 13; do
    before="$seen_interpreters"
    check_pins_with "" "python3.$minor"
    if command -v pyenv >/dev/null 2>&1; then
        for version in $(pyenv versions --bare 2>/dev/null | grep "^3\.$minor\.[0-9]*$"); do
            check_pins_with "$version" "python3.$minor"
        done
    fi
    if [ "$before" = "$seen_interpreters" ]; then
        echo "stage 10: no python3.$minor starts here; its pins were not checked"
    fi
done
