"""The determinism linter's own contract: rules, suppressions, baseline, CLI.

Three layers of coverage:

1. per-rule positive/negative fixtures — minimal snippets linted at a
   synthetic repo-relative path (the path is what scopes rules);
2. framework semantics — inline suppressions (justification required,
   RL000 unsuppressable), shrink-only baseline, JSON schema, exit codes;
3. the meta-test: the *live tree* has zero non-baselined findings, and the
   three historical bug classes (PR 3 import-time env capture, PR 7
   hash()-based cache keys, PR 4 budget float drift) are each caught when
   their pre-fix shape is linted as a fixture.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.analysis import baseline as baseline_mod
from repro.analysis.cli import main as cli_main
from repro.analysis.engine import (
    Finding,
    RULES,
    lint_paths,
    lint_source,
    load_rules,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

ENGINE_PATH = "src/repro/core/somemodule.py"
UTIL_PATH = "src/repro/util/sometoggle.py"
TOGGLES_PATH = "src/repro/util/toggles.py"
SRC_PATH = "src/repro/experiments/somemodule.py"


def rules_of(findings):
    return [f.rule for f in findings]


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def test_registry_has_the_twelve_rules():
    rules = load_rules()
    # RL012 is reserved for the telemetry-feedback rule (ROADMAP item 4).
    assert sorted(rules) == [f"RL{n:03d}" for n in (*range(1, 12), 13)]
    for rule in rules.values():
        assert rule.title and rule.rationale


def test_lint_doc_catalogs_every_rule():
    """docs/LINT.md has a catalog row and a section for every registered
    rule, and its "Extending" example declares an id no rule holds."""
    text = (REPO_ROOT / "docs" / "LINT.md").read_text()
    rules = load_rules()
    for rule_id in rules:
        assert f"| {rule_id} |" in text, rule_id
        assert f"### {rule_id} " in text, rule_id
    example_ids = re.findall(r'id = "(RL\d+)"', text)
    assert example_ids and not set(example_ids) & set(rules)


# ---------------------------------------------------------------------------
# RL001 — hash() seeds/cache keys
# ---------------------------------------------------------------------------


def test_rl001_flags_hash_of_id():
    findings = lint_source("seed = 17 + hash(query_id) % 100\n", SRC_PATH)
    assert rules_of(findings) == ["RL001"]


def test_rl001_allows_hash_inside_dunder_hash():
    src = (
        "class Row:\n"
        "    def __hash__(self):\n"
        "        return hash((self.a, self.b))\n"
    )
    assert lint_source(src, SRC_PATH) == []


def test_rl001_skips_tests():
    assert lint_source("x = hash('abc')\n", "tests/test_something.py") == []


# ---------------------------------------------------------------------------
# RL002 — os.environ outside util/toggles.py
# ---------------------------------------------------------------------------


def test_rl002_flags_environ_read_outside_util():
    src = "import os\n\nMODE = os.environ.get('REPRO_MODE', '1')\n"
    assert "RL002" in rules_of(lint_source(src, ENGINE_PATH))


def test_rl002_flags_from_os_import_environ():
    src = "from os import environ\n"
    assert rules_of(lint_source(src, SRC_PATH)) == ["RL002"]


def test_rl002_allows_util_toggles_and_tests():
    src = "import os\nRAW = os.environ.get('REPRO_X')\n"
    assert "RL002" not in rules_of(lint_source(src, TOGGLES_PATH))
    assert lint_source(src, "tests/test_toggles_like.py") == []


def test_rl002_flags_environ_read_in_another_util_module():
    src = "import os\n\ndef peek():\n    return os.environ.get('REPRO_X')\n"
    assert rules_of(lint_source(src, UTIL_PATH)) == ["RL002"]


# ---------------------------------------------------------------------------
# RL003 — import-time capture without refresh hook (the PR 3 bug class)
# ---------------------------------------------------------------------------

PRE_PR3_TOGGLE = (
    "import os\n"
    "\n"
    "_ENABLED = os.environ.get('REPRO_PIPELINE', '1') != '0'\n"
    "\n"
    "def enabled():\n"
    "    return _ENABLED\n"
)


def test_rl003_catches_the_pr3_import_time_capture_bug():
    findings = lint_source(PRE_PR3_TOGGLE, TOGGLES_PATH)
    assert rules_of(findings) == ["RL003"]
    assert "refresh_from_env" in findings[0].message


def test_rl003_satisfied_by_refresh_hook():
    src = PRE_PR3_TOGGLE + (
        "\n"
        "def refresh_from_env():\n"
        "    global _ENABLED\n"
        "    _ENABLED = os.environ.get('REPRO_PIPELINE', '1') != '0'\n"
        "    return _ENABLED\n"
    )
    assert lint_source(src, TOGGLES_PATH) == []


def test_rl003_ignores_function_local_env_reads():
    src = (
        "import os\n"
        "def peek():\n"
        "    return os.environ.get('REPRO_X')\n"
    )
    assert lint_source(src, TOGGLES_PATH) == []


# ---------------------------------------------------------------------------
# RL004 — wall clock / global RNG in engine paths
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "snippet",
    [
        "import time\nstamp = time.time()\n",
        "from time import time\nstamp = time()\n",
        "from datetime import datetime\nnow = datetime.now()\n",
        "import uuid\nhit_id = uuid.uuid4()\n",
        "import random\npick = random.random()\n",
        "import random\nrng = random.Random()\n",
    ],
)
def test_rl004_flags_nondeterminism_sources(snippet):
    assert "RL004" in rules_of(lint_source(snippet, ENGINE_PATH))


def test_rl004_allows_injected_clock_default_and_seeded_rng():
    src = (
        "import random\n"
        "import time\n"
        "\n"
        "def open_store(clock=time.time):\n"  # reference, not a call
        "    return clock\n"
        "\n"
        "rng = random.Random(42)\n"
    )
    assert lint_source(src, ENGINE_PATH) == []


def test_rl004_scoped_to_engine_dirs():
    assert lint_source("import time\nt = time.time()\n", SRC_PATH) == []


def test_rl004_does_not_resolve_unrelated_methods():
    src = "def f(obj):\n    return obj.time() + obj.now()\n"
    assert lint_source(src, ENGINE_PATH) == []


# ---------------------------------------------------------------------------
# RL005 — set iteration order in engine paths
# ---------------------------------------------------------------------------


def test_rl005_flags_direct_set_iteration():
    src = "for hit_id in set(ids):\n    post(hit_id)\n"
    assert rules_of(lint_source(src, ENGINE_PATH)) == ["RL005"]


def test_rl005_flags_iteration_over_tracked_set_variable():
    src = (
        "def settle(ids):\n"
        "    incomplete = set(ids)\n"
        "    return [repost(h) for h in incomplete]\n"
    )
    assert rules_of(lint_source(src, ENGINE_PATH)) == ["RL005"]


def test_rl005_flags_list_of_set():
    src = "order = list({a, b, c})\n"
    assert rules_of(lint_source(src, ENGINE_PATH)) == ["RL005"]


def test_rl005_allows_sorted_membership_and_rebound_names():
    src = (
        "def ok(ids, rows):\n"
        "    seen = set(ids)\n"
        "    for ref in sorted(seen):\n"       # sorted: fine
        "        use(ref)\n"
        "    hits = [r for r in rows if r in seen]\n"  # membership: fine
        "    maybe = set(ids)\n"
        "    maybe = list(ids)\n"              # rebound to list: untracked
        "    for m in maybe:\n"
        "        use(m)\n"
        "    return hits\n"
    )
    assert lint_source(src, ENGINE_PATH) == []


def test_rl005_scoped_to_engine_dirs():
    src = "for x in set(items):\n    print(x)\n"
    assert lint_source(src, SRC_PATH) == []


# ---------------------------------------------------------------------------
# RL006 — float equality on money (the PR 4 drift class)
# ---------------------------------------------------------------------------

PRE_PR4_DRIFT = (
    "def trim(allocations, budget):\n"
    "    spent = sum(a.cost for a in allocations)\n"
    "    while spent != budget:\n"
    "        spent -= 0.05\n"
    "    return spent\n"
)


def test_rl006_catches_the_pr4_budget_drift_bug():
    findings = lint_source(PRE_PR4_DRIFT, "src/repro/core/budget.py")
    assert rules_of(findings) == ["RL006"]
    assert "drift" in findings[0].message


@pytest.mark.parametrize(
    "snippet",
    [
        "ok = total_cost == expected_cost\n",
        "done = ledger.total_cost != 0.0\n",
        "flat = price == base_price\n",
    ],
)
def test_rl006_flags_money_equality(snippet):
    assert "RL006" in rules_of(lint_source(snippet, SRC_PATH))


@pytest.mark.parametrize(
    "snippet",
    [
        "ok = total_cost >= expected_cost\n",        # ordering is fine
        "ok = total_hits == 3\n",                    # not money
        "ok = cost_label == 'dollars'\n",            # string category check
        "ok = budget is None\n",                     # identity
    ],
)
def test_rl006_negative_cases(snippet):
    assert lint_source(snippet, SRC_PATH) == []


# ---------------------------------------------------------------------------
# RL007 — mutable defaults
# ---------------------------------------------------------------------------


def test_rl007_flags_mutable_defaults():
    src = "def post(batch=[], options={}, seen=set()):\n    return batch\n"
    assert rules_of(lint_source(src, SRC_PATH)) == ["RL007"] * 3


def test_rl007_applies_to_tests_too():
    src = "def helper(rows=[]):\n    return rows\n"
    assert rules_of(lint_source(src, "tests/test_helper.py")) == ["RL007"]


def test_rl007_allows_none_and_immutable_defaults():
    src = "def post(batch=None, retries=3, mode='fast', pair=()):\n    return batch\n"
    assert lint_source(src, SRC_PATH) == []


# ---------------------------------------------------------------------------
# RL008 — toggle contract (project rule)
# ---------------------------------------------------------------------------


def run_project_rule(tmp_path, toggle_src, toggles_text, api_text):
    from repro.analysis.engine import ModuleInfo

    (tmp_path / "tests").mkdir()
    (tmp_path / "docs").mkdir()
    (tmp_path / "tests" / "test_toggles.py").write_text(toggles_text)
    (tmp_path / "docs" / "API.md").write_text(api_text)
    module = ModuleInfo("src/repro/util/newtoggle.py", toggle_src)
    rule = RULES["RL008"]
    return list(rule.check_project([module], tmp_path))


TOGGLE_DECL = 'NEWTOGGLE = Toggle("REPRO_NEWTOGGLE", True, "A new switch.")\n'


def test_rl008_flags_undocumented_untested_toggle(tmp_path):
    findings = run_project_rule(tmp_path, TOGGLE_DECL, "# nothing\n", "# nothing\n")
    assert rules_of(findings) == ["RL008", "RL008"]
    messages = " ".join(f.message for f in findings)
    assert "test_toggles.py" in messages and "API.md" in messages


def test_rl008_satisfied_when_both_contract_files_mention_it(tmp_path):
    findings = run_project_rule(
        tmp_path,
        TOGGLE_DECL,
        "REPRO_NEWTOGGLE env contract\n",
        "| `REPRO_NEWTOGGLE` | `1` | ... |\n",
    )
    assert findings == []


def test_rl008_ignores_non_env_var_string_constants(tmp_path):
    findings = run_project_rule(
        tmp_path,
        'BANNER = "REPRO_SOMETHING mentioned in prose"\n',
        "# nothing\n",
        "# nothing\n",
    )
    assert findings == []


# ---------------------------------------------------------------------------
# RL009 — cache payload mutation
# ---------------------------------------------------------------------------


def test_rl009_flags_mutating_lookup_result():
    src = (
        "def merge(cache, hit, extra):\n"
        "    payload = cache.lookup(hit)\n"
        "    payload.append(extra)\n"
        "    return payload\n"
    )
    assert rules_of(lint_source(src, SRC_PATH)) == ["RL009"]


def test_rl009_flags_chained_and_subscript_mutation():
    src = (
        "def patch(cache, hit):\n"
        "    cache.lookup(hit).sort()\n"
        "    row = cache.lookup(hit)\n"
        "    row[0] = None\n"
    )
    assert rules_of(lint_source(src, SRC_PATH)) == ["RL009", "RL009"]


def test_rl009_allows_copy_then_mutate():
    src = (
        "def merge(cache, hit, extra):\n"
        "    payload = list(cache.lookup(hit))\n"
        "    payload.append(extra)\n"
        "    return tuple(payload)\n"
    )
    assert lint_source(src, SRC_PATH) == []


# ---------------------------------------------------------------------------
# RL010 — swallowed exceptions
# ---------------------------------------------------------------------------


def test_rl010_flags_bare_and_broad_pass():
    src = (
        "def harvest(pending):\n"
        "    try:\n"
        "        pending.result()\n"
        "    except Exception:\n"
        "        pass\n"
    )
    assert rules_of(lint_source(src, SRC_PATH)) == ["RL010"]
    src_bare = src.replace("except Exception:", "except:")
    assert rules_of(lint_source(src_bare, SRC_PATH)) == ["RL010"]


def test_rl010_allows_specific_or_handled():
    src = (
        "def harvest(pending, log):\n"
        "    try:\n"
        "        pending.result()\n"
        "    except ValueError:\n"
        "        pass\n"
        "    try:\n"
        "        pending.result()\n"
        "    except Exception as exc:\n"
        "        log.append(exc)\n"
    )
    assert lint_source(src, SRC_PATH) == []


# ---------------------------------------------------------------------------
# RL011 — isinstance/TaskType dispatch ladders
# ---------------------------------------------------------------------------


def test_rl011_flags_isinstance_ladder_over_engine_classes():
    src = (
        "def run(node):\n"
        "    if isinstance(node, ScanNode):\n"
        "        return 1\n"
        "    if isinstance(node, (JoinNode, SortNode)):\n"
        "        return 2\n"
    )
    findings = lint_source(src, ENGINE_PATH)
    assert rules_of(findings) == ["RL011"]
    assert "JoinNode, ScanNode, SortNode" in findings[0].message


def test_rl011_flags_task_type_enum_outside_tasks():
    src = "def role(task):\n    return task.task_type == TaskType.FILTER\n"
    assert rules_of(lint_source(src, ENGINE_PATH)) == ["RL011"]
    # Inside src/repro/tasks/ the builtins legitimately name their enum.
    assert lint_source(src, "src/repro/tasks/filter.py") == []


def test_rl011_allows_single_class_checks_and_registry():
    src = (
        "def is_scan(node):\n"
        "    return isinstance(node, ScanNode)\n"
        "def other(x):\n"
        "    return isinstance(x, (int, str))\n"
    )
    assert lint_source(src, ENGINE_PATH) == []
    ladder = (
        "def run(node):\n"
        "    return isinstance(node, ScanNode) or isinstance(node, JoinNode)\n"
    )
    assert lint_source(ladder, "src/repro/tasks/registry.py") == []
    assert lint_source(ladder, "tests/test_something.py") == []


# ---------------------------------------------------------------------------
# RL013 — process-wide memos on the engine path
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "snippet",
    [
        "from functools import lru_cache\n@lru_cache(maxsize=8192)\ndef f(x):\n    return x\n",
        "from functools import lru_cache\n@lru_cache\ndef f(x):\n    return x\n",
        "import functools\n@functools.lru_cache(maxsize=None)\ndef f(x):\n    return x\n",
        "import functools\n@functools.cache\ndef f(x):\n    return x\n",
        "from functools import cache as memo\n@memo\ndef f(x):\n    return x\n",
        # The retired child-seed memo: a call, not a decorator.
        "from functools import lru_cache\ncached = lru_cache(maxsize=1 << 16)(derive)\n",
        "import functools\ncached = functools.cache(derive)\n",
    ],
    ids=["sized", "bare", "qualified", "cache", "alias", "call", "cache-call"],
)
def test_rl013_flags_process_wide_memos(snippet):
    for path in (ENGINE_PATH, "src/repro/crowd/behavior.py", "src/repro/util/rng.py"):
        assert rules_of(lint_source(snippet, path)) == ["RL013"], path


def test_rl013_scope_and_non_memos():
    memo = "from functools import lru_cache\n@lru_cache(maxsize=32)\ndef f(x):\n    return x\n"
    # Outside the engine path (analysis, experiments, other util modules,
    # tests) a memo is not this rule's business.
    for path in (
        SRC_PATH,
        UTIL_PATH,
        "src/repro/analysis/rules/rl008_toggle_contract.py",
        "tests/test_something.py",
    ):
        assert lint_source(memo, path) == [], path
    # Per-instance caching and unrelated names called ``cache`` are fine.
    per_instance = (
        "from functools import cached_property\n"
        "class P:\n"
        "    @cached_property\n"
        "    def layout(self):\n"
        "        return self.cache.lookup(1)\n"
    )
    assert lint_source(per_instance, ENGINE_PATH) == []


def test_rl013_zipf_table_is_the_one_justified_memo():
    source = (REPO_ROOT / "src" / "repro" / "util" / "rng.py").read_text()
    assert lint_source(source, "src/repro/util/rng.py") == []
    unsuppressed = "\n".join(
        line for line in source.splitlines() if "disable=RL013" not in line
    )
    findings = lint_source(unsuppressed, "src/repro/util/rng.py")
    assert rules_of(findings) == ["RL013"]
    # The flagged decorator (1-based line) sits right above the function.
    decorated = unsuppressed.splitlines()[findings[0].line]
    assert decorated.startswith("def _zipf_cumulative(")


# ---------------------------------------------------------------------------
# suppressions
# ---------------------------------------------------------------------------

SWALLOW = (
    "def settle(pending):\n"
    "    try:\n"
    "        pending.result()\n"
    "    except Exception:{comment}\n"
    "        pass\n"
)


def test_suppression_with_justification_silences_the_finding():
    src = SWALLOW.format(
        comment="  # repro-lint: disable=RL010 -- settle path, abort propagates"
    )
    assert lint_source(src, SRC_PATH) == []


def test_suppression_block_above_the_statement_works():
    src = (
        "def settle(pending):\n"
        "    try:\n"
        "        pending.result()\n"
        "    # repro-lint: disable=RL010 -- settle path, abort propagates\n"
        "    except Exception:\n"
        "        pass\n"
    )
    assert lint_source(src, SRC_PATH) == []


def test_suppression_without_justification_is_rejected_and_reported():
    src = SWALLOW.format(comment="  # repro-lint: disable=RL010")
    found = rules_of(lint_source(src, SRC_PATH))
    assert "RL010" in found  # not silenced
    assert "RL000" in found  # and the bad suppression is itself a finding


def test_suppression_of_unknown_rule_is_reported():
    src = SWALLOW.format(comment="  # repro-lint: disable=RL999 -- because")
    found = rules_of(lint_source(src, SRC_PATH))
    assert "RL010" in found and "RL000" in found


def test_suppression_only_covers_its_own_line():
    src = (
        "seed_a = hash(qid)  # repro-lint: disable=RL001 -- fixture\n"
        "seed_b = hash(qid)\n"
    )
    findings = lint_source(src, SRC_PATH)
    assert rules_of(findings) == ["RL001"]
    assert findings[0].line == 2


def test_marker_inside_strings_is_inert():
    src = 'DOC = "# repro-lint: disable=RL001 -- not a comment"\n'
    assert lint_source(src, SRC_PATH) == []


# ---------------------------------------------------------------------------
# baseline semantics
# ---------------------------------------------------------------------------


def make_finding(rule="RL001", path=SRC_PATH, line=10, message="m"):
    return Finding(path=path, line=line, col=0, rule=rule, message=message)


def test_baseline_matching_ignores_line_but_counts_multiplicity(tmp_path):
    baseline_file = tmp_path / "baseline.json"
    grandfathered = make_finding(line=10)
    baseline_mod.write_baseline(baseline_file, [grandfathered])
    entries = baseline_mod.load_baseline(baseline_file)

    # same key at a different line -> still baselined
    new, baselined, stale = baseline_mod.partition([make_finding(line=99)], entries)
    assert (len(new), len(baselined), len(stale)) == (0, 1, 0)

    # a second identical finding exceeds the baseline budget -> new
    new, baselined, stale = baseline_mod.partition(
        [make_finding(line=10), make_finding(line=11)], entries
    )
    assert (len(new), len(baselined), len(stale)) == (1, 1, 0)


def test_baseline_shrink_only_reports_stale_entries(tmp_path):
    baseline_file = tmp_path / "baseline.json"
    baseline_mod.write_baseline(baseline_file, [make_finding()])
    entries = baseline_mod.load_baseline(baseline_file)
    new, baselined, stale = baseline_mod.partition([], entries)
    assert (len(new), len(baselined), len(stale)) == (0, 0, 1)
    assert stale[0].rule == "RL001"


def test_baseline_rejects_garbage(tmp_path):
    bad = tmp_path / "baseline.json"
    bad.write_text("{not json")
    with pytest.raises(baseline_mod.BaselineError):
        baseline_mod.load_baseline(bad)
    bad.write_text(json.dumps({"version": 999, "findings": []}))
    with pytest.raises(baseline_mod.BaselineError):
        baseline_mod.load_baseline(bad)


# ---------------------------------------------------------------------------
# CLI: formats, exit codes, baseline wiring
# ---------------------------------------------------------------------------


def write_fixture_tree(tmp_path: Path) -> Path:
    """A mini-repo with one deliberate RL001 finding."""
    (tmp_path / "setup.py").write_text("# marker\n")
    pkg = tmp_path / "src" / "repro" / "core"
    pkg.mkdir(parents=True)
    (pkg / "bad.py").write_text("seed = hash(query_id) % 100\n")
    return tmp_path


def test_cli_text_output_and_exit_code(tmp_path, capsys):
    root = write_fixture_tree(tmp_path)
    code = cli_main([str(root / "src"), "--no-baseline"])
    out = capsys.readouterr().out
    assert code == 1
    assert "RL001" in out and "src/repro/core/bad.py:1" in out


def test_cli_json_schema(tmp_path, capsys):
    root = write_fixture_tree(tmp_path)
    code = cli_main([str(root / "src"), "--no-baseline", "--format=json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["version"] == 1
    assert payload["ok"] is False
    assert set(payload["counts"]) == {"new", "baselined", "suppressed", "stale_baseline"}
    assert payload["counts"]["new"] == 1
    (finding,) = payload["findings"]
    assert set(finding) == {"rule", "path", "line", "col", "message", "baselined"}
    assert finding["rule"] == "RL001" and finding["baselined"] is False


def test_cli_baseline_roundtrip_and_shrink_only(tmp_path, capsys):
    root = write_fixture_tree(tmp_path)
    baseline_file = tmp_path / "baseline.json"

    # write-baseline grandfathers the finding ...
    assert cli_main(
        [str(root / "src"), "--baseline", str(baseline_file), "--write-baseline"]
    ) == 0
    capsys.readouterr()
    # ... after which the same tree is green
    assert cli_main([str(root / "src"), "--baseline", str(baseline_file)]) == 0
    out = capsys.readouterr().out
    assert "1 baselined" in out

    # fixing the finding turns the entry stale: shrink-only fails the run
    (root / "src" / "repro" / "core" / "bad.py").write_text(
        "from repro.util.rng import stable_seed\nseed = stable_seed(query_id) % 100\n"
    )
    assert cli_main([str(root / "src"), "--baseline", str(baseline_file)]) == 1
    out = capsys.readouterr().out
    assert "stale baseline entry" in out
    # ... unless explicitly allowed (local runs)
    assert cli_main(
        [str(root / "src"), "--baseline", str(baseline_file), "--allow-stale"]
    ) == 0


def test_cli_missing_path_is_usage_error(tmp_path, capsys):
    assert cli_main([str(tmp_path / "nope")]) == 2


def test_cli_list_rules(capsys):
    assert cli_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in RULES:
        assert rule_id in out


# ---------------------------------------------------------------------------
# the meta-test: the live tree is lint-clean
# ---------------------------------------------------------------------------


def test_live_tree_has_zero_non_baselined_findings():
    """The CI gate, as a test: src/ + tests/ lint clean against the
    checked-in baseline, and the baseline carries no stale entries."""
    report = lint_paths(
        [REPO_ROOT / "src", REPO_ROOT / "tests"], repo_root=REPO_ROOT
    )
    entries = baseline_mod.load_baseline(baseline_mod.DEFAULT_BASELINE)
    new, _baselined, stale = baseline_mod.partition(report.findings, entries)
    assert new == [], "non-baselined lint findings:\n" + "\n".join(
        f.render() for f in new
    )
    assert stale == [], "stale baseline entries:\n" + "\n".join(
        e.render() for e in stale
    )


def test_every_suppression_in_the_live_tree_is_justified():
    report = lint_paths(
        [REPO_ROOT / "src", REPO_ROOT / "tests"], repo_root=REPO_ROOT
    )
    for finding, justification in report.suppressed:
        assert justification.strip(), finding.render()


# ---------------------------------------------------------------------------
# the three historical bug classes, as reverted-snippet fixtures
# ---------------------------------------------------------------------------


def test_historical_bugs_are_each_caught():
    # PR 3: import-time env capture (REPRO_PIPELINE frozen at import)
    # Outside util/toggles.py, its env read is an RL002 finding too.
    assert rules_of(lint_source(PRE_PR3_TOGGLE, "src/repro/util/pipeline.py")) == [
        "RL003",
        "RL002",
    ]
    # PR 7 class: hash()-derived cache keys / seeds (PYTHONHASHSEED-salted)
    pre_pr7 = (
        "def payload_cache_key(payloads, assignments):\n"
        "    return f'{hash(payloads)}:{assignments}'\n"
    )
    assert rules_of(lint_source(pre_pr7, "src/repro/hits/cache.py")) == ["RL001"]
    # PR 4: float-drift exact equality on budget trims
    assert rules_of(lint_source(PRE_PR4_DRIFT, "src/repro/core/budget.py")) == [
        "RL006"
    ]
