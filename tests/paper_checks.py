"""The shape every paper artifact must show, one check per registry id.

``check_<X>`` checks ``EXP-<X>``: it takes the whole seed-0 result of the
artifact's runner and asserts the paper's qualitative findings, the claim
its registry entry states, while ``tests/golden/paper_artifacts.json``
pins the numbers. No pytest import and one assertion per line, so
``scripts/check_pins.py`` names a failure by its line on any interpreter.
"""

from __future__ import annotations

from repro.experiments.feature_experiments import ASSIGNMENTS, PRICING
from repro.util.stats import mean


def check_T1(table):
    ideal_tp = table.cell("IDEAL", "TruePos (MV)")
    ideal_tn = table.cell("IDEAL", "TrueNeg (MV)")
    for implementation in ("Simple", "Naive", "Smart"):
        for column in ("TruePos (MV)", "TruePos (QA)"):
            assert table.cell(implementation, column) >= ideal_tp - 2
        for column in ("TrueNeg (MV)", "TrueNeg (QA)"):
            assert table.cell(implementation, column) >= ideal_tn - 5


def check_F3(table):
    simple_single = table.cell("Simple", "Single-vote TP")
    smart3_single = table.cell("Smart 3x3", "Single-vote TP")
    # Single-worker accuracy degrades with heavy batching (78% → 53% in the
    # paper; the direction is what matters).
    assert smart3_single < simple_single - 0.05
    for scheme in ("Simple", "Naive 3", "Naive 5", "Naive 10", "Smart 2x2", "Smart 3x3"):
        mv_tp = table.cell(scheme, "TP rate (MV)")
        qa_tp = table.cell(scheme, "TP rate (QA)")
        single = table.cell(scheme, "Single-vote TP")
        # Combining beats trusting one worker; QA is at least as good as MV.
        assert mv_tp > single
        assert qa_tp >= mv_tp
        # True negatives essentially unaffected by batching.
        assert table.cell(scheme, "TN rate (MV)") > 0.98
    # Smart 2x2 performs about as well as Simple (paper finding).
    assert table.cell("Smart 2x2", "TP rate (MV)") >= table.cell("Smart 3x3", "TP rate (MV)")


def check_F4(table):
    def full_time(scheme, trial):
        for row in table.rows:
            if row[0] == scheme and row[1].startswith(trial):
                return row[4]
        raise KeyError((scheme, trial))

    # Simple is slower than every batched variant in both trials.
    for trial in ("#1", "#2"):
        simple = full_time("Simple", trial)
        for scheme in ("Naive 5", "Naive 10", "Smart 3x3"):
            assert full_time(scheme, trial) < simple
    # The straggler tail: the 95th percentile is well below the 100th,
    # i.e. the last few percent take a disproportionate share of the wait.
    simple_row = [row for row in table.rows if row[0] == "Simple"][0]
    p50, p95, p100 = simple_row[2], simple_row[3], simple_row[4]
    assert p100 > p95 > p50
    assert (p100 - p95) > 0.25 * (p100 - p50)


def check_S33(result):
    table, fit = result
    # The headline finding: volume explains (almost) nothing.
    assert fit.r_squared < 0.1
    # No strong negative effect (heavy workers are not sloppier).
    assert fit.slope > -0.001
    assert fit.n >= 50


def check_T2(table):
    unfiltered_cost = PRICING.cost(900 * ASSIGNMENTS)  # $67.50
    combined_rows = [row for row in table.rows if row[1] == "Y"]
    isolated_rows = [row for row in table.rows if row[1] == "N"]
    assert len(combined_rows) == 2 and len(isolated_rows) == 2

    for _, _, errors, saved, cost in table.rows:
        assert cost < unfiltered_cost / 2  # >2x cost reduction
        assert saved > 400  # most of the 870 non-matches avoided
        assert errors <= 8  # only a handful of matches lost

    mean_combined_errors = sum(row[2] for row in combined_rows) / 2
    mean_isolated_errors = sum(row[2] for row in isolated_rows) / 2
    assert mean_combined_errors <= mean_isolated_errors

    mean_combined_cost = sum(row[4] for row in combined_rows) / 2
    mean_isolated_cost = sum(row[4] for row in isolated_rows) / 2
    assert mean_combined_cost <= mean_isolated_cost + 1.0


def check_T3(table):
    errors = {row[0]: row[1] for row in table.rows}
    costs = {row[0]: row[3] for row in table.rows}
    # Omitting gender hurts cost the most: gender is the workhorse filter.
    assert costs["gender"] >= costs["hairColor"]
    assert costs["gender"] >= costs["skinColor"]
    # Hair is the error source: dropping it leaves the fewest errors.
    assert errors["hairColor"] <= errors["gender"]
    assert errors["hairColor"] <= errors["skinColor"]


def check_T4(table):
    full_rows = [row for row in table.rows if row[1] == "100%"]
    assert len(full_rows) == 4
    for _, _, combined, gender_k, hair_k, skin_k in full_rows:
        assert gender_k > hair_k  # gender always beats hair

    combined_skin = [row[5] for row in full_rows if row[2] == "Y"]
    isolated_skin = [row[5] for row in full_rows if row[2] == "N"]
    assert min(combined_skin) > max(isolated_skin) - 0.05
    # Sampled estimates exist for every trial and carry a std.
    sample_rows = [row for row in table.rows if row[1] == "25%"]
    assert len(sample_rows) == 4
    for row in sample_rows:
        assert "(" in str(row[3])
    # Sampled gender κ tracks the full value within ~0.15.
    for full, sampled in zip(full_rows, sample_rows):
        sampled_mean = float(str(sampled[3]).split(" ")[0])
        assert abs(sampled_mean - full[3]) < 0.15


def check_COST(table):
    naive = table.cell("Unfiltered, unbatched", "Cost ($)")
    filtered = table.cell("Feature filtering", "Cost ($)")
    batched = table.cell("Feature filtering + batch 10", "Cost ($)")

    assert naive == 67.5
    assert filtered < naive / 2  # filtering alone halves the cost or better
    assert batched < naive / 10  # filtering + batching: >10x reduction
    assert batched < filtered


def check_S422a(table):
    by_size = {row[0]: row for row in table.rows}
    assert by_size[5][1] > 0.97 and by_size[5][4] == "yes"
    assert by_size[10][1] > 0.97 and by_size[10][4] == "yes"
    assert "no" in by_size[20][4]  # the refusal wall


def check_S422b(table):
    taus = [row[1] for row in table.rows]
    assert 0.6 < mean(taus) < 0.95  # strong but imperfect, like the paper
    # Rate stays well below the (near-perfect) Compare accuracy.
    assert max(taus) < 0.98
    # Batching divides the HIT count.
    hits = {row[0]: row[2] for row in table.rows}
    assert hits[1] == 40 and hits[10] == 4


def check_S422c(table):
    taus = [row[1] for row in table.rows]
    assert 0.6 < mean(taus) < 0.95
    # No collapse as the dataset grows: every size stays strongly correlated.
    assert min(taus) > 0.5


def check_F6(table):
    kappa = {row[0]: row[2] for row in table.rows}
    tau = {row[0]: row[4] for row in table.rows}
    # κ decreases monotonically with ambiguity across Q1→Q5.
    assert kappa["Q1"] > kappa["Q2"] > kappa["Q3"] > kappa["Q4"] > kappa["Q5"]
    # Even the nonsensical Saturn query beats truly random answers.
    assert kappa["Q4"] > kappa["Q5"] + 0.1
    assert abs(kappa["Q5"]) < 0.15  # chance floor
    # τ: rating matches comparison well on Q1–Q3, poorly on Q4, not at all Q5.
    assert tau["Q1"] > 0.6 and tau["Q2"] > 0.6
    assert tau["Q4"] < tau["Q3"]
    assert abs(tau["Q5"]) < 0.3
    # 10-item sampled estimates track the full-data values.
    for row in table.rows:
        sampled_kappa = float(str(row[3]).split(" ")[0])
        assert abs(sampled_kappa - row[2]) < 0.2


def check_F7(result):
    table, traces = result
    compare_tau = table.cell("Compare", "final tau")
    compare_hits = table.cell("Compare", "HITs")
    rate_tau = table.cell("Rate", "final tau")
    rate_hits = table.cell("Rate", "HITs")

    assert compare_tau > 0.97
    assert rate_hits < compare_hits / 5
    assert 0.6 < rate_tau < compare_tau

    window6 = traces["Window 6"]
    window5 = traces["Window 5"]
    random_trace = traces["Random"]
    # Window 6 exceeds τ 0.95 within 30 additional HITs...
    assert max(window6[:30]) > 0.95
    # ...and converges near Compare quality within half of Compare's HITs.
    half_budget = int(compare_hits / 2)
    assert window6[min(half_budget, len(window6)) - 1] > 0.97
    # Window 5's divisor stride plateaus below Window 6.
    assert window6[-1] >= window5[-1]
    # Every hybrid improves on the rating starting point.
    for trace in traces.values():
        assert trace[-1] > rate_tau - 0.02
    # Random wastes comparisons relative to Window 6 (paper ordering).
    assert window6[-1] >= random_trace[-1]


def check_S424(table):
    start = table.rows[0][1]
    final = table.rows[-1][1]
    assert final > start + 0.05  # τ improves materially within 20 iterations
    assert final > 0.9


def check_T5(table):
    hits = {row[1]: row[2] for row in table.rows}
    # Join HIT arithmetic (paper's exact values, ±10% where the greedy
    # grid covering rounds differently).
    assert hits["No Filter + Simple"] == 1055
    assert hits["No Filter + Naive 5"] == 211
    assert hits["No Filter + Smart 5x5"] == 43
    assert hits["Filter + Simple"] == 628
    assert hits["Filter + Naive 5"] == 160
    assert abs(hits["Filter + Smart 5x5"] - 66) <= 3
    assert abs(hits["Filter + Smart 3x3"] - 108) <= 15
    # Rate sorts cost far fewer HITs than Compare sorts.
    assert hits["Rate"] < hits["Compare"]

    unoptimized = hits["unoptimized (Simple join + Compare)"]
    optimized = hits["optimized (Filter + Smart 5x5 + Rate)"]
    reduction = unoptimized / optimized
    # The paper's 14.5x; anything in the same regime passes.
    assert reduction > 10.0
    assert optimized < 110
    assert unoptimized > 1000


def check_ABL(table):
    saved = table.row_by("Metric", "assignments saved")[2]
    fixed_assignments, adaptive_assignments = map(int, saved.split("(")[1][:-1].split(" → "))
    found = table.row_by("Metric", "matches found (fixed vs adaptive)")[2]
    fixed_correct, adaptive_correct = map(int, found.split(" vs "))
    assert adaptive_assignments < fixed_assignments * 0.85
    assert adaptive_correct >= fixed_correct - 2


CHECKS = {
    "EXP-" + name.removeprefix("check_"): check
    for name, check in list(globals().items())
    if name.startswith("check_")
}
"""Experiment id → the check its runner's result must pass."""
