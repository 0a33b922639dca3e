"""Tests of the benchmark's own logic: span arithmetic, speed scaling and
output checks.

Run from the repository root with ``python3 -m pytest -q perfbench``.
"""

import json
import signal
import sys
from fractions import Fraction as Q
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import lnz  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from worker import check_round  # noqa: E402


def span(name, start, end, parent, calls=1, leaves=None, op=1):
    return [name, start, end, parent, op, calls, leaves]


def hand_built_tree():
    # root 0..10 holds a(1..6) and b(7..9); a holds c(2..4) and leaf
    # brackets worth 0.5 s; b holds 0.25 s of leaf adds.
    return [
        span(spans.ROOT, 0.0, 10.0, -1),
        span("analysis.char_sequence_estimate", 1.0, 6.0, 0,
             leaves={"algebra.bracket": [3, 0.5]}),
        span("analysis.char_sequence_at", 2.0, 4.0, 1),
        span("transform.decide_equivalence", 7.0, 9.0, 0,
             leaves={"transform.param_map_case1": [4, 0.25]}),
    ]


def test_self_times_subtract_children_and_leaves():
    calls, self_s, root_s = spans.self_times(hand_built_tree())
    assert root_s == 10.0
    assert self_s[spans.ROOT] == 10.0 - 5.0 - 2.0
    assert self_s["analysis.char_sequence_estimate"] == 5.0 - 2.0 - 0.5
    assert self_s["analysis.char_sequence_at"] == 2.0
    assert self_s["algebra.bracket"] == 0.5
    assert self_s["transform.decide_equivalence"] == 2.0 - 0.25
    assert calls["algebra.bracket"] == 3
    assert calls["transform.param_map_case1"] == 4
    assert sum(self_s.values()) == root_s


def test_layer_metrics_ratios_and_continuation_spans():
    tree = hand_built_tree()
    # a generator resumed twice: one call, two spans
    tree.append(span("catalog.enumerate_catalog", 9.1, 9.2, 0))
    tree.append(span("catalog.enumerate_catalog", 9.3, 9.4, 0, calls=0))
    doc = {"spans": tree, "counters": {"linalg.EchelonSpan.add.grew": 1}}
    values, root_s, self_sum = spans.layer_metrics(doc)
    assert values["catalog.enumerate_catalog.calls"] == 1
    assert values["analysis.char_sequence_at.per_estimate"] == 1.0
    assert values["transform.param_map.per_decision"] == 4.0
    assert values["analysis.derived_span.per_char_sequence_at"] == 0.0
    assert values["linalg.EchelonSpan.add.grew_ratio"] == 0.0
    assert abs(self_sum - root_s) < 1e-12


def test_tree_problems_accepts_sound_tree_and_catches_faults():
    assert spans.tree_problems(hand_built_tree(), wall=10.0) == []
    # the round's own clock disagrees with the root span
    assert spans.tree_problems(hand_built_tree(), wall=9.0)
    unclosed = hand_built_tree()
    unclosed[2][spans.END] = None
    assert "never closed" in spans.tree_problems(unclosed, 10.0)[0]
    outside = hand_built_tree()
    outside[2][spans.END] = 6.5     # ends after its parent
    assert "outside its parent" in spans.tree_problems(outside, 10.0)[0]
    # the same child recorded twice: children cover more than the parent
    doubled = hand_built_tree() + [span("analysis.char_sequence_at",
                                        2.0, 4.0, 1)]
    doubled[1][spans.LEAF]["algebra.bracket"] = [3, 2.5]
    assert "self time" in spans.tree_problems(doubled, 10.0)[0]
    second_root = hand_built_tree() + [span(spans.ROOT, 10.0, 11.0, -1)]
    assert "parent -1" in spans.tree_problems(second_root, 10.0)[0]


def test_traced_metrics_cover_the_benchmark_and_flag_missing_calls(
        tmp_path):
    path = tmp_path / "spans.json"
    path.write_text(json.dumps({"spans": hand_built_tree(),
                                "counters": {}}), encoding="utf-8")
    summary = {"spans_file": str(path), "traced": {"wall": 10.0},
               "rounds": [{"wall": 8.0}]}
    values, problems = run.traced_metrics("equiv", summary)
    assert set(values) == set(run.metric_units("per_layer"))
    assert values["trace_overhead_ratio"] == 10.0 / 8.0
    # the hand-built tree has a decision but no poly_gcd or case2 call
    assert problems == ["no call of transform.param_map_case2 recorded",
                        "no call of linalg.poly_gcd recorded"]


def test_equiv_strata_follow_pair_shares():
    samples = workloads.Equiv(0).samples
    counts = workloads.strata_counts(samples, 2000)
    assert sum(counts.values()) == 2000
    pairs = {key: 0 for key in counts}
    for eps, pool in samples.items():
        for p in pool:
            for q in pool:
                if p != q:
                    agree = lnz.nullity_signature(p).first_difference(
                        lnz.nullity_signature(q)) is None
                    pairs[(eps, agree)] += 1
    whole = sum(pairs.values())
    for key, count in counts.items():
        assert abs(count - 2000 * pairs[key] / whole) < 1


def test_speed_factor_and_sampler_time_is_taken_out():
    nominal = speed.NOMINAL_S
    assert speed.factor([nominal, nominal / 2]) == 1.5
    previous = signal.getsignal(signal.SIGALRM)
    with speed.Sampler() as sampler:
        t0 = perf_counter()
        while perf_counter() - t0 < 3 * speed.PERIOD_S:
            speed.reference_step()
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # entry, exit and at least two timer samples; only the timer's count
    assert len(sampler.samples) >= 4
    assert 0 < sampler.spent < sum(sampler.samples)


def test_tracer_records_and_restores():
    from lnz import analysis, linalg
    original = analysis.lower_central_series
    original_add = linalg.EchelonSpan.add
    tensor = lnz.build_second_type(
        9, lnz.SecondTypeParams(0, (1, 0, 0, 0), -1))
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert lnz.lower_central_series is not original
        root = tracer.open(spans.ROOT)
        dims = lnz.lower_central_series(tensor).dims
        tracer.close(root)
    finally:
        tracer.uninstall()
    assert analysis.lower_central_series is original
    assert lnz.lower_central_series is original
    assert linalg.EchelonSpan.add is original_add
    assert dims == original(tensor).dims
    calls, self_s, root_s = spans.self_times(tracer.spans)
    assert calls["analysis.lower_central_series"] == 1
    assert calls["linalg.EchelonSpan.add"] > 0
    assert abs(sum(self_s.values()) - root_s) < 1e-9


def nine_dim_document(tmp_path):
    tensor = workloads.catalog_tensor(lnz.row_by_id("0,7"), (Q(1), Q(2)), 9)
    path = tmp_path / "doc.json"
    path.write_text(lnz.serialize(tensor), encoding="utf-8")
    return tensor, path


def test_analyze_checker_rejects_wrong_output(tmp_path):
    _, path = nine_dim_document(tmp_path)
    result = workloads.cli(["analyze", str(path), "--seed", "0"])
    assert workloads.check_analyze_output(9, result)
    code, out, err = result
    wrong = out.replace("gradation dims: 2 2 2 1 1 1",
                        "gradation dims: 2 2 1 1 1 1 1")
    assert wrong != out
    assert not workloads.check_analyze_output(9, (code, wrong, err))
    assert not workloads.check_analyze_output(9, (1, out, err))


def test_transform_checker_rejects_tampered_output(tmp_path):
    tensor, path = nine_dim_document(tmp_path)
    change = workloads.graded_change(workloads.round_rng(0, 0), tensor,
                                     "second")
    change_path = tmp_path / "doc.change"
    change_text = lnz.serialize_change(change)
    change_path.write_text(change_text, encoding="utf-8")
    code, out, _ = workloads.cli(["transform", str(path), "--change",
                                  str(change_path)])
    text = path.read_text(encoding="utf-8")
    assert workloads.check_transform_output(text, change_text, out, code)
    tampered = out.replace('"1"', '"3"', 1)
    assert tampered != out
    assert not workloads.check_transform_output(text, change_text,
                                                tampered, code)
    assert not workloads.check_transform_output(text, change_text,
                                                "{not json", code)


def test_decision_checker_rejects_distinct_on_mapped_pair():
    p = lnz.SecondTypeParams(0, (1, 0, 0, 1), -1)
    g = lnz.GradedChange2(Q(2), Q(0), Q(1))
    q = lnz.param_map_case1(p, g)
    assert not workloads.check_decision(True, p, q, lnz.Distinct("beta"))
    assert workloads.check_decision(False, p, q, lnz.Distinct("beta"))
    good = lnz.decide_equivalence(p, q, budget=6)
    assert good.kind == "equivalent"
    assert workloads.check_decision(True, p, q, good)
    bad = lnz.Equivalent(lnz.GradedChange2(Q(1), Q(1), Q(3)))
    assert not workloads.check_decision(True, p, q, bad)


class _Fixed:
    """A workload whose checker returns canned outcomes."""

    def __init__(self, outcomes):
        self.outcomes = outcomes

    def check(self, op, output):
        return self.outcomes


def test_failures_are_counted_and_gates_excused_only_when_traced():
    op = workloads.Op("verify_all", None, outcomes=2)
    outcomes = [workloads.Outcome(True),
                workloads.Outcome(False, gate=True)]
    round_ = {"wall": 1.0, "speed": 1.0,
              "results": [(op, 1.0, "report", None)]}
    untraced = check_round(_Fixed(outcomes), round_, traced=False)
    traced = check_round(_Fixed(outcomes), round_, traced=True)
    assert (untraced["attempted"], untraced["failed"]) == (2, 1)
    assert (traced["attempted"], traced["failed"], traced["gates"]) == (2, 0, 1)
    raised = {"wall": 1.0, "speed": 1.0,
              "results": [(op, 1.0, None, "ValueError: x")]}
    counts = check_round(_Fixed(outcomes), raised, traced=False)
    assert (counts["attempted"], counts["failed"], counts["resolved"]) == (
        2, 2, 0)


def test_battery_checker_counts_missing_and_failed_records():
    report = lnz.Report()
    for name in workloads.CRITERIA:
        report.add(name, "s", "pass")
    for name in workloads.FLAGGED[1:]:
        report.add(name, "s", "flagged")
    report.records[2] = report.records[2].__class__(
        "char-sequence", "s", "fail", "took 31.0s, budget is 30s")
    outcomes = workloads.Battery(0).check(None, report)
    assert len(outcomes) == 15
    assert [o.ok for o in outcomes].count(False) == 2
    assert outcomes[2].gate and not outcomes[2].ok


def test_expected_analysis_matches_gradation():
    lines = workloads.expected_analysis(9)
    assert "central series dims: 9 7 5 3 2 1 0" in lines
    assert "gradation dims: 2 2 2 1 1 1" in lines
    assert "nilindex: 7" in lines
