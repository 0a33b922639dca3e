"""Acceptance run: every verification criterion, one line per result.

The whole battery runs once per session; each test then pulls its record,
prints the formatted pass/fail line, and asserts on the recorded status.
Run with -s (or look at the captured stdout of a failure) to see the lines.
"""

import hashlib
import json
import re
import weakref
from fractions import Fraction
from itertools import islice
from types import SimpleNamespace

import pytest

import lnz.analysis
import lnz.verify
from lnz import (BasisChange, MatrixQ, SecondTypeParams, StructureTensor,
                 char_sequence_estimate, completed_second_type_change,
                 enumerate_catalog, verify_all)
from lnz.cli import main
from lnz.verify import (Report, _check_equivalence_spots,
                        _check_formula_oracle, _check_instances,
                        _check_invariance)

CRITERIA = (
    "catalog-consistency",
    "gradation-dims",
    "char-sequence",
    "nilindex",
    "right-annihilator",
    "formula-oracle",
    "nullity-invariance",
    "non-lie",
    "equivalence-spots",
    "small-oracles",
)

FLAGGED = (
    "reading-beta-e6",
    "parity-asymmetry",
    "alternating-identity-sign",
    "nilindex-observed",
    "label-0,6-overlap",
)


@pytest.fixture(scope="session")
def report():
    return verify_all(dims=(9, 10), seed=0)


def one_per_row(instances) -> list:
    """The first instance of each row, in catalog order: the fewest that
    leave no admitted row absent from catalog-consistency."""
    firsts = {}
    for inst in instances:
        firsts.setdefault(inst.row.row_id, inst)
    return list(firsts.values())


def line_for(record) -> str:
    return (f"[{record.status.upper():7}] {record.name}: "
            f"{record.subject} - {record.detail}")


@pytest.mark.parametrize("name", CRITERIA)
def test_criterion(report, name):
    record = report.record(name)
    print(line_for(record))
    assert record.status == "pass", record.detail


def test_every_criterion_is_present(report):
    names = {r.name for r in report.records}
    assert set(CRITERIA) <= names


def test_flagged_notes_are_present(report):
    flagged = {r.name for r in report.records if r.status == "flagged"}
    assert set(FLAGGED) <= flagged
    for record in report.records:
        if record.status == "flagged":
            print(line_for(record))


def test_overall_report_state(report):
    assert report.ok
    counts = report.counts
    assert counts["fail"] == 0
    assert counts["pass"] >= len(CRITERIA)


def masked_sha256(text: str) -> str:
    """sha256 of report text with every timing, like 0.4s, masked."""
    return hashlib.sha256(re.sub(r"\d+\.\ds", "#s", text).encode()).hexdigest()


def test_report_text_is_pinned(report):
    # every record, its order and its text, apart from the seconds
    assert masked_sha256(report.to_text()) == (
        "c6988dcd15723d22169f2c29cc7cbc70f98d802cd7ddf331b03886762aabb9c7")


def test_verify_all_cli_text_is_pinned(capsys):
    assert main(["verify-all", "--dims", "9"]) == 0
    assert masked_sha256(capsys.readouterr().out) == (
        "c422dc478bb59b97a312604e02e8fee81625367aec342298864c7232dd57446b")


def test_small_oracles_recompute_series_at_smallest_dimension():
    report = Report()
    _check_instances(report, list(islice(enumerate_catalog((10,)), 1)))
    record = report.record("small-oracles")
    found = re.search(r"(\d+) series recomputations at n=10", record.subject)
    assert record.status == "pass"
    assert found and int(found.group(1)) > 0


def test_formula_oracle_on_odd_dimensions_only():
    # the alternating map runs at the next even dimension
    report = Report()
    _check_formula_oracle(report, (9,), 3, 0)
    assert report.record("formula-oracle").status == "pass"


def test_residuals_need_every_admitted_row_not_a_count():
    instances = one_per_row(enumerate_catalog((9,)))
    report = Report()
    _check_instances(report, instances)
    assert report.record("catalog-consistency").status == "pass"
    dropped = instances[0].row.row_id
    report = Report()
    _check_instances(report, [i for i in instances
                              if i.row.row_id != dropped])
    record = report.record("catalog-consistency")
    assert record.status == "fail"
    assert record.detail == f"no instances of rows {dropped}"


def test_residuals_skip_rows_without_an_admissible_sample():
    # row 0,9 excludes lambda = 0 and 1, so the samples (1,) admit no value
    instances = one_per_row(enumerate_catalog((9,), (1,)))
    assert "0,9" not in {inst.row.row_id for inst in instances}
    report = Report()
    _check_instances(report, instances, (1,))
    record = report.record("catalog-consistency")
    assert record.status == "pass"
    assert record.detail.endswith("; no admissible sample for rows 0,9")
    # the default samples admit every row, and the detail names none
    report = Report()
    _check_instances(report, one_per_row(enumerate_catalog((9,))))
    assert "admissible" not in report.record("catalog-consistency").detail


def test_verify_all_takes_no_budget(monkeypatch):
    # before any work: the catalog is never enumerated
    monkeypatch.setattr(lnz.verify, "enumerate_catalog", None)
    with pytest.raises(TypeError, match="unexpected keyword argument 'budget'"):
        verify_all(dims=(9,), budget=1)


def test_e1_certifies_every_catalog_estimate():
    # why the battery needs no budget: the estimate stops at e_1, before
    # any sample is drawn, so neither budget nor seed can move it
    for inst in enumerate_catalog((9, 10)):
        at_zero = char_sequence_estimate(inst.tensor, budget=0)
        assert at_zero.parts == (inst.n - 3, 3), inst.label()
        for seed in (0, 7):
            assert char_sequence_estimate(inst.tensor, budget=200,
                                          seed=seed) == at_zero, inst.label()


@pytest.mark.parametrize("dim", [9.5, "9", True, Fraction(9)],
                         ids=["float", "str", "bool", "fraction"])
def test_verify_all_refuses_a_dim_that_is_no_int(monkeypatch, dim):
    # before any work: the catalog is never enumerated
    monkeypatch.setattr(lnz.verify, "enumerate_catalog", None)
    wanted = f"^each dim must be an int, got {re.escape(repr(dim))}$"
    with pytest.raises(TypeError, match=wanted):
        verify_all(dims=(10, dim))


def test_verify_all_cli_with_one_sample_exits_zero(capsys):
    assert main(["verify-all", "--dims", "9", "--samples", "1"]) == 0
    assert "[PASS   ] catalog-consistency" in capsys.readouterr().out


def test_verify_all_cli_counts_a_repeated_sample_once(capsys):
    assert main(["verify-all", "--dims", "9", "--samples=1,1,2/2"]) == 0
    assert capsys.readouterr().out.startswith(
        "[PASS   ] catalog-consistency: 33 catalog instances - ")


def test_replay_leaving_normal_form_is_a_failure_record(monkeypatch):
    def e2_into_first_column(algebra, g):
        rows = completed_second_type_change(algebra, g).matrix.row_list()
        rows[1][0] += 1         # e'_1 gains e_2
        return BasisChange(MatrixQ.from_rows(rows))

    monkeypatch.setattr(lnz.verify, "completed_second_type_change",
                        e2_into_first_column)
    report = Report()
    _check_formula_oracle(report, (9, 10), 3, 0)
    _check_equivalence_spots(report)
    assert [(r.name, r.status) for r in report.records] == [
        ("formula-oracle", "fail"), ("equivalence-spots", "fail")]


def test_non_nilpotent_instance_is_a_failure_record(monkeypatch):
    first = next(iter(enumerate_catalog((9,))))
    # [e_2, e_1] = e_2: the series stops at span(e_2)
    bad = first._replace(tensor=StructureTensor(9, {(2, 1): [(2, 1)]}))
    monkeypatch.setattr(lnz.verify, "enumerate_catalog",
                        lambda dims, samples: [bad])
    report = verify_all(dims=(9,), oracle_trials=1)
    assert report.record("gradation-dims").status == "fail"
    nilindex = report.record("nilindex")
    assert nilindex.status == "fail"
    assert nilindex.detail == f"{bad.label()}: series dims [9, 1]"
    assert report.record("char-sequence").status == "fail"


def test_small_oracles_accept_a_non_nilpotent_instance():
    instances = list(islice(enumerate_catalog((9,)), 1))
    # [e_2, e_1] = e_2: series dims (9, 1), with the repeated term dropped
    instances[0] = instances[0]._replace(
        tensor=StructureTensor(9, {(2, 1): [(2, 1)]}))
    report = Report()
    _check_instances(report, instances)
    record = report.record("small-oracles")
    assert record.status == "pass", record.detail


def test_one_series_per_battery_instance(monkeypatch):
    # every check reads the series the pass holds: the estimates and the
    # series rechecks build none of their own
    built = []
    build = lnz.analysis._build_series

    def counted(algebra):
        built.append(algebra)
        return build(algebra)

    monkeypatch.setattr(lnz.analysis, "_build_series", counted)
    report = verify_all(dims=(9,), oracle_trials=3)
    instances = [inst.tensor for inst in enumerate_catalog((9,))]
    estimates = int(re.search(r"(\d+) sampled estimates",
                              report.record("char-sequence").subject)[1])
    rechecks = int(re.search(r"(\d+) series recomputations",
                             report.record("small-oracles").subject)[1])
    assert estimates > 0 and rechecks == len(instances)
    assert built == instances
    assert [r.name for r in report.records] == list(CRITERIA + FLAGGED)
    assert report.ok


def test_perturbed_coefficient_fails_catalog_consistency():
    instances = list(islice(enumerate_catalog((9,)), 2))
    inst = instances[1]
    assert inst.label() == "l(0,2)[lambda=0] n=9"
    table = dict(inst.tensor.table)
    assert table[(1, 4)] == ((5, -1),)
    table[(1, 4)] = ((5, Fraction(-2)),)        # [e_1, e_4] = -2 e_5
    instances[1] = inst._replace(tensor=StructureTensor(9, table))
    report = Report()
    _check_instances(report, instances)
    record = report.record("catalog-consistency")
    assert record.status == "fail"
    assert record.detail == ("nonzero residual at l(0,2)[lambda=0] n=9 "
                             "(1 violations)")


def test_e2_outside_the_annihilator_fails():
    inst = next(iter(enumerate_catalog((9,))))
    table = dict(inst.tensor.table)
    table[(1, 2)] = ((3, Fraction(1)),)         # [e_1, e_2] = e_3
    report = Report()
    _check_instances(report,
                     [inst._replace(tensor=StructureTensor(9, table))])
    record = report.record("right-annihilator")
    assert record.status == "fail"
    assert record.detail == "l(0,1) n=9: e_2 outside annihilator"


def test_empty_table_fails_non_lie():
    inst = next(iter(enumerate_catalog((9,))))
    report = Report()
    _check_instances(report, [inst._replace(tensor=StructureTensor(9, {}))])
    record = report.record("non-lie")
    assert record.status == "fail"
    assert record.detail == "l(0,1) n=9"


def test_wrong_spot_verdict_fails_equivalence_spots(monkeypatch):
    p = SecondTypeParams(0, (1, 0, 0, 1), -1)
    q = SecondTypeParams(0, (2, 0, 0, 4), -1)
    monkeypatch.setattr(lnz.verify, "_spot_pairs",
                        lambda: [(p, q, "distinct", "")])
    report = Report()
    _check_equivalence_spots(report)
    record = report.record("equivalence-spots")
    assert record.status == "fail"
    assert record.detail == (
        "(1, 0, 0, 1) vs (2, 0, 0, 4): got equivalent, wanted distinct")


def test_signature_moving_map_fails_nullity_invariance(monkeypatch):
    # sends every pair to the zero alphas: homogeneous, but it moves the
    # signature of any p with a nonzero invariant
    monkeypatch.setattr(lnz.verify, "param_map_case1",
                        lambda p, g: SecondTypeParams(0, (0, 0, 0, 0), -1))
    report = Report()
    _check_invariance(report, 20, 0)
    record = report.record("nullity-invariance")
    assert record.status == "fail"
    assert record.detail == ("no-alternating: signature moved at "
                             "(0, 1, 1, 1/2), change A1 = 2, A4 = -2, B4 = 1/2")


def test_slow_check_trips_its_time_gate(monkeypatch):
    readings = iter([100.0, 131.5])         # the check's start and end
    monkeypatch.setattr(lnz.verify, "time",
                        SimpleNamespace(monotonic=readings.__next__))
    report = Report()
    _check_formula_oracle(report, (9,), 1, 0)
    record = report.record("formula-oracle")
    assert record.status == "fail"
    assert record.detail == "took 31.5s, budget is 30s"


def test_instance_checks_trip_their_time_gates(monkeypatch):
    # each reading goes up by 1.0: 97 instances at n = 9, one residual
    # span and one C(e_1) span (with its estimate) each
    ticks = iter(range(10 ** 6))
    monkeypatch.setattr(lnz.verify, "time",
                        SimpleNamespace(monotonic=lambda: float(next(ticks))))
    report = verify_all(dims=(9,), oracle_trials=1)
    consistency = report.record("catalog-consistency")
    assert consistency.status == "fail"
    assert consistency.detail == "took 97.0s, budget is 60s"
    char_sequence = report.record("char-sequence")
    assert char_sequence.status == "fail"
    assert char_sequence.detail == "took 97.0s, budget is 30s"


def test_failure_report_text_is_pinned(monkeypatch):
    # the crafted failures of the tests above, in one battery
    instances = list(enumerate_catalog((9,)))
    first, perturbed = instances[0], dict(instances[1].tensor.table)
    perturbed[(1, 4)] = ((5, Fraction(-2)),)    # [e_1, e_4] = -2 e_5
    outside = dict(first.tensor.table)
    outside[(1, 2)] = ((3, Fraction(1)),)       # [e_1, e_2] = e_3
    bad = [instances[1]._replace(tensor=StructureTensor(9, perturbed)),
           first._replace(tensor=StructureTensor(9, outside)),
           first._replace(tensor=StructureTensor(9, {})),
           first._replace(tensor=StructureTensor(9, {(2, 1): [(2, 1)]}))]
    monkeypatch.setattr(lnz.verify, "enumerate_catalog",
                        lambda dims, samples: bad)
    report = verify_all(dims=(9,), oracle_trials=1)
    assert [r.name for r in report.records] == list(CRITERIA + FLAGGED)
    assert masked_sha256(report.to_text()) == (
        "8c9eaffbafc6ef82fb5c7bc4dc82b7c93b22d478c3c916d7d4d026c42e558cc0")


def test_verify_all_report_in_process(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert main(["verify-all", "--dims", "9", "--report", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.endswith("summary: 10 passed, 0 failed, 5 flagged\n")
    doc = json.loads(path.read_text())
    assert [c["name"] for c in doc["checks"]] == list(CRITERIA + FLAGGED)
    assert doc["summary"] == {"pass": 10, "fail": 0, "flagged": 5}


def test_battery_lets_go_of_each_instance(monkeypatch):
    # verify_all streams the catalog: when instance k is yielded, instance
    # k - 1 keeps its series and cells, and instance k - 2's tensor is gone
    refs, held, gone = [], [], []

    def streamed(dims, samples):
        for inst in enumerate_catalog(dims, samples):
            if refs:
                held.append({"_series", "_cells"} <= vars(refs[-1]()).keys())
            if len(refs) > 1:
                gone.append(refs[-2]() is None)
            refs.append(weakref.ref(inst.tensor))
            yield inst
    monkeypatch.setattr(lnz.verify, "enumerate_catalog", streamed)
    report = verify_all(dims=(9,), oracle_trials=1)
    assert report.ok
    assert len(gone) == len(refs) - 2 > 0
    assert all(held) and all(gone)
