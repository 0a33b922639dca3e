"""Acceptance run: every verification criterion, one line per result.

The whole battery runs once per session; each test then pulls its record,
prints the formatted pass/fail line, and asserts on the recorded status.
Run with -s (or look at the captured stdout of a failure) to see the lines.
"""

import re

import pytest

import lnz.analysis
import lnz.verify
from lnz import (BasisChange, MatrixQ, StructureTensor,
                 completed_second_type_change, enumerate_catalog, verify_all)
from lnz.verify import (Report, _check_equivalence_spots,
                        _check_formula_oracle, _check_residuals,
                        _check_small_oracles)

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


def test_small_oracles_recompute_series_at_smallest_dimension():
    report = Report()
    _check_small_oracles(report, list(enumerate_catalog((10,))), seed=0)
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
    instances = list(enumerate_catalog((9,)))
    report = Report()
    _check_residuals(report, instances)
    assert report.record("catalog-consistency").status == "pass"
    dropped = instances[0].row.row_id
    report = Report()
    _check_residuals(report, [i for i in instances
                              if i.row.row_id != dropped])
    record = report.record("catalog-consistency")
    assert record.status == "fail"
    assert record.detail == f"no instances of rows {dropped}"


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
    instances = list(enumerate_catalog((9,)))
    # [e_2, e_1] = e_2: series dims (9, 1), with the repeated term dropped
    instances[0] = instances[0]._replace(
        tensor=StructureTensor(9, {(2, 1): [(2, 1)]}))
    report = Report()
    _check_small_oracles(report, instances, seed=0)
    record = report.record("small-oracles")
    assert record.status == "pass", record.detail


def test_one_series_per_battery_instance(monkeypatch):
    calls = []
    series = lnz.analysis.lower_central_series

    def counted(algebra):
        calls.append(algebra.dim)
        return series(algebra)

    for module in (lnz.analysis, lnz.verify):
        monkeypatch.setattr(module, "lower_central_series", counted)
    report = verify_all(dims=(9,), oracle_trials=3)
    instances = len(list(enumerate_catalog((9,))))
    estimates = int(re.search(r"(\d+) sampled estimates",
                              report.record("char-sequence").subject)[1])
    rechecks = int(re.search(r"(\d+) series recomputations",
                             report.record("small-oracles").subject)[1])
    assert estimates > 0 and rechecks == instances
    assert len(calls) == instances + estimates + rechecks
    assert [r.name for r in report.records] == list(CRITERIA + FLAGGED)
    assert report.ok
