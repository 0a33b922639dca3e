"""Catalog rows, normal-form builders, and enumeration."""

import hashlib
import json
from fractions import Fraction

import pytest

from lnz import (
    CATALOG_ROWS,
    DEFAULT_FREE_SAMPLES,
    CatalogInstance,
    CatalogRow,
    DimensionTooSmall,
    FirstTypeParams,
    InadmissibleParams,
    ParityViolation,
    SecondTypeParams,
    UnknownFamily,
    build_construction_stage,
    build_first_type,
    build_second_type,
    build_type1_branch_a,
    build_type1_branch_b,
    catalog_index_document,
    enumerate_catalog,
    find_second_type_row,
    leibniz_residual,
    row_by_id,
    rows_by_label,
    serialize,
)
from lnz.algebra import StructureTensor, _build_cells, _integer_cells
from lnz.catalog import _second_type_cells, _type1_cells


def cell(algebra, i, j):
    return dict(algebra.table.get((i, j), ()))


# ----------------------------------------------------------------------
# second-type normal form


def test_second_type_products():
    algebra = build_second_type(10, SecondTypeParams(1, (0, 0, 0, 1), -1))
    # chain against e_1, with the single gap at i = 3
    assert cell(algebra, 8, 1) == {9: 1}
    assert cell(algebra, 3, 1) == {}
    # alpha and beta columns
    assert cell(algebra, 5, 4) == {3: 1}
    assert cell(algebra, 1, 4) == {5: -1}
    assert cell(algebra, 1, 7) == {8: -1}
    # alternating tail: [e_i, e_{n+3-i}] lands on e_n with sign (-1)^i
    assert cell(algebra, 4, 9) == {10: 1}
    assert cell(algebra, 5, 8) == {10: -1}
    assert cell(algebra, 9, 4) == {10: -1}


def test_second_type_rejects_odd_dim_with_tail():
    with pytest.raises(ParityViolation):
        build_second_type(9, SecondTypeParams(1, (0, 0, 0, 0), -1))


def test_second_type_rejects_small_dim():
    with pytest.raises(DimensionTooSmall):
        build_second_type(8, SecondTypeParams(0, (0, 0, 0, 0), 0))


def test_beta_zero_forces_zero_alphas():
    with pytest.raises(InadmissibleParams):
        build_second_type(9, SecondTypeParams(0, (1, 0, 0, 0), 0))


def test_params_off_every_row_are_built():
    params = SecondTypeParams(0, (1, 1, 1, 1), -1)
    assert find_second_type_row(params) is None
    # the table is built as on a row, and is still Leibniz-closed
    loose = build_second_type(9, params)
    assert leibniz_residual(loose).violations == ()


def test_every_free_parameter_has_a_linear_slot():
    # find_second_type_row and build_first_type read each parameter's
    # value off a ("mul", c, name) slot with c != 0
    for row in CATALOG_ROWS:
        linear = {slot[2] for slot in row.slots
                  if slot[0] == "mul" and slot[1] != 0}
        for spec in row.params:
            assert spec.name in linear, (row.row_id, spec.name)


def test_find_row_round_trips_all_samples():
    for row in CATALOG_ROWS:
        if row.kind != "second":
            continue
        for values in row.sample_grid(DEFAULT_FREE_SAMPLES):
            params = row.make_params(values)
            hit = find_second_type_row(params)
            assert hit is not None, (row.row_id, values)
            found_row, found_values = hit
            assert found_row.slot_values(found_values) == params.alphas
            assert found_row.epsilon == row.epsilon
            assert found_row.beta == row.beta


def test_find_row_skips_lambda_zero_under_a_2_over_lambda_slot():
    # the tuple reads lambda = 0 off row 1,27, whose first slot is 2/lambda
    assert find_second_type_row(SecondTypeParams(1, (0, 0, 1, 0), -1)) is None


def test_find_row_specific_ids():
    assert find_second_type_row(
        SecondTypeParams(0, (0, 0, 0, 0), 0))[0].row_id == "0,1"
    assert find_second_type_row(
        SecondTypeParams(0, (2, 1, 1, 1), -1))[0].row_id == "0,10c"
    assert find_second_type_row(
        SecondTypeParams(1, (3, 1, Fraction(9, 4), 5), -1))[0].row_id == "1,11"


# ----------------------------------------------------------------------
# first-type branches


def test_branch_a_products():
    algebra = build_first_type(9, FirstTypeParams(34, (0, 2, 0)))
    assert cell(algebra, 6, 1) == {}          # chain gap sits at n-3
    assert cell(algebra, 5, 1) == {6: 1}
    assert cell(algebra, 1, 7) == {8: 2}
    assert cell(algebra, 2, 7) == {9: 2}
    assert cell(algebra, 7, 7) == {}          # beta2 = 0 here
    moved = build_type1_branch_a(9, 0, 2, 0)
    assert moved.table == algebra.table


def test_branch_b_products():
    algebra = build_first_type(9, FirstTypeParams(39, (0, 1, -1)))
    # printed subscript order is (alpha1, b2, a2)
    assert cell(algebra, 1, 7) == {8: -1}
    assert cell(algebra, 2, 7) == {9: -(1 + Fraction(-1))} or \
        cell(algebra, 2, 7) == {}
    assert cell(algebra, 1, 8) == {9: -1}
    assert cell(algebra, 7, 8) == {9: 1}
    assert cell(algebra, 8, 7) == {9: -1}
    moved = build_type1_branch_b(9, 0, -1, 1)
    assert moved.table == algebra.table


def test_first_type_rejects_bad_subscripts():
    with pytest.raises(InadmissibleParams, match="family 36"):
        build_first_type(9, FirstTypeParams(36, (1, 5, 0)))
    with pytest.raises(InadmissibleParams, match="does not match"):
        build_first_type(9, FirstTypeParams(36, (2, 0, 0)))
    with pytest.raises(UnknownFamily):
        FirstTypeParams(42, (0, 0, 0))
    with pytest.raises(InadmissibleParams):
        FirstTypeParams(34, (1, 2))
    with pytest.raises(DimensionTooSmall):
        build_first_type(8, FirstTypeParams(34, (0, 0, 0)))


def test_row_build_refuses_what_violations_rejects():
    # each excluded value and two values outside each finite set, the
    # other parameters at the row's first sample, at an admissible n
    refused = 0
    for row in CATALOG_ROWS:
        n = 10 if row.parity == "even" else 9
        base = row.sample_grid(DEFAULT_FREE_SAMPLES)[0]
        for at, spec in enumerate(row.params):
            bad = (spec.excluded if spec.finite is None
                   else (max(spec.finite) + 1, Fraction(1, 3)))
            for value in bad:
                values = base[:at] + (value,) + base[at + 1:]
                problems = row.violations(values, n)
                assert problems, (row.row_id, values)
                with pytest.raises(InadmissibleParams) as info:
                    row.build(n, values)
                assert all(p in str(info.value) for p in problems)
                refused += 1
    assert refused == 51
    with pytest.raises(InadmissibleParams, match=r"^lambda = 2 not admissible "
                       r"for row 1,2: lambda must lie in \{0, 1\}$"):
        row_by_id("1,2").build(10, (2,))
    with pytest.raises(InadmissibleParams, match=r"^lambda = 1 not admissible "
                       r"for row 0,9"):
        row_by_id("0,9").build(9, (1,))
    with pytest.raises(InadmissibleParams, match=r"^lambda = 0 not admissible "
                       r"for row 1,27: lambda must lie in any rational "
                       r"except -1, 0, 1$"):
        row_by_id("1,27").build(10, (0, 1))
    built = 0
    for inst in enumerate_catalog((9, 10)):
        assert inst.row.build(inst.n, inst.values).table == inst.tensor.table
        built += 1
    assert built == 439



@pytest.mark.parametrize("values", [(0, 1), (1, 1), (-1, "1/3"), (2,)])
def test_make_params_refuses_what_violations_rejects(values):
    # lambda = 0 would divide by zero in row 1,27's slot 2/lambda, lambda
    # = 1 and -1 are excluded, and the row takes two values; each raises
    # with the text of violations
    row = row_by_id("1,27")
    problems = row.violations(values)
    assert problems
    with pytest.raises(InadmissibleParams) as info:
        row.make_params(values)
    assert str(info.value) == "; ".join(problems)


def test_build_checks_its_values_once(monkeypatch):
    calls = []
    violations = CatalogRow.violations

    def spy(row, *args):
        calls.append(row.row_id)
        return violations(row, *args)
    monkeypatch.setattr(CatalogRow, "violations", spy)
    row_by_id("0,2").build(9, (1,))
    row_by_id("34").build(9, (2,))
    row_by_id("1,27").make_params((2, 1))
    assert calls == ["0,2", "34", "1,27"]
    with pytest.raises(InadmissibleParams, match=r"^lambda = 0 not admissible "
                       r"for row 1,27"):
        row_by_id("1,27").build(10, (0, 1))
    assert calls == ["0,2", "34", "1,27", "1,27"]

def test_first_type_is_leibniz_at_all_samples():
    for fam in (34, 35, 36, 37, 38, 39, 40, 41):
        row = row_by_id(str(fam))
        for values in row.sample_grid((Fraction(1, 2),)):
            params = row.make_params(values)
            algebra = build_first_type(9, params)
            assert leibniz_residual(algebra).violations == (), (fam, values)


def test_first_type_row_build_matches_build_first_type():
    # the row checks its values once and builds its branch table itself;
    # the public builder goes round the subscript and checks it again.
    # Every row names its table once, with the label its instance shows
    cases = 0
    for row in CATALOG_ROWS:
        for values in row.sample_grid(DEFAULT_FREE_SAMPLES):
            for n in (9, 10, 16):
                if row.parity == "even" and n % 2:
                    continue
                built = row.build(n, values)
                label = row.label(n, values)
                assert built.name == label \
                    == CatalogInstance(row, n, built, values).label()
                assert "Fraction(" not in label, label
                if row.kind != "first":
                    continue
                reference = build_first_type(n, row.make_params(values))
                assert (built.name, built.table) \
                    == (reference.name, reference.table), (row.row_id, n)
                cases += 1
    assert cases == 3 * 35
    assert row_by_id("34").build(9, (2,)).name == "l(34)[lambda=2] n=9"


def built_tables(n):
    """(tensor, laid cells) of every builder at n: each row over its sample
    grid, through ``CatalogRow.build`` and through its type's builder, then
    the second type with zero alphas at beta = 0 and -1 and both
    first-type branches at zero and nonzero parameters."""
    for row in CATALOG_ROWS:
        if row.parity == "even" and n % 2:
            continue
        for values in row.sample_grid(DEFAULT_FREE_SAMPLES):
            params = row.make_params(values)
            if row.kind == "second":
                laid = _second_type_cells(n, params)
                yield build_second_type(n, params), laid
            else:
                p = params.branch_params()
                laid = _type1_cells(n, params.branch, *p)[0]
                yield (build_type1_branch_a if params.branch == "a"
                       else build_type1_branch_b)(n, *p), laid
            yield row.build(n, values), laid
    for epsilon in (0, 1) if n % 2 == 0 else (0,):
        for beta in (0, -1):
            params = SecondTypeParams(epsilon, (0, 0, 0, 0), beta)
            yield build_second_type(n, params), _second_type_cells(n, params)
    for p in ((0, 0, 0), (0, -1, 0), (1, 0, -1), (Fraction(1, 2), 3, 0)):
        for branch, build in (("a", build_type1_branch_a),
                              ("b", build_type1_branch_b)):
            yield build(n, *p), _type1_cells(n, branch, *p)[0]


@pytest.mark.parametrize("n", [9, 10, 16, 40])
def test_builders_hand_the_tensor_its_table_and_integer_cells(n):
    # the builders drop zeros and sort themselves, without the constructor:
    # the table must be the constructor's normal form of the laid cells;
    # the integer cells are left to the first read, and equal those
    # _build_cells reads off the constructed tensor
    cases = 0
    for built, laid in built_tables(n):
        assert built.table == StructureTensor(n, laid).table, built.name
        assert all(type(c) is Fraction and c
                   for terms in built.table.values() for _, c in terms)
        assert "_cells" not in vars(built), built.name
        cells = _integer_cells(built)
        assert vars(built)["_cells"] is cells
        assert cells == _build_cells(StructureTensor(n, laid)), built.name
        assert all(type(c) is int for row in cells[1] for _, cell in row
                   for _, c in cell)
        cases += 1
    assert cases > 100


# ----------------------------------------------------------------------
# row lookup and validation


def test_row_lookup():
    assert row_by_id("0,6a").family_label == "0,6"
    assert {r.row_id for r in rows_by_label("0,6")} == {"0,6a", "0,6b"}
    assert len(rows_by_label("0,10")) == 4
    with pytest.raises(UnknownFamily):
        row_by_id("nope")
    with pytest.raises(UnknownFamily):
        rows_by_label("nope")


def test_row_violations_report():
    bad = row_by_id("0,8").violations([7])
    assert len(bad) == 1 and "{-2, -4/3}" in bad[0]
    assert row_by_id("0,2").violations([1]) == []
    parity = row_by_id("1,2").violations([0], 9)
    assert len(parity) == 1 and "even dimension" in parity[0]
    assert row_by_id("0,1").violations([3]) == [
        "row 0,1 takes 0 parameter(s) (none), got 1"]


# ----------------------------------------------------------------------
# enumeration and index


def test_enumeration_counts_and_parity():
    instances = list(enumerate_catalog((9, 10)))
    assert len(instances) == 439
    assert len(instances) >= 150
    labels = [inst.label() for inst in instances]
    assert len(set(labels)) == len(labels)
    for inst in instances:
        if inst.n % 2:
            assert inst.row.parity == "any"
            if inst.row.kind == "second":
                assert inst.row.epsilon == 0


def test_enumeration_respects_sample_choice():
    small = list(enumerate_catalog((9,), free_param_samples=(1,)))
    # finite rows keep their full sets, free rows collapse to one sample
    by_row = {}
    for inst in small:
        by_row.setdefault(inst.row.row_id, []).append(inst.values)
    assert by_row["0,2"] == [(0,), (1,)]
    assert by_row["0,3"] == [(1,)]
    assert "1,2" not in by_row
    with pytest.raises(InadmissibleParams):
        list(enumerate_catalog((9,), free_param_samples=()))


def test_repeated_samples_are_used_once():
    # each distinct value once, in first-seen order, however it is written
    def instances(samples):
        return [(inst.row.row_id, inst.values)
                for inst in enumerate_catalog((9,), samples)]

    once = instances((1,))
    assert len(once) == 33
    assert instances((1, 1)) == instances((1, "1", "2/2")) == once
    assert instances((2, 1, 2, Fraction(4, 2))) == instances((2, 1))
    assert instances((2, 1)) != instances((1, 2))
    assert instances(DEFAULT_FREE_SAMPLES * 2) == instances(
        DEFAULT_FREE_SAMPLES)
    assert row_by_id("0,7").sample_grid((1, 2, 1, 2)) == [
        (1, 1), (1, 2), (2, 1), (2, 2)]


def test_instance_labels():
    inst = next(iter(enumerate_catalog((9,))))
    assert inst.label() == "l(0,1) n=9"
    assert inst.tensor.name == "l(0,1) n=9"


def test_index_document():
    doc = json.loads(catalog_index_document())
    assert len(doc["rows"]) == 52
    by_id = {r["row_id"]: r for r in doc["rows"]}
    row = by_id["0,2"]
    assert row["kind"] == "second"
    assert row["epsilon"] == 0
    assert row["beta"] == "-1"
    assert row["params"] == [{"name": "lambda", "finite": ["0", "1"]}]
    first = by_id["34"]
    assert first["kind"] == "first"
    assert first["family_id"] == 34
    assert by_id["1,2"]["parity"] == "even"


def test_index_document_bytes_are_pinned():
    digest = hashlib.sha256(catalog_index_document().encode()).hexdigest()
    assert digest == (
        "8829d6e7be9d53ef48b642d49c4b410acd5526999c3ec1446ae1a5ee05aa03f2")


def test_violation_texts_are_pinned():
    # every row over its sample grid and three more values, at n = 8, 9, 10
    digest = hashlib.sha256()
    count = 0
    for row in CATALOG_ROWS:
        extra = [(Fraction(v),) * len(row.params) for v in ("3", "-1/2", "0")]
        grid = dict.fromkeys(row.sample_grid(DEFAULT_FREE_SAMPLES) + extra)
        for values in grid:
            for n in (8, 9, 10):
                digest.update(repr(row.violations(values, n)).encode())
                count += 1
    assert count == 1338
    assert digest.hexdigest() == (
        "61b2364227cac4e8b1a47697a5eab54ac61b673060ebc19e8ad2ef33b8dd4580")


# ----------------------------------------------------------------------
# mid-construction shape


def test_stage_with_trivial_tail_matches_normal_form():
    alphas = (1, 0, 0, 1)
    beta = Fraction(-1)
    betas = [0] * 9
    betas[1] = beta
    stage = build_construction_stage(9, alphas, betas)
    normal = build_second_type(9, SecondTypeParams(0, alphas, beta))
    assert stage.table == normal.table


def test_stage_satisfies_binomial_closed_form():
    # with betas[m] = 2^m the closed form's alternating sum over k of
    # C(j-4, k) 2^(i+k) is 2^i (1 - 2)^(j-4), so [e_i, e_j] is
    # (-1)^j 2^i e_(i+j-3) for 5 <= i <= n-3 and 6 <= j <= n+3-i
    n = 10
    betas = [Fraction(0)] + [Fraction(2) ** m for m in range(1, n)]
    stage = build_construction_stage(n, (0, 0, 0, 0), betas)
    cells = [(i, j) for i in range(5, n - 2) for j in range(6, n + 4 - i)]
    assert len(cells) == 6
    for i, j in cells:
        assert stage.terms(i, j) == ((i + j - 3, (-1) ** j * 2 ** i),)


@pytest.mark.parametrize("n, digest", [
    (9, "3c6de13216e5cce046349513a696a19bfcfc856c552241133419b1728094721c"),
    (12, "1a9ec5948cd546c47320fa69c97fd0055215239b1179affb9b362f19e4c1906e"),
])
def test_stage_bytes_are_pinned(n, digest):
    betas = [Fraction(0)] + [Fraction((-1) ** m * m, m % 3 + 1)
                             for m in range(1, n)]
    stage = build_construction_stage(n, (1, -2, Fraction(1, 2), 3), betas)
    assert hashlib.sha256(serialize(stage).encode()).hexdigest() == digest


def test_stage_rejects_bad_input():
    with pytest.raises(DimensionTooSmall):
        build_construction_stage(8, (0, 0, 0, 0), [0] * 8)
    with pytest.raises(InadmissibleParams):
        build_construction_stage(9, (0, 0, 0), [0] * 9)
    with pytest.raises(InadmissibleParams):
        build_construction_stage(9, (0, 0, 0, 0), [0] * 4)


def test_catalog_bytes_are_pinned():
    # sha256 over the serialized instances in enumeration order
    digest = hashlib.sha256()
    count = 0
    for inst in enumerate_catalog((9, 10, 16)):
        digest.update(serialize(inst.tensor).encode())
        count += 1
    assert count == 781
    assert digest.hexdigest() == (
        "9f4288bd7c1f38ebc663575680d232a9bf354cbeab3e2c42cb91911ac63496ff")
