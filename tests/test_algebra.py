import json
import random
from fractions import Fraction as Q
from math import comb

import pytest

from lnz import (BasisChange, DimensionMismatch, DocumentError, DuplicateEntry,
                 IndexOutOfRange, MatrixQ, SecondTypeParams, StructureTensor,
                 Vec, apply_change, bracket, build_construction_stage,
                 build_second_type, build_type1_branch_b, enumerate_catalog,
                 is_lie, leibniz_residual, parse, parse_change, parse_fraction,
                 right_mul_matrix, serialize, serialize_change)
from lnz.algebra import _build_cells
from test_kernel_oracles import catalog_algebra, signed_unimodular_rows

CHAIN = build_second_type(9, SecondTypeParams(0, (0, 0, 0, 0), 0))


def test_vec_basics():
    v = Vec.basis(4, 2)
    assert v.coords == (0, 1, 0, 0)
    w = 3 * v - v
    assert w.component(2) == 2 and w.component(1) == 0
    assert (v - v).is_zero()
    with pytest.raises(IndexOutOfRange):
        Vec.basis(4, 5)
    with pytest.raises(IndexOutOfRange):
        v.component(0)


def basis_bracket(algebra, i, j):
    n = algebra.dim
    return bracket(algebra, Vec.basis(n, i), Vec.basis(n, j))


def test_bracket_examples():
    assert basis_bracket(CHAIN, 1, 1).coords == Vec.basis(9, 2).coords
    assert basis_bracket(CHAIN, 3, 1).is_zero()
    assert basis_bracket(CHAIN, 9, 1).is_zero()
    assert CHAIN.terms(1, 1) == ((2, 1),)

    # the alpha4 slot feeds [e_5, e_4]
    A = build_second_type(10, SecondTypeParams(0, (0, 0, 0, 1), -1))
    assert basis_bracket(A, 5, 4).coords == Vec.basis(10, 3).coords
    assert basis_bracket(A, 1, 4).coords == (-Vec.basis(10, 5)).coords


def test_bracket_bilinear():
    rng = random.Random(2)
    A = build_second_type(9, SecondTypeParams(0, (1, 2, 0, Q(1, 2)), -1))
    for _ in range(50):
        x = Vec(tuple(Q(rng.randint(-3, 3)) for _ in range(9)))
        y = Vec(tuple(Q(rng.randint(-3, 3)) for _ in range(9)))
        z = Vec(tuple(Q(rng.randint(-3, 3)) for _ in range(9)))
        a, b = Q(rng.randint(-3, 3)), Q(rng.randint(-3, 3))
        left = bracket(A, a * x + b * y, z)
        right = a.numerator * bracket(A, x, z)  # a is integral here
        assert left.coords == (a * bracket(A, x, z) + b * bracket(A, y, z)).coords
        assert bracket(A, z, a * x + b * y).coords == \
            (a * bracket(A, z, x) + b * bracket(A, z, y)).coords
        del right


def test_residual_empty_on_catalog_and_identity_extends():
    rng = random.Random(8)
    A = build_type1_branch_b(9, Q(1), Q(-1, 2), Q(2))
    assert leibniz_residual(A).is_empty()
    # bilinear consequence of the basis-level identity
    for _ in range(20):
        x, y, z = (Vec(tuple(Q(rng.randint(-2, 2)) for _ in range(9)))
                   for _ in range(3))
        lhs = bracket(A, x, bracket(A, y, z))
        rhs = bracket(A, bracket(A, x, y), z) - bracket(A, bracket(A, x, z), y)
        assert lhs.coords == rhs.coords


def test_residual_reports_violations():
    # overwrite [e_1, e_4] with e_2: the identity breaks
    table = {key: terms for key, terms in CHAIN.entries()}
    table[(1, 4)] = ((2, Q(1)),)
    broken = StructureTensor(9, table)
    res = leibniz_residual(broken)
    assert not res.is_empty()
    triples = [(i, j, k) for i, j, k, _ in res.violations]
    assert len(triples) == len(set(triples))
    for i, j, k, vec in res.violations:
        direct = (bracket(broken, Vec.basis(9, i),
                          bracket(broken, Vec.basis(9, j), Vec.basis(9, k)))
                  - bracket(broken, bracket(broken, Vec.basis(9, i),
                                            Vec.basis(9, j)), Vec.basis(9, k))
                  + bracket(broken, bracket(broken, Vec.basis(9, i),
                                            Vec.basis(9, k)), Vec.basis(9, j)))
        assert vec.coords == direct.coords and not vec.is_zero()


def test_is_lie():
    assert not is_lie(CHAIN)            # [e_1, e_1] = e_2
    heisenberg = StructureTensor(3, {(1, 2): ((3, Q(1)),),
                                     (2, 1): ((3, Q(-1)),)})
    assert is_lie(heisenberg)
    assert leibniz_residual(heisenberg).is_empty()
    abelian = StructureTensor(4, {})
    assert is_lie(abelian)


def test_right_mul_matrix_two_chains():
    m = right_mul_matrix(CHAIN, Vec.basis(9, 1))
    # column i holds [e_i, e_1]
    for i, image in [(1, 2), (2, 3), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9)]:
        col = m.column(i - 1)
        assert col[image - 1] == 1 and sum(x != 0 for x in col) == 1
    assert all(x == 0 for x in m.column(2))
    assert all(x == 0 for x in m.column(8))


def test_chain_algebra_cell_count():
    # seven nonzero products: [e_i, e_1] for i in 1..8 except 3
    assert len(list(CHAIN.entries())) == 7


def binomial_closed_form_holds(algebra, betas):
    """The paper's alternating-binomial closed form of the derived products:
    for 5 <= i <= n-3 and 6 <= j <= n+3-i the cell [e_i, e_j] is exactly

        sum((-1)^k * C(j-4, k) * betas[i+k] for k in 0..j-4) * e_{i+j-3},

    with ``betas`` by 1-based subscript (betas[0] is not read)."""
    n = algebra.dim
    for i in range(5, n - 2):
        for j in range(6, n + 4 - i):
            coeff = sum((-1) ** k * comb(j - 4, k) * Q(betas[i + k])
                        for k in range(j - 3))
            if algebra.terms(i, j) != (((i + j - 3, coeff),) if coeff else ()):
                return False
    return True


def test_binomial_products():
    n = 10
    alphas = (Q(1), Q(-2), Q(0), Q(3))
    zero = [Q(0)] * n
    assert binomial_closed_form_holds(
        build_construction_stage(n, alphas, zero), zero)
    const = [Q(5)] * n
    assert binomial_closed_form_holds(
        build_construction_stage(n, alphas, const), const)
    linear = [Q(i) for i in range(n)]
    assert binomial_closed_form_holds(
        build_construction_stage(n, alphas, linear), linear)
    # constant and linear betas both telescope to zero on the checked
    # range, so use a geometric pattern to see an actual mismatch:
    # sum (-1)^k C(m,k) 2^(i+k) = 2^i (1-2)^m never vanishes
    powers = [Q(2) ** i for i in range(n)]
    stage = build_construction_stage(n, alphas, powers)
    assert binomial_closed_form_holds(stage, powers)
    assert not binomial_closed_form_holds(stage, zero)


def reference_text(algebra):
    """The canonical bytes as json's own indenting encoder writes them."""
    doc = {"dim": algebra.dim}
    if algebra.name is not None:
        doc["name"] = algebra.name
    doc["table"] = [{"i": i, "j": j, "terms": [[k, str(c)] for k, c in terms]}
                    for (i, j), terms in algebra.entries()]
    return json.dumps(doc, indent=2) + "\n"


def reference_change_text(change):
    return json.dumps({"dim": change.dim,
                       "matrix": [[str(x) for x in change.matrix.row(r)]
                                  for r in range(change.dim)]}, indent=2) + "\n"


# names that json.dumps has to escape: quote, backslash, control
# characters, non-ASCII letters and a character outside the BMP
AWKWARD_NAMES = ('say "hi"', "back\\slash", "two\nlines\ttab\x00\x1f",
                 "l(0,3)[λ=2] é", "\U0001d53c chain \U0001F600", "", None)


def test_serialize_parse_round_trip():
    rng = random.Random(4)
    negative = StructureTensor(4, {(1, 2): ((3, Q(-7, 3)), (4, Q(5, 12))),
                                   (2, 1): ((4, Q(-1, 2)),),
                                   (3, 3): ((4, Q(-123456789, 1000000007)),)})
    algebras = [CHAIN,
                build_second_type(10, SecondTypeParams(1, (0, 1, 0, Q(1, 2)), -1)),
                StructureTensor(3, {}, "abelian"), StructureTensor(1, {}),
                negative]
    algebras += [inst.tensor.renamed(inst.label())
                 for inst in enumerate_catalog((9, 10))]
    algebras += [negative.renamed(name) for name in AWKWARD_NAMES]
    assert len(algebras) > 400
    for algebra in algebras:
        text = serialize(algebra)
        assert text == reference_text(algebra)
        back = parse(text)
        assert back == algebra and back.name == algebra.name
        assert serialize(back) == text    # canonical bytes

    for n in (1, 2, 5, 9):
        rows = [[Q(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)]
                for _ in range(n)]
        for r in range(n):
            rows[r][r] += 100             # diagonally dominant, so invertible
        change = BasisChange(MatrixQ.from_rows(rows))
        text = serialize_change(change)
        assert text == reference_change_text(change)
        assert parse_change(text).matrix == change.matrix
    assert serialize_change(BasisChange(MatrixQ.identity(2))) == (
        '{\n  "dim": 2,\n  "matrix": [\n    [\n      "1",\n      "0"\n    ],\n'
        '    [\n      "0",\n      "1"\n    ]\n  ]\n}\n')


def test_parse_values_match_fraction():
    # each spelling gives the value Fraction gives it, zeros included
    # (a zero is dropped from the table, and coefficient() reads it as 0)
    raws = ["2/4", "-0", "-0/5", "007", "-3/6", "-007/21", "0", 3, -4, 0]
    doc = {"dim": 12, "table": [{"i": 1, "j": 1, "terms": [
        [k, raw] for k, raw in enumerate(raws + raws[:2], 1)]}]}
    algebra = parse(json.dumps(doc))
    for k, raw in enumerate(raws + raws[:2], 1):
        value = algebra.coefficient(1, 1, k)
        assert type(value) is Q and value == Q(raw)
    for raw in raws:
        if isinstance(raw, str):
            assert parse_fraction(raw) == Q(raw)
    change = parse_change(json.dumps(
        {"dim": 2, "matrix": [["2/4", "-0"], ["-0/5", "007"]]}))
    assert change.matrix.entries == (Q(1, 2), 0, 0, 7)


def test_bad_coefficient_after_repeats_names_its_own_place():
    terms = [[k, "1/2"] for k in (1, 2, 3)]
    doc = {"dim": 4, "table": [{"i": 1, "j": 1, "terms": terms},
                               {"i": 1, "j": 2, "terms": terms},
                               {"i": 2, "j": 1, "terms": terms + [[4, "1/2 "]]}]}
    with pytest.raises(DocumentError, match=r"^coefficient '1/2 ' at "
                       r"table\[2\]\.terms\[3\] is not"):
        parse(json.dumps(doc))
    doc["table"][2]["terms"][3][1] = 0.5
    with pytest.raises(DocumentError, match=r"^coefficient at "
                       r"table\[2\]\.terms\[3\] must be"):
        parse(json.dumps(doc))
    with pytest.raises(DocumentError, match=r"matrix\[1\]\[1\] is not"):
        parse_change('{"dim": 2, "matrix": [["1/2", "1/2"], ["1/2", "1/2."]]}')


def test_serialize_canonical_shape():
    doc = json.loads(serialize(StructureTensor(3, {}, None)))
    assert doc["dim"] == 3 and doc["table"] == []
    doc = json.loads(serialize(CHAIN))
    pairs = [(e["i"], e["j"]) for e in doc["table"]]
    assert pairs == sorted(pairs)
    assert len(pairs) == 7


def test_parse_rejects_bad_documents():
    with pytest.raises(SyntaxError):
        parse('{"dim": 0}')
    with pytest.raises(DocumentError):
        parse('{"dim": 2, "table": [], "extra": 1}')
    with pytest.raises(DocumentError):
        parse("[1, 2]")
    err = None
    try:
        parse('{"dim": 2,\n "table": broken}')
    except DocumentError as caught:
        err = caught
    assert err is not None and err.line == 2

    with pytest.raises(IndexError):
        parse('{"dim": 2, "table": [{"i": 1, "j": 3, "terms": [[1, "1"]]}]}')
    with pytest.raises(DuplicateEntry):
        parse('{"dim": 2, "table": ['
              '{"i": 1, "j": 1, "terms": [[2, "1"]]},'
              '{"i": 1, "j": 1, "terms": [[2, "2"]]}]}')
    with pytest.raises(DuplicateEntry):
        parse('{"dim": 2, "table": ['
              '{"i": 1, "j": 1, "terms": [[2, "1"], [2, "2"]]}]}')
    with pytest.raises(DocumentError):
        parse('{"dim": 2, "table": [{"i": 1, "j": 1, "terms": [[2, "0.5"]]}]}')
    with pytest.raises(DocumentError):
        parse('{"dim": 2, "table": [{"i": 1, "j": 1, "terms": [[2, 0.5]]}]}')


def test_parse_fraction():
    assert parse_fraction("-3/4") == Q(-3, 4)
    assert parse_fraction(" 2 ") == 2
    for bad in ("0.5", "1/0", "a", "1/-2", ""):
        with pytest.raises(DocumentError):
            parse_fraction(bad)


def test_zero_coefficients_dropped():
    a = StructureTensor(2, {(1, 1): ((2, Q(0)),)})
    assert list(a.entries()) == []
    assert a == StructureTensor(2, {})


@pytest.mark.parametrize("dim, table, message", [
    (2, {(3, 1): ((1, 1),)}, "table key (3,1) outside 1..2"),
    (2, {(1, 0): ((1, 1),)}, "table key (1,0) outside 1..2"),
    (2, {(1, 1): ((3, 1),)}, "target index 3 outside 1..2 at (1,1)"),
    (2, {(2, 1): ((0, 1),)}, "target index 0 outside 1..2 at (2,1)"),
])
def test_structure_tensor_rejects_indices_outside_the_basis(dim, table,
                                                           message):
    with pytest.raises(IndexOutOfRange) as info:
        StructureTensor(dim, table)
    assert str(info.value) == message


@pytest.mark.parametrize("k", [0, 10, 99])
def test_coefficient_rejects_a_target_outside_the_basis(k):
    algebra = StructureTensor(9, {(1, 1): [(2, 1)]})
    assert algebra.coefficient(1, 1, 2) == 1
    assert algebra.coefficient(1, 1, 9) == 0
    with pytest.raises(IndexOutOfRange) as info:
        algebra.coefficient(1, 1, k)
    assert str(info.value) == f"target index {k} outside 1..9"


@pytest.mark.parametrize("dim", [0, -1])
def test_structure_tensor_rejects_dimension_below_one(dim):
    with pytest.raises(DimensionMismatch) as info:
        StructureTensor(dim, {})
    assert str(info.value) == f"dimension must be >= 1, got {dim}"


def test_parse_table_matches_the_public_constructor():
    # zero coefficients, all-zero cells and unsorted targets: parse drops
    # and sorts them itself, and must agree with the constructor's normaliser
    rng = random.Random(13)
    spellings = ["0", "-0", "0/7", 0, "1", "-2/4", "3", -5, "7/3"]
    for _ in range(60):
        n = rng.randint(1, 7)
        raw, doc_table = {}, []
        keys = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        for i, j in rng.sample(keys, rng.randint(0, len(keys))):
            targets = rng.sample(range(1, n + 1), rng.randint(0, n))
            terms = [[k, rng.choice(spellings)] for k in targets]
            raw[(i, j)] = [(k, Q(c)) for k, c in terms]
            doc_table.append({"i": i, "j": j, "terms": terms})
        text = json.dumps({"dim": n, "table": doc_table})
        reference = StructureTensor(n, raw)
        algebra = parse(text)
        assert algebra.table == reference.table
        assert list(algebra.table) == list(reference.table)
        assert all(type(c) is Q for terms in algebra.table.values()
                   for _, c in terms)
        assert serialize(algebra) == serialize(reference)
    # a cell that is all zeros still counts as written once
    with pytest.raises(DuplicateEntry):
        parse('{"dim": 2, "table": ['
              '{"i": 1, "j": 1, "terms": [[2, "0"]]},'
              '{"i": 1, "j": 1, "terms": [[2, "1"]]}]}')


def test_parse_hands_the_tensor_its_integer_cells():
    # parse builds the integer cells with the table; they must be those
    # _build_cells reads off the same table, in the same order
    def seeded(text):
        algebra = parse(text)
        cells = vars(algebra)["_cells"]
        assert cells == _build_cells(algebra)
        assert all(type(c) is int for row in cells[1] for _, cell in row
                   for _, c in cell)
        return cells

    for inst in enumerate_catalog((9, 10, 16, 32)):
        seeded(serialize(inst.tensor))
    # round 0 of the dense benchmark documents at seeds 0-9
    for seed in range(10):
        rng = random.Random(f"lnz-bench/{seed}/0")
        for row_id, values, n in (("1,7", (1, 2, -1), 12), ("40", (1, 2), 10)):
            change = BasisChange(MatrixQ.from_rows(
                signed_unimodular_rows(rng, n)))
            seeded(serialize(apply_change(
                catalog_algebra(row_id, values, n), change)))
    # every spelling, repeated strings and equal values spelled apart
    rng = random.Random(17)
    spellings = ["0", "-0", "0/7", 0, "1", "-2/4", "1/2", "3", -5, "7/3",
                 "14/6"]
    for _ in range(60):
        n = rng.randint(1, 7)
        keys = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        table = [{"i": i, "j": j, "terms": [
                     [k, rng.choice(spellings)]
                     for k in rng.sample(range(1, n + 1), rng.randint(0, n))]}
                 for i, j in rng.sample(keys, rng.randint(0, len(keys)))]
        seeded(json.dumps({"dim": n, "table": table}))
    assert seeded('{"dim": 3, "table": []}') == (1, [[], [], []])


def test_renamed_does_not_alias_the_table():
    renamed = CHAIN.renamed("chain")
    assert renamed == CHAIN and renamed.name == "chain"
    assert renamed.table is not CHAIN.table
    assert renamed.table == CHAIN.table
