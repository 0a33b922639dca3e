"""Property oracles on random inputs, drawn by hypothesis when installed."""

import json
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from lnz import (BasisChange, Equivalent, GradedChange2,  # noqa: E402
                 MatrixQ, RestrictionViolated, SecondTypeParams,
                 StructureTensor, apply_change, build_second_type,
                 char_sequence_estimate, completed_second_type_change,
                 decide_equivalence, enumerate_catalog, extract_second_type,
                 lower_central_series, param_map_case1, param_map_case2,
                 parse, serialize)

SETTINGS = hypothesis.settings(deadline=None, database=None, derandomize=True)

fractions = st.fractions(max_denominator=10**12).filter(bool) | st.builds(
    Fraction, st.integers(-(10**40), 10**40).filter(bool), st.integers(1, 10**30))


@st.composite
def tables(draw):
    """A dimension, a name and the nonzero cells {(i, j): {k: Fraction}}."""
    n = draw(st.integers(1, 5))
    index = st.integers(1, n)
    cells = draw(st.dictionaries(st.tuples(index, index),
                                 st.dictionaries(index, fractions, min_size=1),
                                 max_size=n * n))
    return n, draw(st.none() | st.text(max_size=12)), cells


def reference_text(n, name, cells) -> str:
    """The canonical document as json's indenting encoder writes it."""
    doc = {"dim": n}
    if name is not None:
        doc["name"] = name
    doc["table"] = [{"i": i, "j": j,
                     "terms": [[k, str(c)] for k, c in sorted(cells[i, j].items())]}
                    for i, j in sorted(cells)]
    return json.dumps(doc, indent=2) + "\n"


@SETTINGS
@hypothesis.given(tables())
def test_documents_round_trip(drawn):
    n, name, cells = drawn
    algebra = StructureTensor(n, cells, name)
    text = reference_text(n, name, cells)
    assert serialize(algebra) == text
    back = parse(text)
    assert back == algebra and back.name == name
    assert serialize(back) == text


CATALOG = tuple(inst.tensor for inst in enumerate_catalog((9, 10, 16)))


@st.composite
def changes(draw, n, scales=st.just(1)):
    """Elementary row operations rows[i] += c * rows[j], then each row
    scaled by a nonzero draw of ``scales``: invertible, and integral with
    an integral inverse at the default scales, so coefficients stay small."""
    rows = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    index = st.integers(0, n - 1)
    for i, j, c in draw(st.lists(st.tuples(index, index, st.sampled_from((-1, 1))),
                                 max_size=2 * n)):
        if i != j:
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    rows = [[s * x for x in row]
            for s, row in zip(draw(st.lists(scales, min_size=n, max_size=n)), rows)]
    return BasisChange(MatrixQ.from_rows(rows))


@st.composite
def moved_catalog(draw):
    """A catalog algebra at n <= 16 and a unimodular change of its basis."""
    algebra = draw(st.sampled_from(CATALOG))
    return algebra, draw(changes(algebra.dim))


@SETTINGS
@hypothesis.given(moved_catalog())
def test_catalog_invariants_survive_unimodular_changes(drawn):
    algebra, change = drawn
    moved = apply_change(algebra, change)
    assert lower_central_series(moved).dims == lower_central_series(algebra).dims
    assert char_sequence_estimate(moved) == char_sequence_estimate(algebra)
    assert apply_change(moved, change.inverted()) == algebra


@SETTINGS
@hypothesis.given(tables(), st.data())
def test_change_then_inverse_is_the_identity(drawn, data):
    n, name, cells = drawn
    algebra = StructureTensor(n, cells, name)
    change = data.draw(changes(n, fractions))
    back = apply_change(apply_change(algebra, change), change.inverted())
    assert back == algebra and back.name == name


ALPHAS = st.sampled_from((Fraction(0), Fraction(1), Fraction(-1), Fraction(2),
                          Fraction(1, 2), Fraction(-1, 3)))
#: p/q with |p|, q <= 8: the heights of the epsilon = 0 grid at budget 8
HEIGHT_8 = st.builds(Fraction, st.integers(-8, 8), st.integers(1, 8))


@SETTINGS
@hypothesis.given(st.sampled_from((0, 1)), st.tuples(*[ALPHAS] * 4),
                  HEIGHT_8, HEIGHT_8.filter(bool))
def test_mapped_pairs_are_equivalent_with_a_replayed_witness(eps, alphas,
                                                             a4, b4):
    # at budget 1 the grid is only {-1, 0, 1}, so a witness of greater
    # height comes from the root path: the gcd roots and the s rule
    p = SecondTypeParams(eps, alphas, -1)
    try:
        q = (param_map_case2 if eps else param_map_case1)(
            p, GradedChange2(1, a4, b4))
    except RestrictionViolated:
        hypothesis.reject()
    out = decide_equivalence(p, q, budget=1)
    assert isinstance(out, Equivalent)
    algebra = build_second_type(10, p)
    change = completed_second_type_change(algebra, out.witness)
    assert extract_second_type(apply_change(algebra, change)) == q
