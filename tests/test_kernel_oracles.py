"""The sparse integer elimination kernel against independent oracles.

sympy checks ranks, Jordan block sizes, resultants and rational roots.
A dense ``Fraction`` RREF span, kept here as the reference the kernel
must agree with, checks the central series, the gradation and the
sampled characteristic sequence on catalog algebras moved into a dense
basis, with and without denominators.  Public ``bracket`` over all basis
triples checks the Leibniz residual, on sparse and dense random tables
with entries large enough to fill its packed slots, one pair (j, k)
that fails at every left index, and a pair with j > k, which takes the
double brackets of (k, j), or with j = k failing at the slot bound or
alone, and over all pairs
of moved basis vectors checks ``apply_change``.  A dense Gauss-Jordan
kernel of the stacked functionals (``gauss_jordan_kernel`` of
``test_linalg``) checks ``right_annihilator``,
also on catalog rows moved into a dense basis and on entries of 30 to 40
bits, where the kernel refinement eliminates and divides by gcds.
On random rational tables, on tables whose terms meet one column
through several single-entry products (``c e_m``, some cancelled to
zero), and on catalog forms with a permuted basis, where the per-term
loop runs, the ``rref`` of the stacked brackets checks the central series
terms, the span of every listed product checks
``derived_span`` and which elements ``char_sequence_at`` refuses, and a
gradation in ``Fraction`` arithmetic on reduced echelon rows, kept here,
checks the integer-row gradation.  The
graded table is also read off the sections alone, through the inverse of
the matrix whose columns they are, on catalog instances at n = 9 to 32,
moved and unmoved, and on random strictly triangular tables.  Where a
section product has a coordinate below its degree, the central series is
no filtration and the gradation must refuse with ``NotFiltered``.
"""

import pickle
import random
from fractions import Fraction
from math import gcd

import pytest

from lnz import (BasisChange, ElementInDerivedSubalgebra, Gradation,
                 GradedChange2,
                 MatrixQ, NonNilpotent, NotFiltered, NotNilpotent, PolyQ,
                 SingularChange, StructureTensor, Vec, apply_change,
                 block_diag, bracket, build_first_type, build_second_type,
                 char_sequence_at, char_sequence_estimate,
                 completed_first_type_change,
                 completed_second_type_change, derived_span,
                 enumerate_catalog,
                 invert, jordan_block, leibniz_residual,
                 lower_central_series, natural_gradation,
                 nilpotent_block_sizes, rank, rational_roots, resultant,
                 right_annihilator, row_by_id, rref, serialize)
from lnz import analysis, linalg, transform
from lnz.algebra import _integer_cells
from lnz.linalg import _eliminate
from lnz.verify import _naive_series_dims
from test_linalg import gauss_jordan_kernel


def unimodular(rng, n):
    rows = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        a, b = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if a != b:
            c = rng.choice((-1, 1))
            rows[a] = [x + c * y for x, y in zip(rows[a], rows[b])]
    return MatrixQ.from_rows(rows)


def random_partition(rng, n):
    left, parts = n, []
    while left:
        parts.append(rng.randint(1, left))
        left -= parts[-1]
    return tuple(sorted(parts, reverse=True))


def sizes_from_ranks(ranks):
    """Block sizes from rank(N^0), rank(N^1), ..., ending at 0."""
    at_least = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))] + [0]
    sizes = []
    for k in range(len(ranks) - 1, 0, -1):
        sizes += [k] * (at_least[k - 1] - at_least[k])
    return tuple(sizes)


def test_block_sizes_and_ranks_match_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2012)
    for _ in range(25):
        n = rng.randint(1, 12)
        partition = random_partition(rng, n)
        u = unimodular(rng, n)
        m = u @ block_diag(*[jordan_block(k) for k in partition]) @ invert(u)
        s = sympy.Matrix(n, n, [sympy.Rational(x.numerator, x.denominator)
                                for x in m.entries])
        ranks, power = [n], sympy.eye(n)
        while ranks[-1]:
            power = power * s
            ranks.append(power.rank())
        assert sizes_from_ranks(ranks) == partition
        assert nilpotent_block_sizes(m) == partition
        assert rank(m) == ranks[1]
    for _ in range(60):
        r, c = rng.randint(0, 8), rng.randint(1, 8)
        entries = [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                   for _ in range(r * c)]
        s = sympy.Matrix(r, c, [sympy.Rational(x.numerator, x.denominator)
                                for x in entries])
        assert rank(MatrixQ(r, c, tuple(entries))) == s.rank()


def test_resultant_and_rational_roots_match_sympy():
    sympy = pytest.importorskip("sympy")
    s, t = sympy.symbols("s t")
    rng = random.Random(1993)

    def rand_poly(top):
        return PolyQ(tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                           for _ in range(rng.randint(0, top + 1))))

    def to_sympy(poly, x):
        return sum((sympy.Rational(c.numerator, c.denominator) * x ** k
                    for k, c in enumerate(poly.coeffs)), sympy.Integer(0))

    def from_sympy(expr):
        poly = sympy.Poly(expr, t)
        return PolyQ(tuple(Fraction(int(c.p), int(c.q))
                           for c in reversed(poly.all_coeffs())))

    # outer degrees 0..3 in s, constant and empty coefficient lists
    # included, sometimes with zero leading coefficients to strip
    for _ in range(300):
        p = [rand_poly(2) for _ in range(rng.randint(0, 4))]
        q = [rand_poly(2) for _ in range(rng.randint(0, 4))]
        if rng.random() < 0.2:
            p.append(PolyQ.zero())
        got = resultant(p, q)
        ps = sum((to_sympy(c, t) * s ** k for k, c in enumerate(p)),
                 sympy.Integer(0))
        qs = sum((to_sympy(c, t) * s ** k for k, c in enumerate(q)),
                 sympy.Integer(0))
        if ps == 0 or qs == 0:
            assert got == PolyQ.zero()
            continue
        # sympy answers res(q, p) when deg p < deg q, so ask it in degree
        # order and use res(p, q) = (-1)^(deg p * deg q) * res(q, p)
        dp, dq = sympy.degree(ps, s), sympy.degree(qs, s)
        want = (sympy.resultant(ps, qs, s) if dp >= dq
                else (-1) ** (dp * dq) * sympy.resultant(qs, ps, s))
        assert got == from_sympy(want), (p, q)

    # products of rational linear factors times a random cofactor
    for _ in range(200):
        poly = rand_poly(3)
        for _ in range(rng.randint(0, 3)):
            root = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            poly = poly * PolyQ.of(-root, 1)
        if poly.is_zero():
            with pytest.raises(ValueError):
                rational_roots(poly)
            continue
        roots = sympy.Poly(to_sympy(poly, t), t).ground_roots()
        expected = sorted(Fraction(int(r.p), int(r.q)) for r in roots)
        assert rational_roots(poly) == expected
        bound = rng.randint(1, 6)
        assert rational_roots(poly, bound=bound) == [
            r for r in expected if abs(r.numerator) <= bound
            and r.denominator <= bound]


# ----------------------------------------------------------------------
# dense reference


class RefSpan:
    """Dense Fraction RREF span: the reference the kernel replaced."""

    def __init__(self, n):
        self.n, self.rows, self.pivots = n, [], []

    def reduce(self, v):
        v = list(v)
        for row, p in zip(self.rows, self.pivots):
            if v[p]:
                f = v[p]
                v = [a - f * b for a, b in zip(v, row)]
        return v

    def add(self, v):
        v = self.reduce(v)
        p = next((j for j, x in enumerate(v) if x), None)
        if p is None:
            return
        v = [x / v[p] for x in v]
        self.rows = [[a - r[p] * b for a, b in zip(r, v)] if r[p] else r
                     for r in self.rows]
        at = sum(q < p for q in self.pivots)
        self.rows.insert(at, v)
        self.pivots.insert(at, p)


def ref_series(algebra):
    n = algebra.dim
    basis = [Vec.basis(n, i) for i in range(1, n + 1)]
    terms = [[tuple(v.coords) for v in basis]]
    while terms[-1]:
        span = RefSpan(n)
        for u in terms[-1]:
            for e in basis:
                span.add(bracket(algebra, Vec(u), e).coords)
        assert len(span.rows) < len(terms[-1])   # catalog algebras are nilpotent
        terms.append([tuple(r) for r in span.rows])
    return terms


def ref_estimate(algebra, budget, seed=0):
    """Same candidates as char_sequence_estimate, dense arithmetic."""
    n = algebra.dim
    derived = RefSpan(n)
    for (i, j) in algebra.table:
        derived.add(bracket(algebra, Vec.basis(n, i), Vec.basis(n, j)).coords)
    candidates = [Vec.basis(n, i) for i in range(1, n + 1)]
    rng = random.Random(seed)
    for _ in range(budget):
        candidates.append(Vec(tuple(Fraction(rng.randint(-3, 3),
                                             rng.randint(1, 3))
                                    for _ in range(n))))
    best = None
    for x in candidates:
        if x.is_zero() or not any(derived.reduce(x.coords)):
            continue
        # column i of the right multiplication holds [e_i, x]
        cols = [bracket(algebra, Vec.basis(n, i), x).coords
                for i in range(1, n + 1)]
        rows = [list(r) for r in zip(*cols)]
        ranks, power = [n], rows
        while ranks[-1]:
            span = RefSpan(n)
            for r in power:
                span.add(r)
            ranks.append(len(span.rows))
            assert ranks[-1] < ranks[-2]
            power = [[sum(a * c for a, c in zip(r, col) if a) for col in cols]
                     for r in span.rows]
        seq = sizes_from_ranks(ranks)
        best = seq if best is None else max(best, seq)
    return best


def ref_graded_table(algebra, terms):
    """The graded product in section coordinates: every pair of sections
    is bracketed densely and its product peeled, deepest section first."""
    pivots = [[next(c for c, x in enumerate(r) if x) for r in t] for t in terms]
    sections = [(d + 1, p, r) for d in range(len(terms) - 1)
                for r, p in zip(terms[d], pivots[d]) if p not in pivots[d + 1]]
    deepest_first = sorted(range(len(sections)), key=lambda s: -sections[s][0])
    table = {}
    for a, (da, _, ra) in enumerate(sections):
        for b, (db, _, rb) in enumerate(sections):
            residue = list(bracket(algebra, Vec(ra), Vec(rb)).coords)
            coords = {}
            for s in deepest_first:
                _, p, rs = sections[s]
                coords[s] = c = residue[p]
                residue = [x - c * y for x, y in zip(residue, rs)]
            assert not any(residue)
            cell = [(s + 1, coords[s]) for s in sorted(coords)
                    if coords[s] and sections[s][0] == da + db]
            if cell:
                table[(a + 1, b + 1)] = cell
    return StructureTensor(algebra.dim, table)


def dense_change(n, seed):
    """M0 * P: M0[i][j] = min(i, j) + 1 has determinant 1, P is a seeded
    signed permutation, and the moved table is dense."""
    rng = random.Random(seed)
    perm = rng.sample(range(n), n)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    return BasisChange(MatrixQ.from_rows(
        [[(min(i, perm[j]) + 1) * signs[j] for j in range(n)]
         for i in range(n)]))


def dense_change_with_denominators(n, seed):
    """``dense_change`` times diag(1, 1/2, ..., 1/n)."""
    diagonal = MatrixQ.from_rows([[Fraction(int(i == j), j + 1)
                                   for j in range(n)] for i in range(n)])
    return BasisChange(dense_change(n, seed).matrix @ diagonal)


def catalog_algebra(row_id, values, n):
    row = row_by_id(row_id)
    params = row.make_params(tuple(map(Fraction, values)))
    build = build_second_type if row.kind == "second" else build_first_type
    return build(n, params)


def check_against_reference(algebra, budget):
    n = algebra.dim
    assert leibniz_residual(algebra).is_empty()

    terms = ref_series(algebra)
    series = lower_central_series(algebra)
    assert series.nilpotent
    assert [[tuple(v.coords) for v in t] for t in series.terms] == terms

    pivots = [[next(c for c, x in enumerate(r) if x) for r in t] for t in terms]
    sections = [r for d in range(len(terms) - 1)
                for r, p in zip(terms[d], pivots[d]) if p not in pivots[d + 1]]
    grading = natural_gradation(algebra)
    assert grading.piece_dims == tuple(len(terms[d]) - len(terms[d + 1])
                                       for d in range(len(terms) - 1))
    assert [tuple(v.coords) for v in grading.sections] == sections
    assert grading.algebra == ref_graded_table(algebra, terms)

    assert char_sequence_estimate(algebra, budget=budget).parts \
        == ref_estimate(algebra, budget=budget) == (n - 3, 3)


@pytest.mark.parametrize("row_id, values", [("1,7", (1, 2, -1)),
                                            ("40", (1, 2))])
def test_kernel_matches_dense_reference_at_16(row_id, values):
    algebra = apply_change(catalog_algebra(row_id, values, 16),
                           dense_change(16, seed=7))
    assert len(algebra.table) > 100
    check_against_reference(algebra, budget=20)


@pytest.mark.parametrize("row_id, values", [("1,7", (1, 2, -1)),
                                            ("40", (1, 2))])
def test_kernel_matches_dense_reference_with_denominators(row_id, values):
    # the unimodular change keeps every coefficient integral; a diagonal
    # change with denominators makes the integer cells carry a scale > 1
    n = 12
    change = dense_change_with_denominators(n, seed=5)
    algebra = apply_change(catalog_algebra(row_id, values, n), change)
    assert len(algebra.table) > 100
    assert max(c.denominator for terms in algebra.table.values()
               for _, c in terms) > 1
    check_against_reference(algebra, budget=20)


def ref_residual(algebra):
    """The failing basis triples from public brackets, in the residual's
    visit order: j, then k, then i."""
    n = algebra.dim
    e = [None] + [Vec.basis(n, i) for i in range(1, n + 1)]

    def br(x, y):
        return bracket(algebra, x, y)
    out = []
    for j in range(1, n + 1):
        for k in range(1, n + 1):
            for i in range(1, n + 1):
                defect = (br(e[i], br(e[j], e[k])) - br(br(e[i], e[j]), e[k])
                          + br(br(e[i], e[k]), e[j]))
                if not defect.is_zero():
                    out.append((i, j, k, defect))
    return tuple(out)


def test_residual_matches_brackets_on_random_rational_tables():
    rng = random.Random(1987)
    failing = 0
    for _ in range(40):
        n = rng.randint(2, 6)
        table = {(i, j): [(k, Fraction(rng.randint(-4, 4), rng.randint(1, 5)))
                          for k in rng.sample(range(1, n + 1), 2)]
                 for i in range(1, n + 1) for j in range(1, n + 1)
                 if rng.random() < 0.3}
        algebra = StructureTensor(n, table)
        expected = ref_residual(algebra)
        assert leibniz_residual(algebra).violations == expected
        failing += bool(expected)
    assert failing >= 30


def test_residual_slots_hold_large_mixed_sign_entries():
    # dense tables with numerators of 30 to 40 bits of either sign over
    # denominators of 30 bits or more: the integer cells are large, a
    # negative coordinate borrows from the slot above it, and a negative
    # last coordinate leaves the packed sum negative
    rng = random.Random(1012)
    denominators = [rng.getrandbits(32) | (1 << 31) | 1 for _ in range(3)]
    negative_top = mixed = 0
    for n in (7, 7, 8, 9):
        table = {(i, j): [(k, Fraction(rng.choice((-1, 1))
                                       * rng.getrandbits(rng.randint(30, 40)),
                                       rng.choice(denominators)))
                          for k in rng.sample(range(1, n + 1), 3)]
                 for i in range(1, n + 1) for j in range(1, n + 1)}
        algebra = StructureTensor(n, table)
        expected = ref_residual(algebra)
        assert leibniz_residual(algebra).violations == expected
        assert len(expected) > n ** 3 // 2
        negative_top += sum(v.coords[-1] < 0 for *_, v in expected)
        mixed += sum(min(v.coords) < 0 < max(v.coords) for *_, v in expected)
    assert negative_top > 100 and mixed > 1000


def test_residual_defect_at_the_slot_bound():
    # every entry is +-M, signed so that all 3n products of coordinate t
    # of the triple (1, 2, 3) add up: the defect there is 3 n M^2, the
    # bound the slot width is taken from
    M = Fraction(2 ** 31 + 11, 7)
    for n in (4, 6):
        i, j, k, t = 1, 2, 3, n
        negative = ({(m, k, t) for m in range(1, n + 1)}
                    | {(t, j, t), (j, k, k), (i, t, t)})
        algebra = StructureTensor(n, {
            (a, b): [(c, -M if (a, b, c) in negative else M)
                     for c in range(1, n + 1)]
            for a in range(1, n + 1) for b in range(1, n + 1)})
        expected = ref_residual(algebra)
        assert leibniz_residual(algebra).violations == expected
        defect = next(v for a, b, c, v in expected if (a, b, c) == (i, j, k))
        assert defect.coords[t - 1] == 3 * n * M * M


def test_residual_on_the_smallest_tables_and_in_the_last_slot():
    assert leibniz_residual(StructureTensor(1, {})).violations == ()
    assert leibniz_residual(StructureTensor(5, {})).violations == ()
    # dim 1: [e_1, e_1] = c e_1 fails with defect c^2 e_1
    c = Fraction(-(2 ** 40) - 3, 7)
    one = StructureTensor(1, {(1, 1): ((1, c),)})
    assert leibniz_residual(one).violations == ref_residual(one) \
        == ((1, 1, 1, Vec((c * c,))),)
    # the chain [e_i, e_1] = e_(i+1) is Leibniz; a negative [e_1, e_4] breaks
    # only (1, 3, 1), and only in the last coordinate
    n = 5
    table = {(i, 1): ((i + 1, 1),) for i in range(1, n)}
    table[(1, 4)] = ((n, Fraction(-(2 ** 35) - 1, 3 ** 20)),)
    top = StructureTensor(n, table)
    expected = ref_residual(top)
    assert [(i, j, k) for i, j, k, _ in expected] == [(1, 3, 1)]
    assert [t for t, x in enumerate(expected[0][3], 1) if x] == [n]
    assert leibniz_residual(top).violations == expected


def test_residual_one_pair_failing_at_every_left_index():
    # every entry is +-M; the cells that (n, 2, 3) reads are signed so that
    # its coordinate 1 adds up to the bound 3 n M^2, the others at random.
    # Then (2, 3) fails at every left index, the last one included, and
    # some defects below it end in a negative coordinate n
    M = Fraction(2 ** 31 + 11, 7)
    n, i, j, k, t = 6, 6, 2, 3, 1
    negative = ({(m, k, t) for m in range(1, n + 1)}
                | {(t, j, t), (j, k, k), (i, t, t)})
    read = {(a, b, c) for m in range(1, n + 1) for a, b, c in
            ((j, k, m), (i, j, m), (i, k, m), (i, m, t), (m, k, t), (m, j, t))}
    rng = random.Random(6)
    algebra = StructureTensor(n, {
        (a, b): [(c, -M if (a, b, c) in negative
                  else M if (a, b, c) in read else rng.choice((-M, M)))
                 for c in range(1, n + 1)]
        for a in range(1, n + 1) for b in range(1, n + 1)})
    expected = ref_residual(algebra)
    assert leibniz_residual(algebra).violations == expected
    pair = [(a, v) for a, b, c, v in expected if (b, c) == (j, k)]
    assert [a for a, _ in pair] == list(range(1, n + 1))
    assert pair[-1][1].coords[t - 1] == 3 * n * M * M
    assert [a for a, v in pair if v.coords[-1] < 0] == [1, 5]
    assert min(min(v.coords) for _, v in pair) < 0 < max(pair[0][1].coords)


@pytest.mark.parametrize("i, j, k", [(1, 3, 2), (2, 5, 1), (1, 2, 2)])
def test_residual_mirrored_and_diagonal_pairs_at_their_bound(i, j, k):
    # a pair (j, k) with j > k takes the double brackets that the pair
    # (k, j) summed, negated, and a diagonal pair has none.  Every entry is
    # +-M, signed as in test_residual_defect_at_the_slot_bound so that the
    # products of coordinate t of (i, j, k) add up: to the slot bound
    # 3 n M^2 when j > k, and to n M^2, the first term alone, when j = k
    M = Fraction(2 ** 31 + 11, 7)
    for n in (6, 7):
        t = n
        negative = ({(m, k, t) for m in range(1, n + 1)}
                    | {(t, j, t), (j, k, k), (i, t, t)})
        algebra = StructureTensor(n, {
            (a, b): [(c, -M if (a, b, c) in negative else M)
                     for c in range(1, n + 1)]
            for a in range(1, n + 1) for b in range(1, n + 1)})
        expected = ref_residual(algebra)
        assert leibniz_residual(algebra).violations == expected
        defect = next(v for a, b, c, v in expected if (a, b, c) == (i, j, k))
        assert defect.coords[t - 1] == (3 if j > k else 1) * n * M * M


def test_residual_only_a_mirrored_or_a_diagonal_triple_fails():
    M = Fraction(-(2 ** 35) - 1, 3 ** 20)
    # in (1, 1, 2) the double bracket [[e_1, e_2], e_1] = M^2 e_4 cancels
    # [e_1, [e_1, e_2]] = -M^2 e_4; the pair (2, 1) takes it negated, and
    # there it is the whole defect: (1, 2, 1), with j > k, fails alone
    mirrored = StructureTensor(4, {(1, 2): [(3, M)], (3, 1): [(4, M)],
                                   (1, 3): [(4, -M)]})
    expected = ref_residual(mirrored)
    assert expected == ((1, 2, 1, Vec((0, 0, 0, -M * M))),)
    assert leibniz_residual(mirrored).violations == expected
    # [e_1, e_1] = M e_2, [e_1, e_2] = M e_3: only (1, 1, 1) fails
    diagonal = StructureTensor(3, {(1, 1): [(2, M)], (1, 2): [(3, M)]})
    expected = ref_residual(diagonal)
    assert expected == ((1, 1, 1, Vec((0, 0, M * M))),)
    assert leibniz_residual(diagonal).violations == expected


def ref_apply_change(algebra, change):
    """c'(i, j) = M^-1 [M e_i, M e_j], one dense bracket per pair, times
    M^-1 as the sum of its columns over the bracket's nonzero entries."""
    n = algebra.dim
    moved = [Vec(change.matrix.apply(Vec.basis(n, i).coords))
             for i in range(1, n + 1)]
    back = [change.inverse.column(k) for k in range(n)]
    table = {}
    for i, x in enumerate(moved, 1):
        for j, y in enumerate(moved, 1):
            image = [Fraction(0)] * n
            for w, column in zip(bracket(algebra, x, y).coords, back):
                if w:
                    image = [a + w * b for a, b in zip(image, column)]
            table[(i, j)] = [(k, c) for k, c in enumerate(image, 1) if c]
    return StructureTensor(n, table, algebra.name)


def random_rational_change(rng, n):
    while True:
        rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                 if rng.random() < 0.6 else 0 for _ in range(n)]
                for _ in range(n)]
        if rank(MatrixQ.from_rows(rows)) == n:
            return BasisChange(MatrixQ.from_rows(rows))


def apply_change_cases():
    rng = random.Random(1933)
    for _ in range(60):
        n = rng.randint(1, 8)
        density = rng.choice((0.1, 0.4, 0.9))
        table = {(i, j): [(k, Fraction(rng.randint(-5, 5), rng.randint(1, 6)))
                          for k in rng.sample(range(1, n + 1),
                                              rng.randint(1, n))]
                 for i in range(1, n + 1) for j in range(1, n + 1)
                 if rng.random() < density}
        yield StructureTensor(n, table, "random"), random_rational_change(rng, n)
    yield (catalog_algebra("1,7", (1, 2, -1), 12),
           dense_change_with_denominators(12, seed=5))
    yield StructureTensor(5), random_rational_change(rng, 5)
    yield StructureTensor(7), BasisChange(MatrixQ.identity(7))
    yield (StructureTensor(1, {(1, 1): [(1, Fraction(-3, 7))]}),
           BasisChange(MatrixQ.from_rows([[Fraction(2, 5)]])))
    # sparse graded changes of generators, completed to a full basis, the
    # identity and a dense rational change on catalog instances
    for n in (9, 10, 12):
        for inst in list(enumerate_catalog((n,), (2,)))[::10]:
            complete = (completed_second_type_change
                        if inst.row.kind == "second"
                        else completed_first_type_change)
            try:
                yield inst.tensor, complete(inst.tensor, GradedChange2(
                    Fraction(-2, 3), Fraction(1, 2), Fraction(5, 4)))
            except SingularChange:
                pass
            yield inst.tensor, BasisChange(MatrixQ.identity(n))
            if n == 9:
                yield inst.tensor, random_rational_change(rng, n)
    # large sparse tables, where the row index of the change skips most
    # pairs (i, j), and a dense table after a unimodular change
    for n in (32, 64):
        yield from graded_cases(n)
    yield (catalog_algebra("1,7", (1, 2, -1), 16),
           BasisChange(MatrixQ.from_rows(signed_unimodular_rows(rng, 16))))


def graded_cases(n):
    """Rows 0,2 (second type) and 34 (first type) at lambda = 1, each with
    the graded change (A1, A4, B4) = (2, 1, 3) completed to a full basis."""
    for row_id, complete in (("0,2", completed_second_type_change),
                             ("34", completed_first_type_change)):
        algebra = row_by_id(row_id).build(n, (Fraction(1),))
        yield algebra, complete(algebra, GradedChange2(2, 1, 3))


def signed_unimodular_rows(rng, n):
    """M0 * P: M0[i][j] = min(i, j) + 1, determinant 1, and P a seeded
    signed permutation, so every table it moves comes out dense."""
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    return [[(min(i, perm[j]) + 1) * signs[j] for j in range(n)]
            for i in range(n)]


def test_apply_change_matches_dense_brackets():
    with_denominators = catalog = identity = 0
    for algebra, change in apply_change_cases():
        catalog += algebra.dim >= 9
        identity += change.matrix == MatrixQ.identity(algebra.dim)
        got = apply_change(algebra, change)
        expected = ref_apply_change(algebra, change)
        assert got == expected
        assert serialize(got) == serialize(expected)
        with_denominators += any(c.denominator > 1 for terms in got.table.values()
                                 for _, c in terms)
    assert with_denominators >= 50 and catalog >= 40 and identity >= 20


def test_apply_change_combines_once_per_table_cell(monkeypatch):
    # one pull-back through the inverse per nonzero [e'_i, e_b] and none
    # per pair (i, j), which would make n^2 + n + cells calls
    combined = []
    public = transform._combine
    monkeypatch.setattr(transform, "_combine", lambda row, rows: (
        combined.append(row) or public(row, rows)))
    cells = []
    for algebra, change in graded_cases(64):
        combined.clear()
        apply_change(algebra, change)
        cells.append(len(algebra.table))
        assert len(combined) <= len(algebra.table)
    assert cells == [124, 64]


def ref_right_annihilator(algebra):
    """One dense Fraction functional sum_j c^k_{i,j} x_j per (i, k), and
    the Gauss-Jordan kernel of the stacked matrix, which shares no code
    with ``kernel_basis``."""
    n = algebra.dim
    rows = {}
    for (i, j), terms in algebra.table.items():
        for k, c in terms:
            rows.setdefault((i, k), [Fraction(0)] * n)[j - 1] = c
    return tuple(Vec(v) for v in gauss_jordan_kernel(list(rows.values()), n))


def annihilator_cases():
    rng = random.Random(1961)
    for t in range(48):
        n = rng.randint(2, 8)
        # every other table has few left indices and targets, so few
        # dense functionals and a kernel with fractional coordinates
        few = rng.sample(range(1, n + 1), min(n, 2)) if t % 2 else None
        density = 0.8 if few else rng.choice((0.1, 0.3, 0.6))
        table = {(i, j): [(k, Fraction(rng.randint(-5, 5), rng.randint(1, 6)))
                          for k in rng.sample(few or range(1, n + 1),
                                              rng.randint(1, 2))]
                 for i in (few or range(1, n + 1)) for j in range(1, n + 1)
                 if rng.random() < density}
        yield StructureTensor(n, table, "random")
    yield StructureTensor(6)
    yield StructureTensor(1)
    yield StructureTensor(1, {(1, 1): [(1, Fraction(-3, 7))]})
    for inst in enumerate_catalog((9,)):
        yield inst.tensor


def test_right_annihilator_matches_dense_kernel():
    cases = proper = fractional = 0
    for algebra in annihilator_cases():
        got = right_annihilator(algebra)
        assert got == ref_right_annihilator(algebra)
        assert all(type(v) is Vec for v in got)
        cases += 1
        proper += 0 < len(got) < algebra.dim
        fractional += any(x.denominator > 1 for v in got for x in v.coords)
    assert cases == 48 + 3 + 97
    assert proper >= 110 and fractional >= 12


def refinement_cases():
    # rows 1,7 (n = 12) and 40 (n = 10) moved by dense signed unimodular
    # changes; then tables with numerators of 30 to 40 bits of either sign
    # over 32-bit denominators, on a few left indices and targets, so that
    # a few dense functionals leave a large kernel whose entries grow
    for seed in range(3):
        for row_id, values, n in (("1,7", (1, 2, -1), 12), ("40", (1, 2), 10)):
            yield apply_change(catalog_algebra(row_id, values, n),
                               dense_change(n, seed))
    rng = random.Random(1930)
    denominators = [rng.getrandbits(32) | (1 << 31) | 1 for _ in range(3)]
    for n in (5, 8, 11):
        for few in (1, 2, 3):
            lefts = rng.sample(range(1, n + 1), few)
            targets = rng.sample(range(1, n + 1), few)
            yield StructureTensor(n, {
                (i, j): [(k, Fraction(rng.choice((-1, 1))
                                      * rng.getrandbits(rng.randint(30, 40)),
                                      rng.choice(denominators)))
                         for k in targets]
                for i in lefts for j in range(1, n + 1) if rng.random() < 0.8})


def test_right_annihilator_refinement_on_dense_and_large_entries(monkeypatch):
    # every refinement step reduces a kernel vector against the pivot in
    # the sentinel column -1; count the steps, and those whose result the
    # gcd division shortens
    real, steps, divided = linalg._reduce, [], []

    def spy(ech, row):
        if -1 in ech:
            steps.append(row)
            divided.append(gcd(*_eliminate(row, ech[-1], -1)[1].values()) > 1)
        return real(ech, row)
    monkeypatch.setattr(linalg, "_reduce", spy)
    cases = proper = fractional = 0
    for algebra in refinement_cases():
        got = right_annihilator(algebra)
        assert got == ref_right_annihilator(algebra)
        cases += 1
        proper += 0 < len(got) < algebra.dim
        fractional += any(x.denominator > 1 for v in got for x in v.coords)
    assert cases == 6 + 9
    assert proper == 13 and fractional == 9
    assert len(steps) >= 250 and sum(divided) >= 100


def ref_rref_series(algebra):
    """Each term is the ``rref`` of the stacked brackets [u, e_j] of the
    previous term's rows, until it is zero or stops shrinking.  Returns
    the terms as tuples of coordinate tuples and the nilpotent flag."""
    n = algebra.dim
    basis = [Vec.basis(n, i) for i in range(1, n + 1)]
    terms = [tuple(v.coords for v in basis)]
    while terms[-1]:
        stacked = [bracket(algebra, Vec(u), e).coords
                   for u in terms[-1] for e in basis]
        reduced, pivots = rref(MatrixQ.from_rows(stacked))
        if len(pivots) == len(terms[-1]):
            return terms, False
        terms.append(tuple(reduced.row(r) for r in range(len(pivots))))
    return terms, True


def ref_fraction_gradation(algebra, terms):
    """The gradation on reduced echelon ``Fraction`` rows: the sections are
    the rows of L^d whose pivot is no pivot of L^(d+1), and each product of
    two sections is peeled, deepest section first, in ``Fraction``
    arithmetic.  Returns the piece dims, the sections and the graded table.
    """
    n = algebra.dim
    spans = [[{c: x for c, x in enumerate(v) if x} for v in term]
             for term in terms]
    sections, rows, degree_of = [], [], []
    for d in range(1, len(spans)):
        later = {min(row) for row in spans[d]}
        for v, row in zip(terms[d - 1], spans[d - 1]):
            if min(row) not in later:
                sections.append(v)
                rows.append(row)
                degree_of.append(d)
    m, top = len(rows), len(spans) - 1
    piece_dims = tuple(degree_of.count(d) for d in range(1, top + 1))
    start = [sum(piece_dims[:d]) for d in range(top + 1)]
    pivot_of = [min(row) for row in rows]
    by_left = {}
    for (i, j), cell in algebra.table.items():
        by_left.setdefault(i - 1, []).append((j - 1, cell))
    table = {}
    for a in range(start[top - 1]):
        right = {}                              # [s_a, e_j] by j
        for i, x in rows[a].items():
            for j, cell in by_left.get(i, ()):
                acc = right.setdefault(j, {})
                for k, c in cell:
                    acc[k - 1] = acc.get(k - 1, 0) + x * c
        for b in range(start[top - degree_of[a]]):
            target = degree_of[a] + degree_of[b]
            residue = {}
            for j, y in rows[b].items():
                for k, v in right.get(j, {}).items():
                    residue[k] = residue.get(k, 0) + y * v
            for s in range(m - 1, start[target] - 1, -1):
                c = residue.get(pivot_of[s])
                if c:
                    for t, x in rows[s].items():
                        residue[t] = residue.get(t, 0) - c * x
            cell = [(s + 1, residue[pivot_of[s]])
                    for s in range(start[target - 1], start[target])
                    if residue.get(pivot_of[s])]
            if cell:
                table[(a + 1, b + 1)] = cell
    graded = StructureTensor(n, table, f"gr({algebra.name})")
    return piece_dims, sections, graded


def random_rational_table(rng, n, triangular):
    """Cells with denominators; a strictly triangular table puts [e_i, e_j]
    in the span of the e_k with k > max(i, j), so it is nilpotent."""
    density = rng.choice((0.2, 0.5, 0.9))
    table = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            low = max(i, j) + 1 if triangular else 1
            if low <= n and rng.random() < density:
                targets = rng.sample(range(low, n + 1),
                                     rng.randint(1, min(3, n + 1 - low)))
                table[(i, j)] = [(k, Fraction(rng.randint(-5, 5),
                                              rng.randint(1, 6)))
                                 for k in targets]
    return StructureTensor(n, table, "random")


def random_filtered_table(rng, n):
    """Cells with denominators where [e_i, e_1] has a nonzero e_(i+1) term
    and every [e_i, e_j] lies in the span of the e_k with k >= i + j.  So
    L^k is spanned by e_k .. e_n and [L^i, L^j] lies in L^(i+j): the
    central series is a filtration, though the table need not be Leibniz.
    """
    density = rng.choice((0.2, 0.5, 0.9))
    table = {}
    for i in range(1, n):
        for j in range(1, n + 1 - i):
            if j > 1 and rng.random() >= density:
                continue
            targets = rng.sample(range(i + j, n + 1),
                                 rng.randint(1, min(3, n + 1 - i - j)))
            cell = {k: Fraction(rng.randint(-5, 5), rng.randint(1, 6))
                    for k in targets}
            if j == 1:
                cell[i + 1] = Fraction(rng.choice((-3, -1, 1, 2, 5)),
                                       rng.randint(1, 6))
            table[(i, j)] = list(cell.items())
    return StructureTensor(n, table, "random")


def ref_degrees(piece_dims):
    return [d for d, size in enumerate(piece_dims, 1) for _ in range(size)]


def series_gradation_cases():
    """Random rational tables, then tables whose series is a filtration,
    each plain or moved by a rational change (so that the terms are no
    coordinate subspaces)."""
    rng = random.Random(1999)
    for t in range(240):
        # strictly triangular, triangular moved, or a general table
        algebra = random_rational_table(rng, rng.randint(1, 8), t % 3 != 2)
        if t % 3 == 1:
            algebra = apply_change(algebra,
                                   random_rational_change(rng, algebra.dim))
        yield algebra
    rng = random.Random(2999)
    for t in range(120):
        algebra = random_filtered_table(rng, rng.randint(2, 8))
        yield (apply_change(algebra, random_rational_change(rng, algebra.dim))
               if t % 3 else algebra)


def test_integer_series_and_gradation_match_fraction_references():
    nilpotent = fractional = lead_products = refused = 0
    for algebra in series_gradation_cases():
        terms, flag = ref_rref_series(algebra)
        series = lower_central_series(algebra)
        assert [tuple(v.coords for v in term) for term in series.terms] \
            == terms
        assert series.nilpotent == flag
        assert series.dims == tuple(len(term) for term in terms)
        assert len(series) == len(terms)
        if not flag:
            with pytest.raises(NonNilpotent):
                natural_gradation(algebra)
            continue
        piece_dims, sections, graded = ref_fraction_gradation(algebra, terms)
        _, lower = ref_section_gradation(algebra, sections,
                                         ref_degrees(piece_dims))
        if lower:
            with pytest.raises(NotFiltered) as info:
                natural_gradation(algebra)
            assert info.value.pair == lower[0]
            refused += 1
            continue
        got = natural_gradation(algebra)
        assert got.piece_dims == piece_dims
        assert [v.coords for v in got.sections] == sections
        assert got.algebra == graded
        assert serialize(got.algebra) == serialize(graded)
        nilpotent += 1
        # a section with a fractional coordinate has an integer row whose
        # pivot entry is not 1
        deep = {s + 1 for s, v in enumerate(sections)
                if any(x.denominator > 1 for x in v)}
        fractional += bool(deep)
        lead_products += any(a in deep or b in deep for a, b in graded.table)
    assert nilpotent >= 150 and fractional >= 50 and lead_products >= 30
    assert refused >= 100


def lazy_gradation_cases():
    """The 439 catalog instances at n = 9 and 10, then 50 random tables
    whose series is a filtration and whose gradation exists, half of them
    moved by a rational change."""
    yield from (inst.tensor for inst in enumerate_catalog((9, 10)))
    rng, found = random.Random("lazy-gradation"), 0
    while found < 50:
        algebra = random_filtered_table(rng, rng.randint(2, 8))
        if found % 2:
            algebra = apply_change(algebra,
                                   random_rational_change(rng, algebra.dim))
        try:
            natural_gradation(algebra.renamed(algebra.name))
        except NotFiltered:
            continue
        found += 1
        yield algebra


def test_gradation_views_equal_eager_ones():
    # the sections and the graded table, whether read first, compared
    # first, hashed first or pickled first, equal those of a gradation
    # built eagerly from Fraction references
    cases = 0
    for algebra in lazy_gradation_cases():
        terms, _ = ref_rref_series(algebra)
        piece_dims, sections, graded = ref_fraction_gradation(algebra, terms)
        eager = Gradation(piece_dims, tuple(Vec(v) for v in sections), graded)
        fresh = [natural_gradation(algebra.renamed(algebra.name))
                 for _ in range(4)]
        read, compared, hashed, pickled = fresh
        assert read.sections == eager.sections
        assert read.algebra == eager.algebra
        assert serialize(read.algebra) == serialize(eager.algebra)
        assert read.degrees == eager.degrees == tuple(ref_degrees(piece_dims))
        assert compared == eager and eager == compared
        assert hash(hashed) == hash(eager)
        for got in (pickle.loads(pickle.dumps(pickled)),
                    pickle.loads(pickle.dumps(read))):
            assert got == eager and hash(got) == hash(eager)
            assert serialize(got.algebra) == serialize(eager.algebra)
        assert pickled == eager
        cases += 1
    assert cases == 489


def ref_derived(algebra):
    """[L, L] as the dense reference span of every product the table lists
    (``StructureTensor.terms``), without the central series."""
    n = algebra.dim
    span = RefSpan(n)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            v = [Fraction(0)] * n
            for k, c in algebra.terms(i, j):
                v[k - 1] = c
            span.add(v)
    return span


def test_derived_span_matches_all_products():
    rng = random.Random(3999)
    whole = proper = inside = 0
    for algebra in series_gradation_cases():
        n = algebra.dim
        ref = ref_derived(algebra)
        assert derived_span(algebra).basis() == tuple(map(tuple, ref.rows))
        whole += len(ref.rows) == n
        proper += 0 < len(ref.rows) < n
        # char_sequence_at refuses x exactly when x lies in [L, L]
        probes = [Vec.basis(n, i).coords for i in range(1, n + 1)]
        if ref.rows:
            c = [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                 for _ in ref.rows]
            probes.append(tuple(sum(x * row[t] for x, row in zip(c, ref.rows))
                                for t in range(n)))
        for x in probes:
            inside_ref = not any(ref.reduce(x))
            inside += inside_ref
            try:
                char_sequence_at(algebra, Vec(x))
                refused = False
            except ElementInDerivedSubalgebra:
                refused = True
            except NotNilpotent:
                refused = False
            assert refused == inside_ref
    assert whole >= 40 and proper >= 200 and inside >= 1000


def test_series_drops_a_cancelled_product():
    # [e_2 + e_3, e_1] = e_4 - e_4 cancels: L^2 = <e_2 + e_3, e_4>, L^3 = 0
    algebra = StructureTensor(4, {(1, 1): ((2, 1), (3, 1)), (2, 1): ((4, 1),),
                                  (3, 1): ((4, -1),)})
    assert lower_central_series(algebra).rows[1] == ({1: 1, 2: 1}, {3: 1})
    assert list(lower_central_series(algebra).dims) \
        == _naive_series_dims(algebra) == [4, 2, 0]


def ref_inverse_columns(columns):
    """The columns of S^-1, as (row, entry) pairs without zeros, for S
    with the given columns, by dense Gauss-Jordan on [S | I] in
    ``Fraction`` arithmetic."""
    n = len(columns)
    a = [[Fraction(columns[c][r]) for c in range(n)]
         + [Fraction(int(r == c)) for c in range(n)] for r in range(n)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if a[r][c])
        a[c], a[pivot] = a[pivot], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [[(r, a[r][n + c]) for r in range(n) if a[r][n + c]]
            for c in range(n)]


def ref_sections(terms):
    """The rows of each series term whose pivot is no pivot of the next
    term, degree by degree, and the degree of each."""
    def pivot(v):
        return next(c for c, x in enumerate(v) if x)
    found = [(v, d) for d in range(1, len(terms)) for v in terms[d - 1]
             if pivot(v) not in {pivot(w) for w in terms[d]}]
    return [v for v, _ in found], [d for _, d in found]


def ref_section_gradation(algebra, sections, degrees):
    """The graded table from the sections (coordinate tuples) alone:
    [s_a, s_b] written in section coordinates, through the inverse of the
    matrix whose columns are the sections, keeps its coordinates of degree
    d_a + d_b.  Also returns the pairs (a, b), in order, with a nonzero
    coordinate of lower degree, which a Leibniz algebra has none of, as
    [s_a, s_b] lies in L^(d_a + d_b) there; a random table need not have
    that, and then the gradation must refuse."""
    inverse = ref_inverse_columns(sections)
    table, lower = {}, []
    for a, (x, da) in enumerate(zip(sections, degrees), 1):
        for b, (y, db) in enumerate(zip(sections, degrees), 1):
            coords = [Fraction(0)] * algebra.dim
            for k, w in enumerate(bracket(algebra, Vec(x), Vec(y)).coords):
                for s, z in inverse[k] if w else ():
                    coords[s] += w * z
            if any(c for c, d in zip(coords, degrees) if d < da + db):
                lower.append((a, b))
            cell = tuple((s, c) for s, (c, d)
                         in enumerate(zip(coords, degrees), 1)
                         if c and d == da + db)
            if cell:
                table[(a, b)] = cell
    return table, lower


def sparse_rational_change(rng, n):
    """The identity with about n / 3 entries overwritten by small
    rationals, drawn again until it is invertible."""
    while True:
        rows = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        for _ in range(n // 3 + 1):
            rows[rng.randrange(n)][rng.randrange(n)] = Fraction(
                rng.randint(-3, 3), rng.randint(1, 4))
        if rank(MatrixQ.from_rows(rows)) == n:
            return BasisChange(MatrixQ.from_rows(rows))


def gradation_oracle_cases():
    """Catalog instances, each also moved by a sparse rational change and
    a few by a dense one, flagged Leibniz, then random strictly triangular
    tables, which are nilpotent but need not be Leibniz, and random tables
    whose series is a filtration, some moved by a sparse rational change."""
    rng = random.Random(2024)
    for n, step in ((9, 2), (10, 2), (16, 4), (32, 16)):
        for t, inst in enumerate(list(enumerate_catalog((n,), (2,)))[::step]):
            yield inst.tensor, True
            yield apply_change(inst.tensor,
                               sparse_rational_change(rng, n)), True
            if n <= 10 and t % 4 == 0:
                yield apply_change(inst.tensor,
                                   random_rational_change(rng, n)), True
    for t in range(240):
        yield random_rational_table(rng, rng.randint(1, 10), True).renamed(
            "random" if t % 2 else None), False
    for t in range(200):
        algebra = random_filtered_table(rng, rng.randint(2, 10))
        if t % 3:
            algebra = apply_change(algebra,
                                   sparse_rational_change(rng, algebra.dim))
        yield algebra.renamed("filtered" if t % 2 else None), False


def test_gradation_matches_section_coordinates():
    cases, named, dims, moved, refused = 0, 0, set(), 0, 0
    for algebra, leibniz in gradation_oracle_cases():
        # the sections the gradation must pick, from its series terms
        sections, degrees = ref_sections([
            tuple(v.coords for v in term)
            for term in lower_central_series(algebra).terms])
        table, lower = ref_section_gradation(algebra, sections, degrees)
        if lower:
            assert not leibniz
            with pytest.raises(NotFiltered) as info:
                natural_gradation(algebra)
            assert info.value.pair == lower[0]
            refused += 1
            continue
        grading = natural_gradation(algebra)
        assert [v.coords for v in grading.sections] == sections
        assert grading.degrees == tuple(degrees)
        graded = grading.algebra
        assert graded.table == table
        assert graded == StructureTensor(algebra.dim, graded.table)
        assert graded.name == (None if algebra.name is None
                               else f"gr({algebra.name})")
        cases += 1
        named += graded.name is not None
        dims.add(algebra.dim)
        moved += len(algebra.table) > 2 * algebra.dim
    assert cases >= 400 and dims >= {9, 10, 16, 32}
    assert 100 <= named < cases and moved >= 100 and refused >= 100


def check_series(algebra):
    """The series terms and flag against ``ref_rref_series``; returns the
    reference terms."""
    terms, flag = ref_rref_series(algebra)
    series = lower_central_series(algebra)
    assert [tuple(v.coords for v in term) for term in series.terms] == terms
    assert series.nilpotent == flag
    return terms


def repeated_single_entries(algebra, terms):
    """Products [u, e_j] of the rows u of each reference term with one
    nonzero coordinate, at a column where an earlier such product of the
    same term had another coefficient."""
    n = algebra.dim
    basis = [Vec.basis(n, i) for i in range(1, n + 1)]
    repeats = 0
    for term in terms:
        first = {}
        for u in term:
            for e in basis:
                nonzero = [(t, x) for t, x in
                           enumerate(bracket(algebra, Vec(u), e).coords) if x]
                if len(nonzero) == 1:
                    t, x = nonzero[0]
                    repeats += first.setdefault(t, x) != x
    return repeats


@pytest.mark.parametrize("beta", [Fraction(2), Fraction(-1, 3), Fraction(1)])
def test_series_with_repeated_single_entry_products(beta):
    # the chain [e_i, e_1] = e_(i+1) beside [e_1, e_5] = beta e_6 and
    # [e_2, e_4] = -beta e_6: L^1 and L^2 each meet e_6 twice, once with
    # coefficient 1, and L^1 meets e_2 through two cells
    n = 6
    table = {(i, 1): ((i + 1, 1),) for i in range(1, n)}
    table[(1, 5)] = ((6, beta),)
    table[(2, 4)] = ((6, -beta),)
    table[(1, 2)] = ((2, 3 * beta),)
    algebra = StructureTensor(n, table)
    terms = check_series(algebra)
    assert repeated_single_entries(algebra, terms) >= 2 + (beta != 1)


def test_series_keeps_a_single_entry_after_a_cancelled_one():
    # [e_2 + e_3, e_1] = e_4 - e_4 cancels to a zero at column 4, and
    # [e_2 + e_3, e_2] = 3 e_4 comes after it: L^3 = <e_4, e_5>
    algebra = StructureTensor(5, {(1, 1): ((2, 1), (3, 1)), (2, 1): ((4, 1),),
                                  (3, 1): ((4, -1),), (2, 2): ((4, 3),),
                                  (4, 1): ((5, 1),)})
    terms = check_series(algebra)
    assert lower_central_series(algebra).rows[2] == ({3: 1}, {4: 1})
    assert [len(term) for term in terms] == [5, 3, 2, 1, 0]


def test_series_on_random_single_term_tables():
    rng = random.Random(2024)
    coefficients = [Fraction(c) for c in (1, -1, 2, 3)] \
        + [Fraction(1, 2), Fraction(-3, 2), Fraction(2, 5)]
    repeats = nilpotent = 0
    for n in range(3, 13):
        for t in range(4):
            density = rng.choice((0.3, 0.6))
            table = {(i, j): ((rng.randint(max(i, j) + 1 if t % 2 else 1, n),
                               rng.choice(coefficients)),)
                     for i in range(1, n + 1) for j in range(1, n + 1)
                     if (max(i, j) < n or not t % 2) and rng.random() < density}
            algebra = StructureTensor(n, table)
            terms = check_series(algebra)
            repeats += repeated_single_entries(algebra, terms)
            nilpotent += lower_central_series(algebra).nilpotent
    assert repeats >= 200 and 20 <= nilpotent < 40


def test_series_of_permuted_catalog_forms_runs_the_per_term_loop(
        monkeypatch):
    # a catalog normal form with its basis permuted: every cell keeps one
    # entry, so the products repeat single-entry columns.  The levels of
    # R_(e_1) certify the series on some of these forms; the per-term loop
    # then runs on them directly, so it meets every form.  Row 1,2 needs
    # even n, so row 0,2 stands in for it at n = 9
    loops = []
    per_term = analysis._series_by_terms

    def spy(*args):
        loops.append(1)
        return per_term(*args)
    monkeypatch.setattr(analysis, "_series_by_terms", spy)
    forms = [("0,2", (1,), 9), ("1,2", (2,), 10), ("1,2", (2,), 16)] \
        + [("34", (1,), n) for n in (9, 10, 16)]
    certified = 0
    for row_id, values, n in forms:
        rng = random.Random(2700 + n)
        perm = rng.sample(range(n), n)
        change = BasisChange(MatrixQ.from_rows(
            [[int(perm[j] == i) for j in range(n)] for i in range(n)]))
        algebra = apply_change(catalog_algebra(row_id, values, n), change)
        # one entry per cell, and columns that several cells meet
        targets = [k for cell in algebra.table.values() for k, _ in cell]
        assert len(targets) == len(algebra.table) > len(set(targets))
        before = len(loops)
        terms = check_series(algebra)
        assert [len(term) for term in terms] \
            == _naive_series_dims(algebra)
        if len(loops) == before:
            certified += 1
            series = lower_central_series(algebra)
            rows, nilpotent = per_term(n, _integer_cells(algebra)[1])
            assert (rows, nilpotent) == (series.rows, series.nilpotent)
            assert [len(term) for term in rows] \
                == _naive_series_dims(algebra)
    assert len(loops) == len(forms) - certified and certified == 2
