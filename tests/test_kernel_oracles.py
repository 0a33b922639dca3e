"""The sparse integer elimination kernel against independent oracles.

sympy checks ranks and Jordan block sizes.  A dense ``Fraction`` RREF
span, kept here as the reference the kernel must agree with, checks the
central series, the gradation and the sampled characteristic sequence on
catalog algebras moved into a dense basis.
"""

import random
from fractions import Fraction

import pytest

from lnz import (BasisChange, MatrixQ, Vec, apply_change, block_diag, bracket,
                 build_first_type, build_second_type, char_sequence_estimate,
                 invert, jordan_block, lower_central_series, natural_gradation,
                 nilpotent_block_sizes, rank, row_by_id)


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


def dense_change(n, seed):
    """M0 * P: M0[i][j] = min(i, j) + 1 has determinant 1, P is a seeded
    signed permutation, and the moved table is dense."""
    rng = random.Random(seed)
    perm = rng.sample(range(n), n)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    return BasisChange(MatrixQ.from_rows(
        [[(min(i, perm[j]) + 1) * signs[j] for j in range(n)]
         for i in range(n)]))


@pytest.mark.parametrize("row_id, values", [("1,7", (1, 2, -1)),
                                            ("40", (1, 2))])
def test_kernel_matches_dense_reference_at_16(row_id, values):
    row = row_by_id(row_id)
    params = row.make_params(tuple(map(Fraction, values)))
    build = build_second_type if row.kind == "second" else build_first_type
    algebra = apply_change(build(16, params), dense_change(16, seed=7))
    assert len(algebra.table) > 100

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

    assert char_sequence_estimate(algebra, budget=20).parts \
        == ref_estimate(algebra, budget=20) == (13, 3)
