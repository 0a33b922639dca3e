import random
import re
from fractions import Fraction as Q

import pytest

import lnz
from lnz import (BasisChange, EchelonSpan, FirstTypeParams, GradedChange2,
                 IndexOutOfRange, MatrixQ, NotNilpotent, PolyQ,
                 SecondTypeParams, SingularChange, StructureTensor, Vec,
                 block_diag, build_second_type, char_sequence_estimate,
                 decide_equivalence, invert, jordan_block, kernel_basis,
                 nilpotent_block_sizes, poly_gcd, rank, rational_roots,
                 resultant, right_mul_matrix, rref)


def rand_matrix(rng, r, c, den=3):
    return MatrixQ.from_rows([[Q(rng.randint(-4, 4), rng.randint(1, den))
                               for _ in range(c)] for _ in range(r)])


def test_rank_examples():
    assert rank(jordan_block(3)) == 2
    assert rank(MatrixQ.zero(3, 3)) == 0
    assert rank(MatrixQ.identity(5)) == 5
    # the chain algebra's right multiplication by e_1 has one zero column
    # (e_3) and one more for e_9
    A = build_second_type(9, SecondTypeParams(0, (0, 0, 0, 0), 0))
    m = right_mul_matrix(A, Vec.basis(9, 1))
    assert rank(m) == 7


def test_rank_matches_rref_pivots():
    rng = random.Random(101)
    for _ in range(400):
        m = rand_matrix(rng, rng.randint(0, 6), rng.randint(0, 6))
        assert rank(m) == len(rref(m)[1])


def test_rank_transpose_invariant():
    rng = random.Random(17)
    for _ in range(200):
        m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        assert rank(m) == rank(m.transpose())


def test_block_sizes_examples():
    assert nilpotent_block_sizes(MatrixQ.zero(4, 4)) == (1, 1, 1, 1)
    assert nilpotent_block_sizes(jordan_block(5)) == (5,)
    j = block_diag(jordan_block(6), jordan_block(3))
    assert nilpotent_block_sizes(j) == (6, 3)

    A = build_second_type(10, SecondTypeParams(0, (0, 0, 0, 1), -1))
    m = right_mul_matrix(A, Vec.basis(10, 1))
    assert nilpotent_block_sizes(m) == (7, 3)


def test_block_sizes_rejects_non_nilpotent():
    with pytest.raises(NotNilpotent):
        nilpotent_block_sizes(MatrixQ.identity(3))
    m = MatrixQ.from_rows([[0, 1], [1, 0]])
    with pytest.raises(NotNilpotent):
        nilpotent_block_sizes(m)


def unimodular(rng, n):
    rows = [[Q(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            c = rng.choice([Q(-1), Q(1)])
            rows[a] = [x + c * y for x, y in zip(rows[a], rows[b])]
    return MatrixQ.from_rows(rows)


def test_block_sizes_conjugation_oracle():
    """Conjugating a known Jordan form must give back its partition, and
    the partition must agree with brute-force kernel dimensions."""
    rng = random.Random(5)
    for _ in range(120):
        n = rng.randint(1, 6)
        left, partition = n, []
        while left:
            p = rng.randint(1, left)
            partition.append(p)
            left -= p
        partition.sort(reverse=True)
        u = unimodular(rng, n)
        m = u @ block_diag(*[jordan_block(k) for k in partition]) @ invert(u)
        assert nilpotent_block_sizes(m) == tuple(partition)
        # independent route: dim ker m^k - dim ker m^(k-1) counts blocks
        # of size at least k
        kdims, power = [0], MatrixQ.identity(n)
        while kdims[-1] < n:
            power = power @ m
            kdims.append(n - rank(power))
        at_least = [kdims[k] - kdims[k - 1] for k in range(1, len(kdims))]
        rebuilt = []
        for k, count in enumerate(at_least, start=1):
            nxt = at_least[k] if k < len(at_least) else 0
            rebuilt = [k] * (count - nxt) + rebuilt
        assert rebuilt == partition


def test_block_sizes_sum_property():
    rng = random.Random(23)
    for _ in range(60):
        sizes = sorted((rng.randint(1, 4) for _ in range(rng.randint(1, 4))),
                       reverse=True)
        j = block_diag(*[jordan_block(k) for k in sizes])
        got = nilpotent_block_sizes(j)
        assert sum(got) == sum(sizes) and got == tuple(sizes)


def test_invert_and_kernel():
    rng = random.Random(9)
    for _ in range(80):
        n = rng.randint(1, 5)
        m = rand_matrix(rng, n, n)
        inv = invert(m)
        if inv is None:
            assert rank(m) < n
            ker = kernel_basis(m)
            assert len(ker) == n - rank(m)
            for v in ker:
                assert all(x == 0 for x in m.apply(v))
        else:
            assert (m @ inv).entries == MatrixQ.identity(n).entries
            assert kernel_basis(m) == []


def gauss_jordan_inverse(rows):
    """Reference inverse: dense Gauss-Jordan on [M | I] in Fractions, or
    None when M is singular."""
    n = len(rows)
    a = [[Q(x) for x in row] + [Q(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    for c in range(n):
        pivot = next((r for r in range(c, n) if a[r][c] != 0), None)
        if pivot is None:
            return None
        a[c], a[pivot] = a[pivot], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for r in range(n):
            if r != c and a[r][c] != 0:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return MatrixQ.from_rows([row[n:] for row in a])


INVERSE_ENTRIES = (Q(0), Q(1), Q(-1), Q(2), Q(1, 2), Q(-2, 3), Q(5, 7),
                   Q(10**12 + 1, 3))


def test_invert_and_change_inverse_match_gauss_jordan():
    rng = random.Random(31)
    singular = 0
    for trial in range(320):
        n = 1 + trial % 9
        rows = [[rng.choice(INVERSE_ENTRIES) for _ in range(n)]
                for _ in range(n)]
        if n > 1 and trial % 5 == 0:    # a row that repeats a multiple
            a, b = rng.sample(range(n), 2)
            c = rng.choice(INVERSE_ENTRIES[1:])
            rows[a] = [c * x for x in rows[b]]
        m = MatrixQ.from_rows(rows)
        reference = gauss_jordan_inverse(rows)
        assert invert(m) == reference
        if reference is None:
            singular += 1
            with pytest.raises(SingularChange) as info:
                BasisChange(m)
            assert str(info.value) == "change matrix is singular"
        else:
            change = BasisChange(m)
            assert change.inverse == reference
            assert change.inverted().matrix == reference
            assert change.inverted().inverse == m
    assert 30 <= singular <= 200


def test_inverting_a_change_swaps_its_kept_columns(monkeypatch):
    # inverted() eliminates nothing: inverting twice calls _inverse_columns
    # zero times, on a change read from a matrix and on a generated one
    algebra = build_second_type(9, SecondTypeParams(0, (1, 0, 2, 0), -1))
    changes = [BasisChange(MatrixQ.from_rows(
                   [[2, 1, 0], [0, Q(1, 3), 3], [1, 0, 1]])),
               lnz.completed_second_type_change(algebra,
                                                GradedChange2(2, 1, 3))]
    calls, real = [], lnz.transform._inverse_columns
    monkeypatch.setattr(lnz.transform, "_inverse_columns",
                        lambda *cols: calls.append(cols) or real(*cols))
    for change in changes:
        once, twice = change.inverted(), change.inverted().inverted()
        assert once.matrix == change.inverse and once.inverse == change.matrix
        assert twice == change and twice.inverse == change.inverse
    moved = lnz.apply_change(algebra, changes[1])
    assert lnz.apply_change(moved, changes[1].inverted()) == algebra
    assert calls == []


def test_change_of_a_non_square_matrix_names_the_shape():
    with pytest.raises(SingularChange) as info:
        BasisChange(MatrixQ.from_rows([[1, 0, 2], [0, 1, 5]]))
    assert str(info.value) == "change matrix must be square"
    assert invert(MatrixQ.zero(0, 0)) == MatrixQ.zero(0, 0)


def gauss_jordan_kernel(rows, cols):
    """Reference right kernel: dense Gauss-Jordan RREF in Fractions, then
    one vector per free column f, 1 at f and minus the RREF's column f at
    the pivots."""
    a = [[Q(x) for x in row] for row in rows]
    pivots = []
    for c in range(cols):
        r = next((r for r in range(len(pivots), len(a)) if a[r][c] != 0),
                 None)
        if r is None:
            continue
        top = len(pivots)
        a[top], a[r] = a[r], a[top]
        a[top] = [x / a[top][c] for x in a[top]]
        for i in range(len(a)):
            if i != top and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[top])]
        pivots.append(c)
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [Q(0)] * cols
        v[f] = Q(1)
        for r, p in enumerate(pivots):
            v[p] = -a[r][f]
        basis.append(tuple(v))
    return basis


def test_kernel_basis_matches_gauss_jordan():
    rng = random.Random(41)
    kinds = {"zero": 0, "full": 0, "repeated": 0, "empty": 0}
    for trial in range(1200):
        r, c = rng.randint(0, 8), rng.randint(0, 8)
        density = rng.choice((0.0, 0.2, 0.5, 1.0))
        rows = [[rng.choice(INVERSE_ENTRIES[1:]) if rng.random() < density
                 else Q(0) for _ in range(c)] for _ in range(r)]
        if r > 1 and trial % 4 == 0:    # a row that repeats a multiple
            a, b = rng.sample(range(r), 2)
            rows[a] = [rng.choice(INVERSE_ENTRIES[1:]) * x for x in rows[b]]
        m = MatrixQ(r, c, tuple(x for row in rows for x in row))
        got = kernel_basis(m)
        assert got == gauss_jordan_kernel(rows, c)
        assert all(type(x) is Q for v in got for x in v)
        kinds["zero"] += c > 0 and m.is_zero() and r > 0
        kinds["full"] += c > 0 and not got
        kinds["repeated"] += r > 1 and trial % 4 == 0 and bool(got)
        kinds["empty"] += r == 0 or c == 0
    assert min(kinds.values()) >= 40, kinds
    # the refinement's hard cases: numerators of 30 to 40 bits of either
    # sign over 32-bit denominators, and a few dense functionals that leave
    # a large kernel with fractional entries
    rng = random.Random(4130)
    denominators = [rng.getrandbits(32) | (1 << 31) | 1 for _ in range(3)]
    sizes = ((1, 9), (2, 12), (3, 12), (3, 16), (6, 8), (9, 9))
    for r, c in sizes:
        rows = [[Q(rng.choice((-1, 1)) * rng.getrandbits(rng.randint(30, 40)),
                   rng.choice(denominators)) for _ in range(c)]
                for _ in range(r)]
        got = kernel_basis(MatrixQ(r, c, tuple(x for row in rows for x in row)))
        assert got == gauss_jordan_kernel(rows, c)
        assert len(got) == c - r
        assert r == c or max(x.denominator.bit_length()
                             for v in got for x in v) >= 60 * r


def test_rows_and_columns_outside_the_matrix_raise():
    m = MatrixQ.from_rows([[1, 2], [3, 4]])
    assert m.row(1) == (3, 4) and m.column(0) == (1, 3)
    for bad in (-1, 2, 5):
        with pytest.raises(IndexOutOfRange, match="outside 0..1"):
            m.row(bad)
        with pytest.raises(IndexOutOfRange, match="outside 0..1"):
            m.column(bad)
    wide = MatrixQ.from_rows([[1, 2, 3]])
    assert wide.column(2) == (3,)
    with pytest.raises(IndexError, match="row 1 outside 0..0"):
        wide.row(1)
    with pytest.raises(IndexError, match="column 3 outside 0..2"):
        wide.column(3)
    change = BasisChange(m)
    assert change.column(1) == Vec((1, 3)) and change.column(2) == Vec((2, 4))
    for bad in (0, 3, -1):
        with pytest.raises(IndexOutOfRange,
                           match=f"column index {bad} outside 1..2"):
            change.column(bad)


def test_entries_outside_the_matrix_raise_index_out_of_range():
    m = MatrixQ.from_rows([[1, 2], [3, 4]])
    assert m[1, 0] == 3
    for r, c in ((2, 0), (0, 2), (-1, 1)):
        with pytest.raises(IndexOutOfRange, match=rf"\({r},{c}\) outside 2x2"):
            m[r, c]


@pytest.mark.parametrize("dense, sparse", [
    (["0.5", 0, 1], {0: "0.5", 2: 1}),
    (["1/2", "0", "1"], {0: "1/2", 1: "0", 2: "1"}),
    ([Q(1, 2), 0, Q(1)], {0: Q(1, 2), 2: Q(1)}),
    ([1, 0, 2], {0: 1, 1: 0, 2: 2}),
])
def test_echelon_span_coerces_sparse_like_dense(dense, sparse):
    expected = ((Q(1), Q(0), Q(2)),)
    for vector, other in ((dense, sparse), (sparse, dense)):
        span = EchelonSpan(3)
        assert span.add(vector)
        assert span.basis() == expected
        assert span.contains(vector) and span.contains(other)
        assert not span.add(other)
        assert not span.contains({1: 3}) and not span.contains([0, 3, 0])


def test_echelon_span_takes_int_rows_as_they_are():
    span = EchelonSpan(4)
    assert span.add({2: 0, 1: 6, 3: -4})
    assert span.reduced_rows() == [{1: 3, 3: -2}]
    assert not span.add({1: 0, 2: 0})
    assert not span.add({})
    assert span.add({0: 2, 1: 3, 3: -2})
    assert span.basis() == ((Q(1), Q(0), Q(0), Q(0)),
                            (Q(0), Q(1), Q(0), Q(-2, 3)))
    assert span.contains([Q(1, 2), Q(3, 2), 0, -1])


def test_echelon_span_reduced_rows_are_canonical():
    # zero at the other pivots, gcd 1, positive pivot, whatever the spanning
    # rows and their order; basis() is the same rows over their pivots
    expected = r0, r1 = [{0: 3, 2: -1, 3: 4}, {1: 3, 2: 2, 3: -1}]

    def combo(p, q):
        return {k: p * r0.get(k, 0) + q * r1.get(k, 0) for k in range(4)}
    rng = random.Random(77)
    for _ in range(20):
        a, b = (rng.choice((-3, -2, -1, 1, 2)) for _ in range(2))
        rows = [combo(a, 0), combo(b * rng.choice((-1, 1)), b)]
        span = EchelonSpan(4, rng.sample(rows, 2))
        assert span.reduced_rows() == expected
        assert span.basis() == ((Q(1), Q(0), Q(-1, 3), Q(4, 3)),
                                (Q(0), Q(1), Q(2, 3), Q(-1, 3)))
    assert EchelonSpan(3).reduced_rows() == []


def test_rref_idempotent():
    rng = random.Random(31)
    for _ in range(60):
        m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        r1, p1 = rref(m)
        r2, p2 = rref(r1)
        assert p1 == p2 and r1.entries == r2.entries


def test_rref_keeps_the_shape_of_a_matrix_without_rows():
    reduced, pivots = rref(MatrixQ(0, 3, ()))
    assert (reduced.rows, reduced.cols, pivots) == (0, 3, ())
    reduced, pivots = rref(MatrixQ.zero(2, 3))
    assert (reduced.rows, reduced.cols, pivots) == (2, 3, ())
    assert reduced.is_zero()


def poly(*coeffs):
    return PolyQ.of(*coeffs)


def test_poly_arithmetic():
    p = poly(1, 2, 1)          # 1 + 2t + t^2
    q = poly(1, 1)             # 1 + t
    quo, rem = p.divmod(q)
    assert quo == q and rem.degree == -1
    assert p(Q(3)) == 16
    assert (q * q) == p
    assert poly_gcd(p, q) == q.monic()


def test_poly_gcd_examples():
    # gcd(2t^2-2, 4t-4) = t - 1 after the monic normalisation
    g = poly_gcd(poly(-2, 0, 2), poly(-4, 4))
    assert g == poly(-1, 1)
    assert poly_gcd(poly(0), poly(0)) == poly(0)
    assert poly_gcd(poly(0), poly(3, 3)) == poly(1, 1)


def test_rational_roots():
    # (t - 1/2)(t + 3) scaled by 2: 2t^2 + 5t - 3
    assert rational_roots(poly(-3, 5, 2)) == [Q(-3), Q(1, 2)]
    # t^2 (double root at zero, reported once)
    assert rational_roots(poly(0, 0, 1)) == [Q(0)]
    assert rational_roots(poly(1, 0, 1)) == []    # t^2 + 1
    # bound drops large candidates
    assert rational_roots(poly(-7, 1), bound=5) == []


def test_rational_roots_reject_a_negative_bound():
    # bound = 0 means no bound; a negative one would silently drop roots
    assert rational_roots(poly(-2, 1), bound=0) == [Q(2)]
    for bound in (-1, -5):
        with pytest.raises(ValueError, match=f"got {bound}"):
            rational_roots(poly(-2, 1), bound=bound)


def ref_poly_gcd(p, q):
    """Euclid's algorithm in Fraction arithmetic, by ``PolyQ.divmod``,
    made monic: slow on purpose, and apart from the integer kernel."""
    a, b = p, q
    while not b.is_zero():
        a, b = b, a.divmod(b)[1]
    return a.monic()


def rand_poly(rng, degree, top=6):
    while True:
        p = PolyQ(tuple(Q(rng.randint(-top, top), rng.randint(1, top))
                        for _ in range(degree + 1)))
        if p.degree == degree:
            return p


def test_poly_gcd_matches_fraction_euclid():
    rng = random.Random(37)
    kinds = ("zero", "constant", "random", "scaled", "shared")
    nontrivial = 0
    for _ in range(600):
        common = rand_poly(rng, rng.randint(1, 3), rng.choice((6, 10**6)))
        pair = []
        for kind in (rng.choice(kinds), rng.choice(kinds)):
            if kind == "zero":
                pair.append(PolyQ.zero())
            elif kind == "constant":
                pair.append(rand_poly(rng, 0))
            elif kind == "random":
                pair.append(rand_poly(rng, rng.randint(1, 4)))
            elif kind == "scaled" and pair:
                pair.append(pair[0] * Q(rng.randint(-9, 9) or 1,
                                        rng.randint(1, 9)))
            else:
                pair.append(common * rand_poly(rng, rng.randint(0, 3)))
        got, want = poly_gcd(*pair), ref_poly_gcd(*pair)
        assert got == want and repr(got) == repr(want), pair
        nontrivial += got.degree >= 1
    assert nontrivial > 200


def test_rational_roots_of_products_of_linear_factors():
    rng = random.Random(38)
    for _ in range(300):
        roots = [Q(rng.randint(-40, 40), rng.randint(1, 40))
                 for _ in range(rng.randint(1, 4))]
        poly = PolyQ.constant(Q(rng.choice((-3, 1, 5)), rng.randint(1, 7)))
        for r in roots:
            poly = poly * PolyQ.of(-r, 1)
        if rng.random() < 0.5:          # no rational root of its own
            poly = poly * rng.choice((PolyQ.of(1, 0, 1), PolyQ.of(-2, 0, 1),
                                      PolyQ.of(3, 1, 1)))
        want = sorted(set(roots))
        assert rational_roots(poly) == rational_roots(poly, bound=0) == want
        for bound in (1, 7, 40):
            assert rational_roots(poly, bound=bound) == [
                r for r in want
                if abs(r.numerator) <= bound and r.denominator <= bound]


def test_resultant_detects_common_roots():
    # p(s) = s - t, q(s) = s - 1 have a common root iff t = 1
    p = [PolyQ.of(0, -1), PolyQ.of(1)]
    q = [PolyQ.of(-1), PolyQ.of(1)]
    r = resultant(p, q)
    assert r.degree == 1 and r(Q(1)) == 0 and r(Q(2)) != 0

    # p(s) = s^2 - t, q(s) = s: eliminating s leaves a multiple of t
    p = [PolyQ.of(0, -1), PolyQ.of(0), PolyQ.of(1)]
    q = [PolyQ.of(0), PolyQ.of(1)]
    r = resultant(p, q)
    assert r(Q(0)) == 0 and r(Q(1)) != 0

    # identical polynomials have resultant zero
    p = [PolyQ.of(1, 1), PolyQ.of(2)]
    assert resultant(p, p) == PolyQ.zero()


def test_matmul_apply_consistency():
    rng = random.Random(41)
    for _ in range(40):
        a = rand_matrix(rng, 3, 4)
        b = rand_matrix(rng, 4, 2)
        v = [Q(rng.randint(-3, 3)) for _ in range(2)]
        left = (a @ b).apply(v)
        right = a.apply(b.apply(v))
        assert left == right


#: Constructors that coerce their values exactly, each giving back the
#: coerced form of the value it was handed.
EXACT = {
    "Vec": lambda v: Vec((v, 1)).coords[0],
    "MatrixQ.from_rows": lambda v: MatrixQ.from_rows([[v, 1]])[0, 0],
    "PolyQ": lambda v: PolyQ((v, 1)).coeffs[0],
    "GradedChange2": lambda v: GradedChange2(1, v).A4,
    "SecondTypeParams": lambda v: SecondTypeParams(0, (v, 0, 0, 0),
                                                   -1).alphas[0],
    "FirstTypeParams": lambda v: FirstTypeParams(34, (v, 1, 1)).p[0],
    "StructureTensor": lambda v: StructureTensor(
        2, {(1, 1): [(2, v)]}).coefficient(1, 1, 2),
    "EchelonSpan": lambda v: 1 / EchelonSpan(2, [[v, 1]]).basis()[0][1],
}


@pytest.mark.parametrize("make", EXACT.values(), ids=EXACT)
def test_constructors_take_exact_values_and_refuse_floats(make):
    for value in (Q(1, 10), "1/10"):
        assert make(value) == Q(1, 10)
    assert make(3) == 3 and type(make(3)) is Q
    with pytest.raises(TypeError, match=r"^0\.1 is a float"):
        make(0.1)


#: Kernels handed a ``MatrixQ`` built with its raw constructor, which
#: stores its entries as they are, or a vector for a span; the product
#: and ``apply`` refuse a float on either side.
KERNELS = {
    "rank": lambda v: rank(MatrixQ(1, 2, (v, 1))),
    "invert": lambda v: invert(MatrixQ(2, 2, (v, 1, 1, 0))),
    "nilpotent_block_sizes": lambda v: nilpotent_block_sizes(
        MatrixQ(2, 2, (v, 0, 1, 0))),
    "EchelonSpan": lambda v: EchelonSpan(2, [[v, 1]]),
    "kernel_basis": lambda v: kernel_basis(MatrixQ(1, 2, (v, 1))),
    "matmul_left": lambda v: MatrixQ(1, 2, (v, 1)) @ MatrixQ(2, 1, (2, 1)),
    "matmul_right": lambda v: MatrixQ(1, 1, (2,)) @ MatrixQ(1, 2, (1, v)),
    "apply": lambda v: MatrixQ(1, 2, (v, 1)).apply([1, 0]),
}


@pytest.mark.parametrize("value", (0.1, 0.0, -2.0))
@pytest.mark.parametrize("kernel", KERNELS.values(), ids=KERNELS)
def test_kernels_refuse_floats_even_zero(kernel, value):
    with pytest.raises(TypeError, match=rf"^{value!r} is a float"):
        kernel(value)
    kernel(0)
    kernel(Q(0))


#: Each entry point with a search budget or bound: how to call it with a
#: value, the module and name of the first work it would start, and the
#: message of a negative value.  rational_roots gets the zero polynomial,
#: which it would refuse with a message of its own after the check.
BUDGETED = {
    "char_sequence_estimate": (
        lambda v: char_sequence_estimate(
            build_second_type(9, SecondTypeParams(0, (0, 0, 0, 0), 0)),
            budget=v),
        "analysis", "lower_central_series", "budget must be 0 or more"),
    "decide_equivalence": (
        lambda v: decide_equivalence(SecondTypeParams(0, (1, 0, 0, 1), -1),
                                     SecondTypeParams(0, (2, 0, 0, 4), -1),
                                     budget=v),
        "transform", "nullity_signature", "budget must be 0 or more"),
    "rational_roots": (lambda v: rational_roots(PolyQ.zero(), bound=v),
                       None, None, "bound must be 0 (none) or positive"),
}


@pytest.mark.parametrize("value", (1.5, Q(3, 2), "6", True, -1),
                         ids=("float", "Fraction", "str", "bool", "negative"))
@pytest.mark.parametrize("entry", BUDGETED)
def test_budgets_and_bounds_are_ints_checked_first(monkeypatch, entry,
                                                   value):
    call, module, name, negative = BUDGETED[entry]
    if module:
        def spy(*args, **kwargs):
            raise AssertionError(f"{name} ran before the check")
        monkeypatch.setattr(getattr(lnz, module), name, spy)
    what = negative.split()[0]
    if value == -1:
        error, message = ValueError, f"{negative}, got -1"
    else:
        error, message = TypeError, f"{what} must be an int, got {value!r}"
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(value)
