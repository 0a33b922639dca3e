"""The level certificates against the loops they stand in for.

``nilpotent_block_sizes`` reads the block sizes off the levels of the
matrix (``linalg._levels``): its Jordan chains through the basis vectors
when it finds them, and otherwise the power loop; the central series
reads its terms off the levels of right multiplication by e_1 when every
product of a level vector lands deeper, and otherwise runs the per-term
loop (``analysis._series_by_terms``).  Each test counts the runs of the
power loop or the per-term loop, so it shows which path ran, and checks
the answer against a test-local oracle: dense ``Fraction`` ranks of the
powers for the block sizes, and the per-term loop, called directly, for
the series.
"""

import random
from fractions import Fraction
from itertools import islice

import pytest

from lnz import (BasisChange, MatrixQ, NotNilpotent, SecondTypeParams,
                 StructureTensor, Vec, analysis, apply_change, block_diag,
                 build_second_type, char_sequence_at,
                 char_sequence_estimate, enumerate_catalog, invert, jordan_block,
                 linalg, lower_central_series, natural_gradation,
                 nilpotent_block_sizes)
from lnz.algebra import _integer_cells


def dense_rank(rows):
    """Rank by plain ``Fraction`` Gaussian elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = rows[r][c] / rows[rank][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def brute_block_sizes(m):
    """Block sizes from the ranks of the dense powers of m: rank(N^(k-1))
    - rank(N^k) blocks have size k or more."""
    n = m.rows
    a = [[Fraction(x) for x in m.row(r)] for r in range(n)]
    power = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    ranks = [n]
    while ranks[-1]:
        power = [[sum(power[i][k] * a[k][j] for k in range(n))
                  for j in range(n)] for i in range(n)]
        ranks.append(dense_rank(power))
        assert ranks[-1] < ranks[-2], "not nilpotent"
    at_least = [x - y for x, y in zip(ranks, ranks[1:])]
    return tuple(sum(c > j for c in at_least) for j in range(at_least[0]))


def counted(monkeypatch, module, name):
    """Count the calls of ``module.name`` from here on."""
    calls = []
    original = getattr(module, name)

    def spy(*args):
        calls.append(1)
        return original(*args)
    monkeypatch.setattr(module, name, spy)
    return calls


def power_loops(monkeypatch):
    """Count the runs of the power loop of ``linalg._levels`` from here on:
    the calls in which ``_chains`` finds no chains."""
    calls = []
    chains = linalg._chains

    def spy(*args):
        levels = chains(*args)
        if levels is None:
            calls.append(1)
        return levels
    monkeypatch.setattr(linalg, "_chains", spy)
    return calls


def random_partition(rng, n):
    left, parts = n, []
    while left:
        parts.append(rng.randint(1, left))
        left -= parts[-1]
    return sorted(parts, reverse=True)


def permuted_jordan(rng, partition):
    """Jordan blocks of the given sizes with their chains interleaved over
    the basis, each chain in increasing index order, and each step scaled
    by a random nonzero rational: e_a -> c e_b with a < b."""
    n = sum(partition)
    labels = [c for c, size in enumerate(partition) for _ in range(size)]
    rng.shuffle(labels)
    chains = [[i for i, c in enumerate(labels) if c == chain]
              for chain in range(len(partition))]
    entries = [[Fraction(0)] * n for _ in range(n)]
    for chain in chains:
        for a, b in zip(chain, chain[1:]):
            entries[b][a] = Fraction(rng.choice((1, -1, 2, 3)),
                                     rng.choice((1, 1, 2, 5)))
    return MatrixQ.from_rows(entries)


def unimodular(rng, n):
    """M0 * P for a signed permutation P, with M0 = L * U and L, U the
    all-ones unit triangular matrices: a dense integer matrix of
    determinant +-1."""
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    return MatrixQ.from_rows([[(min(i, perm[j]) + 1) * signs[j]
                               for j in range(n)] for i in range(n)])


def dense_unimodular(rng, n):
    """L * U with L, U unit triangular and random entries in [-2, 2]
    off the diagonal: determinant 1, and dense both ways."""
    lower, upper = ([[int(i == j) or (rng.randint(-2, 2) if i > j else 0)
                      for j in range(n)] for i in range(n)] for _ in range(2))
    return MatrixQ.from_rows(lower) @ MatrixQ.from_rows(upper).transpose()


def test_block_sizes_of_permuted_jordan_matrices_take_the_chains(
        monkeypatch):
    rng = random.Random(2601)
    loops = power_loops(monkeypatch)
    for _ in range(150):
        partition = random_partition(rng, rng.randint(1, 12))
        m = permuted_jordan(rng, partition)
        assert nilpotent_block_sizes(m) == tuple(partition)
        assert brute_block_sizes(m) == tuple(partition)
    assert not loops


def test_block_sizes_of_conjugated_jordan_matrices_take_the_loop(
        monkeypatch):
    # with s the largest block size, no basis vector lies in ker N^(s-1):
    # then every chain through a basis vector has length s, so a smaller
    # block cannot be met, and the chains must stop at a nonzero vector
    rng = random.Random(2602)
    loops = power_loops(monkeypatch)
    cases = 0
    for _ in range(80):
        partition = random_partition(rng, rng.randint(3, 9))
        n = sum(partition)
        u = dense_unimodular(rng, n)
        m = u @ block_diag(*[jordan_block(k) for k in partition]) @ invert(u)
        deep = m
        for _ in range(partition[0] - 2):
            deep = deep @ m
        if len(set(partition)) < 2 or not all(
                any(deep.column(c)) for c in range(n)):
            continue
        assert nilpotent_block_sizes(m) == tuple(partition)
        assert brute_block_sizes(m) == tuple(partition)
        cases += 1
        assert len(loops) == cases
    assert cases >= 30


def test_block_sizes_refuse_a_non_nilpotent_matrix(monkeypatch):
    loops = power_loops(monkeypatch)
    with pytest.raises(NotNilpotent,
                       match=r"^matrix is not nilpotent: rank stabilises at 3$"):
        nilpotent_block_sizes(MatrixQ.identity(3))
    # e_1 -> e_2 -> e_3 -> e_2: the chain of e_1 meets e_2 again
    m = MatrixQ.from_rows([[0, 0, 0], [1, 0, 1], [0, 1, 0]])
    with pytest.raises(NotNilpotent,
                       match=r"^matrix is not nilpotent: rank stabilises at 2$"):
        nilpotent_block_sizes(m)
    assert len(loops) == 2


def per_term_series(algebra):
    """The per-term loop, called directly: terms and flag."""
    return analysis._series_by_terms(algebra.dim,
                                     _integer_cells(algebra)[1])


def check_series(algebra):
    series = lower_central_series(algebra)
    assert (series.rows, series.nilpotent) == per_term_series(algebra)
    return series


def test_series_and_e1_profile_of_every_catalog_instance_take_the_chains(
        monkeypatch):
    loops = counted(monkeypatch, analysis, "_series_by_terms")
    profiles = power_loops(monkeypatch)
    cases = 0
    for inst in enumerate_catalog((9, 10, 16, 32)):
        n = inst.n
        series = check_series(inst.tensor)
        assert len(series) == n - 2 and series.nilpotent
        assert char_sequence_at(inst.tensor, Vec.basis(n, 1)).parts \
            == (n - 3, 3)
        cases += 1
    assert cases == 97 + 3 * 342
    # check_series called the per-term loop once per instance itself
    assert len(loops) == cases and not profiles


def random_rational_table(rng, n, shape):
    """Cells with denominators.  "triangular" puts [e_i, e_j] in the span
    of the e_k with k > max(i, j); "filtered" has an e_(i+1) term in
    [e_i, e_1] and [e_i, e_j] in the span of the e_k with k >= i + j, so
    the chains of R_(e_1) certify it; "general" is anything."""
    density = rng.choice((0.2, 0.5, 0.9))
    table = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            low = {"triangular": max(i, j) + 1, "filtered": i + j,
                   "general": 1}[shape]
            chain = shape == "filtered" and j == 1
            if low > n or not chain and rng.random() >= density:
                continue
            targets = rng.sample(range(low, n + 1),
                                 rng.randint(1, min(3, n + 1 - low)))
            cell = {k: Fraction(rng.randint(-5, 5), rng.randint(1, 6))
                    for k in targets}
            if chain:
                cell[i + 1] = Fraction(rng.choice((-3, -1, 1, 2, 5)),
                                       rng.randint(1, 6))
            table[(i, j)] = tuple(cell.items())
    return StructureTensor(n, table)


def test_series_on_random_rational_tables(monkeypatch):
    rng = random.Random(2603)
    loops = counted(monkeypatch, analysis, "_series_by_terms")
    certified = {"triangular": 0, "filtered": 0, "general": 0}
    nilpotent = 0
    for t in range(300):
        shape = ("triangular", "filtered", "general")[t % 3]
        algebra = random_rational_table(rng, rng.randint(1, 10), shape)
        before = len(loops)
        series = check_series(algebra)
        # one call is check_series's own; a second one is the fallback
        certified[shape] += len(loops) - before == 1
        nilpotent += series.nilpotent
    assert certified == {"triangular": 43, "filtered": 100, "general": 7}
    assert nilpotent == 207


def test_estimate_returns_on_every_nilpotent_random_table():
    # on a nilpotent table dim [L, L] < n, so some basis vector lies outside
    # [L, L]: the estimate has a candidate before any draw, and lnz analyze,
    # which asks for it only on a nilpotent series, needs no fallback
    rng = random.Random(2603)
    estimated = {"triangular": 0, "filtered": 0, "general": 0}
    for t in range(300):
        shape = ("triangular", "filtered", "general")[t % 3]
        algebra = random_rational_table(rng, rng.randint(1, 10), shape)
        if lower_central_series(algebra).nilpotent:
            estimate = char_sequence_estimate(algebra, budget=0)
            assert sum(estimate.parts) == algebra.dim
            estimated[shape] += 1
    assert estimated == {"triangular": 100, "filtered": 100, "general": 7}


def test_series_of_moved_catalog_instances_take_either_path(monkeypatch):
    # after a dense change, the levels of the new e_1 certify the series
    # exactly when R_(e_1)^k(L) has the dimension of L^(k+1) for every k,
    # which holds on all of these 60
    rng = random.Random(2604)
    loops = counted(monkeypatch, analysis, "_series_by_terms")
    cases = 0
    for inst in enumerate_catalog((9, 10)):
        moved = apply_change(inst.tensor,
                             BasisChange(unimodular(rng, inst.n)))
        check_series(moved)
        cases += 1
        if cases == 60:
            break
    # one call per case is check_series's own
    assert len(loops) - cases == 0


def test_series_of_moved_catalog_instances_off_the_power_loop(monkeypatch):
    # where no chains of R_(e_1) run through the moved basis, its levels
    # come from the power loop; the series skips the per-term loop unless
    # R_(e_1)^k(L) falls short of L^(k+1) for the new e_1
    loops = counted(monkeypatch, analysis, "_series_by_terms")
    powers = power_loops(monkeypatch)
    paths = {}
    for make in (unimodular, dense_unimodular):
        for n, step in ((9, 3), (10, 9), (16, 43)):
            rng = random.Random(2900 + n)
            del loops[:], powers[:]
            cases = 0
            for inst in islice(enumerate_catalog((n,)), 0, None, step):
                check_series(apply_change(inst.tensor,
                                          BasisChange(make(rng, n))))
                cases += 1
            # one loop call per case is check_series's own
            paths[make.__name__, n] = (cases, len(powers), len(loops) - cases)
    # (instances, power loops, per-term fallbacks)
    assert paths == {
        ("unimodular", 9): (33, 27, 0), ("unimodular", 10): (38, 26, 3),
        ("unimodular", 16): (8, 8, 3),
        ("dense_unimodular", 9): (33, 15, 5),
        ("dense_unimodular", 10): (38, 16, 11),
        ("dense_unimodular", 16): (8, 5, 4)}


def planted_second_type():
    """A second-type normal form at n = 9 plus [e_6, e_2] = e_2: the chains
    of R_(e_1) are e_1, e_2, e_3 and e_4, ..., e_9, but e_6 sits at depth
    2 and e_2 at depth 1."""
    tensor = build_second_type(9, SecondTypeParams(0, (1, 0, 0, 0), -1))
    table = dict(tensor.table)
    assert (6, 2) not in table
    table[(6, 2)] = ((2, Fraction(1)),)
    return StructureTensor(9, table)


def test_planted_tables_fail_the_check_and_equal_the_loop(monkeypatch):
    loops = counted(monkeypatch, analysis, "_series_by_terms")
    series = check_series(planted_second_type())
    assert series.dims == (9, 7, 6, 5, 3, 1, 0) and series.nilpotent
    assert len(loops) == 2
    # [e_1, e_1] = e_2, [e_2, e_2] = e_2: R_(e_1) is nilpotent, the
    # algebra is not
    algebra = StructureTensor(2, {(1, 1): ((2, 1),), (2, 2): ((2, 1),)})
    series = check_series(algebra)
    assert series.dims == (2, 1) and not series.nilpotent
    assert len(loops) == 4


def test_planted_table_in_a_dense_basis_falls_back(monkeypatch):
    # R_(e_1) is nilpotent in any basis, so the power loop gives its levels,
    # but no R_x takes L^3 (L^3 / L^4 has dimension 1) onto L^4 (L^4 / L^5
    # has dimension 2): some product lands shallower
    loops = counted(monkeypatch, analysis, "_series_by_terms")
    powers = power_loops(monkeypatch)
    rng = random.Random(2905)
    moved = apply_change(planted_second_type(),
                         BasisChange(unimodular(rng, 9)))
    series = check_series(moved)
    assert series.dims == (9, 7, 6, 5, 3, 1, 0) and series.nilpotent
    assert len(powers) == 1 and len(loops) == 2


def test_series_falls_back_when_e1_is_not_nilpotent(monkeypatch):
    # [e_1, e_1] = e_1 and [e_2, e_1] = e_3: R_(e_1) fixes e_1, so the
    # chains fail, the power loop raises NotNilpotent and the per-term loop
    # runs
    loops = counted(monkeypatch, analysis, "_series_by_terms")
    powers = power_loops(monkeypatch)
    algebra = StructureTensor(3, {(1, 1): ((1, 1),), (2, 1): ((3, 1),)})
    series = check_series(algebra)
    assert series.dims == (3, 2, 1) and not series.nilpotent
    assert len(powers) == 1 and len(loops) == 2


def test_certified_series_feeds_the_gradation():
    # the gradation reads the certified terms as the loop's
    inst = next(iter(enumerate_catalog((16,))))
    assert natural_gradation(inst.tensor).piece_dims \
        == (2, 2, 2) + (1,) * 10
