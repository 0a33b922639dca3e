"""Structural analysis: series, gradation, characteristic sequence."""

import copy
import pickle
import random
from fractions import Fraction

import pytest

import lnz.algebra
import lnz.analysis
import lnz.cli
import lnz.transform
from lnz import (
    BasisChange,
    GradedChange2,
    MatrixQ,
    CharSequence,
    ElementInDerivedSubalgebra,
    NonNilpotent,
    NotFiltered,
    SecondTypeParams,
    StructureTensor,
    Vec,
    apply_change,
    build_second_type,
    char_sequence_at,
    char_sequence_estimate,
    completed_second_type_change,
    derived_span,
    leibniz_residual,
    lower_central_series,
    natural_gradation,
    nilindex,
    right_annihilator,
    row_by_id,
    serialize,
)
from lnz.cli import main

CHAIN9 = build_second_type(9, SecondTypeParams(0, (0, 0, 0, 0), 0))


def abelian(n):
    return StructureTensor(n, {})


def test_series_of_chain_algebra():
    series = lower_central_series(CHAIN9)
    assert series.nilpotent
    assert series.dims == (9, 7, 5, 3, 2, 1, 0)
    assert len(series) == 7
    assert nilindex(CHAIN9) == 7
    # L^2 is spanned by e_2..e_7 and e_9; e_8 only ever shows up through
    # the alternating tail products, which vanish at epsilon = 0.
    second = series.terms[1]
    span = {tuple(v.coords) for v in second}
    assert Vec.basis(9, 2).coords in {tuple(v.coords) for v in second} or any(
        v.coords[1] != 0 for v in second)
    assert len(span) == 7


def test_series_of_abelian_algebra():
    for n in (4, 5):
        series = lower_central_series(abelian(n))
        assert series.nilpotent
        assert series.dims == (n, 0)
        assert nilindex(abelian(n)) == 2


def test_non_nilpotent_detected():
    bad = StructureTensor(3, {(1, 1): ((1, Fraction(1)),)})
    series = lower_central_series(bad)
    assert not series.nilpotent
    assert series.dims == (3, 1)
    with pytest.raises(NonNilpotent):
        nilindex(bad)


def test_derived_span_matches_second_term():
    for row_id in ("0,1", "0,3", "1,2"):
        row = row_by_id(row_id)
        params = row.make_params([1] * len(row.params))
        algebra = build_second_type(10, params)
        series = lower_central_series(algebra)
        assert derived_span(algebra).dim == series.dims[1]


def test_gradation_of_chain_algebra():
    grad = natural_gradation(CHAIN9)
    assert grad.piece_dims == (2, 2, 2, 1, 1, 1)
    assert grad.degrees == (1, 1, 2, 2, 3, 3, 4, 5, 6)
    assert len(grad.sections) == 9
    assert grad.algebra.dim == 9
    assert leibniz_residual(grad.algebra).violations == ()


def test_gradation_of_abelian_algebra():
    grad = natural_gradation(abelian(5))
    assert grad.piece_dims == (5,)
    assert grad.algebra.table == {}


def test_gradation_refuses_a_series_that_is_no_filtration():
    # nilpotent, not Leibniz: L^2 = <e_2, e_3>, L^3 = <e_3>, L^4 = 0, and
    # [e_2, e_2] = -e_3 lies in L^3 but not in L^4
    algebra = StructureTensor(3, {(1, 1): ((2, Fraction(-2, 3)),),
                                  (2, 1): ((3, Fraction(-5, 6)),),
                                  (2, 2): ((3, Fraction(-1)),)})
    assert lower_central_series(algebra).dims == (3, 2, 1, 0)
    with pytest.raises(NotFiltered) as info:
        natural_gradation(algebra)
    assert info.value.pair == (2, 2)
    assert str(info.value) == ("[L^2, L^2] is not inside L^4: sections 2 "
                               "(e_2) and 2 (e_2) bracket outside it")


def test_induced_product_respects_degrees():
    row = row_by_id("1,2")
    algebra = build_second_type(10, row.make_params([1] * len(row.params)))
    grad = natural_gradation(algebra)
    assert grad.piece_dims == (2, 2, 2, 1, 1, 1, 1)
    degs = grad.degrees
    for (i, j), terms in grad.algebra.entries():
        for k, c in terms:
            assert degs[k - 1] == degs[i - 1] + degs[j - 1]
    assert leibniz_residual(grad.algebra).violations == ()


def test_char_sequence_at_generator():
    seq = char_sequence_at(CHAIN9, Vec.basis(9, 1))
    assert seq == CharSequence((6, 3))
    assert str(seq) == "(6, 3)"


def test_char_sequence_at_short_generator():
    # e_4 multiplies everything to zero in the beta = 0 chain, so its
    # right multiplication is the zero map.
    seq = char_sequence_at(CHAIN9, Vec.basis(9, 4))
    assert seq.parts == tuple([1] * 9)
    assert seq < CharSequence((6, 3))


def test_char_sequence_orders_lexicographically():
    low, high = CharSequence((5, 1, 1)), CharSequence((5, 2))
    assert low < high and low <= high and high > low and high >= low
    assert high >= CharSequence((5, 2)) and not high > CharSequence((5, 2))
    assert max(high, low) is high


def test_char_sequence_rejects_derived_elements():
    for i in (2, 3, 6):
        with pytest.raises(ElementInDerivedSubalgebra):
            char_sequence_at(CHAIN9, Vec.basis(9, i))
    with pytest.raises(ElementInDerivedSubalgebra):
        char_sequence_at(CHAIN9, Vec(tuple(Fraction(0) for _ in range(9))))


def test_estimate_attains_maximum_on_catalog():
    for params in (SecondTypeParams(0, (0, 0, 0, 0), 0),
                   SecondTypeParams(0, (1, 0, 2, 0), -1),
                   SecondTypeParams(1, (0, 0, 0, 1), -1)):
        n = 10 if params.epsilon else 9
        algebra = build_second_type(n, params)
        est = char_sequence_estimate(algebra, budget=0)
        assert est == CharSequence((n - 3, 3))
        assert est == char_sequence_at(algebra, Vec.basis(n, 1))


def test_estimate_takes_derived_span_from_the_series():
    # [L, L] = L when the series stops at L: no element lies outside it
    for algebra in (StructureTensor(1, {(1, 1): ((1, 1),)}),
                    StructureTensor(2, {(1, 2): ((1, 1),), (2, 1): ((2, 1),)})):
        assert lower_central_series(algebra).dims == (algebra.dim,)
        with pytest.raises(ElementInDerivedSubalgebra):
            char_sequence_estimate(algebra, budget=5)
    # [L, L] = 0 when L is abelian: every nonzero element counts
    assert char_sequence_estimate(StructureTensor(3, {}), budget=0) \
        == CharSequence((1, 1, 1))


def test_estimate_rejects_a_negative_budget(monkeypatch):
    # before any work: the series is never asked for
    monkeypatch.setattr(lnz.analysis, "lower_central_series", None)
    algebra = build_second_type(9, SecondTypeParams(0, (0, 0, 0, 0), 0))
    with pytest.raises(ValueError, match=r"^budget must be 0 or more, got -1$"):
        char_sequence_estimate(algebra, budget=-1)


def test_estimate_is_deterministic():
    algebra = build_second_type(9, SecondTypeParams(0, (2, 1, 1, 0), -1))
    a = char_sequence_estimate(algebra, budget=25, seed=7)
    b = char_sequence_estimate(algebra, budget=25, seed=7)
    assert a == b


def sampled_candidates(n, budget, seed):
    """The estimate's candidates as rational vectors: the basis, then
    ``budget`` seeded draws with coordinates a/b."""
    yield from (Vec.basis(n, i) for i in range(1, n + 1))
    rng = random.Random(seed)
    for _ in range(budget):
        yield Vec(tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                        for _ in range(n)))


def outside_derived(algebra, budget, seed):
    derived = derived_span(algebra)
    return [x for x in sampled_candidates(algebra.dim, budget, seed)
            if not derived.contains(x)]


def count_profiles(monkeypatch, kernel):
    calls = []

    def counted(m):
        calls.append(m)
        return kernel(m)
    monkeypatch.setattr(lnz.analysis, "nilpotent_block_sizes", counted)
    return calls


def random_triangular(rng, n):
    """A table with [e_i, e_j] in span(e_k : k > max(i, j)): nilpotent, but
    in general neither Lie nor Leibniz."""
    table = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            terms = tuple((k, rng.randint(-2, 2))
                          for k in range(max(i, j) + 1, n + 1)
                          if rng.random() < 0.4)
            terms = tuple(t for t in terms if t[1])
            if terms and rng.random() < 0.5:
                table[(i, j)] = terms
    return StructureTensor(n, table)


def test_estimate_equals_sampled_maximum_on_random_tables():
    # on three of these tables, stopping once rank R_x = dim L^2 alone
    # would miss the maximum
    rng = random.Random(7)
    for seed in range(30):
        algebra = random_triangular(rng, rng.randint(2, 8))
        # e_1 is never in [L, L] here, so there is always a candidate
        reference = max((char_sequence_at(algebra, x)
                         for x in outside_derived(algebra, 200, seed)),
                        key=lambda seq: seq.parts)
        assert char_sequence_estimate(algebra, budget=200, seed=seed) \
            == reference


def test_estimate_samples_all_when_ranks_miss_the_series(monkeypatch):
    # free 2-step nilpotent Lie algebra on e_1, e_2, e_3: dim L^2 = 3, but
    # [L, x] is spanned by the [e_i, x] with [x, x] = 0, so rank R_x <= 2
    table = {}
    for (i, j), k in (((1, 2), 4), ((1, 3), 5), ((2, 3), 6)):
        table[(i, j)] = ((k, 1),)
        table[(j, i)] = ((k, -1),)
    algebra = StructureTensor(6, table)
    assert lower_central_series(algebra).dims == (6, 3, 0)
    calls = count_profiles(monkeypatch, lnz.analysis.nilpotent_block_sizes)
    assert char_sequence_estimate(algebra) == CharSequence((2, 2, 1, 1))
    assert len(calls) == len(outside_derived(algebra, 200, 0))


def test_estimate_never_certifies_a_non_nilpotent_algebra(monkeypatch):
    # [e_2, e_1] = e_2: the series stabilises at span(e_2), dims (2, 1);
    # the fake profile (2,) has rank 1 = dim L^2, which must not stop the
    # search, because a later x could still beat it
    algebra = StructureTensor(2, {(2, 1): ((2, 1),)})
    series = lower_central_series(algebra)
    assert series.dims == (2, 1) and not series.nilpotent
    calls = count_profiles(monkeypatch, lambda m: (2,))
    assert char_sequence_estimate(algebra, budget=40, seed=3) \
        == CharSequence((2,))
    assert len(calls) == len(outside_derived(algebra, 40, 3)) > 1


def test_annihilator_of_chain_algebra():
    basis = right_annihilator(CHAIN9)
    assert len(basis) == 8
    # [x, y] only ever reads the first coordinate of y here, so the
    # annihilator is the hyperplane x_1 = 0.
    for v in basis:
        assert v.coords[0] == 0


def test_annihilator_of_generic_second_type():
    algebra = build_second_type(9, SecondTypeParams(0, (1, 0, 2, 0), -1))
    basis = right_annihilator(algebra)
    got = sorted(tuple(v.coords) for v in basis)
    want = sorted(Vec.basis(9, i).coords for i in (2, 3, 9))
    assert got == want


def test_annihilator_of_abelian_algebra():
    assert len(right_annihilator(abelian(4))) == 4


def rand_unimodular(n, rng):
    # A product of elementary row operations keeps the inverse integral
    # and the conjugated structure constants small.
    rows = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        for k in range(n):
            rows[i][k] += c * rows[j][k]
    return BasisChange(MatrixQ.from_rows(rows))


def test_invariants_survive_basis_change():
    rng = random.Random(41)
    for params in (SecondTypeParams(0, (0, 0, 0, 0), 0),
                   SecondTypeParams(0, (1, 1, 0, 0), -1),
                   SecondTypeParams(1, (0, 2, 0, 1), -1)):
        n = 10 if params.epsilon else 9
        algebra = build_second_type(n, params)
        base_series = lower_central_series(algebra).dims
        base_grad = natural_gradation(algebra).piece_dims
        base_ann = len(right_annihilator(algebra))
        for _ in range(3):
            change = rand_unimodular(n, rng)
            moved = apply_change(algebra, change)
            assert leibniz_residual(moved).violations == ()
            assert lower_central_series(moved).dims == base_series
            assert natural_gradation(moved).piece_dims == base_grad
            assert len(right_annihilator(moved)) == base_ann
            # e_1 written in the new coordinates keeps its block profile.
            moved_e1 = Vec(change.inverse.column(0))
            assert char_sequence_at(moved, moved_e1) \
                == CharSequence((n - 3, 3))


# ----------------------------------------------------------------------
# the series and the integer cells each tensor keeps


def count_builds(monkeypatch, module=lnz.analysis, builder="_build_series"):
    """Tensors that ``module.builder`` builds for, in call order: by
    default the central series, or ``lnz.algebra, "_build_cells"`` for
    the integer cells."""
    built = []
    build = getattr(module, builder)

    def counted(algebra):
        built.append(algebra)
        return build(algebra)
    monkeypatch.setattr(module, builder, counted)
    return built


def test_analyze_builds_one_series_per_document(monkeypatch, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(serialize(build_second_type(
        16, SecondTypeParams(1, (0, 1, 0, 2), -1))))
    built = count_builds(monkeypatch)
    calls = []
    public = lnz.analysis.lower_central_series
    monkeypatch.setattr(lnz.analysis, "lower_central_series",
                        lambda algebra: calls.append(algebra) or public(algebra))
    assert main(["analyze", str(path)]) == 0
    out = capsys.readouterr().out
    assert "nilindex: 14" in out and "(sampled): (13, 3)" in out
    # the wrapper sees the gradation and the estimate ask again (the CLI
    # binds its own name for its first ask); only that first ask builds
    # the series
    assert len(calls) == 2 and len(built) == 1


def test_each_tensor_builds_its_cells_and_series_once(monkeypatch):
    algebra = build_second_type(10, SecondTypeParams(0, (1, 0, 2, 0), -1))
    cells = count_builds(monkeypatch, lnz.algebra, "_build_cells")
    series = count_builds(monkeypatch)
    for _ in range(2):          # the second round reuses what the first built
        leibniz_residual(algebra)
        lower_central_series(algebra)
        natural_gradation(algebra)
        char_sequence_at(algebra, Vec.basis(10, 1))
        char_sequence_estimate(algebra)
        right_annihilator(algebra)
        apply_change(algebra, completed_second_type_change(
            algebra, GradedChange2(2, 1, 3)))
    assert [t is algebra for t in cells + series] == [True, True]
    assert lower_central_series(algebra) is lower_central_series(algebra)


def test_equal_tensors_never_share_a_series(monkeypatch):
    algebra = build_second_type(10, SecondTypeParams(1, (0, 0, 0, 1), -1))
    twin = StructureTensor(algebra.dim, algebra.table)
    assert twin == algebra and twin is not algebra
    built = count_builds(monkeypatch)
    series = lower_central_series(algebra)
    other = lower_central_series(twin)
    assert other is not series and other == series
    assert len(built) == 2 and built[0] is algebra and built[1] is twin


def test_analysed_tensor_pickles_and_copies():
    algebra = build_second_type(
        9, SecondTypeParams(0, (1, 1, 0, 0), -1)).renamed("l9")
    dims = lower_central_series(algebra.renamed(None)).dims
    for analysed in (False, True):
        series = lower_central_series(algebra) if analysed else None
        assert ("_series" in vars(algebra)) == analysed
        for back in (pickle.loads(pickle.dumps(algebra)),
                     copy.deepcopy(algebra), copy.copy(algebra)):
            assert back == algebra and back.name == "l9"
            assert "_series" not in vars(back)
            assert lower_central_series(back) is not series
            assert lower_central_series(back).dims == dims


def test_analyze_builds_the_integer_cells_once(monkeypatch, tmp_path,
                                               capsys):
    # parse builds them with the table; no reader rebuilds them, and every
    # reader gets the very object that parse handed the tensor
    path = tmp_path / "doc.json"
    path.write_text(serialize(build_second_type(
        16, SecondTypeParams(1, (0, 1, 0, 2), -1))))
    built = count_builds(monkeypatch, lnz.algebra, "_build_cells")
    parsed, read = [], []
    public_parse, public_cells = lnz.algebra.parse, lnz.algebra._integer_cells
    monkeypatch.setattr(lnz.cli, "parse", lambda text: parsed.append(
        public_parse(text)) or parsed[-1])
    for module in (lnz.algebra, lnz.analysis, lnz.transform):
        monkeypatch.setattr(module, "_integer_cells", lambda t: read.append(
            (t, public_cells(t))) or read[-1][1])
    assert main(["analyze", str(path)]) == 0
    out = capsys.readouterr().out
    assert "nilindex: 14" in out and "right annihilator dim: 3" in out
    assert len(built) == 0 and len(parsed) == 1
    seeded = vars(parsed[0])["_cells"]
    assert len(read) >= 4
    assert all(t is parsed[0] and cells is seeded for t, cells in read)


def test_analyze_builds_no_gradation_view(monkeypatch, tmp_path, capsys):
    # lnz analyze reads only the gradation's piece dims: on a parsed n = 32
    # document it builds no section Vec and no graded-table Fraction, while
    # a reader of the views builds them through the same spies
    path = tmp_path / "doc.json"
    path.write_text(serialize(build_second_type(
        32, SecondTypeParams(1, (0, 1, 0, 2), -1))))
    vecs, fractions = [], []
    real_vec, real_fraction = lnz.analysis._vec, lnz.analysis.Fraction
    monkeypatch.setattr(lnz.analysis, "_vec", lambda coords: vecs.append(
        coords) or real_vec(coords))
    monkeypatch.setattr(lnz.analysis, "Fraction", lambda *args: fractions
                        .append(args) or real_fraction(*args))
    assert main(["analyze", str(path)]) == 0
    out = capsys.readouterr().out
    assert "gradation dims: 2 2 2" + " 1" * 26 + "\n" in out
    assert "right annihilator dim: 3" in out
    assert vecs == [] and fractions == []
    grading = natural_gradation(lnz.algebra.parse(path.read_text()))
    assert vecs == [] and fractions == []
    assert len(grading.sections) == len(vecs) == 32
    assert len(grading.algebra.table) > 0 and len(fractions) > 0


def test_each_call_reads_the_table_once(monkeypatch):
    algebra = build_second_type(16, SecondTypeParams(1, (0, 1, 0, 2), -1))
    built = count_builds(monkeypatch, lnz.algebra, "_build_cells")
    for call in (natural_gradation, char_sequence_estimate):
        built.clear()
        call(algebra.renamed(None))     # a fresh tensor, with no cells yet
        assert len(built) == 1
