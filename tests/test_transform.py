"""Basis changes, parameter maps, signatures, and the equivalence decision."""

import hashlib
import itertools
import math
import random
import sys
from fractions import Fraction

import pytest

import lnz.algebra
import lnz.linalg
import lnz.transform
import lnz.verify
from lnz import (
    CATALOG_ROWS,
    DEFAULT_FREE_SAMPLES,
    BasisChange,
    Distinct,
    DocumentError,
    EpsilonMismatch,
    Equivalent,
    GradedChange2,
    MatrixQ,
    NotNormalForm,
    RestrictionViolated,
    SecondTypeParams,
    SingularChange,
    StructureTensor,
    Unknown,
    Vec,
    apply_change,
    bracket,
    build_second_type,
    build_type1_branch_a,
    build_type1_branch_b,
    completed_first_type_change,
    completed_second_type_change,
    decide_equivalence,
    enumerate_catalog,
    extract_second_type,
    extract_type1_a,
    extract_type1_b,
    nullity_signature,
    param_map_case1,
    param_map_case2,
    param_map_type1_a,
    param_map_type1_b,
    parse_change,
    scale_identities_hold,
    serialize_change,
    verify_homogeneity,
)

Q = Fraction


def violated_factor(fn, *args):
    with pytest.raises(RestrictionViolated) as info:
        fn(*args)
    return info.value.factor


# ----------------------------------------------------------------------
# basis changes


def test_identity_change_is_neutral():
    algebra = build_second_type(9, SecondTypeParams(0, (1, 0, 0, 1), -1))
    ident = BasisChange(MatrixQ.identity(9))
    assert apply_change(algebra, ident).table == algebra.table


def test_permutation_change():
    # swap e_1 and e_2 in an abelian-plus-one-product algebra
    algebra = StructureTensor(3, {(1, 1): ((3, Q(1)),)})
    rows = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    change = BasisChange(MatrixQ.from_rows([[Q(x) for x in r] for r in rows]))
    moved = apply_change(algebra, change)
    assert moved.table == {(2, 2): ((3, Q(1)),)}


def test_inverse_round_trip():
    algebra = build_second_type(10, SecondTypeParams(1, (0, 0, 0, 1), -1))
    g = GradedChange2(Q(1), Q(1, 2))
    change = completed_second_type_change(algebra, g)
    moved = apply_change(algebra, change)
    back = apply_change(moved, change.inverted())
    assert back.table == algebra.table


def test_apply_change_cells_are_in_normal_form():
    # the output goes to the tensor without the constructor's normaliser,
    # so it must already be what that normaliser would make of it
    rng = random.Random(29)
    for _ in range(40):
        n = rng.randint(1, 6)
        table = {(i, j): [(k, Q(rng.randint(-4, 4), rng.randint(1, 3)))
                          for k in rng.sample(range(1, n + 1), rng.randint(1, n))]
                 for i in range(1, n + 1) for j in range(1, n + 1)
                 if rng.random() < 0.5}
        algebra = StructureTensor(n, table)
        # a scaled permutation and a few row operations: invertible and
        # sparse, so products reach the targets out of order
        perm = rng.sample(range(n), n)
        rows = [[Q(rng.choice((-3, -1, 2, 5)), rng.randint(1, 4)) if c == perm[r]
                 else Q(0) for c in range(n)] for r in range(n)]
        for _ in range(rng.randint(0, n) if n > 1 else 0):
            a, b = rng.sample(range(n), 2)
            c = rng.choice((-2, -1, 1, 2))
            rows[a] = [x + c * y for x, y in zip(rows[a], rows[b])]
        moved = apply_change(algebra, BasisChange(MatrixQ.from_rows(rows)))
        reference = StructureTensor(n, moved.table)
        assert moved.table == reference.table
        assert all(type(cell) is tuple and cell for cell in moved.table.values())
        assert all(type(c) is Q and c for cell in moved.table.values()
                   for _, c in cell)


def test_singular_change_rejected():
    rows = [[Q(1), Q(2)], [Q(2), Q(4)]]
    with pytest.raises(SingularChange):
        BasisChange(MatrixQ.from_rows(rows))


def reference_completed_change(algebra, g, second):
    """The completed change as ``Vec`` columns made with public ``bracket``:
    e'_1 = A1*e_1 + A4*e_m, e'_m = b*e_m, and every other e'_j is
    [e'_{j-1}, e'_1]."""
    n = algebra.dim
    if second:
        m = 4
        b = g.A1 - g.A4 if algebra.coefficient(4, n - 1, n) else g.B4
    else:
        m, b = n - 2, g.B4
    e1p = Vec.basis(n, 1).scale(g.A1) + Vec.basis(n, m).scale(g.A4)
    cols = [e1p]
    for j in range(2, n + 1):
        cols.append(Vec.basis(n, m).scale(b) if j == m
                    else bracket(algebra, cols[-1], e1p))
    return MatrixQ.from_rows(list(zip(*(v.coords for v in cols))))


CHANGE_SCALARS = (Q(1), Q(-1), Q(2), Q(1, 2), Q(-2, 3), Q(5, 7), Q(7, 3))


def test_completed_changes_match_the_bracket_reference():
    rng = random.Random(43)
    firsts = {}                         # first instance of each row and n
    for inst in enumerate_catalog((9, 10, 16)):
        firsts.setdefault((inst.row.row_id, inst.n), inst)
    assert {n for _, n in firsts} == {9, 10, 16}
    singular = 0
    for inst in firsts.values():
        second = inst.row.kind == "second"
        complete = (completed_second_type_change if second
                    else completed_first_type_change)
        for _ in range(2):
            g = GradedChange2(*(rng.choice(CHANGE_SCALARS) for _ in range(3)))
            reference = reference_completed_change(inst.tensor, g, second)
            if lnz.linalg.rank(reference) < inst.n:    # e.g. A1 = A4 pinned
                singular += 1
                with pytest.raises(SingularChange):
                    complete(inst.tensor, g)
                continue
            change = complete(inst.tensor, g)
            assert change.matrix == reference, (inst.label(), g)
            for j in (0, inst.n - 1):   # M times column j of M^-1 is e_j
                assert reference.apply(change.inverse.column(j)) == \
                    Vec.basis(inst.n, j + 1).coords
    assert singular < len(firsts) // 2


def test_singular_completed_changes_raise_as_before():
    b4_zero = GradedChange2(Q(2, 3), Q(5, 7), Q(0))
    a1_eq_a4 = GradedChange2(Q(5, 7), Q(5, 7), Q(3))
    cases = [(build_second_type(9, SecondTypeParams(0, (1, Q(1, 2), 0, 2), -1)),
              completed_second_type_change, b4_zero),
             (build_second_type(10, SecondTypeParams(1, (0, 0, 0, 1), -1)),
              completed_second_type_change, a1_eq_a4),
             (build_type1_branch_a(16, 1, 0, 2), completed_first_type_change,
              b4_zero),
             (build_type1_branch_b(9, 1, 2, -1), completed_first_type_change,
              b4_zero)]
    for algebra, complete, g in cases:
        reference = reference_completed_change(
            algebra, g, complete is completed_second_type_change)
        assert lnz.linalg.rank(reference) < algebra.dim
        with pytest.raises(SingularChange) as info:
            complete(algebra, g)
        assert str(info.value) == "change matrix is singular"
    # the alternating pin ignores B4 = 0 while A1 - A4 is nonzero
    algebra = build_second_type(10, SecondTypeParams(1, (0, 0, 0, 1), -1))
    completed_second_type_change(algebra, GradedChange2(Q(1), Q(1, 2), Q(0)))


def test_replay_makes_no_bracket_and_no_invert_call(monkeypatch):
    calls = {"bracket": 0, "invert": 0}
    for name, home in (("bracket", lnz.algebra), ("invert", lnz.linalg)):
        original = getattr(home, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)
        for key, module in list(sys.modules.items()):
            if key == "lnz" or key.startswith("lnz."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counted)
    rng = random.Random(5)
    for family in lnz.verify._FAMILIES:
        p, g, mapped = lnz.verify._draw_mapped(rng, family)
        assert lnz.verify._replay(family, 10, p, g) == mapped
    assert calls == {"bracket": 0, "invert": 0}
    lnz.linalg.invert(MatrixQ.identity(2))      # the counters are live
    lnz.algebra.bracket(build_second_type(9, SecondTypeParams(
        0, (0, 0, 0, 0), -1)), Vec.basis(9, 1), Vec.basis(9, 1))
    assert calls == {"bracket": 1, "invert": 1}


# ----------------------------------------------------------------------
# the four closed-form parameter maps


def test_case1_frozen_example():
    p = SecondTypeParams(0, (1, 0, 0, 1), -1)
    q = param_map_case1(p, GradedChange2(Q(1), Q(0), Q(2)))
    assert q.alphas == (2, 0, 0, 4)
    assert q.beta == -1 and q.epsilon == 0


def test_case2_frozen_example():
    p = SecondTypeParams(1, (0, 0, 0, 1), -1)
    q = param_map_case2(p, GradedChange2(Q(2), Q(1)))
    assert q.alphas == (0, 0, 0, Q(1, 4))


def test_type1_frozen_examples():
    assert param_map_type1_a((1, 0, 2), GradedChange2(Q(1), Q(1), Q(2))) \
        == (1, Q(1, 6), Q(4, 3))
    assert param_map_type1_b((0, -1, 1), GradedChange2(Q(2), Q(1), Q(1))) \
        == (0, -1, 1)


def test_epsilon_mismatch():
    g = GradedChange2(Q(1), Q(0))
    with pytest.raises(EpsilonMismatch):
        param_map_case1(SecondTypeParams(1, (0, 0, 0, 0), -1), g)
    with pytest.raises(EpsilonMismatch):
        param_map_case2(SecondTypeParams(0, (0, 0, 0, 0), -1), g)
    with pytest.raises(EpsilonMismatch):
        decide_equivalence(SecondTypeParams(0, (0, 0, 0, 0), -1),
                           SecondTypeParams(1, (0, 0, 0, 0), -1))


def test_restriction_factor_names():
    p0 = SecondTypeParams(0, (1, 1, -1, 0), -1)
    assert violated_factor(param_map_case1, p0,
                           GradedChange2(Q(0), Q(1))) == "A1"
    assert violated_factor(param_map_case1, p0,
                           GradedChange2(Q(1), Q(-1))) == "A1+alpha2*A4"
    assert violated_factor(
        param_map_case1, SecondTypeParams(0, (0, 0, -1, 0), -1),
        GradedChange2(Q(1), Q(1))) == "A1^2+alpha1*A1*A4+alpha3*A4^2"
    assert violated_factor(param_map_case1, p0,
                           GradedChange2(Q(1), Q(0), Q(0))) == "B4"
    assert violated_factor(
        param_map_case2, SecondTypeParams(1, (0, 0, 0, 0), -1),
        GradedChange2(Q(1), Q(1))) == "A1-A4"
    # two factors vanish: the first one in the docstring's order is named
    assert violated_factor(param_map_case1, p0,
                           GradedChange2(1, -1, 0)) == "A1+alpha2*A4"
    assert violated_factor(
        param_map_case2, SecondTypeParams(1, (0, -1, 0, 0), -1),
        GradedChange2(1, 1)) == "A1-A4"
    assert violated_factor(param_map_type1_a, (1, 0, 2),
                           GradedChange2(Q(1), Q(-1))) == "A1+alpha1*A(n-2)"
    assert violated_factor(param_map_type1_a, (1, 0, 2),
                           GradedChange2(Q(1), Q(0), Q(0))) == "B(n-2)"
    assert violated_factor(param_map_type1_a, (0, 0, -1),
                           GradedChange2(Q(1), Q(1))) == "A1+beta2*A(n-2)"
    assert violated_factor(param_map_type1_b, (0, 0, 1),
                           GradedChange2(Q(1), Q(1))) == "A1-b2*A(n-2)"


def test_maps_agree_with_full_basis_change_second_type():
    cases = [(SecondTypeParams(0, (1, 0, 0, 2), -1), 9,
              GradedChange2(Q(1), Q(1, 2), Q(3))),
             (SecondTypeParams(0, (0, 1, 0, 1), -1), 9,
              GradedChange2(Q(2), Q(1), Q(1))),
             (SecondTypeParams(1, (0, 0, 0, 1), -1), 10,
              GradedChange2(Q(1), Q(1, 2))),
             (SecondTypeParams(1, (-2, -1, 0, 1), -1), 10,
              GradedChange2(Q(3), Q(1)))]
    for p, n, g in cases:
        algebra = build_second_type(n, p)
        mapped = param_map_case1(p, g) if p.epsilon == 0 else param_map_case2(p, g)
        moved = apply_change(algebra, completed_second_type_change(algebra, g))
        assert extract_second_type(moved) == mapped


def test_maps_agree_with_full_basis_change_first_type():
    g = GradedChange2(Q(1), Q(1, 3), Q(2))
    a = build_type1_branch_a(9, 1, 0, 2)
    mapped_a = param_map_type1_a((1, 0, 2), g)
    moved_a = apply_change(a, completed_first_type_change(a, g))
    assert extract_type1_a(moved_a) == mapped_a

    b = build_type1_branch_b(9, 1, 2, -1)
    mapped_b = param_map_type1_b((1, 2, -1), g)
    moved_b = apply_change(b, completed_first_type_change(b, g))
    assert extract_type1_b(moved_b) == mapped_b


def test_epsilon_one_change_ignores_b4():
    algebra = build_second_type(10, SecondTypeParams(1, (0, 2, 0, 1), -1))
    g_any = GradedChange2(Q(1), Q(1, 2), Q(7))
    g_pin = GradedChange2(Q(1), Q(1, 2), Q(1, 2))
    left = completed_second_type_change(algebra, g_any)
    right = completed_second_type_change(algebra, g_pin)
    assert left.matrix == right.matrix


def test_scale_identities_hold():
    probes = [(SecondTypeParams(0, (1, 1, -1, 2), -1),
               GradedChange2(Q(1), Q(2), Q(3))),
              (SecondTypeParams(0, (2, 1, 1, 1), -1),
               GradedChange2(Q(2), Q(-1), Q(1, 2))),
              (SecondTypeParams(1, (0, 2, 0, 1), -1),
               GradedChange2(Q(1), Q(1, 2))),
              (SecondTypeParams(1, (-2, -1, 1, 0), -1),
               GradedChange2(Q(3), Q(1)))]
    for p, g in probes:
        assert scale_identities_hold(p, g)


def test_homogeneity():
    assert verify_homogeneity(trials=40, seed=2)


@pytest.mark.parametrize("name", ["param_map_case1", "param_map_case2",
                                  "param_map_type1_a", "param_map_type1_b"])
def test_homogeneity_catches_each_map(monkeypatch, name):
    assert verify_homogeneity()
    exact = getattr(lnz.verify, name)

    def shifted_by_a1(p, g):
        # adds A1 to the first mapped value: scaling (A1, A4, B4) moves it
        mapped = exact(p, g)
        if isinstance(mapped, SecondTypeParams):
            a1, *rest = mapped.alphas
            return SecondTypeParams(mapped.epsilon, (a1 + g.A1, *rest),
                                    mapped.beta)
        return (mapped[0] + g.A1, *mapped[1:])

    monkeypatch.setattr(lnz.verify, name, shifted_by_a1)
    assert not verify_homogeneity()


# ----------------------------------------------------------------------
# extraction


def test_extract_second_type_round_trip():
    p = SecondTypeParams(0, (1, 2, 3, 4), -1)
    assert extract_second_type(build_second_type(9, p)) == p


def test_extract_rejects_non_normal_tensors():
    with pytest.raises(NotNormalForm):
        extract_second_type(build_type1_branch_a(9, 1, 0, 2))
    algebra = build_second_type(10, SecondTypeParams(1, (0, 0, 0, 0), -1))
    table = dict(algebra.table)
    table[(4, 9)] = ((10, Q(2)),)
    with pytest.raises(NotNormalForm, match="not 0 or 1"):
        extract_second_type(StructureTensor(10, table))
    table = dict(algebra.table)
    table[(7, 2)] = ((9, Q(1)),)
    with pytest.raises(NotNormalForm):
        extract_second_type(StructureTensor(10, table))
    with pytest.raises(NotNormalForm):
        extract_type1_a(build_type1_branch_b(9, 1, 2, -1))
    with pytest.raises(NotNormalForm):
        extract_type1_b(build_type1_branch_a(9, 1, 0, 2))


@pytest.mark.parametrize("extract", [extract_second_type, extract_type1_a,
                                     extract_type1_b])
@pytest.mark.parametrize("dim", range(1, 9))
def test_extract_rejects_every_dimension_below_nine(extract, dim):
    with pytest.raises(NotNormalForm, match=f"n >= 9, got {dim}$"):
        extract(StructureTensor(dim, {(1, 1): [(dim, 1)]}))


# ----------------------------------------------------------------------
# nullity signatures


def test_signature_bits_second_type():
    sig = nullity_signature(SecondTypeParams(0, (0, 0, 0, 0), 0))
    assert sig.kind == "second-eps0"
    assert sig.bits == (("beta", True), ("alpha1^2-4*alpha3", True),
                        ("alpha1*alpha2-2*alpha3", True),
                        ("alpha1*alpha2-2*alpha4", True))
    sig1 = nullity_signature(SecondTypeParams(1, (-2, 0, 1, 0), -1))
    assert sig1.kind == "second-eps1"
    assert dict(sig1.bits)["alpha1+2*alpha3"] is True
    assert dict(sig1.bits)["alpha1^2-4*alpha3"] is True


def test_signature_bits_first_type():
    sig = nullity_signature(("a", (0, 2, 0)))
    assert sig.kind == "first-a"
    assert dict(sig.bits) == {"alpha1": True, "beta2": True,
                              "alpha1-beta2": True, "1-alpha2": False,
                              "1+alpha2": False}
    sig_b = nullity_signature(("b", (1, -1, -1)))
    assert sig_b.bits == (("alpha1", False), ("b2", False),
                          ("1+a2", True), ("alpha1+b2", True))
    with pytest.raises(ValueError):
        nullity_signature(("c", (0, 0, 0)))


def test_first_difference():
    a = nullity_signature(SecondTypeParams(0, (1, 0, 0, 1), -1))
    b = nullity_signature(SecondTypeParams(0, (2, 0, 0, 4), -1))
    assert a.first_difference(b) is None
    c = nullity_signature(SecondTypeParams(0, (0, 0, 0, 0), -1))
    assert a.first_difference(c) == "alpha1^2-4*alpha3"
    d = nullity_signature(SecondTypeParams(1, (1, 0, 0, 1), -1))
    assert a.first_difference(d) == "kind"


def test_first_difference_properties():
    grid = (0, 1, -1, 2)
    params = [SecondTypeParams(eps, alphas, -1) for eps in (0, 1)
              for alphas in itertools.product(grid, repeat=4)]
    params += [SecondTypeParams(eps, (0, 0, 0, 0), 0) for eps in (0, 1)]
    params += [(branch, triple) for branch in "ab"
               for triple in itertools.product(grid, repeat=3)]
    signatures = {nullity_signature(p) for p in params}
    assert {sig.kind for sig in signatures} == {
        "second-eps0", "second-eps1", "first-a", "first-b"}
    for a, b in itertools.product(signatures, repeat=2):
        diff = a.first_difference(b)
        assert (diff == "kind") == (a.kind != b.kind)
        if a.kind == b.kind:
            assert (diff is None) == (a.bits == b.bits)
            if diff is not None:
                bits_a, bits_b = dict(a.bits), dict(b.bits)
                assert diff in bits_a and diff in bits_b
                assert bits_a[diff] != bits_b[diff]


# ----------------------------------------------------------------------
# equivalence decision


def test_decide_equivalent_with_witness():
    p = SecondTypeParams(0, (1, 0, 0, 1), -1)
    q = SecondTypeParams(0, (2, 0, 0, 4), -1)
    out = decide_equivalence(p, q)
    assert isinstance(out, Equivalent)
    g = out.witness
    assert param_map_case1(p, g).alphas == q.alphas


def test_decide_rejects_a_negative_budget_before_any_work():
    p = SecondTypeParams(0, (1, 0, 0, 1), -1)
    q = SecondTypeParams(0, (2, 0, 0, 4), -1)
    assert isinstance(decide_equivalence(p, q, budget=0), Equivalent)
    # the epsilon mismatch of the second call is never looked at
    for other in (q, SecondTypeParams(1, (0, 0, 0, 1), -1)):
        with pytest.raises(ValueError,
                           match="budget must be 0 or more, got -1"):
            decide_equivalence(p, other, budget=-1)


def test_decide_equal_params_is_identity():
    p = SecondTypeParams(0, (1, 2, 3, 4), -1)
    out = decide_equivalence(p, p)
    assert isinstance(out, Equivalent)
    assert (out.witness.A1, out.witness.A4, out.witness.B4) == (1, 0, 1)


def test_decide_distinct_cites_an_invariant():
    out = decide_equivalence(SecondTypeParams(0, (1, 0, 0, 0), -1),
                             SecondTypeParams(0, (1, 0, 0, 1), -1))
    assert isinstance(out, Distinct)
    assert out.invariant == "alpha1*alpha2-2*alpha4"
    out2 = decide_equivalence(SecondTypeParams(0, (0, 0, 0, 0), 0),
                              SecondTypeParams(0, (1, 0, 0, 1), -1))
    assert isinstance(out2, Distinct)
    assert out2.invariant == "beta"


def test_decide_epsilon_one_pair():
    p = SecondTypeParams(1, (0, 0, 0, 1), -1)
    q = SecondTypeParams(1, (0, 0, 0, Q(1, 4)), -1)
    out = decide_equivalence(p, q)
    assert isinstance(out, Equivalent)
    assert param_map_case2(p, out.witness).alphas == q.alphas


def fracs(text):
    return tuple(Q(x) for x in text.split(","))


@pytest.mark.parametrize("eps, p, q, witness", [
    # A4 = 0 with B4 scaling
    (0, "1/2,1/2,0,-2", "4/11,4/11,0,-128/121", "1,0,8/11"),
    # A4 = 0 with B4 from the alpha4 equation alone
    (0, "0,0,0,1", "0,0,0,4", "1,0,2"),
    # s eliminated through the alpha2 equation
    (0, "1/3,-1,1/2,3", "14/11,2,6/11,-24/11", "1,2,2"),
    # s eliminated through the alpha1 equation (alpha2 = 0)
    (0, "0,0,1/2,-2", "-14/9,0,49/54,-98/27", "1,-2,7/3"),
    # root of the gcd at B4 = 1 - A4; the witness keeps B4 = 1
    (1, "1/3,1/3,3,-1/2", "-37/41,-1/5,9/41,27/410", "1,2,1"),
    # alpha1 rule with num = 0 and den = 1 + t/3: at den's root t = -3,
    # outside the height-1 grid, B4 comes from the equations in s^2; the
    # alpha3 and the alpha4 one (alpha4 = 1) both give +-2
    (0, "1,0,1/6,1", "0,0,-4/3,-8", "1,-3,2"),
    # alpha1 rule with num = 0 and den = 1 + 2t: at den's root t = -1/2,
    # B4 = +-3 comes from the alpha3 equation alone, as alpha4 = 0 and
    # alpha2 * alpha3 = 0 leave the alpha4 one without an s^2 term
    (0, "1,0,1,0", "0,0,12,0", "1,-1/2,3"),
    # a linear gcd whose root A4 = 10007 lies above the divisor bound of
    # the higher-degree root search
    (0, "1,1,2,1",
     "200145/200290106,5/10008,25/100145053,500375/2004503380848",
     "1,10007,5"),
    (1, "1,1,2,1",
     "-200265087/100145053,-5003/5004,100120036/100145053,"
     "500975630135/501125845212", "1,10007,1"),
])
def test_decide_witness_from_each_candidate_source(eps, p, q, witness):
    p = SecondTypeParams(eps, fracs(p), -1)
    q = SecondTypeParams(eps, fracs(q), -1)
    algebra = build_second_type(10, p)
    for budget in (1, 6):
        out = decide_equivalence(p, q, budget=budget)
        assert isinstance(out, Equivalent)
        g = out.witness
        assert (g.A1, g.A4, g.B4) == fracs(witness)
        change = completed_second_type_change(algebra, g)
        assert extract_second_type(apply_change(algebra, change)) == q


@pytest.mark.parametrize("budget", [1, 8])
def test_decide_epsilon_one_tries_roots_only(monkeypatch, budget):
    # no grid for epsilon = 1: A4 = 0 and the gcd roots are all it tries
    calls = []

    def counted(p, g):
        calls.append(g)
        return param_map_case2(p, g)

    monkeypatch.setattr(lnz.transform, "param_map_case2", counted)
    out = decide_equivalence(SecondTypeParams(1, (0, 0, 0, 0), -1),
                             SecondTypeParams(1, (0, 1, 0, 0), -1),
                             budget=budget)
    assert isinstance(out, Unknown)
    assert len(calls) <= 2


def test_decide_unknown_when_witness_is_irrational():
    # moving (0,0,-1,0) to (0,0,-2,0) forces A4 = 0 and B4^2 = 2
    out = decide_equivalence(SecondTypeParams(0, (0, 0, -1, 0), -1),
                             SecondTypeParams(0, (0, 0, -2, 0), -1))
    assert isinstance(out, Unknown)
    assert "no rational witness" in out.detail


def test_decide_beta_zero_branch():
    p = SecondTypeParams(0, (0, 0, 0, 0), 0)
    out = decide_equivalence(p, SecondTypeParams(0, (0, 0, 0, 0), 0))
    assert isinstance(out, Equivalent)


def verdict_pairs():
    """Seeded (p, q) pairs for the verdict pin: per epsilon, catalog
    sample pairs with agreeing and with differing signatures and mapped
    pairs (p, map(p, g)), then pairs that take s from the alpha2 equation
    and from the alpha1 one, with q2 = 0 and q2 != 0."""
    rng = random.Random(14)
    pool = [Q(0), Q(1), Q(-1), Q(2), Q(1, 2), Q(-1, 3)]
    pairs = []
    for eps, forward in ((0, param_map_case1), (1, param_map_case2)):
        samples = [row.make_params(values) for row in CATALOG_ROWS
                   if row.kind == "second" and row.epsilon == eps
                   for values in row.sample_grid(DEFAULT_FREE_SAMPLES)]
        wanted = {True: 14, False: 6}       # agreeing signatures: count
        while any(wanted.values()):
            p, q = rng.choice(samples), rng.choice(samples)
            agree = nullity_signature(p) == nullity_signature(q)
            if p != q and wanted[agree]:
                wanted[agree] -= 1
                pairs.append((p, q))
        mapped = 0
        while mapped < 8:
            p = rng.choice(samples)
            g = GradedChange2(rng.choice(pool[1:]), rng.choice(pool),
                              rng.choice(pool[1:]))
            try:
                pairs.append((p, forward(p, g)))
            except RestrictionViolated:
                continue
            mapped += 1
    for p, q in (("1/3,-1,1/2,3", "14/11,2,6/11,-24/11"),   # alpha2 != 0
                 ("0,0,1,0", "0,1,1,0"),                    # q2 != 0
                 ("0,0,1/2,-2", "-14/9,0,49/54,-98/27"),    # alpha1 rule
                 ("1,0,0,0", "3,0,0,0")):   # B4 = 3 from alpha1 alone
        pairs.append((SecondTypeParams(0, fracs(p), -1),
                      SecondTypeParams(0, fracs(q), -1)))
    return pairs


def test_equivalence_verdicts_are_pinned():
    # sha256 over the verdict reprs at budgets 1 and 6, so a change in any
    # verdict, cited invariant or witness shows
    pairs = verdict_pairs()
    paths = {("a2" if p.alphas[1] else "q2" if q.alphas[1] else "alpha1")
             for p, q in pairs if p.epsilon == 0 and p != q
             and nullity_signature(p) == nullity_signature(q)}
    assert paths == {"a2", "q2", "alpha1"}
    assert {p.epsilon for p, _ in pairs} == {0, 1}
    digest = hashlib.sha256()
    kinds = set()
    for p, q in pairs:
        for budget in (1, 6):
            verdict = decide_equivalence(p, q, budget=budget)
            kinds.add(verdict.kind)
            digest.update((repr(verdict) + "\n").encode())
    assert kinds == {"equivalent", "distinct", "unknown"}
    assert digest.hexdigest() == (
        "28ff98a8fa8229e26552eea3e44cff94d44bf2bbb242557851fced8d9592f70a")


# ----------------------------------------------------------------------
# change documents


def test_change_document_round_trip():
    algebra = build_second_type(9, SecondTypeParams(0, (1, 0, 0, 1), -1))
    change = completed_second_type_change(
        algebra, GradedChange2(Q(1), Q(1, 2), Q(3)))
    text = serialize_change(change)
    again = parse_change(text)
    assert again.matrix == change.matrix
    assert serialize_change(again) == text


def test_change_document_errors():
    with pytest.raises(DocumentError) as info:
        parse_change("{\n  \"dim\": 2,\n")
    assert info.value.line is not None
    with pytest.raises(DocumentError, match="JSON object"):
        parse_change("[1, 2]")
    with pytest.raises(DocumentError, match="unknown change fields"):
        parse_change('{"dim": 1, "matrix": [["1"]], "extra": 0}')
    with pytest.raises(DocumentError, match="positive integer"):
        parse_change('{"dim": 0, "matrix": []}')
    with pytest.raises(DocumentError, match="list of 2 rows"):
        parse_change('{"dim": 2, "matrix": [["1", "0"]]}')
    with pytest.raises(DocumentError, match="row 0"):
        parse_change('{"dim": 2, "matrix": [["1"], ["0", "1"]]}')
    with pytest.raises(DocumentError, match="matrix"):
        parse_change('{"dim": 1, "matrix": [[0.5]]}')
    with pytest.raises(SingularChange):
        parse_change('{"dim": 2, "matrix": [["1", "1"], ["1", "1"]]}')


def test_grid_axis_is_every_reduced_fraction_by_height():
    for h in range(1, 9):
        reference = [Fraction(0)]
        for height in range(1, h + 1):
            reference += sorted(
                Fraction(p, q) for q in range(1, height + 1)
                for p in range(-height, height + 1)
                if p and math.gcd(p, q) == 1 and max(abs(p), q) == height)
        assert lnz.transform._grid_axis(h) == reference
