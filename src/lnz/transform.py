"""Basis changes and the closed-form parameter maps.

A graded change of generators is determined by three scalars: the image
of the first generator is A1*e_1 + A4*e_m and the image of the second
generator e_m is scaled by B4 (m = 4 for second type, n - 2 for first
type).  One builder regenerates every other basis vector by
right-bracketing with the new e_1, so the whole change is an invertible
matrix and can be pushed through any structure tensor directly; the
change keeps the integer columns it was built from.  The closed-form
maps below say what happens to the family parameters; the checks in
``verify`` replay them through the direct route for thousands of cases.

When the alternating products are switched on (epsilon = 1) the second
generator's scale is no longer free: keeping the alternating coefficient
normalised forces B4 = A1 - A4, so those maps take A1 and A4 only.  Both
second-type maps are one set of formulas that differ only in that pin.

``decide_equivalence`` answers whether two second-type parameter tuples
name the same algebra.  It is deliberately three-valued: Distinct is
claimed only from the printed nullity invariants, Equivalent only with a
verified witness, and everything else is Unknown (a witness may exist
over the complex numbers that has no rational coordinates).  Both
epsilons share one elimination rule, s = num/den for B4 = s, read off
the first matching equation that is linear in s.  It feeds both steps:
A4 runs over 0 and the rational roots of the equations cleared at
s = num/den, and B4 at each such A4 is num/den there, or comes from the
equations in s^2 alone where num and den both vanish.  Its docstring
says why no other A4 need be tried.  A linear gcd gives its root at any
height; a gcd of higher degree is searched only for roots with numerator
and denominator at most 10,000.  The search budget bounds only the
epsilon = 0 height grid that follows.  Everything before the grid runs
on integers: the equations are integer polynomials in t over one lcm
of the eight alphas' denominators, each evaluation at t = a/b is a
homogenised Horner sum, ``poly_gcd`` and ``rational_roots`` work on
primitive integer forms, and the nullity bits are integer
cross-multiplications.  Only the candidates (A4, B4), the witness built
from them and the grid are ``Fraction``s.

``parse_change`` reads change documents under the header rule of algebra
documents (``algebra._document``); ``serialize_change`` writes them with
``json.dumps``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import isqrt, lcm

from .algebra import (StructureTensor, Vec, _coeff_from_document,
                      _document, _integer_cells, _tensor, _times_basis)
from .catalog import (FirstTypeParams, SecondTypeParams, build_second_type,
                      build_type1_branch_a, build_type1_branch_b)
from .errors import (DimensionMismatch, DocumentError, EpsilonMismatch,
                     IndexOutOfRange, NotNormalForm, RestrictionViolated,
                     SingularChange, ToolkitError)
from .linalg import (MatrixQ, PolyQ, _combine, _count, _frac, _homogeneous,
                     _int_poly_dot, _int_rows,
                     _inverse_columns, _matrix_of_columns, _trimmed,
                     poly_gcd, rational_roots)

Q = Fraction


# ----------------------------------------------------------------------
# direct basis changes

@dataclass(frozen=True)
class BasisChange:
    """Invertible change of basis; column i of ``matrix`` is the new
    basis vector e'_i written in the old coordinates.  The integer columns
    of the matrix and of its inverse are kept for ``apply_change``, and
    ``inverse`` is built from them on first read."""

    matrix: MatrixQ

    def __post_init__(self):
        if self.matrix.rows != self.matrix.cols:
            raise SingularChange("change matrix must be square")
        _keep_columns(self, _int_rows(self.matrix.column(i)
                                      for i in range(self.dim)))

    @cached_property
    def inverse(self) -> MatrixQ:
        return _matrix_of_columns(*self._inverse_cols)

    @property
    def dim(self) -> int:
        return self.matrix.rows

    def column(self, i: int) -> Vec:
        """New basis vector e'_i (1-based) in old coordinates."""
        if not 1 <= i <= self.dim:
            raise IndexOutOfRange(f"column index {i} outside 1..{self.dim}")
        return Vec(self.matrix.column(i - 1))

    def inverted(self) -> "BasisChange":
        return BasisChange(self.inverse)


def _keep_columns(change: BasisChange, cols: tuple):
    """Keep the integer columns ``(scale, columns)`` of the matrix, which
    hold no zero, and those of its inverse on ``change``."""
    inverse = _inverse_columns(*cols)
    if inverse is None:
        raise SingularChange("change matrix is singular")
    object.__setattr__(change, "_cols", cols)
    object.__setattr__(change, "_inverse_cols", inverse)


def apply_change(algebra: StructureTensor, change: BasisChange) -> StructureTensor:
    """The same algebra written on the new basis.

    c'[i][j] expands [e'_i, e'_j] in the primed basis.  For each new basis
    vector e'_i, a column of the matrix, ``algebra._times_basis`` gives
    the nonzero [e'_i, e_b]; each is pulled back through the inverse once
    and added, times entry b of column j, into [e'_i, e'_j] for the j
    that an index of the matrix by row lists at b, so the work follows the
    nonzeros of the table and of the matrix, not the n^2 pairs.
    Everything runs on sparse integers: the integer cells of the table
    (``algebra._integer_cells``) and the integer columns of the matrix and
    of its inverse that the change keeps.  Each distinct integer of the
    output becomes one ``Fraction``, shared by every term that holds it.
    The cells come out sorted and without zeros, so the tensor takes them
    as they are.
    """
    n = algebra.dim
    if change.dim != n:
        raise DimensionMismatch(
            f"change on {change.dim} coordinates, algebra has {n}")
    s_table, by_left = _integer_cells(algebra)
    s_matrix, cols = change._cols
    s_inverse, back = change._inverse_cols
    back = dict(enumerate(back))
    scale = s_table * s_matrix ** 2 * s_inverse
    at_row: dict = {}                   # b -> [(j, entry b of column j)]
    for j, col in enumerate(cols, 1):
        for b, x in col.items():
            at_row.setdefault(b, []).append((j, x))
    fractions: dict = {}                # v -> Fraction(v, scale)
    table = {}
    for i, col in enumerate(cols, 1):
        sums: dict = {}                 # j -> [e'_i, e'_j], new coordinates
        for b, prod in _times_basis(by_left, col).items():
            image = _combine(prod, back)
            for j, x in at_row.get(b, ()):
                acc = sums.setdefault(j, {})
                for t, v in image.items():
                    acc[t] = acc.get(t, 0) + x * v
        for j in sorted(sums):
            cell = []
            for t, v in sorted(sums[j].items()):
                if v:
                    f = fractions.get(v)
                    if f is None:
                        f = fractions[v] = Fraction(v, scale)
                    cell.append((t + 1, f))
            if cell:
                table[(i, j)] = tuple(cell)
    return _tensor(n, table, algebra.name)


def parse_change(text: str) -> BasisChange:
    """Read a basis-change document.

    The document is a JSON object with an integer "dim" and a "matrix"
    given as dim rows of dim exact fraction strings, rows of the same
    matrix whose columns are the new basis vectors.
    """
    doc, dim = _document(text, {"dim", "matrix"}, "change")
    matrix = doc.get("matrix")
    if not isinstance(matrix, list) or len(matrix) != dim:
        raise DocumentError(f"\"matrix\" must be a list of {dim} rows")

    def where():                        # the entry being read when it fails
        return f"matrix[{r}][{c}]"

    known: dict = {}
    entries = []
    for r, row in enumerate(matrix):
        if not isinstance(row, list) or len(row) != dim:
            raise DocumentError(f"matrix row {r} must hold {dim} entries")
        for c, raw in enumerate(row):
            # the type test comes first: a list or a dict does not hash
            value = known.get(raw) if type(raw) is str else None
            entries.append(value if value is not None
                           else _coeff_from_document(raw, where, known))
    return BasisChange(MatrixQ(dim, dim, tuple(entries)))


def serialize_change(change: BasisChange) -> str:
    """Canonical text for a basis-change document:
    ``json.dumps(doc, indent=2) + "\\n"``, entries as fraction strings."""
    return json.dumps({"dim": change.dim, "matrix": [
        [str(x) for x in change.matrix.row(r)] for r in range(change.dim)]},
        indent=2) + "\n"


@dataclass(frozen=True)
class GradedChange2:
    """Scalars of a graded change of generators.

    A1 and A4 weight the two generators inside the new e_1; B4 scales the
    new second generator.  For first-type algebras A4 and B4 act on
    e_{n-2} instead of e_4.  Maps with epsilon = 1 ignore B4 (it is pinned
    to A1 - A4).
    """

    A1: Fraction
    A4: Fraction
    B4: Fraction = Q(1)

    def __post_init__(self):
        object.__setattr__(self, "A1", _frac(self.A1))
        object.__setattr__(self, "A4", _frac(self.A4))
        object.__setattr__(self, "B4", _frac(self.B4))


def _generated_change(algebra: StructureTensor, g: GradedChange2, m: int,
                      b: Fraction) -> BasisChange:
    """The change generated by e'_1 = A1*e_1 + A4*e_m and e'_m = b*e_m.

    Every other e'_j is [e'_{j-1}, e'_1], for j = 2..m-1 and then
    j = m+1..n, each an integer row over its own scale from
    ``_times_basis`` on the integer cells of the table.  The change keeps
    these columns, brought to one scale, rather than reading them back
    off its matrix.
    """
    n = algebra.dim
    if not 1 <= m <= n:
        raise IndexOutOfRange(f"basis index {m} outside 1..{n}")
    s_table, by_left = _integer_cells(algebra)
    e1p = {0: g.A1, m - 1: g.A4} if m > 1 else {0: g.A1 + g.A4}
    s_e1, (e1,) = _int_rows([e1p])
    cols = [(s_e1, e1)]                     # (scale, column) each
    for j in range(2, n + 1):
        if j == m:
            s, (col,) = _int_rows([{m - 1: b}])
        else:
            # without the cancelled zeros, which the inverse must not see
            col = {k: x for k, x in _combine(
                e1, _times_basis(by_left, cols[-1][1])).items() if x}
            s = cols[-1][0] * s_e1 * s_table
        cols.append((s, col))
    scale = lcm(*(s for s, _ in cols))
    cols = [{k: x * (scale // s) for k, x in col.items()} for s, col in cols]
    change = object.__new__(BasisChange)
    object.__setattr__(change, "matrix", _matrix_of_columns(scale, cols))
    _keep_columns(change, (scale, cols))
    return change


def completed_second_type_change(algebra: StructureTensor,
                                 g: GradedChange2) -> BasisChange:
    """Full basis matrix of a graded generator change, second type:
    e'_1 = A1*e_1 + A4*e_4 and e'_4 = B4*e_4, with B4 = A1 - A4 when the
    alternating products are present."""
    eps = algebra.coefficient(4, algebra.dim - 1, algebra.dim)
    return _generated_change(algebra, g, 4, g.A1 - g.A4 if eps != 0 else g.B4)


def completed_first_type_change(algebra: StructureTensor,
                                g: GradedChange2) -> BasisChange:
    """Full basis matrix of a graded generator change, first type:
    e'_1 = A1*e_1 + A4*e_{n-2} and e'_{n-2} = B4*e_{n-2}."""
    return _generated_change(algebra, g, algebra.dim - 2, g.B4)


# ----------------------------------------------------------------------
# closed-form parameter maps

def _require_nonzero(*pairs):
    for factor, value in pairs:
        if value == 0:
            raise RestrictionViolated(factor)


def param_map_case1(p: SecondTypeParams, g: GradedChange2) -> SecondTypeParams:
    """New (alpha1..alpha4) after a graded change, no alternating products.

    Restriction: A1 * (A1 + alpha2*A4) * (A1^2 + alpha1*A1*A4 +
    alpha3*A4^2) * B4 must not vanish.
    """
    if p.epsilon != 0:
        raise EpsilonMismatch("this map handles epsilon = 0 parameters")
    return _second_type_map(p, g)


def param_map_case2(p: SecondTypeParams, g: GradedChange2) -> SecondTypeParams:
    """New parameters with the alternating products present.

    The second generator's scale is forced to A1 - A4 here, so g.B4 is
    ignored.  Restriction: A1 * (A1 - A4) * (A1 + alpha2*A4) *
    (A1^2 + alpha1*A1*A4 + alpha3*A4^2) must not vanish.
    """
    if p.epsilon != 1:
        raise EpsilonMismatch("this map handles epsilon = 1 parameters")
    return _second_type_map(p, g)


def _second_type_map(p: SecondTypeParams, g: GradedChange2) -> SecondTypeParams:
    """The four formulas both second-type maps share.  With epsilon = 1
    B4 is pinned to A1 - A4, and the restriction factors are checked in
    the order the two docstrings above list them."""
    a1, a2, a3, a4 = p.alphas
    A1, A4 = g.A1, g.A4
    D = A1 * A1 + a1 * A1 * A4 + a3 * A4 * A4
    E = A1 + a2 * A4
    factors = [("A1", A1), ("A1+alpha2*A4", E),
               ("A1^2+alpha1*A1*A4+alpha3*A4^2", D)]
    if p.epsilon:
        B4 = A1 - A4
        factors.insert(1, ("A1-A4", B4))
    else:
        B4 = g.B4
        factors.append(("B4", B4))
    _require_nonzero(*factors)
    new = ((a1 * A1 + 2 * a3 * A4) * B4 / D,
           a2 * B4 / E,
           a3 * B4 * B4 / D,
           (a4 * A1 + a2 * a3 * A4) * B4 * B4 / (E * D))
    return SecondTypeParams(p.epsilon, new, p.beta)


def param_map_type1_a(p, g: GradedChange2) -> tuple:
    """Parameter map for the first-type branch whose second generator
    stays in the right annihilator.  ``p`` is (alpha1, alpha2, beta2);
    A4/B4 of ``g`` act on e_{n-2}."""
    a1, a2, b2 = (_frac(x) for x in p)
    A1, A, B = g.A1, g.A4, g.B4
    _require_nonzero(("A1", A1),
                     ("B(n-2)", B),
                     ("A1+alpha1*A(n-2)", A1 + a1 * A),
                     ("A1+beta2*A(n-2)", A1 + b2 * A))
    return (a1 * B / (A1 + a1 * A),
            A1 * (a2 * A1 + b2 * A - a1 * A) / ((A1 + a1 * A) * (A1 + b2 * A)),
            b2 * B / (A1 + b2 * A))


def param_map_type1_b(p, g: GradedChange2) -> tuple:
    """Parameter map for the other first-type branch.  ``p`` is
    (alpha1, a2, b2) in that order (note the printed family subscripts
    list b2 before a2)."""
    a1, a2, b2 = (_frac(x) for x in p)
    A1, A, B = g.A1, g.A4, g.B4
    _require_nonzero(("A1", A1),
                     ("B(n-2)", B),
                     ("A1+alpha1*A(n-2)", A1 + a1 * A),
                     ("A1-b2*A(n-2)", A1 - b2 * A))
    return (a1 * B / (A1 + a1 * A),
            (a2 * A1 + b2 * A) / (A1 - b2 * A),
            b2 * B / (A1 - b2 * A))


# ----------------------------------------------------------------------
# extraction back out of a tensor

def _normal_dim(algebra: StructureTensor) -> int:
    if algebra.dim < 9:     # the smallest normal forms have n = 9
        raise NotNormalForm(f"normal forms need n >= 9, got {algebra.dim}")
    return algebra.dim


def _rebuilt(algebra: StructureTensor, read):
    """The parameters ``read()`` returns with the normal form built from
    them, provided that form is ``algebra`` cell for cell."""
    try:
        params, rebuilt = read()
    except ToolkitError as exc:
        raise NotNormalForm(f"cells do not define valid parameters: {exc}")
    if rebuilt != algebra:
        raise NotNormalForm("tensor does not match its rebuilt normal form")
    return params


def extract_second_type(algebra: StructureTensor) -> SecondTypeParams:
    """Read (epsilon, alphas, beta) off a second-type normal form.

    The candidate parameters are taken from the defining cells and then
    the whole tensor is rebuilt and compared, so any algebra that merely
    resembles the normal form is rejected.
    """
    n = _normal_dim(algebra)
    eps = algebra.coefficient(4, n - 1, n)
    if eps not in (0, 1):
        raise NotNormalForm(f"alternating coefficient {eps} is not 0 or 1")
    beta = algebra.coefficient(1, 4, 5)
    alphas = (algebra.coefficient(1, 4, 2), algebra.coefficient(2, 4, 3),
              algebra.coefficient(4, 4, 2), algebra.coefficient(5, 4, 3))

    def read():
        params = SecondTypeParams(int(eps), alphas, beta)
        return params, build_second_type(n, params)
    return _rebuilt(algebra, read)


def extract_type1_a(algebra: StructureTensor) -> tuple:
    """Read (alpha1, alpha2, beta2) off the annihilator branch form."""
    n = _normal_dim(algebra)
    p = (algebra.coefficient(1, n - 2, 2),
         algebra.coefficient(1, n - 2, n - 1),
         algebra.coefficient(n - 2, n - 2, n - 1))
    return _rebuilt(algebra, lambda: (p, build_type1_branch_a(n, *p)))


def extract_type1_b(algebra: StructureTensor) -> tuple:
    """Read (alpha1, a2, b2) off the non-annihilator branch form."""
    n = _normal_dim(algebra)
    if algebra.coefficient(1, n - 2, n - 1) != -1:
        raise NotNormalForm("[e_1, e_{n-2}] must carry -e_{n-1} here")
    p = (algebra.coefficient(1, n - 2, 2),
         algebra.coefficient(1, n - 1, n),
         algebra.coefficient(n - 2, n - 1, n))
    return _rebuilt(algebra, lambda: (p, build_type1_branch_b(n, *p)))


# ----------------------------------------------------------------------
# nullity signatures

@dataclass(frozen=True)
class NullitySignature:
    """Zero/nonzero pattern of the invariant combinations.

    Each bit is (expression name, is_zero).  Two parameter tuples related
    by an admissible graded change always share their signature, so a
    signature mismatch certifies non-isomorphism.
    """

    kind: str
    bits: tuple

    def first_difference(self, other: "NullitySignature") -> str | None:
        if self.kind != other.kind:
            return "kind"
        # Under one kind the bits come in one order.  The bits that only
        # some signatures of a kind carry ("1-alpha2", "1+alpha2") follow
        # the bit that decides whether they are present, so a differing
        # bit comes before the two lists can part.
        for (name, bit_a), (_, bit_b) in zip(self.bits, other.bits):
            if bit_a != bit_b:
                return name
        return None


def nullity_signature(p) -> NullitySignature:
    """Signature of second-type params, or of a first-type family/branch.

    Accepts SecondTypeParams, FirstTypeParams, or a (branch, triple) pair
    with branch "a" (alpha1, alpha2, beta2) or "b" (alpha1, a2, b2).
    """
    if isinstance(p, SecondTypeParams):
        # each combination is zero exactly when its terms, cross-multiplied
        # by the denominators alpha_k = n_k/d_k, balance in integers
        (n1, d1), (n2, d2), (n3, d3), (n4, d4) = (
            (a.numerator, a.denominator) for a in p.alphas)
        bits = [("beta", p.beta == 0),
                ("alpha1^2-4*alpha3", n1 * n1 * d3 == 4 * n3 * d1 * d1),
                ("alpha1*alpha2-2*alpha3", n1 * n2 * d3 == 2 * n3 * d1 * d2),
                ("alpha1*alpha2-2*alpha4", n1 * n2 * d4 == 2 * n4 * d1 * d2)]
        if p.epsilon == 1:
            bits.append(("alpha1+2*alpha3", n1 * d3 == -2 * n3 * d1))
        return NullitySignature(f"second-eps{p.epsilon}", tuple(bits))
    if isinstance(p, FirstTypeParams):
        return nullity_signature((p.branch, p.branch_params()))
    branch, triple = p
    a1, a2, b2 = (_frac(v) for v in triple)
    if branch == "a":
        bits = [("alpha1", a1 == 0), ("beta2", b2 == 0),
                ("alpha1-beta2", a1 - b2 == 0)]
        if a1 == 0:
            bits.append(("1-alpha2", 1 - a2 == 0))
        if b2 == 0:
            bits.append(("1+alpha2", 1 + a2 == 0))
        return NullitySignature("first-a", tuple(bits))
    if branch == "b":
        bits = [("alpha1", a1 == 0), ("b2", b2 == 0),
                ("1+a2", 1 + a2 == 0), ("alpha1+b2", a1 + b2 == 0)]
        return NullitySignature("first-b", tuple(bits))
    raise ValueError(f"unknown branch {branch!r}")


# ----------------------------------------------------------------------
# equivalence decision

@dataclass(frozen=True)
class Equivalent:
    witness: GradedChange2
    kind: str = "equivalent"


@dataclass(frozen=True)
class Distinct:
    invariant: str
    kind: str = "distinct"


@dataclass(frozen=True)
class Unknown:
    detail: str = ""
    kind: str = "unknown"


def _rational_sqrt(x: Fraction):
    """Exact square root when it is rational, else None."""
    if x < 0:
        return None
    n, d = x.numerator, x.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def _grid_axis(height: int) -> list:
    """All reduced fractions p/q with |p|, q <= height, in a canonical
    order: 0 first, then by height max(|p|, q), then by value."""
    return sorted({Q(p, q) for q in range(1, height + 1)
                   for p in range(-height, height + 1)},
                  key=lambda v: (v != 0, max(abs(v.numerator), v.denominator),
                                 v))


def _forward_matches(p: SecondTypeParams, q: SecondTypeParams,
                     g: GradedChange2) -> bool:
    try:
        mapped = param_map_case1(p, g) if p.epsilon == 0 else param_map_case2(p, g)
    except RestrictionViolated:
        return False
    return mapped.alphas == q.alphas and mapped.beta == q.beta


def decide_equivalence(p: SecondTypeParams, q: SecondTypeParams,
                       budget: int = 6):
    """Three-valued equivalence of second-type parameter tuples.

    Distinct comes only from a nullity-signature mismatch.  Equivalent
    always carries a witness that has been verified by the forward map
    (normalised to A1 = 1; the maps are homogeneous of degree zero in
    (A1, A4, B4), which verify.verify_homogeneity checks).

    The search has one rule.  With A4 = t and B4 = s, the four matching
    equations (``_matching_equations``) are polynomials in s over Z[t]:
    each is its condition over Q[t] times a power of the lcm of the
    alphas' denominators.  They, the rule and the cleared equations below
    are integer coefficient lists, and each value at t = a/b is the
    integer sum of c_k a^k b^(d-k), divided out only in a candidate.
    ``_s_rule`` reads s = num/den off the first one that is linear in s:
    the pin num = 1 - t, den = 1 for epsilon = 1; else the alpha2
    equation; else the alpha1 one; and num = den = 0 when neither has an
    s term (alpha1 = alpha2 = alpha3 = 0).  A4 runs over 0, then the
    rational roots of the gcd of the four equations cleared at s =
    num/den, each as sum c_k num^k den^(d-k).  At each such t, B4 is
    num(t)/den(t) where den(t) != 0, and otherwise both rational square
    roots of each equation in s^2 alone; for epsilon = 1 the map pins B4
    itself and the witness keeps B4 = 1.  Only epsilon = 0 then falls
    back on a grid of heights up to ``budget`` (at most 8); anything else
    is Unknown.  ``linalg._count`` checks the budget first.  The
    candidates, the witness and the grid are ``Fraction``s, and every
    candidate is checked by the forward map in ``Fraction`` arithmetic.

    Why no rational witness is missed before the grid, up to one bound:
    a linear gcd's root is taken at any height, but a gcd of higher
    degree is searched only for roots with numerator and denominator at
    most 10,000, so a witness beyond that can be missed.

    * every witness satisfies den(t)*s = num(t), so where den(t) != 0 its
      s is num(t)/den(t) and t is a common root of the cleared equations;
    * at a witness where den(t) = 0, num(t) = 0 as well, and the cleared
      equations are homogeneous of degree >= 1 in (num, den), so they all
      vanish there too: t is again a root of their gcd, and no separate
      candidate for the root of den is needed;
    * when no equation is linear in s, D = E = 1 and t appears nowhere,
      so A4 = 0, which is tried first, is a witness whenever any A4 is;
    * when the cleared equations all vanish identically, either num = 0
      and no B4 != 0 fits, or num(0) and den(0) are both nonzero and
      A4 = 0 is a witness.
    """
    _count(budget, "budget")
    if p.epsilon != q.epsilon:
        raise EpsilonMismatch(
            f"cannot compare epsilon={p.epsilon} with epsilon={q.epsilon}")
    sig_p, sig_q = nullity_signature(p), nullity_signature(q)
    diff = sig_p.first_difference(sig_q)
    if diff is not None:
        return Distinct(diff)
    if p.alphas == q.alphas and p.beta == q.beta:
        ident = GradedChange2(Q(1), Q(0), Q(1))
        return Equivalent(ident)

    eqs = _matching_equations(p.alphas, q.alphas)
    num, den = _s_rule(p.epsilon, eqs)
    candidates: dict = {}       # (A4, B4) in first-seen order
    for t in [Q(0)] + _cleared_roots(eqs, num, den):
        for s in [Q(1)] if p.epsilon else _solve_s_at(eqs, num, den, t):
            candidates[(t, s)] = None
    if p.epsilon == 0:
        axis = _grid_axis(max(1, min(budget, 8)))
        for t in axis:
            for s in axis:
                if s != 0:
                    candidates[(t, s)] = None
    for t, s in candidates:
        g = GradedChange2(Q(1), t, s)
        if _forward_matches(p, q, g):
            return Equivalent(g)
    return Unknown("no rational witness found")


def _matching_equations(p_alphas, q_alphas) -> list:
    """The four conditions that the change sends p to q, alpha2 first,
    then alpha1, alpha3 and alpha4: each is a polynomial in s whose
    coefficients are integer polynomials in t (A1 normalised to 1).

    With L the lcm of the eight denominators and A_k = L*alpha_k,
    Q_k = L*q_k, the first three conditions are multiplied by L^2 and the
    last by L^3, which changes none of their roots:
    L*D = L + A1 t + A3 t^2 and L*E = L + A2 t."""
    alphas = p_alphas + q_alphas
    scale = lcm(*(x.denominator for x in alphas))
    A1, A2, A3, A4, Q1, Q2, Q3, Q4 = (
        x.numerator * (scale // x.denominator) for x in alphas)
    D = _trimmed([scale, A1, A3])
    E = _trimmed([scale, A2])
    return [
        [_scaled(E, Q2), _trimmed([-A2 * scale])],      # q2 E - a2 s
        [_scaled(D, Q1), _trimmed([-A1 * scale, -2 * A3 * scale])],
        [_scaled(D, Q3), [], _trimmed([-A3 * scale])],  # q3 D - a3 s^2
        [_int_poly_dot([(E, _scaled(D, Q4))]), [],
         _trimmed([-A4 * scale * scale, -A2 * A3 * scale])],
    ]


def _scaled(ints: list, c: int) -> list:
    return _trimmed([c * x for x in ints])


def _s_rule(epsilon: int, eqs: list) -> tuple:
    """(num, den) with den*s = num at every witness, from the first
    equation linear in s: the pin for epsilon = 1, else the alpha2 one,
    else the alpha1 one; (0, 0) when neither has an s term."""
    if epsilon:
        return [1, -1], [1]
    for c0, c1 in eqs[:2]:
        if c1:
            return c0, [-x for x in c1]
    return [], []


def _cleared_roots(eqs: list, num: list, den: list) -> list:
    """Rational roots of the gcd of the equations cleared at s = num/den,
    each the sum of c_k num^k den^(d-k) over its nonzero coefficients;
    none when that gcd is constant or every cleared equation is zero.  A
    linear gcd gives its root directly, at any height; a higher-degree
    one is searched for roots with numerator and denominator at most
    10,000."""
    powers = {1: (den, num), 2: [_int_poly_dot([pair]) for pair in
                                 ((den, den), (num, den), (num, num))]}
    g = PolyQ.zero()
    for eq in eqs:
        cleared = _int_poly_dot(zip(eq, powers[len(eq) - 1]))
        g = poly_gcd(g, PolyQ(tuple(cleared)))
    if g.degree == 1:
        return [-g.coeffs[0]]               # g is monic
    return rational_roots(g, bound=10000) if g.degree >= 1 else []


def _solve_s_at(eqs: list, num: list, den: list, t: Fraction) -> list:
    """Nonzero s candidates at t: num(t)/den(t) where den(t) != 0; where
    both vanish, both rational square roots of each equation in s^2 alone
    (the last two); otherwise none.  Each ratio p(t)/q(t) is read off
    p and q homogenised to one degree at t = a/b, in integers."""
    a, b = t.numerator, t.denominator

    def at(*polys):
        degree = max(map(len, polys)) - 1
        return [_homogeneous(p, a, b, degree) for p in polys]

    n_t, d_t = at(num, den)
    if d_t != 0:
        return [Q(n_t, d_t)] if n_t != 0 else []
    if n_t != 0:
        return []                   # no s solves den(t)*s = num(t)
    roots = []
    for c0, _, c2 in eqs[2:]:
        v0, v2 = at(c0, c2)
        if v2:
            roots.append(_rational_sqrt(Q(-v0, v2)))
    return [x for r in roots if r for x in (r, -r)]
