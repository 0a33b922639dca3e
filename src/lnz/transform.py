"""Basis changes and the closed-form parameter maps.

A graded change of generators is determined by three scalars: the image
of the first generator is A1*e_1 + A4*e_4 (second type; A4 multiplies
e_{n-2} for first type) and the image of the second generator is scaled
by B4.  The remaining basis vectors are regenerated by right-bracketing
with the new e_1, so the whole change is an invertible matrix and can be
pushed through any structure tensor directly.  The closed-form maps below
say what happens to the family parameters; the checks in ``verify``
replay them through the direct route for thousands of cases.

When the alternating products are switched on (epsilon = 1) the second
generator's scale is no longer free: keeping the alternating coefficient
normalised forces B4 = A1 - A4, so those maps take A1 and A4 only.  Both
second-type maps are one set of formulas that differ only in that pin.

``decide_equivalence`` answers whether two second-type parameter tuples
name the same algebra.  It is deliberately three-valued: Distinct is
claimed only from the printed nullity invariants, Equivalent only with a
verified witness, and everything else is Unknown (a witness may exist
over the complex numbers that has no rational coordinates).  Both
epsilons share one witness rule: A4 runs over 0 and the rational roots of
the matching equations with B4 eliminated (for epsilon = 1 by the pin
B4 = 1 - A4).  Nothing rational is lost by stopping there for epsilon =
1: a witness A4 is a common root of the four equations, which vanish
identically only when q = p.  For epsilon = 0, B4 at a fixed A4 comes
from any equation with a nonzero B4 coefficient, and such an equation
exists unless every alpha is 0.  The search budget bounds only the
epsilon = 0 height grid that follows.

``parse_change`` and ``serialize_change`` read and write change documents
as ``algebra`` does algebra documents.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt

from .algebra import (StructureTensor, Vec, _coeff_from_document,
                      _integer_cells, _load_json, _tensor, bracket)
from .catalog import (FirstTypeParams, SecondTypeParams, build_second_type,
                      build_type1_branch_a, build_type1_branch_b)
from .errors import (DimensionMismatch, DocumentError, EpsilonMismatch,
                     NotNormalForm, RestrictionViolated, SingularChange,
                     ToolkitError)
from .linalg import (MatrixQ, PolyQ, _frac, _int_rows, invert, poly_gcd,
                     rational_roots, resultant)

Q = Fraction


# ----------------------------------------------------------------------
# direct basis changes

@dataclass(frozen=True)
class BasisChange:
    """Invertible change of basis; column i of ``matrix`` is the new
    basis vector e'_i written in the old coordinates."""

    matrix: MatrixQ

    def __post_init__(self):
        if self.matrix.rows != self.matrix.cols:
            raise SingularChange("change matrix must be square")
        inv = invert(self.matrix)
        if inv is None:
            raise SingularChange("change matrix is singular")
        object.__setattr__(self, "_inverse", inv)

    @property
    def inverse(self) -> MatrixQ:
        return self._inverse

    @property
    def dim(self) -> int:
        return self.matrix.rows

    def column(self, i: int) -> Vec:
        """New basis vector e'_i (1-based) in old coordinates."""
        return Vec(self.matrix.column(i - 1))

    def inverted(self) -> "BasisChange":
        return BasisChange(self._inverse)


def apply_change(algebra: StructureTensor, change: BasisChange) -> StructureTensor:
    """The same algebra written on the new basis.

    c'[i][j] expands [e'_i, e'_j] in the primed basis.  Each cell [e_a, e_b]
    is pulled back through the inverse matrix once, combined along column j
    into [e_a, e'_j], then along column i.  Everything runs on sparse
    integers: the integer cells of the table (``algebra._integer_cells``)
    and the columns of the matrix and of its inverse (``linalg._int_rows``),
    each scaled by the lcm of its denominators, so zero entries cost nothing
    and each nonzero output term makes one ``Fraction``.  The cells come
    out sorted and without zeros, so the tensor takes them as they are.
    """
    n = algebra.dim
    if change.dim != n:
        raise DimensionMismatch(
            f"change on {change.dim} coordinates, algebra has {n}")
    s_table, cells = _integer_cells(algebra)
    s_matrix, cols = _int_rows(change.matrix.column(i) for i in range(n))
    s_inverse, back = _int_rows(change.inverse.column(i) for i in range(n))
    # 0-based from here on, as _int_rows numbers rows: pulled[b - 1] lists
    # (a - 1, [e_a, e_b] in new coordinates), and right[j][a - 1] is
    # [e_a, e'_{j+1}] in new coordinates
    pulled: dict = {}
    for (a, b), terms in cells.items():
        acc: dict = {}
        for k, c in terms:
            for t, w in back[k - 1].items():
                acc[t] = acc.get(t, 0) + c * w
        pulled.setdefault(b - 1, []).append((a - 1, acc))
    right = []
    for col in cols:
        prods: dict = {}
        for b, y in col.items():
            for a, vec in pulled.get(b, ()):
                acc = prods.setdefault(a, {})
                for t, w in vec.items():
                    acc[t] = acc.get(t, 0) + y * w
        right.append(prods)
    scale = s_table * s_matrix ** 2 * s_inverse
    table = {}
    for i, col in enumerate(cols, 1):
        for j, prods in enumerate(right, 1):
            acc = {}
            for a, x in col.items():
                for t, v in prods.get(a, {}).items():
                    acc[t] = acc.get(t, 0) + x * v
            cell = tuple((t + 1, Fraction(v, scale))
                         for t, v in sorted(acc.items()) if v)
            if cell:
                table[(i, j)] = cell
    return _tensor(n, table, algebra.name)


def parse_change(text: str) -> BasisChange:
    """Read a basis-change document.

    The document is a JSON object with an integer "dim" and a "matrix"
    given as dim rows of dim exact fraction strings, rows of the same
    matrix whose columns are the new basis vectors.
    """
    doc = _load_json(text, "not valid JSON: ")
    if not isinstance(doc, dict):
        raise DocumentError("change document must be a JSON object")
    extra = set(doc) - {"dim", "matrix"}
    if extra:
        raise DocumentError(f"unknown change fields {sorted(extra)}")
    dim = doc.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise DocumentError("\"dim\" must be a positive integer")
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
            entries.append(_coeff_from_document(raw, where, known))
    return BasisChange(MatrixQ(dim, dim, tuple(entries)))


def serialize_change(change: BasisChange) -> str:
    """Canonical text for a basis-change document, the bytes of
    ``json.dumps(doc, indent=2) + "\\n"``, written directly."""
    rows = ",\n".join(
        "    [\n" + ",\n".join('      "%s"' % x for x in change.matrix.row(r))
        + "\n    ]" for r in range(change.dim))
    return ('{\n  "dim": %d,\n  "matrix": ' % change.dim
            + ("[\n" + rows + "\n  ]" if rows else "[]") + "\n}\n")


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


def _chain_from(algebra: StructureTensor, start: Vec, e1: Vec, count: int) -> list:
    out = []
    v = start
    for _ in range(count):
        v = bracket(algebra, v, e1)
        out.append(v)
    return out


def _change_from_columns(n: int, cols: dict) -> BasisChange:
    """The change whose e'_j is ``cols[j]`` (1-based, old coordinates)."""
    return BasisChange(MatrixQ.from_rows(
        [[cols[j].coords[r] for j in range(1, n + 1)] for r in range(n)]))


def completed_second_type_change(algebra: StructureTensor,
                                 g: GradedChange2) -> BasisChange:
    """Full basis matrix of a graded generator change, second type.

    e'_1 = A1*e_1 + A4*e_4 and e'_4 = B4*e_4 (with B4 = A1 - A4 when the
    alternating products are present); the long chain e'_5..e'_n comes
    from right-bracketing with e'_1, then e'_2 = [e'_1,e'_1] and
    e'_3 = [e'_2,e'_1].
    """
    n = algebra.dim
    eps = algebra.coefficient(4, n - 1, n)
    b4 = g.A1 - g.A4 if eps != 0 else g.B4
    e1p = Vec.basis(n, 1).scale(g.A1) + Vec.basis(n, 4).scale(g.A4)
    e4p = Vec.basis(n, 4).scale(b4)
    cols = {1: e1p, 4: e4p}
    long_chain = _chain_from(algebra, e4p, e1p, n - 4)
    for offset, v in enumerate(long_chain):
        cols[5 + offset] = v
    cols[2] = bracket(algebra, e1p, e1p)
    cols[3] = bracket(algebra, cols[2], e1p)
    return _change_from_columns(n, cols)


def completed_first_type_change(algebra: StructureTensor,
                                g: GradedChange2) -> BasisChange:
    """Full basis matrix of a graded generator change, first type.

    e'_1 = A1*e_1 + A4*e_{n-2}, e'_{n-2} = B4*e_{n-2}; e'_2..e'_{n-3}
    continue the long chain and e'_{n-1}, e'_n the short one.
    """
    n = algebra.dim
    e1p = Vec.basis(n, 1).scale(g.A1) + Vec.basis(n, n - 2).scale(g.A4)
    enm2p = Vec.basis(n, n - 2).scale(g.B4)
    cols = {1: e1p, n - 2: enm2p}
    for offset, v in enumerate(_chain_from(algebra, e1p, e1p, n - 4)):
        cols[2 + offset] = v
    for offset, v in enumerate(_chain_from(algebra, enm2p, e1p, 2)):
        cols[n - 1 + offset] = v
    return _change_from_columns(n, cols)


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
    n = algebra.dim
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
    n = algebra.dim
    p = (algebra.coefficient(1, n - 2, 2),
         algebra.coefficient(1, n - 2, n - 1),
         algebra.coefficient(n - 2, n - 2, n - 1))
    return _rebuilt(algebra, lambda: (p, build_type1_branch_a(n, *p)))


def extract_type1_b(algebra: StructureTensor) -> tuple:
    """Read (alpha1, a2, b2) off the non-annihilator branch form."""
    n = algebra.dim
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
        for (name_a, bit_a), (name_b, bit_b) in zip(self.bits, other.bits):
            if name_a != name_b:
                return f"{name_a}/{name_b}"
            if bit_a != bit_b:
                return name_a
        if len(self.bits) != len(other.bits):
            longer = self.bits if len(self.bits) > len(other.bits) else other.bits
            return longer[len(min(self.bits, other.bits, key=len))][0]
        return None


def nullity_signature(p) -> NullitySignature:
    """Signature of second-type params, or of a first-type family/branch.

    Accepts SecondTypeParams, FirstTypeParams, or a (branch, triple) pair
    with branch "a" (alpha1, alpha2, beta2) or "b" (alpha1, a2, b2).
    """
    if isinstance(p, SecondTypeParams):
        a1, a2, a3, a4 = p.alphas
        bits = [("beta", p.beta == 0),
                ("alpha1^2-4*alpha3", a1 * a1 - 4 * a3 == 0),
                ("alpha1*alpha2-2*alpha3", a1 * a2 - 2 * a3 == 0),
                ("alpha1*alpha2-2*alpha4", a1 * a2 - 2 * a4 == 0)]
        if p.epsilon == 1:
            bits.append(("alpha1+2*alpha3", a1 + 2 * a3 == 0))
        return NullitySignature(f"second-eps{p.epsilon}", tuple(bits))
    if isinstance(p, FirstTypeParams):
        return nullity_signature((p.branch, p.branch_params()))
    branch, triple = p
    x1, x2, x3 = (_frac(v) for v in triple)
    if branch == "a":
        a1, a2, b2 = x1, x2, x3
        bits = [("alpha1", a1 == 0), ("beta2", b2 == 0),
                ("alpha1-beta2", a1 - b2 == 0)]
        if a1 == 0:
            bits.append(("1-alpha2", 1 - a2 == 0))
        if b2 == 0:
            bits.append(("1+alpha2", 1 + a2 == 0))
        return NullitySignature("first-a", tuple(bits))
    if branch == "b":
        a1, a2, b2 = x1, x2, x3
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
    order: by height, then by value."""
    seen = {Q(0)}
    out = [Q(0)]
    for h in range(1, height + 1):
        batch = set()
        for den in range(1, h + 1):
            for num in range(-h, h + 1):
                if gcd(abs(num), den) != 1 or max(abs(num), den) != h:
                    continue
                v = Q(num, den)
                if v not in seen:
                    batch.add(v)
        for v in sorted(batch):
            seen.add(v)
            out.append(v)
    return out


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
    (A1, A4, B4), which verify.verify_homogeneity checks).  A4 candidates
    come in one order: 0, then the rational roots left after eliminating
    B4 from the matching equations.  For epsilon = 1 the map pins B4
    itself and the witness keeps B4 = 1; for epsilon = 0 each A4 gets the
    B4 values ``_solve_s_at`` finds.  Only epsilon = 0 then falls back on
    a grid of heights up to ``budget`` (at most 8); anything else is
    Unknown.

    Why no rational witness is missed by the two roots-only paths:

    * epsilon = 1: a witness A4 is a common root of the four equations
      at B4 = 1 - A4, so it is a root of their gcd.  The equations vanish
      identically only when q = p, which returns earlier; A4 = 0 is the
      identity and likewise matches only q = p.
    * epsilon = 0, A4 fixed: any equation whose B4 coefficient is nonzero
      (alpha2, alpha1 + 2*alpha3*A4, alpha3 or alpha4 + alpha2*alpha3*A4)
      fixes B4 up to sign, and all four vanish only when every alpha is 0.
    """
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

    candidates: dict = {}       # (A4, B4) in first-seen order
    for t in [Q(0)] + _eliminated_roots(p, q):
        for s in [Q(1)] if p.epsilon else _solve_s_at(p.alphas, q.alphas, t):
            candidates[(t, s)] = None
    if p.epsilon == 0:
        axis = _grid_axis(max(1, min(int(budget), 8)))
        for t in axis:
            for s in axis:
                if s != 0:
                    candidates[(t, s)] = None
    for t, s in candidates:
        g = GradedChange2(Q(1), t, s)
        if _forward_matches(p, q, g):
            return Equivalent(g)
    return Unknown("no rational witness found")


def _case1_equations(p_alphas, q_alphas) -> list:
    """The four matching conditions as polynomials in s whose
    coefficients are polynomials in t (A1 normalised to 1)."""
    a1, a2, a3, a4 = p_alphas
    q1, q2, q3, q4 = q_alphas
    D = PolyQ.of(1, a1, a3)          # 1 + a1 t + a3 t^2
    E = PolyQ.of(1, a2)              # 1 + a2 t
    N1 = PolyQ.of(a1, 2 * a3)
    N4 = PolyQ.of(a4, a2 * a3)
    zero = PolyQ.zero()
    return [
        [D * q1, -N1],               # q1 D - N1 s
        [E * q2, PolyQ.constant(-a2)],
        [D * q3, zero, PolyQ.constant(-a3)],
        [(E * D) * q4, zero, -N4],
    ]


def _substitute(coeffs, s: PolyQ) -> PolyQ:
    """One of the equations above with s set to a polynomial in t."""
    acc = PolyQ.zero()
    s_pow = PolyQ.constant(1)
    for c in coeffs:
        acc = acc + c * s_pow
        s_pow = s_pow * s
    return acc


def _common_roots(polys) -> list:
    """Rational roots of the gcd of the nonzero polynomials; none when
    that gcd is constant."""
    polys = [pp for pp in polys if not pp.is_zero()]
    if not polys:
        return []
    g = polys[0]
    for pp in polys[1:]:
        g = poly_gcd(g, pp)
    if g.degree < 1:
        return []
    return rational_roots(g, bound=10000)


def _eliminated_roots(p: SecondTypeParams, q: SecondTypeParams) -> list:
    """Rational t candidates after eliminating s from the equations: s is
    1 - t for epsilon = 1, else q2 E / a2 when a2 != 0, else resultants."""
    eqs = _case1_equations(p.alphas, q.alphas)
    a2, q2 = p.alphas[1], q.alphas[1]
    if p.epsilon:
        s = PolyQ.of(1, -1)
    elif a2 != 0:
        s = PolyQ.of(1, a2) * (q2 / a2)
    elif q2 != 0:
        return []
    else:
        eqs = [eq for eq in (eqs[0], eqs[2], eqs[3])
               if any(not c.is_zero() for c in eq)]
        return _common_roots(resultant(lhs, rhs)
                             for lhs, rhs in combinations(eqs, 2))
    return _common_roots(_substitute(eq, s) for eq in eqs)


def _solve_s_at(p_alphas, q_alphas, t: Fraction) -> list:
    """Exact s candidates at a fixed t, from whichever equation pins s;
    at t = 0 these are the pure rescalings."""
    a1, a2, a3, a4 = p_alphas
    q1, q2, q3, q4 = q_alphas
    D = 1 + a1 * t + a3 * t * t
    E = 1 + a2 * t
    out = []
    if a2 != 0 and E != 0:
        out.append(q2 * E / a2)
    n1 = a1 + 2 * a3 * t
    if n1 != 0:
        out.append(q1 * D / n1)
    for lead, rhs in ((a3, q3 * D), (a4 + a2 * a3 * t, q4 * E * D)):
        if lead != 0:
            r = _rational_sqrt(rhs / lead)
            if r is not None:
                out.extend([r, -r])
    return [s for s in out if s != 0]
