"""Exact linear algebra over the rationals.

Everything here is exact; there is no floating point anywhere in the
package.  The convention throughout is that operators act on column
vectors: the matrix of a linear map holds the image of the i-th basis
vector in column i.

Spans, ranks, kernels, inverses and Jordan block profiles all go through
one elimination kernel, ``_reduce``, on sparse integer rows ({column: int}).
Rational input is scaled once by the lcm of its denominators
(``_int_rows``), which changes no span and no block profile.  Reduction
cross-multiplies (fraction-free, in the spirit of Bareiss 1968) and
divides each finished row by its gcd, so entries stay small and zero
cells cost nothing.  ``_back_substitute`` is the one back-substitution,
to integer rows canonical for the span: ``_reduced_rows`` runs it over an
echelon basis, and ``_add_reduced`` keeps canonical rows canonical as a
vector joins them.  ``EchelonSpan.basis()`` is their ``Fraction`` view,
the canonical RREF.  ``rank``, ``nilpotent_block_sizes``
and ``EchelonSpan`` sit on the kernel; ``rank`` and the ``EchelonSpan``
constructor share its one echelon loop (``_echelon``).  ``_levels``
splits a nilpotent map N into levels, level k a complement of N^(k+1)
in N^k: its Jordan chains through the basis vectors when ``_chains``
finds them, and otherwise the echelons of the powers.  Their sizes give
the Jordan block sizes (``nilpotent_block_sizes``); for right
multiplication by e_1 they certify the central series when its products
land deeper (``analysis._build_series``).  ``rref`` goes
through ``EchelonSpan``.  ``_kernel`` is the one kernel routine, behind
``kernel_basis`` and the right annihilator: it refines the kernel of
sparse integer functionals one functional at a time, by ``_reduce`` on a
sentinel column, and reads it off ``_reduced_rows`` over the reversed
columns.  ``_inverse_columns`` reduces [M^T | I] to the columns of M^-1
as integer rows over one scale, which ``invert`` views as a ``MatrixQ``
and ``BasisChange`` keeps.
``_combine``, beside the kernel, is the one sparse row-times-rows product.
Above the kernel, one integer layout of the structure table, the cells by
left index (``algebra._integer_cells``), and one product of an integer
row with the basis (``algebra._times_basis``) serve the Leibniz residual,
the generated changes, ``apply_change``, the derived span, the central
series, the right multiplications of the characteristic sequence, the
gradation and the right annihilator.  The central series keeps reduced
integer rows and builds ``Vec``s from them on demand.  The polynomial
code below is separate: ``PolyQ`` is its public type, and ``poly_gcd``
and ``rational_roots`` work on integer coefficient lists (primitive
pseudo-remainders, and root tests by homogenised Horner), as the
equivalence search does.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm

from .errors import DimensionMismatch, IndexOutOfRange, NotNilpotent


def _frac(x) -> Fraction:
    """An int, Fraction or string such as "1/10" as a Fraction.  A float
    raises TypeError, since the float 0.1 is not 1/10."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError(f"{x!r} is a float; give an int, a Fraction or a "
                        "string such as '1/10'")
    return Fraction(x)


def _count(value, name: str, rule: str = "0 or more") -> None:
    """Check a search budget or bound: an int, not a bool, 0 or more."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {value!r}")
    if value < 0:
        raise ValueError(f"{name} must be {rule}, got {value}")


@dataclass(frozen=True)
class MatrixQ:
    """Dense rational matrix, row-major, immutable."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise DimensionMismatch("negative matrix dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise DimensionMismatch(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}"
            )

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "MatrixQ":
        rows = [tuple(_frac(x) for x in r) for r in rows]
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise DimensionMismatch("ragged rows")
        ncols = len(rows[0]) if rows else 0
        flat = tuple(x for r in rows for x in r)
        return MatrixQ(len(rows), ncols, flat)

    @staticmethod
    def identity(n: int) -> "MatrixQ":
        one, zero = Fraction(1), Fraction(0)
        return MatrixQ(n, n, tuple(one if i == j else zero
                                   for i in range(n) for j in range(n)))

    @staticmethod
    def zero(rows: int, cols: int) -> "MatrixQ":
        return MatrixQ(rows, cols, (Fraction(0),) * (rows * cols))

    def __getitem__(self, rc):
        r, c = rc
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexOutOfRange(f"({r},{c}) outside {self.rows}x{self.cols}")
        return self.entries[r * self.cols + c]

    def row(self, r: int) -> tuple:
        if not 0 <= r < self.rows:
            raise IndexOutOfRange(f"row {r} outside 0..{self.rows - 1}")
        return self.entries[r * self.cols:(r + 1) * self.cols]

    def column(self, c: int) -> tuple:
        if not 0 <= c < self.cols:
            raise IndexOutOfRange(f"column {c} outside 0..{self.cols - 1}")
        return self.entries[c::self.cols]

    def row_list(self) -> list:
        return [list(self.row(r)) for r in range(self.rows)]

    def transpose(self) -> "MatrixQ":
        return MatrixQ(self.cols, self.rows,
                       tuple(self.entries[r * self.cols + c]
                             for c in range(self.cols) for r in range(self.rows)))

    def __matmul__(self, other: "MatrixQ") -> "MatrixQ":
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        a, b = self.row_list(), other.row_list()
        out = []
        for i in range(self.rows):
            ai = a[i]
            for j in range(other.cols):
                out.append(sum(ai[k] * b[k][j] for k in range(self.cols)))
        return MatrixQ(self.rows, other.cols, tuple(out))

    def apply(self, vector: Sequence) -> tuple:
        """Matrix times column vector, returned as a tuple."""
        if len(vector) != self.cols:
            raise DimensionMismatch(f"vector of length {len(vector)} vs {self.cols} columns")
        vec = [_frac(x) for x in vector]
        return tuple(sum(x * v for x, v in zip(self.row(r), vec))
                     for r in range(self.rows))

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)


def _int_rows(rows) -> tuple:
    """``(scale, rows)``: rational rows as sparse integer rows {column: int}.

    ``rows`` holds dense sequences or sparse mappings.  All rows are scaled
    by ``scale``, the lcm of their denominators, so spans are unchanged and
    a matrix keeps its Jordan block profile.  Zero entries are dropped, but
    a float, even 0.0, raises ``_frac``'s TypeError.
    """
    rows = [{c: x for c, x in (r.items() if isinstance(r, Mapping)
                               else enumerate(r)) if x or type(x) is float}
            for r in rows]
    try:
        scale = lcm(*(x.denominator for r in rows for x in r.values()))
    except AttributeError:
        return _int_rows([{c: _frac(x) for c, x in r.items()} for r in rows])
    return scale, [{c: x.numerator * (scale // x.denominator)
                    for c, x in r.items()} for r in rows]


def _fraction_row(n: int, row: dict, lead=min) -> tuple:
    """A reduced sparse integer row as the dense ``Fraction`` row with 1 at
    its pivot, or at its last column for ``lead=max`` (a ``_kernel`` row)."""
    pivot = row[lead(row)]
    dense = [Fraction(0)] * n
    for c, x in row.items():
        dense[c] = Fraction(x, pivot)
    return tuple(dense)


def _eliminate(row: dict, prow: dict, col: int) -> tuple:
    """One cross-multiplication step: ``(a, a * row - b * prow)`` with a, b
    coprime, so that the new row is zero at ``col``, where ``prow`` is
    nonzero.  ``row`` itself is left as it is."""
    a, b = prow[col], row[col]
    g = gcd(a, b)
    a, b = a // g, b // g
    row = {c: a * x for c, x in row.items()}
    for c, y in prow.items():
        x = row.get(c, 0) - b * y
        if x:
            row[c] = x
        else:
            del row[c]
    return a, row


def _combine(row: dict, rows) -> dict:
    """The sum of x * rows[i] over the entries i: x of a sparse integer row,
    ``rows`` mapping i to one; a missing i is a zero row, and a cancelled
    sum stays as a zero."""
    out: dict = {}
    for i, x in row.items():
        for j, y in rows[i].items() if i in rows else ():
            out[j] = out.get(j, 0) + x * y
    return out


def _reduce(ech: dict, row: dict) -> tuple:
    """The elimination kernel: reduce a sparse integer row against echelon
    rows ``ech`` (pivot column -> row).

    Each step cross-multiplies away the row's leading entry, so nothing
    leaves the integers; it stops when the leading column is no pivot.
    Returns that column and the gcd-normalised remainder, or
    ``(None, {})`` when the row lies in the span.
    """
    while row:
        lead = min(row)
        prow = ech.get(lead)
        if prow is None:
            g = gcd(*row.values())
            return lead, ({c: x // g for c, x in row.items()} if g > 1
                          else row)
        row = _eliminate(row, prow, lead)[1]
    return None, row


def _echelon(rows) -> dict:
    """Echelon basis {pivot column: row} of the span of sparse integer rows."""
    ech: dict = {}
    for row in rows:
        lead, row = _reduce(ech, row)
        if row:
            ech[lead] = row
    return ech


def _reduced_rows(ech: dict) -> list:
    """Echelon rows ``ech`` (pivot -> row) reduced in integers, by pivot,
    through ``_back_substitute``, deepest pivot first.  Each row is zero
    at every other pivot, divided by its gcd and positive at its pivot:
    canonical for the span."""
    reduced: dict = {}
    for p in sorted(ech, reverse=True):
        reduced[p] = _back_substitute(reduced, ech[p], p)
    return [reduced[p] for p in sorted(reduced)]


def _back_substitute(reduced: dict, row: dict, p: int) -> dict:
    """A row whose first column is p, made zero at each pivot of the
    canonical rows ``reduced`` (pivot -> row) where it is nonzero, all of
    them above p, then divided by its gcd and positive at p."""
    for q in [c for c in row if c != p and c in reduced]:
        row = _eliminate(row, reduced[q], q)[1]
    g = gcd(*row.values())
    if row[p] < 0:
        g = -g
    return {c: x // g for c, x in row.items()} if g != 1 else row


def _add_reduced(reduced: dict, vector: dict) -> None:
    """Add a sparse integer vector outside the span of the canonical rows
    ``reduced`` (pivot -> row, as ``_reduced_rows`` makes them) and keep
    them canonical: the new row is back-substituted, and its pivot column
    is eliminated from the rows that meet it."""
    p, row = _reduce(reduced, vector)
    row = _back_substitute(reduced, row, p)
    for q, other in reduced.items():
        if p in other:
            reduced[q] = _back_substitute({p: row}, other, q)
    reduced[p] = row


def rank(m: MatrixQ) -> int:
    """Rank of a rational matrix, computed without ever leaving the integers."""
    return len(_echelon(_int_rows(m.row(r) for r in range(m.rows))[1]))


def nilpotent_block_sizes(m: MatrixQ) -> tuple:
    """Jordan block sizes of a nilpotent matrix, largest first.

    The number of blocks of size at least k equals rank(N^(k-1)) - rank(N^k),
    the size of level k - 1 of N (``_levels``, on the columns of N as
    sparse integer rows).  It raises NotNilpotent when the rank sequence
    stops falling before it reaches zero.
    """
    if m.rows != m.cols:
        raise DimensionMismatch("block sizes need a square matrix")
    n = m.rows
    if n == 0:
        return ()
    columns = dict(enumerate(_int_rows(m.column(c) for c in range(n))[1]))
    # at_least[k-1] blocks have size >= k; the sizes are its transpose
    at_least = [len(level) for level in _levels(n, columns)]
    return tuple(sum(c > j for c in at_least) for j in range(at_least[0]))


def _levels(n: int, image: dict) -> list:
    """The levels of a nilpotent map N of Q^n, given by ``image`` (i -> N e_i
    as a sparse integer row, a missing i -> 0): ``levels[k]`` holds sparse
    integer vectors that complement N^(k+1)(Q^n) in N^k(Q^n), so levels[k:]
    is a basis of N^k(Q^n).  They are the Jordan chains through the basis
    vectors (``_chains``) when those exist.  Otherwise the power loop
    echelons the images of the rows of the echelon of N^k(Q^n), which span
    N^(k+1)(Q^n), and level k is the rows of the first echelon whose pivot
    is no pivot of the second: pivot sets belong to the span, and shrink
    with it.  Raises NotNilpotent when the rank stops falling above 0."""
    levels = _chains(n, image)
    if levels is not None:
        return levels
    levels, ech = [], {i: {i: 1} for i in range(n)}
    while ech:
        deeper = _echelon({j: x for j, x in _combine(row, image).items() if x}
                          for row in ech.values())
        if len(deeper) == len(ech):
            raise NotNilpotent(
                f"matrix is not nilpotent: rank stabilises at {len(ech)}")
        levels.append([row for p, row in ech.items() if p not in deeper])
        ech = deeper
    return levels


def _chains(n: int, image: dict):
    """Jordan chains of a linear map N of Q^n through the basis vectors,
    or None.

    ``image`` maps i to N e_i as a sparse integer row (a missing i to 0).
    From each e_i that is not yet a pivot, in order of i, the vectors
    v = e_i, N v, N^2 v, ... go to one ``EchelonSpan`` through ``add``
    until N^l v = 0.  Returns None at the first nonzero vector that does
    not grow the span.  Otherwise every column is a pivot, so the vectors
    are a basis of Q^n on which N is a sum of Jordan blocks, one per chain,
    and ``levels[k]`` lists the vectors N^k e_i: ``len(levels[k])`` chains
    are longer than k, and the vectors of levels[k:] span N^k(Q^n).
    """
    span = EchelonSpan(n)
    levels: list = []
    for i in range(n):
        if i in span._rows:
            continue
        v, k = {i: 1}, 0
        while v:
            if not span.add(v):
                return None
            if k == len(levels):
                levels.append([])
            levels[k].append(v)
            v = {c: x for c, x in _combine(v, image).items() if x}
            k += 1
    return levels


def jordan_block(size: int) -> MatrixQ:
    """Nilpotent Jordan block with ones on the subdiagonal (e_i maps to e_{i+1})."""
    one, zero = Fraction(1), Fraction(0)
    return MatrixQ(size, size, tuple(one if i == j + 1 else zero
                                     for i in range(size) for j in range(size)))


def block_diag(*blocks: MatrixQ) -> MatrixQ:
    n = sum(b.rows for b in blocks)
    rows = [[Fraction(0)] * n for _ in range(n)]
    at = 0
    for b in blocks:
        if b.rows != b.cols:
            raise DimensionMismatch("block_diag wants square blocks")
        for i in range(b.rows):
            for j in range(b.cols):
                rows[at + i][at + j] = b[i, j]
        at += b.rows
    return MatrixQ.from_rows(rows)


def rref(m: MatrixQ) -> tuple:
    """Reduced row echelon form over Q.  Returns (MatrixQ, pivot column tuple)."""
    span = EchelonSpan(m.cols, (m.row(r) for r in range(m.rows)))
    rows = span.basis()
    rows += ((Fraction(0),) * m.cols,) * (m.rows - len(rows))
    return (MatrixQ(m.rows, m.cols, tuple(x for r in rows for x in r)),
            span.pivots())


def invert(m: MatrixQ):
    """Inverse over Q, or None when the matrix is singular."""
    if m.rows != m.cols:
        raise DimensionMismatch("inverse of a non-square matrix")
    inverse = _inverse_columns(*_int_rows(m.column(c) for c in range(m.cols)))
    return None if inverse is None else _matrix_of_columns(*inverse)


def _inverse_columns(scale: int, cols: list):
    """M^-1 as ``(scale, columns)``, or None when M is singular, for M given
    the same way (column c is the integer row ``cols[c]`` over ``scale``).
    The RREF of an invertible [M^T | I] is [I | (M^T)^-1], whose rows are
    the columns of M^-1, each over its pivot entry."""
    n = len(cols)
    ech = _echelon({**col, n + c: 1} for c, col in enumerate(cols))
    if any(p >= n for p in ech):
        return None
    rows = _reduced_rows(ech)
    den = lcm(*(row[p] for p, row in enumerate(rows)))
    return den, [{t - n: x * scale * (den // row[p])
                  for t, x in row.items() if t >= n}
                 for p, row in enumerate(rows)]


def _matrix_of_columns(scale: int, cols: list) -> MatrixQ:
    """The square matrix whose column c is ``cols[c]`` over ``scale``."""
    zero = Fraction(0)
    return MatrixQ(len(cols), len(cols), tuple(
        Fraction(col[r], scale) if r in col else zero
        for r in range(len(cols)) for col in cols))


def kernel_basis(m: MatrixQ) -> list:
    """Basis of the right kernel, one vector per free column, in column
    order: the view of ``_kernel`` of the rows as integer functionals."""
    return [_fraction_row(m.cols, row, max) for row in
            _kernel(m.cols, _int_rows(m.row(r) for r in range(m.rows))[1])]


def _kernel(n: int, functionals) -> list:
    """The kernel in Q^n of sparse integer functionals.  It is refined from
    the basis one functional f at a time: the first v with f(v) != 0 goes,
    and each other w with f(w) != 0 becomes f(v) w - f(w) v over its gcd
    (``_reduce``, f in a sentinel column -1).  Its canonical rows over the
    reversed columns, back in column order, are the result: one integer
    row per free column, ending there, positive, and 0 at the others."""
    kernel = [{j: 1} for j in range(n)]
    for f in functionals:
        pivot, refined, columns = None, [], f.keys()
        for v in kernel:
            value = (not columns.isdisjoint(v)
                     and sum([x * f[j] for j, x in v.items() if j in f]))
            if not value:
                refined.append(v)
            elif pivot is None:
                pivot = {-1: {-1: value, **v}}
            else:
                refined.append(_reduce(pivot, {-1: value, **v})[1])
        kernel = refined
    rows = _reduced_rows(_echelon({n - 1 - c: x for c, x in v.items()}
                                  for v in kernel))
    return [{n - 1 - c: x for c, x in row.items()} for row in reversed(rows)]


class EchelonSpan:
    """Incrementally maintained echelon basis of a span of row vectors.

    A vector is a sequence of ``ambient_dim`` rationals or a sparse mapping
    from 0-based column to rational; entries are anything ``Fraction``
    accepts, and ints need no conversion.  Rows are kept as gcd-normalised
    sparse integer rows of the kernel above; ``reduced_rows()`` reduces
    them to canonical integer rows and ``basis()`` to the canonical RREF
    over Q, so two spans are equal exactly when their ``basis()`` tuples
    (or ``reduced_rows()`` lists) are equal.
    """

    def __init__(self, ambient_dim: int, vectors: Iterable = ()):
        self.ambient_dim = ambient_dim
        # pivot column -> sparse integer row
        self._rows = _echelon(self._integral(v) for v in vectors)

    @property
    def dim(self) -> int:
        return len(self._rows)

    def pivots(self) -> tuple:
        return tuple(sorted(self._rows))

    def reduced_rows(self) -> list:
        """The canonical integer rows of the span; see ``_reduced_rows``."""
        return _reduced_rows(self._rows)

    def basis(self) -> tuple:
        """The canonical RREF over Q: the reduced rows divided by their
        pivot entries."""
        return tuple(_fraction_row(self.ambient_dim, row)
                     for row in self.reduced_rows())

    def _integral(self, vector) -> dict:
        """The vector as a sparse integer row; int entries are kept as
        they are, anything else is coerced like ``Fraction`` and scaled."""
        n = self.ambient_dim
        if isinstance(vector, Mapping):
            if vector and not (0 <= min(vector) and max(vector) < n):
                raise DimensionMismatch(
                    f"sparse vector has columns outside 0..{n - 1}")
            items = vector.items()
        elif len(vector) != n:
            raise DimensionMismatch(
                f"vector of length {len(vector)} in ambient dimension {n}")
        else:
            items = enumerate(vector)
        row = {c: x for c, x in items if x or type(x) is float}
        if all(type(x) is int for x in row.values()):
            return row
        return _int_rows([{c: _frac(x) for c, x in row.items()}])[1][0]

    def contains(self, vector) -> bool:
        return _reduce(self._rows, self._integral(vector))[0] is None

    def add(self, vector) -> bool:
        """Insert a vector; returns True when the span grew."""
        lead, row = _reduce(self._rows, self._integral(vector))
        if lead is None:
            return False
        self._rows[lead] = row
        return True


# ----------------------------------------------------------------------
# polynomials

@dataclass(frozen=True)
class PolyQ:
    """Univariate polynomial over Q; coefficients lowest degree first."""

    coeffs: tuple

    def __post_init__(self):
        cs = tuple(_frac(x) for x in self.coeffs)
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    @staticmethod
    def of(*coeffs) -> "PolyQ":
        return PolyQ(tuple(coeffs))

    @staticmethod
    def constant(c) -> "PolyQ":
        return PolyQ((_frac(c),))

    @staticmethod
    def zero() -> "PolyQ":
        return PolyQ(())

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial assigned -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other: "PolyQ") -> "PolyQ":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, x in enumerate(b):
            out[i] += x
        return PolyQ(tuple(out))

    def __neg__(self) -> "PolyQ":
        return PolyQ(tuple(-x for x in self.coeffs))

    def __sub__(self, other: "PolyQ") -> "PolyQ":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return PolyQ(tuple(x * other for x in self.coeffs))
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1 or 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return PolyQ(tuple(out))

    __rmul__ = __mul__

    def __call__(self, x) -> Fraction:
        x = _frac(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def divmod(self, divisor: "PolyQ") -> tuple:
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dd = divisor.degree
        lead = divisor.leading()
        quo = [Fraction(0)] * max(len(rem) - dd, 0)
        for i in range(len(rem) - 1, dd - 1, -1):
            if rem[i] == 0:
                continue
            f = rem[i] / lead
            quo[i - dd] = f
            for j, c in enumerate(divisor.coeffs):
                rem[i - dd + j] -= f * c
        return PolyQ(tuple(quo)), PolyQ(tuple(rem))

    def exact_div(self, divisor: "PolyQ") -> "PolyQ":
        q, r = self.divmod(divisor)
        if not r.is_zero():
            raise ArithmeticError("division was expected to be exact")
        return q

    def monic(self) -> "PolyQ":
        if self.is_zero():
            return self
        lead = self.leading()
        return PolyQ(tuple(c / lead for c in self.coeffs))


def _int_poly(p: PolyQ) -> list:
    """p times the lcm of its denominators, as a list of ints."""
    mult = lcm(*(c.denominator for c in p.coeffs))
    return [c.numerator * (mult // c.denominator) for c in p.coeffs]


def _primitive(ints: list) -> list:
    """An integer polynomial divided by its content, leading coefficient
    positive; the zero polynomial [] stays []."""
    content = gcd(*ints)
    if ints and ints[-1] < 0:
        content = -content
    return [c // content for c in ints] if content not in (0, 1) else ints


def _trimmed(ints: list) -> list:
    """An integer polynomial without its trailing zeros, in place."""
    while ints and not ints[-1]:
        ints.pop()
    return ints


def _int_gcd(a: list, b: list) -> list:
    """Primitive gcd of two integer polynomials (lists of ints, lowest
    degree first, no trailing zero), by primitive pseudo-remainders."""
    a, b = _primitive(a), _primitive(b)
    while b:
        lead, rem = b[-1], a
        while len(rem) >= len(b):       # rem <- lead*rem - c*t^shift*b
            c, shift = rem[-1], len(rem) - len(b)
            rem = [lead * x for x in rem]
            for j, y in enumerate(b):
                rem[shift + j] -= c * y
            _trimmed(rem)
        a, b = b, _primitive(rem)
    return a


def _int_poly_dot(pairs) -> list:
    """The sum of the products a*b over the pairs (a, b) of integer
    polynomials, without trailing zeros."""
    out = []
    for a, b in pairs:
        out += [0] * (len(a) + len(b) - 1 - len(out))
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trimmed(out)


def _homogeneous(ints: list, a: int, b: int, degree: int) -> int:
    """b^degree * p(a/b) for the integer polynomial p, by Horner's rule
    on the homogenised form; ``degree`` is at least the degree of p."""
    acc, power = 0, 1
    for c in reversed(ints):
        acc = acc * a + c * power
        power *= b
    return acc * b ** (degree + 1 - len(ints))


def poly_gcd(p: PolyQ, q: PolyQ) -> PolyQ:
    """Monic greatest common divisor; gcd(0, 0) is the zero polynomial.

    The gcd is taken on integers: each argument times the lcm of its
    denominators, then primitive pseudo-remainders (each remainder
    divided by its content), so no ``Fraction`` arithmetic runs until
    the primitive gcd is made monic.
    """
    g = _int_gcd(_int_poly(p), _int_poly(q))
    return PolyQ(tuple(Fraction(c, g[-1]) for c in g))


def rational_roots(p: PolyQ, bound: int = 0) -> list:
    """All rational roots of p, ascending.

    Candidates come from the usual divisor test on the primitive integer
    form, and each candidate num/den is tested on that form, as
    sum c_k num^k den^(d-k) = 0, in integers.  With ``bound > 0`` only
    divisors up to that bound are tried, which keeps the search cheap for
    huge coefficients; ``bound = 0`` means no bound; ``_count`` checks
    the bound before anything else.
    """
    _count(bound, "bound", "0 (none) or positive")
    if p.is_zero():
        raise ValueError("every rational is a root of the zero polynomial")
    ints = _int_poly(p)
    roots = set() if ints[0] else {Fraction(0)}
    while not ints[0]:
        ints.pop(0)
    if len(ints) > 1:
        ints = _primitive(ints)
        degree = len(ints) - 1

        def divisors(m):
            top = min(isqrt(m), bound) if bound else isqrt(m)
            return sorted({x for d in range(1, top + 1) if m % d == 0
                           for x in (d, m // d) if not bound or x <= bound})

        for num in divisors(abs(ints[0])):
            for den in divisors(ints[-1]):
                for a in (num, -num):
                    if not _homogeneous(ints, a, den, degree):
                        roots.add(Fraction(a, den))
    return sorted(roots)


def _poly_matrix_det(entries: list) -> PolyQ:
    """Determinant of a square matrix of PolyQ entries by fraction-free
    Bareiss elimination (division steps are exact in any integral domain)."""
    n = len(entries)
    if n == 0:
        return PolyQ.constant(1)
    m = [row[:] for row in entries]
    sign = 1
    prev = PolyQ.constant(1)
    for c in range(n - 1):
        pivot = next((r for r in range(c, n) if not m[r][c].is_zero()), None)
        if pivot is None:
            return PolyQ.zero()
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            sign = -sign
        for r in range(c + 1, n):
            for j in range(c + 1, n):
                m[r][j] = (m[c][c] * m[r][j] - m[r][c] * m[c][j]).exact_div(prev)
            m[r][c] = PolyQ.zero()
        prev = m[c][c]
    det = m[n - 1][n - 1]
    return det if sign == 1 else -det


def resultant(p_coeffs: Sequence[PolyQ], q_coeffs: Sequence[PolyQ]) -> PolyQ:
    """Resultant with respect to the outer variable.

    Both arguments are polynomials in an outer variable s whose coefficients
    are PolyQ in an inner variable t, given lowest s-degree first.  The
    result is the Sylvester determinant, a PolyQ in t.  It vanishes exactly
    when the two arguments share a root in s (over the algebraic closure).
    It is public; the equivalence search eliminates s without it.
    A constant argument c against degree d gives the diagonal matrix c*I_d
    and so c^d, and two constants give the empty determinant 1.
    """
    p = list(p_coeffs)
    q = list(q_coeffs)
    while p and p[-1].is_zero():
        p.pop()
    while q and q[-1].is_zero():
        q.pop()
    if not p or not q:
        return PolyQ.zero()
    dp, dq = len(p) - 1, len(q) - 1
    size = dp + dq
    zero = PolyQ.zero()
    rows = []
    rev_p = list(reversed(p))
    rev_q = list(reversed(q))
    for i in range(dq):
        rows.append([zero] * i + rev_p + [zero] * (size - i - len(rev_p)))
    for i in range(dp):
        rows.append([zero] * i + rev_q + [zero] * (size - i - len(rev_q)))
    return _poly_matrix_det(rows)
