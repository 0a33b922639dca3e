"""Nilpotency analysis: central series, gradation, characteristic sequence.

The descending central series is L^1 = L, L^{k+1} = [L^k, L].  When it
reaches zero the algebra is nilpotent and the quotients L^i / L^{i+1}
carry an induced product that respects degrees; ``natural_gradation``
checks it eagerly and keeps the graded algebra as the series' integer
section rows and integer graded cells: its ``sections`` and ``algebra``
are built on first read, as ``CentralSeries.terms`` builds the ``Vec``s
of the series' reduced integer rows.  ``len(series)`` is the nilindex
of a nilpotent algebra.  The terms are read off the levels of right
multiplication by e_1 (``linalg._levels``: its Jordan chains, or the
echelons of its powers in any other basis) when every product of a
level vector lands deeper in them, which proves that R_(e_1)^k(L) =
L^(k+1) for every k (see ``_build_series``); that holds on every catalog
normal form.  Otherwise each term is the canonical rows of one echelon
of the products of the one before (``_series_by_terms``).  [L, L]
(``derived_span``) is its second term, which ``char_sequence_at`` and
the estimate read off the series.

The tensor keeps its series and its integer cells
(``algebra._integer_cells``) for as long as it lives (``algebra._memo``).
A parsed document comes with its cells; otherwise the first reader of
either builds it, and every later reader of that tensor object reuses
it.  The cache is per object, not per content, and is not pickled.

The characteristic sequence orders, for each element x outside [L, L],
the Jordan block sizes of right multiplication by x (descending), and
takes the lexicographic maximum over all such x.  ``char_sequence_estimate``
certifies that maximum when a nilpotent algebra has an element whose
powers R_x^k reach the ranks dim L^{k+1} of the central series, and
otherwise returns a sampled lower bound.  The right annihilator is the
kernel of the functionals of the integer cells as ``linalg._kernel``'s
canonical integer rows (``_annihilator_rows``), which ``lnz analyze``
prints and the battery reads; ``right_annihilator`` is their ``Vec`` view.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain

from .algebra import (StructureTensor, Vec, _integer_cells, _memo, _tensor,
                      _times_basis, _vec)
from .errors import (ElementInDerivedSubalgebra, NonNilpotent, NotFiltered,
                     NotNilpotent)
from .linalg import (EchelonSpan, MatrixQ, _add_reduced, _combine, _count,
                     _echelon, _eliminate, _fraction_row, _kernel, _levels,
                     _reduce, _reduced_rows, nilpotent_block_sizes)


@dataclass(frozen=True)
class CentralSeries:
    """Terms of the descending central series.

    ``rows[k]`` holds the reduced integer rows of L^{k+1} ({column: int},
    0-based, by pivot; see ``EchelonSpan.reduced_rows``), so rows[0] spans
    the whole algebra.  ``terms[k]``, the same span as a tuple of reduced
    echelon Vec, is built on first read and then kept.  When the series
    hits zero, the zero term is included and ``nilpotent`` is True; when it
    stabilises at a nonzero subspace the repeated term is dropped and
    ``nilpotent`` is False.  ``len(series)`` counts the terms, so for a
    nilpotent algebra it is the nilindex.
    """

    ambient_dim: int
    rows: tuple = field(hash=False)     # dicts do not hash; the rest does
    nilpotent: bool

    @cached_property
    def terms(self) -> tuple:
        return tuple(tuple(_vec(_fraction_row(self.ambient_dim, row))
                           for row in term) for term in self.rows)

    @property
    def dims(self) -> tuple:
        return tuple(len(t) for t in self.rows)

    def __len__(self):
        return len(self.rows)


def lower_central_series(algebra: StructureTensor) -> CentralSeries:
    """The descending central series, built on the first call for this
    tensor object and kept with it."""
    return _memo(algebra, "_series", _build_series)


def _build_series(algebra: StructureTensor) -> CentralSeries:
    """The series off the levels of R_x, x = e_1, when they certify it
    (``_certified_series``), and otherwise off the per-term loop.

    The certificate: the level-t vectors (``linalg._levels``) complement
    C_(t+1) in C_t, where C_k = R_x^k(L) is spanned by the levels k and
    deeper, and R_x^k(L) lies in L^(k+1).  If every product [v, e_j] of a
    level-t vector lies in C_(t+1), then [C_t, L] lies in C_(t+1) for
    every t; so, with C_0 = L = L^1, L^(k+1) = [L^k, L] = [C_(k-1), L]
    lies in C_k by induction, and L^(k+1) = C_k.  Then the C_k and the
    zero term C_(top+1) are the series, and the algebra is nilpotent.
    Reduced rows are canonical for a span, so both paths give the same
    rows.
    """
    n = algebra.dim
    _, by_left = _integer_cells(algebra)
    terms = _certified_series(n, by_left)
    return (CentralSeries(n, terms, True) if terms is not None
            else CentralSeries(n, *_series_by_terms(n, by_left)))


def _certified_series(n: int, by_left: list):
    """The terms of ``_build_series``'s certificate, or None when it fails.

    Walks the levels of R_x deepest first, keeping the canonical rows of
    the span of the levels walked (``_add_reduced``): each product [v, e_j]
    of a level-t vector v must reduce to zero against those of C_(t+1)
    before the level-t vectors join them as C_t, whose rows are then term
    t.  An R_x that is not nilpotent, or a product that lands shallower,
    fails the certificate.  The levels are the Jordan chains of R_x on
    every catalog normal form, and the echelons of its powers in a basis
    without such chains.
    """
    try:
        levels = _levels(n, {i: dict(cell) for i, row in enumerate(by_left)
                             for j, cell in row if j == 0})
    except NotNilpotent:
        return None
    reduced, terms = {}, [()]         # the canonical rows of C_(t+1)
    for level in reversed(levels):
        for v in level:
            for prod in _times_basis(by_left, v).values():
                row = {k: c for k, c in prod.items() if c}
                if _reduce(reduced, row)[0] is not None:
                    return None
        for v in level:
            _add_reduced(reduced, v)
        # a tuple of a list takes a freed tuple of its size; tuple() of a
        # generator reshapes a 10-slot one, so the terms of every series
        # would pile up in the interpreter's free lists (peak memory)
        terms.append(tuple([reduced[p] for p in sorted(reduced)]))
    return tuple(reversed(terms))


def _series_by_terms(n: int, by_left: list) -> tuple:
    """The per-term loop: ``(terms, nilpotent)`` of the series of the
    integer cells ``by_left``.  L^(k+1) is spanned by the products [u, e_j]
    of the rows u of L^k; each term is the canonical rows (``_reduced_rows``)
    of one echelon (``_echelon``) of those products, stripped of the zeros
    that cancelled in them."""
    rows = tuple({i: 1} for i in range(n))      # L^1 = L, already reduced
    terms, nilpotent = [rows], True
    while rows:
        ech = _echelon({k: c for k, c in prod.items() if c} for u in rows
                       for prod in _times_basis(by_left, u).values())
        if len(ech) == len(rows):       # stabilised at a nonzero subspace
            nilpotent = False
            break
        rows = tuple(_reduced_rows(ech))
        terms.append(rows)
    return tuple(terms), nilpotent


def nilindex(algebra: StructureTensor) -> int:
    """Smallest s with L^s = 0; raises NonNilpotent when there is none."""
    series = lower_central_series(algebra)
    if not series.nilpotent:
        raise NonNilpotent("central series stabilises at a nonzero subspace")
    return len(series)


@dataclass(frozen=True)
class Gradation:
    """Graded algebra carried by the central-series quotients.

    ``piece_dims[i]`` is dim(L^{i+1} / L^{i+2}); ``sections`` holds one
    representative Vec (in the original coordinates) per graded basis
    vector, listed degree by degree; ``algebra`` is the induced product
    written on that concatenated basis.  From ``natural_gradation`` both
    are built on first read and then kept, from the series' integer rows
    and integer graded cells over their denominators.
    """

    piece_dims: tuple
    sections: tuple
    algebra: StructureTensor

    def __getattr__(self, name):    # only what ``__dict__`` does not hold
        state = self.__dict__
        if name not in ("sections", "algebra") or "_rows" not in state:
            raise AttributeError(name)
        rows = state["_rows"]
        state[name] = value = (
            tuple(_vec(_fraction_row(len(rows), row)) for row in rows)
            if name == "sections" else _tensor(len(rows), {
                key: tuple([(k, Fraction(c, d)) for k, c, d in cell])
                for key, cell in state["_cells"].items()}, state["_name"]))
        return value

    @property
    def degrees(self) -> tuple:
        """Degree of each graded basis vector, aligned with ``sections``."""
        return tuple(d for d, size in enumerate(self.piece_dims, start=1)
                     for _ in range(size))


def natural_gradation(algebra: StructureTensor) -> Gradation:
    """Associated graded algebra of the descending central series.

    Section representatives are the reduced-echelon rows of L^i whose pivot
    column is not a pivot of L^{i+1}; because the pivot sets of nested
    spans nest as well, these rows project to a basis of the quotient.
    The induced product of degree-i and degree-j sections keeps exactly
    the degree-(i+j) part of their bracket, read only for the pairs where
    it can be nonzero.  That bracket must lie in L^(i+j), as in every
    Leibniz algebra, or NotFiltered names the pair.  The series comes from
    ``lower_central_series``, so it is the one the tensor keeps.
    """
    n = algebra.dim
    series = lower_central_series(algebra)
    if not series.nilpotent:
        raise NonNilpotent("gradation needs a nilpotent algebra")
    spans = series.rows                         # reduced integer rows
    rows, degree_of = [], []                    # listed degree by degree
    at_column: dict = {}                        # j -> sections nonzero at j
    for d in range(1, len(spans)):
        later = {min(row) for row in spans[d]}
        for row in spans[d - 1]:
            if min(row) not in later:
                for j in row:
                    at_column.setdefault(j, []).append(len(rows))
                rows.append(row)
                degree_of.append(d)
    top = len(spans) - 1
    piece_dims = tuple(degree_of.count(d) for d in range(1, top + 1))
    start = [sum(piece_dims[:d]) for d in range(top + 1)]
    pivot_of = [min(row) for row in rows]
    lead = [row[p] for row, p in zip(rows, pivot_of)]

    # Section s is rows[s] / lead[s].  Degree-d sections are start[d - 1]
    # .. start[d] - 1.  A degree-d row vanishes at every other pivot of
    # degree >= d (a pivot column of L^d) but may not at shallower ones.
    # So peeling the sections of degree >= i + j off [R_a, R_b], deepest
    # first, reads its degree-(i+j) coordinates as they go, and leaves
    # nothing exactly when it lies in L^(i+j).  The residue stays an integer
    # row over one common denominator.  Only a section b nonzero at a column
    # j of some [R_a, e_j] has a nonzero residue; a visits those b, in order.
    scale, by_left = _integer_cells(algebra)
    table = {}
    for a in range(n):
        right = _times_basis(by_left, rows[a])    # [R_a, e_j], times scale
        for b in sorted({s for j in right for s in at_column.get(j, ())}):
            target = degree_of[a] + degree_of[b]
            residue = _combine(rows[b], right)
            denominator = scale * lead[a] * lead[b]
            terms = []
            for s in range(n - 1, start[min(target, top + 1) - 1] - 1, -1):
                c = residue.get(pivot_of[s])
                if c:
                    if degree_of[s] == target:
                        terms.append((s + 1, c, denominator))
                    # peel section s = rows[s] / lead[s]: the step scales the
                    # residue by f, so the denominator gains f too
                    f, residue = _eliminate(residue, rows[s], pivot_of[s])
                    denominator *= f
            if any(residue.values()):
                raise NotFiltered((a + 1, b + 1), degree_of[a], degree_of[b],
                                  (pivot_of[a] + 1, pivot_of[b] + 1))
            if terms:
                table[(a + 1, b + 1)] = tuple(reversed(terms))
    gradation = object.__new__(Gradation)
    gradation.__dict__.update(piece_dims=piece_dims, _rows=rows, _cells=table,
                              _name=None if algebra.name is None
                              else f"gr({algebra.name})")
    return gradation


@dataclass(frozen=True, order=True)
class CharSequence:
    """Descending Jordan-block profile; compares lexicographically."""

    parts: tuple

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(int(p) for p in self.parts))

    def __str__(self):
        return "(" + ", ".join(str(p) for p in self.parts) + ")"


def derived_span(algebra: StructureTensor) -> EchelonSpan:
    """Echelon span of [L, L], read off the central series."""
    return _derived(lower_central_series(algebra))


def _derived(series: CentralSeries) -> EchelonSpan:
    """[L, L]: the second term of the series, or L itself when the series
    stops at L.  The term's canonical rows are an echelon already, pivot
    first and gcd-normalised, so the span takes copies of them as they
    are, without a second elimination."""
    span = object.__new__(EchelonSpan)
    span.ambient_dim = series.ambient_dim
    span._rows = {min(row): dict(row)
                  for row in series.rows[1 if len(series) > 1 else 0]}
    return span


def _profile(by_left: list, x) -> CharSequence:
    """Block profile of y -> [y, x], read off a positive multiple of its
    matrix built from the integer cells by left index: cell (i, j) adds
    x[j] * c at row k and column i for each of its terms (k, c)."""
    n = len(by_left)
    entries = [0] * (n * n)
    for i, row in enumerate(by_left):
        for j, cell in row:
            if x[j]:
                for k, c in cell:
                    entries[k * n + i] += x[j] * c
    return CharSequence(nilpotent_block_sizes(MatrixQ(n, n, tuple(entries))))


def char_sequence_at(algebra: StructureTensor, x: Vec) -> CharSequence:
    """Jordan block sizes of right multiplication by x, descending.

    x must lie outside the derived subalgebra; right multiplication must
    be nilpotent (NotNilpotent propagates otherwise).
    """
    series = lower_central_series(algebra)
    if _derived(series).contains(x):
        raise ElementInDerivedSubalgebra(
            "characteristic sequence needs an element outside [L, L]")
    return _profile(_integer_cells(algebra)[1], x.coords)


def char_sequence_estimate(algebra: StructureTensor, budget: int = 200,
                           seed: int = 0) -> CharSequence:
    """Lexicographic maximum of the block profile over sampled elements.

    Tries every basis vector outside [L, L], then ``budget`` random
    vectors whose coordinates a/b have -3 <= a <= 3 and 1 <= b <= 3.
    Each is scaled to the integer vector with coordinates a * (6 // b),
    which lies in [L, L] exactly when the rational one does and has the
    same block profile.

    For every x, R_x^k(L) lies in L^{k+1}, so rank(R_x^k) <= dim L^{k+1}.
    A profile whose ranks sum(max(p - k, 0)) meet all these bounds
    dominates every other profile, hence is the maximum.  On a nilpotent
    algebra the search stops at the first candidate that meets them, and
    the answer is certified; on the catalogued algebras the first basis
    vector does.  Otherwise every candidate is tried and the answer is a
    sampled lower bound for the true maximum.  ``linalg._count`` checks
    the budget first.
    """
    _count(budget, "budget")
    n = algebra.dim
    series = lower_central_series(algebra)
    _, by_left = _integer_cells(algebra)
    derived = _derived(series)
    bound = series.dims if series.nilpotent else None
    rng = random.Random(seed)
    basis = ([int(k == i) for k in range(n)] for i in range(n))
    drawn = ([rng.randint(-3, 3) * (6 // rng.randint(1, 3)) for _ in range(n)]
             for _ in range(budget))
    best = None
    for x in chain(basis, drawn):
        if derived.contains({c: v for c, v in enumerate(x) if v}):
            continue
        seq = _profile(by_left, x)
        if best is None or best < seq:
            best = seq
        if bound and all(sum(max(p - k, 0) for p in seq.parts) == d
                         for k, d in enumerate(bound)):
            return seq
    if best is None:
        raise ElementInDerivedSubalgebra(
            "no sampled element lies outside [L, L]")
    return best


def right_annihilator(algebra: StructureTensor) -> tuple:
    """Basis of {x : [y, x] = 0 for all y}, as a tuple of Vec: the view of
    ``_annihilator_rows``, as ``kernel_basis`` views ``linalg._kernel``."""
    return tuple(_vec(_fraction_row(algebra.dim, row, max))
                 for row in _annihilator_rows(algebra))


def _annihilator_rows(algebra: StructureTensor) -> list:
    """The right annihilator as ``linalg._kernel``'s integer rows: the kernel
    of the functionals f = sum_j c^k_{i,j} x_j of the cells, one per (i, k)."""
    functionals: dict = {}      # (i, k) -> {j: c^k_{i,j} times scale}
    for i, row in enumerate(_integer_cells(algebra)[1]):
        for j, terms in row:
            for k, c in terms:
                functionals.setdefault((i, k), {})[j] = c
    return _kernel(algebra.dim, functionals.values())
