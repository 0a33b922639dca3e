"""Nilpotency analysis: central series, gradation, characteristic sequence.

The descending central series is L^1 = L, L^{k+1} = [L^k, L].  When it
reaches zero the algebra is nilpotent and the quotients L^i / L^{i+1}
carry an induced product that respects degrees; ``natural_gradation``
materialises that graded algebra on a concatenated section basis.

The characteristic sequence orders, for each element x outside [L, L],
the Jordan block sizes of right multiplication by x (descending), and
takes the lexicographic maximum over all such x.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .algebra import StructureTensor, Vec, bracket, right_mul_matrix
from .errors import (DimensionMismatch, ElementInDerivedSubalgebra,
                     NonNilpotent)
from .linalg import (EchelonSpan, MatrixQ, kernel_basis,
                     nilpotent_block_sizes)


@dataclass(frozen=True)
class CentralSeries:
    """Terms of the descending central series as echelon bases.

    ``terms[k]`` is a tuple of Vec spanning L^{k+1} (so terms[0] spans the
    whole algebra).  When the series hits zero, the zero term is included
    and ``nilpotent`` is True; when it stabilises at a nonzero subspace the
    repeated term is dropped and ``nilpotent`` is False.
    """

    terms: tuple
    nilpotent: bool

    @property
    def dims(self) -> tuple:
        return tuple(len(t) for t in self.terms)

    def __len__(self):
        return len(self.terms)


def _cells_by_left(algebra: StructureTensor) -> list:
    """The table read once as sparse integer rows: entry i lists (j, {k: c})
    for each nonzero cell [e_{i+1}, e_{j+1}], all 0-based.  Every cell is
    scaled by one lcm of the denominators, which leaves every span as it is.
    """
    scale = lcm(*(c.denominator for terms in algebra.table.values()
                  for _, c in terms))
    cells: list = [[] for _ in range(algebra.dim)]
    for (i, j), terms in algebra.table.items():
        cells[i - 1].append((j - 1, {k - 1: c.numerator * (scale // c.denominator)
                                     for k, c in terms}))
    return cells


def lower_central_series(algebra: StructureTensor) -> CentralSeries:
    n = algebra.dim
    cells = _cells_by_left(algebra)
    terms = [EchelonSpan(n, ({i: 1} for i in range(n)))]
    while True:
        # L^{k+1} is spanned by [u, e_j] for u in a basis of L^k
        nxt = EchelonSpan(n)
        for u in terms[-1].sparse_rows():
            products: dict = {}
            for i, x in u.items():
                for j, cell in cells[i]:
                    acc = products.setdefault(j, {})
                    for k, c in cell.items():
                        acc[k] = acc.get(k, 0) + x * c
            for prod in products.values():
                nxt.add(prod)
        if nxt.dim == 0:
            terms.append(nxt)
            nilpotent = True
            break
        if nxt.dim == terms[-1].dim:
            nilpotent = False
            break
        terms.append(nxt)
    return CentralSeries(tuple(tuple(Vec(v) for v in t.basis()) for t in terms),
                         nilpotent)


def nilindex(algebra: StructureTensor) -> int:
    """Smallest s with L^s = 0; raises NonNilpotent when there is none."""
    series = lower_central_series(algebra)
    if not series.nilpotent:
        raise NonNilpotent("central series stabilises at a nonzero subspace")
    return len(series.terms)


@dataclass(frozen=True)
class Gradation:
    """Graded algebra carried by the central-series quotients.

    ``piece_dims[i]`` is dim(L^{i+1} / L^{i+2}); ``sections`` holds one
    representative Vec (in the original coordinates) per graded basis
    vector, listed degree by degree; ``algebra`` is the induced product
    written on that concatenated basis.
    """

    piece_dims: tuple
    sections: tuple
    algebra: StructureTensor

    @property
    def degrees(self) -> tuple:
        """Degree of each graded basis vector, aligned with ``sections``."""
        out = []
        for d, size in enumerate(self.piece_dims, start=1):
            out.extend([d] * size)
        return tuple(out)


def natural_gradation(algebra: StructureTensor) -> Gradation:
    """Associated graded algebra of the descending central series.

    Section representatives are the reduced-echelon rows of L^i whose pivot
    column is not a pivot of L^{i+1}; because the pivot sets of nested
    spans nest as well, these rows project to a basis of the quotient.
    The induced product of degree-i and degree-j sections keeps exactly
    the degree-(i+j) part of their bracket.
    """
    n = algebra.dim
    series = lower_central_series(algebra)
    if not series.nilpotent:
        raise NonNilpotent("gradation needs a nilpotent algebra")
    # the terms are already in reduced echelon form
    spans = [(tuple(v.coords for v in term),
              tuple(next(c for c, x in enumerate(v.coords) if x) for v in term))
             for term in series.terms]
    sections = []       # flat list of Vec
    piece_dims = []
    pivot_of = []       # pivot column of each section, for coordinates
    degree_of = []
    for d in range(len(spans) - 1):
        rows, pivots = spans[d]
        later = set(spans[d + 1][1])
        fresh = [(p, rows[k]) for k, p in enumerate(pivots) if p not in later]
        piece_dims.append(len(fresh))
        for p, row in fresh:
            pivot_of.append(p)
            degree_of.append(d + 1)
            sections.append(Vec(row))
    m = len(sections)
    if sum(piece_dims) != n:
        raise NonNilpotent("section extraction lost dimensions")  # pragma: no cover

    # coordinates of an ambient vector in the section basis.  Peel the
    # deepest sections first: a degree-d section row vanishes at every
    # pivot of degree >= d (those are pivot columns of L^d), but may be
    # nonzero at shallower pivots, so the residue at a pivot is exact
    # only once no deeper section remains.
    by_degree = sorted(range(m), key=lambda s: -degree_of[s])

    def section_coords(vec: Vec) -> list:
        residue = list(vec.coords)
        out = [Fraction(0)] * m
        for s in by_degree:
            c = residue[pivot_of[s]]
            if c != 0:
                out[s] = c
                for t, x in enumerate(sections[s].coords):
                    residue[t] -= c * x
        if any(x != 0 for x in residue):
            raise DimensionMismatch("vector outside the section span")  # pragma: no cover
        return out

    table = {}
    for a in range(m):
        for b in range(m):
            prod = bracket(algebra, sections[a], sections[b])
            if prod.is_zero():
                continue
            target = degree_of[a] + degree_of[b]
            coords = section_coords(prod)
            terms = tuple((s + 1, coords[s]) for s in range(m)
                          if coords[s] != 0 and degree_of[s] == target)
            if terms:
                table[(a + 1, b + 1)] = terms
    graded = StructureTensor(n, table,
                             None if algebra.name is None
                             else f"gr({algebra.name})")
    return Gradation(tuple(piece_dims), tuple(sections), graded)


@dataclass(frozen=True)
class CharSequence:
    """Descending Jordan-block profile; compares lexicographically."""

    parts: tuple

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(int(p) for p in self.parts))

    def __lt__(self, other):
        return self.parts < other.parts

    def __le__(self, other):
        return self.parts <= other.parts

    def __str__(self):
        return "(" + ", ".join(str(p) for p in self.parts) + ")"


def derived_span(algebra: StructureTensor) -> EchelonSpan:
    """Echelon span of [L, L]."""
    return EchelonSpan(algebra.dim, ({k - 1: c for k, c in terms}
                                     for terms in algebra.table.values()))


def char_sequence_at(algebra: StructureTensor, x: Vec) -> CharSequence:
    """Jordan block sizes of right multiplication by x, descending.

    x must lie outside the derived subalgebra; right multiplication must
    be nilpotent (NotNilpotent propagates otherwise).
    """
    if derived_span(algebra).contains(x):
        raise ElementInDerivedSubalgebra(
            "characteristic sequence needs an element outside [L, L]")
    return CharSequence(nilpotent_block_sizes(right_mul_matrix(algebra, x)))


def char_sequence_estimate(algebra: StructureTensor, budget: int = 200,
                           seed: int = 0) -> CharSequence:
    """Lexicographic maximum of the block profile over sampled elements.

    Tries every basis vector outside [L, L], then ``budget`` random
    rational vectors with small numerators and denominators.  A lower
    bound for the true maximum; on the catalogued algebras the maximum is
    already attained at a generator of the long chain.
    """
    n = algebra.dim
    derived = derived_span(algebra)
    best = None
    candidates = [Vec.basis(n, i) for i in range(1, n + 1)]
    rng = random.Random(seed)
    for _ in range(budget):
        coords = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                       for _ in range(n))
        candidates.append(Vec(coords))
    for x in candidates:
        if x.is_zero() or derived.contains(x):
            continue
        seq = CharSequence(nilpotent_block_sizes(right_mul_matrix(algebra, x)))
        if best is None or best < seq:
            best = seq
    if best is None:
        raise ElementInDerivedSubalgebra(
            "no sampled element lies outside [L, L]")
    return best


def right_annihilator(algebra: StructureTensor) -> tuple:
    """Basis of {x : [y, x] = 0 for all y}, as a tuple of Vec.

    Stacks, for every basis row i and target k, the linear functional
    sum_j c^k_{i,j} x_j and returns the kernel.
    """
    n = algebra.dim
    rows: dict = {}     # (i, k) -> coefficients of x_1 .. x_n
    for (i, j), terms in algebra.table.items():
        for k, c in terms:
            rows.setdefault((i, k), [Fraction(0)] * n)[j - 1] = c
    if not rows:
        return tuple(Vec.basis(n, i) for i in range(1, n + 1))
    return tuple(Vec(v) for v in kernel_basis(MatrixQ.from_rows(rows.values())))
