"""Structure tensors, brackets, and the Leibniz residual.

An algebra is presented by its structure constants over Q with a 1-based
basis e_1 .. e_n: the table maps a pair (i, j) to the expansion of the
product [e_i, e_j].  Products are not assumed antisymmetric; a Leibniz
algebra is one whose residual

    [e_i, [e_j, e_k]] - [[e_i, e_j], e_k] + [[e_i, e_k], e_j]

vanishes for every triple.  ``leibniz_residual`` tests all left indices
i of a pair (j, k) at once, with one sum of packed ints, and reads the
two double brackets of a pair once for (j, k) and (k, j).

Algebras travel as JSON documents.  The canonical serialised form sorts
table entries by (i, j), terms by target index, and writes coefficients as
reduced fraction strings, so equal algebras serialise to identical bytes,
those of ``json.dumps(doc, indent=2)`` plus a newline; ``serialize`` writes
them directly.  ``_document`` checks the header of both document kinds,
algebras here and basis changes in ``transform``, by one rule and with
one message per fault.  ``parse`` checks each table cell with one test
and words a fault only when it fails (``_cell_fault``), and converts each
distinct coefficient once, straight from the digits its pattern matched.
Its cells go to the tensor as they are, without a second pass through
the constructor's normaliser, and so do its integer cells, each distinct
numerator scaled once.  Only a tensor built in memory has its integer
cells built from its ``Fraction`` table (``_build_cells``), on first read.
"""

from __future__ import annotations

import json
import re
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .errors import (DimensionMismatch, DocumentError, DuplicateEntry,
                     IndexOutOfRange)
from .linalg import MatrixQ, _frac

_FRACTION_RE = re.compile(r"(-?[0-9]+)(?:/([1-9][0-9]*))?")   # numerator, denominator


@dataclass(frozen=True)
class Vec:
    """Vector in the algebra's coordinate space, components over Q."""

    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(_frac(x) for x in self.coords))

    @staticmethod
    def basis(n: int, i: int) -> "Vec":
        """The basis vector e_i (1-based)."""
        if not 1 <= i <= n:
            raise IndexOutOfRange(f"basis index {i} outside 1..{n}")
        return _vec(tuple(_ONE if k == i - 1 else _ZERO for k in range(n)))

    @property
    def dim(self) -> int:
        return len(self.coords)

    def component(self, k: int) -> Fraction:
        """Coefficient of e_k (1-based)."""
        if not 1 <= k <= self.dim:
            raise IndexOutOfRange(f"component index {k} outside 1..{self.dim}")
        return self.coords[k - 1]

    def is_zero(self) -> bool:
        return not any(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __len__(self):
        return len(self.coords)

    def __add__(self, other: "Vec") -> "Vec":
        if self.dim != other.dim:
            raise DimensionMismatch(f"{self.dim} vs {other.dim}")
        return _vec(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Vec") -> "Vec":
        if self.dim != other.dim:
            raise DimensionMismatch(f"{self.dim} vs {other.dim}")
        return _vec(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Vec":
        return _vec(tuple(-a for a in self.coords))

    def scale(self, c) -> "Vec":
        c = _frac(c)
        return _vec(tuple(c * a for a in self.coords))

    __rmul__ = scale


_ZERO, _ONE = Fraction(0), Fraction(1)


def _vec(coords: tuple) -> Vec:
    """A Vec of a tuple of ``Fraction``s, taken as it is."""
    vec = object.__new__(Vec)
    object.__setattr__(vec, "coords", coords)
    return vec


def _normalize_table(dim: int, table) -> dict:
    """Validate indices, merge duplicate targets, drop zeros, sort.

    A target's first coefficient is stored as it is; only a repeated target
    is summed."""
    out = {}
    for (i, j), terms in table.items():
        if not (1 <= i <= dim and 1 <= j <= dim):
            raise IndexOutOfRange(f"table key ({i},{j}) outside 1..{dim}")
        acc: dict = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for k, c in items:
            if not 1 <= k <= dim:
                raise IndexOutOfRange(f"target index {k} outside 1..{dim} at ({i},{j})")
            c = _frac(c)
            acc[k] = acc[k] + c if k in acc else c
        cleaned = tuple(sorted((k, c) for k, c in acc.items() if c != 0))
        if cleaned:
            out[(i, j)] = cleaned
    return out


@dataclass(frozen=True)
class StructureTensor:
    """Immutable structure-constant table of a bilinear product.

    ``table`` maps (i, j) to a sorted tuple of (k, coefficient) pairs; pairs
    with no nonzero products are simply absent.  ``name`` is a free-form tag
    that is ignored by equality.
    """

    dim: int
    table: Mapping = field(default_factory=dict)
    name: str | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionMismatch(f"dimension must be >= 1, got {self.dim}")
        object.__setattr__(self, "table", _normalize_table(self.dim, dict(self.table)))

    def __hash__(self):
        return hash((self.dim, tuple(sorted(self.table.items()))))

    def __getstate__(self):     # without what ``_memo`` keeps
        state = dict(self.__dict__)
        state.pop("_series", None)
        state.pop("_cells", None)
        return state

    def terms(self, i: int, j: int) -> tuple:
        """Expansion of [e_i, e_j] as ((k, coeff), ...); empty when zero."""
        if not (1 <= i <= self.dim and 1 <= j <= self.dim):
            raise IndexOutOfRange(f"({i},{j}) outside 1..{self.dim}")
        return self.table.get((i, j), ())

    def coefficient(self, i: int, j: int, k: int) -> Fraction:
        if not 1 <= k <= self.dim:
            raise IndexOutOfRange(f"target index {k} outside 1..{self.dim}")
        return next((c for kk, c in self.terms(i, j) if kk == k), _ZERO)

    def entries(self):
        """All nonzero table cells, sorted by (i, j)."""
        for key in sorted(self.table):
            yield key, self.table[key]

    def renamed(self, name: str | None) -> "StructureTensor":
        return _tensor(self.dim, dict(self.table), name)


def _tensor(dim: int, table: dict, name: str | None) -> StructureTensor:
    """A StructureTensor of cells already in normal form, taken as they are:
    each a sorted tuple of (k, Fraction) with no zero coefficient, and no
    cell empty."""
    tensor = object.__new__(StructureTensor)
    tensor.__dict__.update(dim=dim, table=table, name=name)
    return tensor


def bracket(algebra: StructureTensor, x: Vec, y: Vec) -> Vec:
    """The product [x, y], extended bilinearly from the table."""
    n = algebra.dim
    if x.dim != n or y.dim != n:
        raise DimensionMismatch(
            f"vectors of dimension {x.dim}, {y.dim} in an algebra of dimension {n}")
    out = [Fraction(0)] * n
    ys = [(j, yj) for j, yj in enumerate(y.coords, 1) if yj]
    for i, xi in enumerate(x.coords, 1):
        if xi:
            for j, yj in ys:
                terms = algebra.table.get((i, j))
                if terms:
                    c = xi * yj
                    for k, v in terms:
                        out[k - 1] += c * v
    return _vec(tuple(out))


@dataclass(frozen=True)
class Residual:
    """All basis triples where the Leibniz identity fails.

    Each violation is (i, j, k, defect) with
    defect = [e_i,[e_j,e_k]] - [[e_i,e_j],e_k] + [[e_i,e_k],e_j].
    """

    dim: int
    violations: tuple

    def is_empty(self) -> bool:
        return not self.violations

    def __len__(self):
        return len(self.violations)


def _build_cells(algebra: StructureTensor) -> tuple:
    """``(scale, by_left)``: the table read once as integer cells, times
    ``scale``, the lcm of its denominators.  ``by_left[i]`` lists
    ``(j, ((k, c), ...))`` for every cell (i, j), all 0-based, in the
    table's order.  A positive multiple of the table has the same spans and
    Jordan block profiles.  Only constructed tensors need it: ``parse``
    hands a document's tensor the same cells."""
    scale = lcm(*(c.denominator for terms in algebra.table.values()
                  for _, c in terms))
    by_left: list = [[] for _ in range(algebra.dim)]
    for (i, j), terms in algebra.table.items():
        by_left[i - 1].append((j - 1, tuple(
            (k - 1, c.numerator * (scale // c.denominator))
            for k, c in terms)))
    return scale, by_left


def _memo(algebra: StructureTensor, key: str, build):
    """``build(algebra)``, kept in the tensor under ``key`` from the first
    call on and returned by every later one, as ``cached_property`` does."""
    value = algebra.__dict__.get(key)
    if value is None:
        value = algebra.__dict__[key] = build(algebra)
    return value


def _integer_cells(algebra: StructureTensor) -> tuple:
    """The integer cells of the table, kept per tensor: those ``parse``
    read, or ``_build_cells`` on first call."""
    return _memo(algebra, "_cells", _build_cells)


def _times_basis(by_left: list, row: dict) -> dict:
    """[row, e_j] for every j, as {j: {k: int}}, from a sparse integer
    row and the integer cells by left index (all 0-based)."""
    products: dict = {}
    for i, x in row.items():
        for j, cell in by_left[i]:
            acc = products.setdefault(j, {})
            for k, c in cell:
                acc[k] = acc.get(k, 0) + x * c
    return products


def leibniz_residual(algebra: StructureTensor) -> Residual:
    """Exact defect of the Leibniz identity over all n^3 basis triples,
    listed by j, then k, then i.

    Integer cells are packed in balanced slots of W bits, W the bit length
    of 3*n*M^2 plus 2 for M the largest |entry|: coordinate t of [e_i, e_m]
    at bit W*(n*i + t) in column m, and coefficient c^m_{i,j} at bit W*n*i.
    So the three terms of a pair (j, k), for every i at once, are O(n)
    products of packed ints.  Slot (i, t) of their sum, coordinate t of
    the defect of (i, j, k), adds at most 3n products of size at most M^2,
    so it stays below 2^(W-2): the slots never overlap, a block is 0
    exactly when its triple's defect is, and only a nonzero one is unpacked.
    The double brackets, the costly terms, enter (k, j) with the signs
    they have in (j, k), negated, and cancel at j = k; so the pair j < k
    sums them once and keeps the sum for (k, j).
    """
    n = algebra.dim
    scale, by_left = _integer_cells(algebra)
    top = max((abs(c) for row in by_left for _, t in row for _, c in t), default=0)
    width = (3 * n * top * top).bit_length() + 2
    block = width * n
    by_right: dict = {}         # k -> {m: cell (m, k) packed over t}
    columns: dict = {}          # m -> cells (i, m) packed over i and t
    over_left: dict = {}        # j -> {m: c^m_{i,j} packed over i}
    for i, row in enumerate(by_left):
        for j, terms in row:
            word = sum(c << width * t for t, c in terms)
            by_right.setdefault(j, {})[i] = word
            columns[j] = columns.get(j, 0) + (word << block * i)
            coefficients = over_left.setdefault(j, {})
            for m, c in terms:
                coefficients[m] = coefficients.get(m, 0) + (c << block * i)
    half, mask = 1 << (block - 1), (1 << block) - 1
    violations, mirrored = [], {}   # (k, j) -> double brackets added at (j, k)
    for j in range(n):
        w_j, a_j, p_j = dict(by_left[j]), over_left.get(j, {}), by_right.get(j, {})
        for k in sorted(by_right):
            acc = 0
            for m, c in w_j.get(k, ()):
                acc += c * columns.get(m, 0)
            if k < j:
                acc -= mirrored.pop((j, k), 0)
            elif k > j and p_j:
                p_k, double = by_right[k], 0
                for m, a in over_left[k].items():
                    if m in p_j:
                        double += a * p_j[m]
                for m, a in a_j.items():
                    if m in p_k:
                        double -= a * p_k[m]
                if double:
                    mirrored[(k, j)] = double
                    acc += double
            i = 0
            while acc:
                part = ((acc + half) & mask) - half     # the block of i
                if part:
                    violations.append((i + 1, j + 1, k + 1,
                                       _unpack(part, n, width, scale * scale)))
                acc = (acc - part) >> block
                i += 1
    return Residual(n, tuple(violations))


def _unpack(acc: int, n: int, width: int, denominator: int) -> Vec:
    """The balanced slots of a packed sum, each over ``denominator``."""
    half, mask = 1 << (width - 1), (1 << width) - 1
    coords = []
    while acc:
        digit = ((acc + half) & mask) - half
        coords.append(Fraction(digit, denominator))
        acc = (acc - digit) >> width
    return _vec(tuple(coords) + (_ZERO,) * (n - len(coords)))


def is_lie(algebra: StructureTensor) -> bool:
    """True when the product is antisymmetric (given Leibniz, that means Lie):
    no cell [e_i, e_i], and each cell (j, i) the negated cell (i, j)."""
    table = algebra.table
    return all(i != j and table.get((j, i)) == tuple((k, -c) for k, c in terms)
               for (i, j), terms in table.items())


def right_mul_matrix(algebra: StructureTensor, x: Vec) -> MatrixQ:
    """Matrix of y -> [y, x] on columns: column i holds [e_i, x]."""
    n = algebra.dim
    if x.dim != n:
        raise DimensionMismatch(f"vector of dimension {x.dim} in dimension {n}")
    entries = [Fraction(0)] * (n * n)
    for (i, j), terms in algebra.table.items():
        xj = x.coords[j - 1]
        if xj:
            for k, c in terms:
                entries[(k - 1) * n + i - 1] += xj * c
    return MatrixQ(n, n, tuple(entries))


# ----------------------------------------------------------------------
# documents

def _digits_to_fraction(match: re.Match, where) -> Fraction:
    """The value of a ``_FRACTION_RE`` match, built from its digits.
    ``where()`` names the value; it is formatted only for an error."""
    num, den = match.groups()
    try:
        return Fraction(int(num), int(den)) if den else Fraction(int(num))
    except ValueError:  # more digits than the interpreter converts
        raise DocumentError(f"{where()} has too many digits") from None


def _document(text: str, fields: set, kind: str) -> tuple:
    """``(doc, dim)`` of a document's text, both kinds checked by one rule:
    a JSON object with no key outside ``fields`` and a "dim" that is a
    positive int, not a bool.  Every failure, including integers over the
    interpreter's digit limit and deep nesting, is a DocumentError with
    the same text for both kinds but the ``kind`` it names."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError("not valid JSON: " + exc.msg, exc.lineno,
                            exc.colno) from None
    except ValueError:
        raise DocumentError("not valid JSON: an integer has too many "
                            "digits") from None
    except RecursionError:
        raise DocumentError("not valid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise DocumentError(f"{kind} document must be a JSON object")
    extra = set(doc) - fields
    if extra:
        raise DocumentError(f"unknown {kind} fields {sorted(extra)}")
    dim = doc.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise DocumentError("\"dim\" must be a positive integer")
    return doc, dim


def parse_fraction(text: str) -> Fraction:
    """Exact fraction from a string like '-3/4' or '2'.

    Decimal notation is rejected on purpose: a value like 0.1 has no
    exact binary meaning and would poison every later computation.
    """
    match = _FRACTION_RE.fullmatch(text.strip())
    if match is None:
        raise DocumentError(f"{text!r} is not an exact fraction like '-3/4'")
    return _digits_to_fraction(match, lambda: "fraction")


def _coeff_from_document(raw, where, known: dict) -> Fraction:
    """A document coefficient read for the first time, kept in ``known``
    (its value by the string or int as written) unless it fails.
    ``where()`` names its location; it is formatted only for an error."""
    if type(raw) is str:                # json.loads makes no subclasses
        match = _FRACTION_RE.fullmatch(raw)
        if match is None:
            raise DocumentError(f"coefficient {raw!r} at {where()} is not "
                                "an exact fraction string like '-3/4'")
        value = _digits_to_fraction(match, lambda: f"coefficient at {where()}")
    elif type(raw) is int:              # not a bool
        value = Fraction(raw)
    else:
        raise DocumentError(f"coefficient at {where()} must be an exact "
                            f"fraction string, got {type(raw).__name__}")
    known[raw] = value
    return value


def _cell_fault(entry, where: str, dim: int, cells) -> None:
    """Word the fault of a table entry that failed ``parse``'s one test of a
    cell: its shape, then i, then j, then a repeated (i, j), then terms."""
    if not isinstance(entry, dict) or set(entry) != {"i", "j", "terms"}:
        raise DocumentError(f"{where} must be an object with keys i, j, terms")
    i, j = entry["i"], entry["j"]
    for label, idx in (("i", i), ("j", j)):
        if not isinstance(idx, int) or isinstance(idx, bool):
            raise DocumentError(f"{where}.{label} must be an integer")
        if not 1 <= idx <= dim:
            raise IndexOutOfRange(f"{where}.{label} = {idx} outside 1..{dim}")
    if (i, j) in cells:
        raise DuplicateEntry(f"cell ({i},{j}) appears twice")
    raise DocumentError(f"{where}.terms must be a list")


def parse(text: str) -> StructureTensor:
    """Read an algebra document.

    Each distinct coefficient is read once.  The tensor comes with its
    integer cells (``_integer_cells``) as well as its table: their scale is
    the lcm of the distinct denominators, and each distinct numerator is
    scaled once, so no reader of a parsed document runs ``_build_cells``.

    Raises DocumentError for syntax and schema problems (with line/column
    when the JSON reader reports one), IndexOutOfRange for basis indices
    outside 1..dim, and DuplicateEntry for repeated cells.
    """
    doc, dim = _document(text, {"dim", "name", "table"}, "algebra")
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise DocumentError("\"name\" must be a string")
    entries = doc.get("table", [])
    if not isinstance(entries, list):
        raise DocumentError("\"table\" must be a list")

    def t_where():                      # the term being read when it fails
        return f"table[{pos}].terms[{t_pos}]"

    known: dict = {}                    # coefficient as written -> Fraction
    cells: dict = {}                    # (i, j) -> {k: as written}
    for pos, entry in enumerate(entries):
        if not (type(entry) is dict and len(entry) == 3
                and type(i := entry.get("i")) is int and 0 < i <= dim
                and type(j := entry.get("j")) is int and 0 < j <= dim
                and type(entry_terms := entry.get("terms")) is list
                and (i, j) not in cells):
            _cell_fault(entry, f"table[{pos}]", dim, cells)
        terms = cells[(i, j)] = {}
        for t_pos, term in enumerate(entry_terms):
            if type(term) is not list or len(term) != 2:
                raise DocumentError(
                    f"{t_where()} must be a [target, coefficient] pair")
            k, raw = term
            if type(k) is not int:
                raise DocumentError(f"{t_where()} target must be an integer")
            if not 1 <= k <= dim:
                raise IndexOutOfRange(f"{t_where()} target {k} outside 1..{dim}")
            if k in terms:
                raise DuplicateEntry(f"target {k} appears twice in cell ({i},{j})")
            # the type test comes first: a list or a dict does not hash
            if type(raw) is not str or raw not in known:
                _coeff_from_document(raw, t_where, known)
            terms[k] = raw
    scale = lcm(*(v.denominator for v in known.values()))
    scaled = {raw: v.numerator * (scale // v.denominator)
              for raw, v in known.items()}
    zero = {raw for raw, c in scaled.items() if not c}
    table, by_left = {}, [[] for _ in range(dim)]
    for (i, j), terms in cells.items():
        if zero:
            terms = {k: raw for k, raw in terms.items() if raw not in zero}
        if terms:
            cell = sorted(terms.items())
            table[(i, j)] = tuple([(k, known[raw]) for k, raw in cell])
            by_left[i - 1].append(
                (j - 1, tuple([(k - 1, scaled[raw]) for k, raw in cell])))
    tensor = _tensor(dim, table, name)
    tensor.__dict__["_cells"] = scale, by_left
    return tensor


# json.dumps(doc, indent=2) puts each value on a line, two spaces a level;
# coefficient strings need no escapes, so only the name goes through it
_CELL = '    {\n      "i": %d,\n      "j": %d,\n      "terms": [\n%s\n      ]\n    }'
_TERM = '        [\n          %d,\n          "%s"\n        ]'


def serialize(algebra: StructureTensor) -> str:
    """Canonical document text; equal algebras give byte-identical output,
    the bytes of ``json.dumps(doc, indent=2) + "\\n"``, written directly."""
    head = ['{\n  "dim": %d' % algebra.dim]
    if algebra.name is not None:
        head.append('  "name": ' + json.dumps(algebra.name))
    cells = ",\n".join(_CELL % (i, j, ",\n".join(_TERM % term for term in terms))
                       for (i, j), terms in algebra.entries())
    head.append('  "table": ' + ("[\n" + cells + "\n  ]" if cells else "[]"))
    return ",\n".join(head) + "\n}\n"
