"""Builders for the classified families of naturally graded Leibniz
algebras with two Jordan chains of lengths n-3 and 3.

Two shapes of family exist.  "Second type" algebras are governed by a
parameter tuple (alpha1..alpha4, beta) plus a flag epsilon that switches
on the alternating products [e_i, e_{n+3-i}] = epsilon*(-1)^i e_n (even
dimension only).  "First type" algebras come in eight labelled families
(34..41) over two internal branches.

The catalog row table records, for each family label, the fixed slots,
the free parameters with their admissible sets, and the parity rule.
``enumerate_catalog`` instantiates all of it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import NamedTuple, Sequence

from .algebra import StructureTensor
from .errors import (DimensionTooSmall, InadmissibleParams, ParityViolation,
                     UnknownFamily)
from .linalg import _frac

Q = Fraction


DEFAULT_FREE_SAMPLES = (Q(0), Q(1), Q(-1), Q(2), Q(1, 2))


# ----------------------------------------------------------------------
# parameter tuples

@dataclass(frozen=True)
class SecondTypeParams:
    """The data (epsilon, alpha1..alpha4, beta) of a second-type algebra.

    beta is -1 or 0, and beta = 0 forces every alpha to 0."""

    epsilon: int
    alphas: tuple
    beta: Fraction

    def __post_init__(self):
        if self.epsilon not in (0, 1):
            raise InadmissibleParams(f"epsilon must be 0 or 1, got {self.epsilon}")
        alphas = tuple(_frac(a) for a in self.alphas)
        if len(alphas) != 4:
            raise InadmissibleParams("need exactly four alpha values")
        object.__setattr__(self, "alphas", alphas)
        beta = _frac(self.beta)
        if beta not in (Q(-1), Q(0)):
            raise InadmissibleParams(f"beta must be -1 or 0, got {beta}")
        if beta == 0 and any(alphas):
            raise InadmissibleParams(
                "beta = 0 forces alpha1 = alpha2 = alpha3 = alpha4 = 0; got "
                f"alphas ({', '.join(str(a) for a in alphas)})")
        object.__setattr__(self, "beta", beta)


#: first-type family id -> the branch, "a" or "b", whose map it follows
_FIRST_TYPE_BRANCH = {34: "a", 35: "a", 36: "a", 37: "a",
                      38: "b", 39: "b", 40: "b", 41: "b"}


@dataclass(frozen=True)
class FirstTypeParams:
    """A first-type family id (34..41) with its printed subscript triple."""

    family_id: int
    p: tuple

    def __post_init__(self):
        if self.family_id not in _FIRST_TYPE_BRANCH:
            raise UnknownFamily(f"no first-type family {self.family_id}")
        p = tuple(_frac(x) for x in self.p)
        if len(p) != 3:
            raise InadmissibleParams("need exactly three subscript values")
        object.__setattr__(self, "p", p)

    @property
    def branch(self) -> str:
        return _FIRST_TYPE_BRANCH[self.family_id]

    def branch_params(self) -> tuple:
        """The generic-branch triple this subscript encodes.

        Branch a reads the subscript directly as (alpha1, alpha2, beta2).
        Branch b subscripts are printed as (alpha1, b2, a2) while the
        parameter maps take (alpha1, a2, b2), so the last two swap.
        """
        p1, p2, p3 = self.p
        return self.p if self.branch == "a" else (p1, p3, p2)


# ----------------------------------------------------------------------
# row table

@dataclass(frozen=True)
class ParamSpec:
    """Admissible set of one free parameter: a finite list, or all of Q
    minus some excluded values."""

    name: str
    finite: tuple | None = None
    excluded: tuple = ()

    def admits(self, value) -> bool:
        value = _frac(value)
        if self.finite is not None:
            return value in self.finite
        return value not in self.excluded

    def describe(self) -> str:
        if self.finite is not None:
            return "{" + ", ".join(str(v) for v in self.finite) + "}"
        if self.excluded:
            return ("any rational except "
                    + ", ".join(str(v) for v in self.excluded))
        return "any rational"

    def sample(self, free_samples) -> tuple:
        if self.finite is not None:
            return tuple(self.finite)
        return tuple(v for v in free_samples if v not in self.excluded)


def _eval_slot(slot, values: dict) -> Fraction:
    kind = slot[0]
    if kind == "const":
        return slot[1]
    if kind == "mul":
        return slot[1] * values[slot[2]]
    if kind == "sq4":
        return values[slot[1]] ** 2 / 4
    if kind == "inv2":
        return 2 / values[slot[1]]
    raise ValueError(f"unknown slot shape {slot!r}")  # pragma: no cover


def _slot_text(slot) -> str:
    kind = slot[0]
    if kind == "const":
        return str(slot[1])
    if kind == "mul":
        c, name = slot[1], slot[2]
        if c == 1:
            return name
        if c == -1:
            return f"-{name}"
        return f"{c}*{name}"
    if kind == "sq4":
        return f"{slot[1]}^2/4"
    return f"2/{slot[1]}"


@dataclass(frozen=True)
class CatalogRow:
    """One printed row of the classification tables.

    ``slots`` gives the four alpha entries (second type) or the three
    subscript entries (first type) as functions of the row's parameters.
    ``row_id`` is unique; ``family_label`` repeats for rows printed under
    one label with different slot patterns.
    """

    row_id: str
    family_label: str
    kind: str                      # "second" | "first"
    slots: tuple
    params: tuple = ()             # ParamSpec, in printed column order
    epsilon: int | None = None
    beta: Fraction | None = None
    family_id: int | None = None   # first type only
    parity: str = "any"            # "any" | "even"

    def _values_dict(self, values: Sequence) -> dict:
        values = tuple(_frac(v) for v in values)
        names = [spec.name for spec in self.params]
        if len(values) != len(names):
            raise InadmissibleParams(
                f"row {self.row_id} takes {len(names)} parameter(s) "
                f"({', '.join(names) or 'none'}), got {len(values)}")
        return dict(zip(names, values))

    def slot_values(self, values: Sequence) -> tuple:
        env = self._values_dict(values)
        return tuple(_eval_slot(s, env) for s in self.slots)

    def make_params(self, values: Sequence = ()):
        """The parameter object this row denotes at the given values."""
        filled = self.slot_values(values)
        if self.kind == "second":
            return SecondTypeParams(self.epsilon, filled, self.beta)
        return FirstTypeParams(self.family_id, filled)

    def build(self, n: int, values: Sequence = ()) -> StructureTensor:
        """The algebra this row denotes at dimension n and the values, named
        by ``label``; values that ``violations`` rejects raise
        InadmissibleParams with its text."""
        if problems := self.violations(values):
            raise InadmissibleParams("; ".join(problems))
        params = self.make_params(values)
        cells = (_second_type_cells(n, params) if self.kind == "second" else
                 _type1_cells(n, params.branch, *params.branch_params())[0])
        return StructureTensor(n, cells, self.label(n, values))

    def label(self, n: int, values: Sequence = ()) -> str:
        """The table's name, ``l(<row>)[<param>=<v>, ...] n=<n>``."""
        vals = ", ".join(f"{spec.name}={_frac(v)}"
                         for spec, v in zip(self.params, values))
        return f"l({self.row_id})" + (f"[{vals}]" if vals else "") + f" n={n}"

    def violations(self, values: Sequence, n: int | None = None) -> list:
        """Human-readable admissibility problems; empty when fine."""
        problems = []
        try:
            env = self._values_dict(values)
        except InadmissibleParams as exc:
            return [str(exc)]
        for spec in self.params:
            v = env[spec.name]
            if not spec.admits(v):
                problems.append(
                    f"{spec.name} = {v} not admissible for row {self.row_id}: "
                    f"{spec.name} must lie in {spec.describe()}")
        if n is not None:
            if n < 9:
                problems.append(f"dimension {n} below the minimum 9")
            elif self.parity == "even" and n % 2:
                problems.append(
                    f"row {self.row_id} needs even dimension, got {n}")
        return problems

    def sample_grid(self, free_samples) -> list:
        """All admissible value tuples, finite sets in full, free slots
        over each distinct sample, in first-seen order, minus exclusions."""
        if not self.params:
            return [()]
        free_samples = tuple(dict.fromkeys(free_samples))
        axes = [spec.sample(free_samples) for spec in self.params]
        return [vals for vals in product(*axes) if not self.violations(vals)]


def _C(c) -> tuple:
    return ("const", Q(c))


def _M(name: str, c=1) -> tuple:
    return ("mul", Q(c), name)


def _spec(name: str, *, finite=None, excluded=()) -> ParamSpec:
    return ParamSpec(name,
                     None if finite is None else tuple(Q(v) for v in finite),
                     tuple(Q(v) for v in excluded))


def _second(row_id, slots, params=(), *, epsilon, beta=Q(-1), label=None):
    return CatalogRow(row_id=row_id,
                      family_label=label if label is not None else row_id,
                      kind="second", slots=slots, params=params,
                      epsilon=epsilon, beta=Q(beta),
                      parity="even" if epsilon == 1 else "any")


def _first(family_id, slots, params=()):
    return CatalogRow(row_id=str(family_id), family_label=str(family_id),
                      kind="first", slots=slots, params=params,
                      family_id=family_id, parity="any")


CATALOG_ROWS: tuple = (
    # beta = 0 row: everything beyond the chain vanishes
    _second("0,1", (_C(0), _C(0), _C(0), _C(0)), epsilon=0, beta=0),
    _second("0,2", (_C(0), _C(0), _C(0), _M("lambda")),
            (_spec("lambda", finite=(0, 1)),), epsilon=0),
    _second("0,3", (_C(1), _C(0), _C(0), _M("lambda")), (_spec("lambda"),),
            epsilon=0),
    _second("0,4", (_C(1), _C(0), _C(Q(1, 4)), _M("lambda")),
            (_spec("lambda"),), epsilon=0),
    _second("0,5", (_C(0), _C(0), _C(1), _M("lambda")), (_spec("lambda"),),
            epsilon=0),
    _second("0,6a", (_C(0), _C(1), _C(0), _M("lambda")),
            (_spec("lambda", finite=(0, 1)),), epsilon=0, label="0,6"),
    _second("0,6b", (_M("mu"), _C(1), _C(0), _M("lambda")),
            (_spec("lambda"), _spec("mu", finite=(1, 2))), epsilon=0,
            label="0,6"),
    _second("0,7", (_C(0), _C(1), _M("mu"), _M("lambda")),
            (_spec("lambda"), _spec("mu", excluded=(0,))), epsilon=0),
    _second("0,8", (_M("lambda", -2), _C(1), _M("lambda", -1), _C(2)),
            (_spec("lambda", finite=(-2, Q(-4, 3))),), epsilon=0),
    _second("0,9", (_M("lambda", 2), _C(1), _M("lambda"), _C(0)),
            (_spec("lambda", excluded=(0, 1)),), epsilon=0),
    _second("0,10a", (_C(1), _C(1), _C(Q(1, 4)), _C(Q(1, 4))), epsilon=0,
            label="0,10"),
    _second("0,10b", (_C(1), _C(1), _C(Q(1, 4)), _C(Q(1, 2))), epsilon=0,
            label="0,10"),
    _second("0,10c", (_C(2), _C(1), _C(1), _C(1)), epsilon=0, label="0,10"),
    _second("0,10d", (_C(2), _C(1), _C(1), _C(0)), epsilon=0, label="0,10"),
    _second("0,11", (_C(1), _M("lambda"), _C(Q(1, 4)), _C(0)),
            (_spec("lambda", excluded=(0, Q(1, 2))),), epsilon=0),

    _second("1,2", (_C(0), _C(0), _C(0), _M("lambda")),
            (_spec("lambda", finite=(0, 1)),), epsilon=1),
    _second("1,3", (_C(1), _C(0), _C(0), _M("lambda")), (_spec("lambda"),),
            epsilon=1),
    _second("1,4", (_C(1), _C(0), _C(Q(1, 4)), _M("lambda")),
            (_spec("lambda"),), epsilon=1),
    _second("1,6", (_M("mu"), _C(1), _C(0), _M("lambda")),
            (_spec("lambda"), _spec("mu")), epsilon=1),
    _second("1,7", (_C(0), _M("gamma"), _M("mu"), _M("lambda")),
            (_spec("lambda"), _spec("gamma", excluded=(0,)),
             _spec("mu", excluded=(0,))), epsilon=1),
    _second("1,9", (_M("lambda", -2), _C(1), _M("lambda"), _M("mu")),
            (_spec("lambda", excluded=(0, 1)), _spec("mu")), epsilon=1),
    _second("1,11", (_M("lambda"), _C(1), ("sq4", "lambda"), _M("mu")),
            (_spec("lambda", excluded=(-2, 0)), _spec("mu")), epsilon=1),
    _second("1,12", (_C(-1), _C(0), _C(0), _M("lambda")),
            (_spec("lambda", finite=(0, 1)),), epsilon=1),
    _second("1,13", (_C(-2), _C(0), _C(1), _M("lambda")), (_spec("lambda"),),
            epsilon=1),
    _second("1,14", (_C(-4), _C(0), _C(2), _M("lambda")), (_spec("lambda"),),
            epsilon=1),
    _second("1,15", (_C(0), _C(0), _C(-1), _M("lambda")), (_spec("lambda"),),
            epsilon=1),
    _second("1,16", (_C(-2), _C(0), _C(-1), _M("lambda")),
            (_spec("lambda"),), epsilon=1),
    _second("1,17", (_C(0), _C(-1), _C(0), _M("lambda")),
            (_spec("lambda", finite=(0, 1)),), epsilon=1),
    _second("1,18", (_C(-1), _C(-1), _C(0), _M("lambda")),
            (_spec("lambda"),), epsilon=1),
    _second("1,19", (_C(-2), _C(-1), _C(0), _C(1)), epsilon=1),
    _second("1,20", (_C(1), _C(-1), _C(0), _M("lambda")),
            (_spec("lambda", excluded=(Q(-1, 2),)),), epsilon=1),
    _second("1,21", (_C(1), _C(Q(1, 3)), _C(0), _M("lambda")),
            (_spec("lambda"),), epsilon=1),
    _second("1,22", (_C(-2), _C(-1), _C(1), _M("lambda")),
            (_spec("lambda", finite=(0, 1)),), epsilon=1),
    _second("1,23", (_C(1), _C(Q(1, 2)), _C(Q(1, 4)), _M("lambda")),
            (_spec("lambda"),), epsilon=1),
    _second("1,24", (_C(-4), _C(-1), _C(2), _M("lambda")),
            (_spec("lambda"),), epsilon=1),
    _second("1,25", (_C(-3), _C(Q(-4, 3)), _C(2), _M("lambda")),
            (_spec("lambda"),), epsilon=1),
    _second("1,26", (_C(Q(2, 5)), _C(2), _C(Q(2, 5)), _M("lambda")),
            (_spec("lambda"),), epsilon=1),
    _second("1,27", (("inv2", "lambda"), _M("lambda"), _C(1), _M("mu")),
            (_spec("lambda", excluded=(-1, 0, 1)), _spec("mu")), epsilon=1),
    _second("1,28", (_C(Q(8, 5)), _C(Q(1, 2)), _C(Q(-4, 5)), _M("lambda")),
            (_spec("lambda"),), epsilon=1),
    _second("1,29", (_M("lambda"), _C(-1), ("sq4", "lambda"), _C(0)),
            (_spec("lambda", excluded=(-2, 0)),), epsilon=1),
    _second("1,30", (_C(1), _C(-1), _C(Q(1, 4)), _M("lambda")),
            (_spec("lambda", finite=(Q(-1, 2), Q(1, 4))),), epsilon=1),
    _second("1,31", (_C(-8), _C(2), _C(16), _M("lambda")), (_spec("lambda"),),
            epsilon=1),
    _second("1,32", (_C(-2), _M("lambda"), _C(1), _C(0)),
            (_spec("lambda", excluded=(-1, 0)),), epsilon=1),
    _second("1,33", (_C(-2), _C(1), _C(1), _M("lambda")),
            (_spec("lambda", finite=(-1, 1)),), epsilon=1),

    _first(34, (_C(0), _M("lambda"), _C(0)), (_spec("lambda"),)),
    _first(35, (_M("mu"), _M("lambda"), _C(1)),
           (_spec("lambda", finite=(0, 1)), _spec("mu", finite=(0, 1)))),
    _first(36, (_C(1), _M("lambda"), _C(0)),
           (_spec("lambda", finite=(-1, 0)),)),
    _first(37, (_C(1), _M("lambda"), _C(2)), (_spec("lambda"),)),
    _first(38, (_C(0), _C(0), _M("lambda")), (_spec("lambda"),)),
    _first(39, (_C(0), _C(1), _M("lambda")),
           (_spec("lambda", finite=(-1, 0)),)),
    _first(40, (_C(1), _M("lambda"), _M("mu")),
           (_spec("lambda", finite=(0, 1)), _spec("mu"))),
    _first(41, (_C(1), _C(-1), _M("lambda")),
           (_spec("lambda", finite=(-1, 0)),)),
)

_ROWS_BY_ID = {row.row_id: row for row in CATALOG_ROWS}


def row_by_id(row_id: str) -> CatalogRow:
    try:
        return _ROWS_BY_ID[row_id]
    except KeyError:
        raise UnknownFamily(f"no catalog row {row_id!r}") from None


def rows_by_label(label: str) -> tuple:
    out = tuple(r for r in CATALOG_ROWS if r.family_label == label)
    if not out:
        raise UnknownFamily(f"no catalog rows labelled {label!r}")
    return out


# ----------------------------------------------------------------------
# building

def _put(cells: dict, i: int, j: int, *terms):
    """Lay (k, c) terms down in cell (i, j); ``StructureTensor`` merges
    repeated targets, drops zeros and sorts."""
    cells.setdefault((i, j), []).extend(terms)


def _chain(n: int, skip: int) -> dict:
    """The cells [e_i, e_1] = e_{i+1} for i = 1..n-1 other than skip."""
    return {(i, 1): [(i + 1, 1)] for i in range(1, n) if i != skip}


def build_second_type(n: int, params: SecondTypeParams) -> StructureTensor:
    """The second-type normal form at dimension n, named
    ``second-type n=<n>``.

    Emits exactly the chain [e_i,e_1]=e_{i+1} (i != 3) plus the products
    controlled by (alpha1..alpha4, beta, epsilon); [e_1,e_5] carries
    beta*e_6 (not a fixed -e_6), which is forced when beta = 0.

    Parameters off the catalog rows, where the transform maps go, are built
    too; ``find_second_type_row(params)`` is None exactly for those.
    """
    return StructureTensor(n, _second_type_cells(n, params),
                           f"second-type n={n}")


def _second_type_cells(n: int, params: SecondTypeParams) -> dict:
    if n < 9:
        raise DimensionTooSmall(f"second-type families need n >= 9, got {n}")
    if params.epsilon == 1 and n % 2:
        raise ParityViolation(
            f"epsilon = 1 products need even dimension, got {n}")
    a1, a2, a3, a4 = params.alphas
    beta = params.beta
    cells = _chain(n, 3)
    _put(cells, 1, 4, (2, a1), (5, beta))
    _put(cells, 2, 4, (3, a2))
    _put(cells, 4, 4, (2, a3))
    _put(cells, 5, 4, (3, a4))
    _put(cells, 1, 5, (3, a1 - a2), (6, beta))
    _put(cells, 4, 5, (3, a3 - a4))
    for i in range(6, n):
        _put(cells, 1, i, (i + 1, beta))
    if params.epsilon == 1:
        for i in range(4, n):
            _put(cells, i, n + 3 - i, (n, Q(-1) if i % 2 else Q(1)))
    return cells


def find_second_type_row(params: SecondTypeParams):
    """The (row, values) pair whose slots reproduce these parameters, or
    None.  Rows are scanned in printed order; values are solved from the
    first linear slot of each parameter and then verified everywhere."""
    for row in CATALOG_ROWS:       # first-type rows have epsilon None
        if row.epsilon != params.epsilon or row.beta != params.beta:
            continue
        values = _solve_row_values(row, params.alphas)
        if values is not None and not row.violations(values):
            return row, values
    return None


def _solve_row_values(row: CatalogRow, targets: tuple):
    # each parameter's value is read off its first "mul" slot
    values = tuple(next(target / slot[1]
                        for slot, target in zip(row.slots, targets)
                        if slot[0] == "mul" and slot[2] == spec.name)
                   for spec in row.params)
    try:
        solved = row.slot_values(values) == tuple(targets)
    except ZeroDivisionError:   # lambda = 0 in row 1,27's slot 2/lambda
        return None
    return values if solved else None


def _type1_cells(n: int, branch: str, *params) -> tuple:
    """The cells of the first-type shape of ``branch``, "a" or "b", with
    the three parameters as fractions.  Both shapes share the chain with
    its gap at n-3 and [e_i, e_{n-2}] = alpha1*e_{i+1} for i = 1..n-4."""
    if n < 9:
        raise DimensionTooSmall(f"first-type families need n >= 9, got {n}")
    p = a1, x, y = tuple(_frac(v) for v in params)
    cells = _chain(n, n - 3)
    for i in range(1, n - 3):
        _put(cells, i, n - 2, (i + 1, a1))
    if branch == "a":           # x, y = alpha2, beta2
        _put(cells, 1, n - 2, (n - 1, x))
        _put(cells, 2, n - 2, (n, x))
        _put(cells, n - 2, n - 2, (n - 1, y))
        _put(cells, n - 1, n - 2, (n, y))
    else:                       # x, y = a2, b2
        _put(cells, 1, n - 2, (n - 1, -1))
        _put(cells, 2, n - 2, (n, -(1 + x)))
        _put(cells, n - 1, n - 2, (n, -y))
        _put(cells, 1, n - 1, (n, x))
        _put(cells, n - 2, n - 1, (n, y))
    return cells, p


def build_type1_branch_a(n: int, alpha1, alpha2, beta2) -> StructureTensor:
    """First-type shape where e_{n-1} right-annihilates everything."""
    cells, p = _type1_cells(n, "a", alpha1, alpha2, beta2)
    return StructureTensor(n, cells, "type1a({},{},{}) n={}".format(*p, n))


def build_type1_branch_b(n: int, alpha1, a2, b2) -> StructureTensor:
    """First-type shape with [e_1, e_{n-2}] = alpha1*e_2 - e_{n-1}."""
    cells, p = _type1_cells(n, "b", alpha1, a2, b2)
    return StructureTensor(n, cells, "type1b({},{},{}) n={}".format(*p, n))


def build_first_type(n: int, params: FirstTypeParams) -> StructureTensor:
    if n < 9:
        raise DimensionTooSmall(f"first-type families need n >= 9, got {n}")
    row = row_by_id(str(params.family_id))
    values = _solve_row_values(row, params.p)
    problems = (row.violations(values, n) if values is not None else
                ["subscript does not match the pattern "
                 f"({', '.join(_slot_text(s) for s in row.slots)})"])
    if problems:
        raise InadmissibleParams(
            f"subscript {params.p} is not admissible for family "
            f"{params.family_id}: " + "; ".join(problems))
    return row.build(n, values)


# ----------------------------------------------------------------------
# enumeration

class CatalogInstance(NamedTuple):
    row: CatalogRow
    n: int
    tensor: StructureTensor
    values: tuple

    def label(self) -> str:
        return self.row.label(self.n, self.values)


def enumerate_catalog(dims: Sequence[int],
                      free_param_samples: Sequence = DEFAULT_FREE_SAMPLES):
    """Instantiate every catalog row at every compatible dimension.

    Finite parameter sets are enumerated in full; each free slot runs over
    ``free_param_samples`` minus the row's exclusions.  Yields instances
    in canonical order: row order, then dimension, then sample order.
    """
    samples = tuple(_frac(s) for s in free_param_samples)
    if not samples:
        raise InadmissibleParams("free_param_samples must be nonempty")
    dims = sorted(set(dims))
    for row in CATALOG_ROWS:
        grids = row.sample_grid(samples)
        for n in dims:
            if row.parity == "even" and n % 2:
                continue
            for values in grids:
                yield CatalogInstance(row, n, row.build(n, values), values)


def catalog_index_document() -> str:
    """Machine-readable index of all rows and their constraints."""
    rows = []
    for row in CATALOG_ROWS:
        entry = {
            "row_id": row.row_id,
            "family_label": row.family_label,
            "kind": row.kind,
            "pattern": [_slot_text(s) for s in row.slots],
            "parity": row.parity,
            "params": [],
        }
        if row.kind == "second":
            entry["epsilon"] = row.epsilon
            entry["beta"] = str(row.beta)
        else:
            entry["family_id"] = row.family_id
        for spec in row.params:
            p: dict = {"name": spec.name}
            if spec.finite is not None:
                p["finite"] = [str(v) for v in spec.finite]
            else:
                p["excluded"] = [str(v) for v in spec.excluded]
            entry["params"].append(p)
        rows.append(entry)
    return json.dumps({"rows": rows}, indent=2) + "\n"


# ----------------------------------------------------------------------
# the mid-construction shape behind the closed-form product formula

def build_construction_stage(n: int, alphas: Sequence,
                             betas: Sequence) -> StructureTensor:
    """Second-type table before normalisation, with explicit beta chain.

    ``alphas`` is (alpha1..alpha4); ``betas`` uses 1-based subscripts
    (betas[m] is beta_m, betas[0] ignored) and must cover 1..n-1.  The
    products against e_4 are laid down from these coefficients and every
    higher column j >= 5 is derived through

        [e_i, e_j] = [[e_i, e_{j-1}], e_1] - [[e_i, e_1], e_{j-1}],

    which is the Leibniz identity applied to e_j = [e_{j-1}, e_1].
    """
    if n < 9:
        raise DimensionTooSmall(f"construction stage needs n >= 9, got {n}")
    alphas = tuple(_frac(a) for a in alphas)
    if len(alphas) != 4:
        raise InadmissibleParams("need exactly four alpha values")
    betas = [_frac(b) for b in betas]
    if len(betas) < n:
        raise InadmissibleParams(f"betas must cover subscripts 1..{n - 1}")
    a1, a2, a3, a4 = alphas
    cells = _chain(n, 3)
    _put(cells, 1, 4, (2, a1), (5, betas[1]))
    _put(cells, 2, 4, (3, a2), (6, betas[2]))
    _put(cells, 3, 4, (7, betas[3]))
    _put(cells, 4, 4, (2, a3), (5, betas[4]))
    _put(cells, 5, 4, (3, a4), (6, betas[5]))
    for i in range(6, n):
        _put(cells, i, 4, (i + 1, betas[i]))

    # [e_k, e_1] = e_{k+1} except for k = 3 and k = n, so the left term
    # shifts [e_i, e_{j-1}] up by one and the right term is [e_{i+1}, e_{j-1}]
    for j in range(5, n + 1):
        prev = StructureTensor(n, {key: terms for key, terms in cells.items()
                                   if key[1] == j - 1}).table   # merged
        for i in range(1, n + 1):
            left = prev.get((i, j - 1), ())
            right = prev.get((i + 1, j - 1), ()) if i != 3 and i < n else ()
            _put(cells, i, j,
                 *((k + 1, c) for k, c in left if k != 3 and k < n),
                 *((k, -c) for k, c in right))
    return StructureTensor(n, cells, f"construction-stage n={n}")
