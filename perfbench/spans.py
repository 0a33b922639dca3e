"""Span tracing of the lnz layers from outside the package.

``Tracer.install`` replaces each traced function at every ``lnz.*`` module
global that binds it (the package binds names with ``from .x import f``),
and the two ``EchelonSpan`` methods and ``BasisChange.__post_init__`` on
their classes.  ``uninstall`` puts the originals back, so nothing in
``src/`` changes and untraced runs pay nothing.

A traced call opens a span: name, start, end, parent span and operation
id.  Hot leaf calls (``LEAVES``) get no span of their own; their count and
summed time are added to the enclosing span.  A span's self time is its
duration minus the time its child spans and leaf calls cover, so over one
round the self times add up to the root span's duration.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

#: (module, name) of every traced callable; "A.b" names a method b of class A.
TRACED = (
    ("linalg", "nilpotent_block_sizes"), ("linalg", "rank"),
    ("linalg", "rref"), ("linalg", "invert"), ("linalg", "kernel_basis"),
    ("linalg", "EchelonSpan.add"), ("linalg", "EchelonSpan.contains"),
    ("linalg", "resultant"), ("linalg", "poly_gcd"),
    ("linalg", "rational_roots"),
    ("algebra", "bracket"), ("algebra", "leibniz_residual"),
    ("algebra", "right_mul_matrix"), ("algebra", "parse"),
    ("algebra", "serialize"),
    ("analysis", "lower_central_series"), ("analysis", "natural_gradation"),
    ("analysis", "derived_span"), ("analysis", "char_sequence_at"),
    ("analysis", "char_sequence_estimate"),
    ("analysis", "right_annihilator"),
    ("catalog", "enumerate_catalog"), ("catalog", "build_second_type"),
    ("catalog", "build_first_type"),
    ("transform", "apply_change"), ("transform", "BasisChange"),
    ("transform", "completed_second_type_change"),
    ("transform", "completed_first_type_change"),
    ("transform", "extract_second_type"), ("transform", "param_map_case1"),
    ("transform", "param_map_case2"), ("transform", "decide_equivalence"),
    ("verify", "verify_all"), ("cli", "main"),
)

#: Called on the order of 10^6 times per battery: counted into the parent.
LEAVES = frozenset({"algebra.bracket", "linalg.EchelonSpan.add",
                    "linalg.EchelonSpan.contains",
                    "transform.param_map_case1", "transform.param_map_case2"})

#: Elimination routines whose matrix argument feeds ``linalg.max_bits``.
ELIMINATION = frozenset({"linalg.nilpotent_block_sizes", "linalg.rank",
                         "linalg.rref", "linalg.invert",
                         "linalg.kernel_basis"})

_DOCS_CALLS = ("cli.main", "algebra.parse", "algebra.serialize",
               "algebra.leibniz_residual", "analysis.lower_central_series",
               "analysis.char_sequence_estimate",
               "linalg.nilpotent_block_sizes", "transform.apply_change",
               "transform.BasisChange")
#: Traced functions each workload calls; a traced round that records no
#: call of one of them has lost a wrapper.
EXPECTED_CALLS = {
    "battery": ("verify.verify_all", "catalog.enumerate_catalog",
                "analysis.lower_central_series",
                "analysis.natural_gradation",
                "analysis.char_sequence_estimate",
                "linalg.nilpotent_block_sizes", "linalg.EchelonSpan.add",
                "algebra.bracket", "transform.apply_change",
                "transform.decide_equivalence"),
    "sparse_docs": _DOCS_CALLS,
    "dense_docs": _DOCS_CALLS,
    "equiv": ("transform.decide_equivalence", "transform.param_map_case1",
              "transform.param_map_case2", "linalg.poly_gcd"),
}

ROOT = "bench.round"

# span record fields
NAME, START, END, PARENT, OP, CALLS, LEAF = range(7)


def _max_bits(matrix) -> int:
    return max((max(x.numerator.bit_length(), x.denominator.bit_length())
                for x in matrix.entries), default=0)


class Tracer:
    """Records spans of the traced lnz functions while installed."""

    def __init__(self):
        self.spans: list = []
        self.counters: dict = defaultdict(int)
        self.op = 0
        self._stack: list = []
        self._in_leaf = False
        self._restore: list = []

    # -- recording ---------------------------------------------------

    def open(self, name: str, calls: int = 1) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent, self.op,
                           calls, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int):
        self.spans[index][END] = perf_counter()
        self._stack.pop()

    def _leaf(self, name, seconds):
        span = self.spans[self._stack[-1]]
        if span[LEAF] is None:
            span[LEAF] = {}
        agg = span[LEAF].setdefault(name, [0, 0.0])
        agg[0] += 1
        agg[1] += seconds

    def _hook_before(self, name, args):
        if name in ELIMINATION:
            bits = _max_bits(args[0])
            if bits > self.counters["linalg.max_bits"]:
                self.counters["linalg.max_bits"] = bits
        elif name == "algebra.parse":
            self.counters["algebra.parse.bytes"] += len(args[0].encode())

    def _hook_after(self, name, result):
        if name == "linalg.EchelonSpan.add" and result:
            self.counters["linalg.EchelonSpan.add.grew"] += 1
        elif name == "algebra.serialize":
            self.counters["algebra.serialize.bytes"] += len(result.encode())

    def _wrap(self, name, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            def traced_gen(*args, **kwargs):
                if tracer._in_leaf or not tracer._stack:
                    yield from fn(*args, **kwargs)
                    return
                inner = fn(*args, **kwargs)
                calls = 1
                while True:
                    # each resumption is a span; only the first counts a call
                    index = tracer.open(name, calls)
                    calls = 0
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(index)
                    yield item
            return traced_gen

        if name in LEAVES:
            def traced_leaf(*args, **kwargs):
                if tracer._in_leaf or not tracer._stack:
                    return fn(*args, **kwargs)
                tracer._in_leaf = True
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._leaf(name, perf_counter() - start)
                    tracer._in_leaf = False
                tracer._hook_after(name, result)
                return result
            return traced_leaf

        def traced(*args, **kwargs):
            if tracer._in_leaf or not tracer._stack:
                return fn(*args, **kwargs)
            tracer._hook_before(name, args)
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            tracer._hook_after(name, result)
            return result
        return traced

    # -- installing --------------------------------------------------

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if key == "lnz" or key.startswith("lnz.")]
        for module_name, attr in TRACED:
            name = f"{module_name}.{attr}"
            home = sys.modules[f"lnz.{module_name}"]
            owner, _, method = attr.partition(".")
            cls = getattr(home, owner)
            if isinstance(cls, type):   # a method, or a class's construction
                method = method or "__post_init__"
                orig = cls.__dict__[method]
                setattr(cls, method, self._wrap(name, orig))
                self._restore.append((cls, method, orig))
                continue
            orig = getattr(home, attr)
            wrapped = self._wrap(name, orig)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, key, wrapped)
                        self._restore.append((module, key, orig))

    def uninstall(self):
        for target, key, orig in reversed(self._restore):
            setattr(target, key, orig)
        self._restore.clear()

    def dump(self, path):
        """Write the recorded spans and counters out as one JSON document."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


# ----------------------------------------------------------------------
# analysis of a recorded span list


def _span_self(spans: list) -> tuple:
    """Each span's duration and self time."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    durs, selfs = [], []
    for i, span in enumerate(spans):
        dur = span[END] - span[START]
        leaf_s = sum(seconds for _, seconds in (span[LEAF] or {}).values())
        durs.append(dur)
        selfs.append(dur - covered[i] - leaf_s)
    return durs, selfs


def self_times(spans: list) -> tuple:
    """Per-name call counts and self seconds, and the root's duration.

    Returns ``(calls, self_s, root_s)``.  Leaf aggregates appear under
    their own names; a span's self time excludes its children and leaves.
    """
    calls: dict = defaultdict(int)
    self_s: dict = defaultdict(float)
    durs, selfs = _span_self(spans)
    root_s = 0.0
    for span, dur, own in zip(spans, durs, selfs):
        for leaf, (n, seconds) in (span[LEAF] or {}).items():
            calls[leaf] += n
            self_s[leaf] += seconds
        calls[span[NAME]] += span[CALLS]
        self_s[span[NAME]] += own
        if span[PARENT] < 0:
            root_s += dur
    return calls, self_s, root_s


def tree_problems(spans: list, wall: float) -> list:
    """What is wrong with a recorded round, as messages; empty when sound.

    One root span named ``ROOT`` comes first and lasts the round's own
    measured ``wall`` (to a millisecond); every span is closed, lies inside
    its parent's interval, and has a non-negative self time.  The sum of
    self times equals the root's duration by construction, so these are
    the checks that catch an unclosed, mis-nested or double-counted span.
    """
    if not spans or spans[0][NAME] != ROOT or spans[0][PARENT] != -1:
        return [f"the first span is not the root {ROOT}"]
    problems = []
    for i, span in enumerate(spans):
        where = f"span {i} ({span[NAME]})"
        if span[END] is None:
            problems.append(f"{where} was never closed")
            continue
        if i and not 0 <= span[PARENT] < i:
            problems.append(f"{where} has parent {span[PARENT]}")
            continue
        parent = spans[span[PARENT]] if i else None
        if parent is None or parent[END] is None:
            continue
        if not parent[START] <= span[START] <= span[END] <= parent[END]:
            problems.append(f"{where} lies outside its parent")
    if problems:
        return problems[:5]
    _, selfs = _span_self(spans)
    problems = [f"span {i} ({spans[i][NAME]}) has self time {own:.3g} s"
                for i, own in enumerate(selfs) if own < -1e-9]
    root_s = spans[0][END] - spans[0][START]
    if abs(root_s - wall) > 1e-3 + 1e-3 * wall:
        problems.append(f"root span lasts {root_s:.6f} s, round {wall:.6f} s")
    return problems[:5]


def _inside(spans: list, name: str) -> list:
    """For each span, whether it is ``name`` or lies within a ``name`` span.
    Parents always precede their children in the list."""
    flags = []
    for span in spans:
        flags.append(span[NAME] == name
                     or (span[PARENT] >= 0 and flags[span[PARENT]]))
    return flags


def _count_within(spans, flags, name, ancestor) -> int:
    """Calls of ``name`` made strictly inside spans of ``ancestor``."""
    total = 0
    for span, inside in zip(spans, flags):
        if not inside:
            continue
        if span[NAME] == name and span[PARENT] >= 0 and flags[span[PARENT]]:
            total += span[CALLS]
        total += (span[LEAF] or {}).get(name, (0, 0.0))[0]
    return total


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(doc: dict) -> tuple:
    """Per-layer metric values from a dumped span document.

    Returns ``(metrics, root_s, self_sum)`` where ``metrics`` maps each
    per-layer name to its value; the caller checks ``self_sum == root_s``.
    """
    spans, counters = doc["spans"], doc["counters"]
    calls, self_s, root_s = self_times(spans)
    out = {}
    for module_name, attr in TRACED:
        name = f"{module_name}.{attr}"
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    out["linalg.EchelonSpan.add.grew_ratio"] = _ratio(
        counters.get("linalg.EchelonSpan.add.grew", 0),
        calls.get("linalg.EchelonSpan.add", 0))
    out["linalg.max_bits"] = counters.get("linalg.max_bits", 0)
    out["algebra.parse.bytes"] = counters.get("algebra.parse.bytes", 0)
    out["algebra.serialize.bytes"] = counters.get("algebra.serialize.bytes", 0)

    est = "analysis.char_sequence_estimate"
    at = "analysis.char_sequence_at"
    dec = "transform.decide_equivalence"
    in_est, in_at, in_dec = (_inside(spans, n) for n in (est, at, dec))
    out["analysis.char_sequence_at.per_estimate"] = _ratio(
        _count_within(spans, in_est, at, est), calls.get(est, 0))
    out["analysis.derived_span.per_char_sequence_at"] = _ratio(
        _count_within(spans, in_at, "analysis.derived_span", at),
        calls.get(at, 0))
    maps = sum(_count_within(spans, in_dec, f"transform.param_map_case{k}",
                             dec) for k in (1, 2))
    out["transform.param_map.per_decision"] = _ratio(maps, calls.get(dec, 0))
    self_sum = sum(self_s.values())
    return out, root_s, self_sum
