"""Workload inputs, operations and output checks.

Every workload turns ``(seed, round)`` into a list of operations.  An
operation is one call into the public lnz API or CLI; the runner times it
and hands its output to the workload's checker outside the timed section.
A checker returns one ``Outcome`` per attempted operation.

Why these workloads:

* ``battery``: ``verify_all(dims=(9, 10))``, the acceptance battery behind
  ``lnz verify-all`` and the tier-1 fixture.  439 small sparse instances;
  time goes to analysis and linalg.  Its own time gates count as failures.
* ``sparse_docs``: ``lnz check``, ``analyze`` and ``transform`` on
  normal-form documents at n = 16 and 32, one second-type and one
  first-type row at each.  Few large sparse tensors: cost scales with n.
* ``dense_docs``: the same commands on second-type row 1,7 at n = 12 and
  first-type row 40 at n = 10, moved into a dense basis by a seeded
  unimodular change; check and analyze read the transformed document.
  The only workload where brackets and residuals touch most cells and
  elimination sees coefficients grow.
* ``equiv``: ``decide_equivalence`` at budget 6 on catalog pairs and on
  pairs related by a seeded admissible change.  Only the witness search
  and polynomial code run.  Catalog pairs are drawn with fixed counts per
  (epsilon, nullity signatures agree) stratum, in proportion to each
  stratum's share of all distinct same-epsilon ordered pairs of catalog
  samples.  A pair whose signatures agree costs up to 3,000 times one
  whose signatures differ, so fixed counts keep a round's cost independent
  of the seed's luck, while the seed still picks every pair.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction as Q
from functools import partial
from pathlib import Path

import lnz
import lnz.cli
from lnz.errors import InadmissibleParams, RestrictionViolated, SingularChange

POOL = (Q(0), Q(1), Q(-1), Q(2), Q(-2), Q(1, 2), Q(-1, 2), Q(3), Q(1, 3))
NONZERO = tuple(v for v in POOL if v != 0)

CRITERIA = ("catalog-consistency", "gradation-dims", "char-sequence",
            "nilindex", "right-annihilator", "formula-oracle",
            "nullity-invariance", "non-lie", "equivalence-spots",
            "small-oracles")
FLAGGED = ("reading-beta-e6", "parity-asymmetry", "alternating-identity-sign",
           "nilindex-observed", "label-0,6-overlap")
_GATE = re.compile(r"^took [0-9.]+s, budget is [0-9]+s$")

BATTERY_DIMS = (9, 10)
# (row kind, epsilon or None for any, n) of each document of a round
SPARSE_DOCS = (("second", None, 16), ("first", None, 16),
               ("second", None, 32), ("first", None, 32))
# (row id, parameter values, n); the seed picks the change.  Rows are fixed
# because, once dense, rows differ up to twofold in cost (3 to 6 s at
# n = 10), which a seeded row choice turned into run-to-run spread.  The
# change alone still moves an n = 12 analyze between 5 and 7 s.
DENSE_DOCS = (("1,7", (1, 2, -1), 12), ("40", (1, 2), 10))
EQUIV_BUDGET = 6
EQUIV_CATALOG = 2000    # catalog pairs per round
EQUIV_MAPPED = 500      # pairs (p, param_map(p, g)) per round


@dataclass
class Op:
    kind: str
    call: object        # zero-argument callable doing the operation
    context: object = None
    outcomes: int = 1   # operations its checker reports on


@dataclass
class Outcome:
    ok: bool
    definite: bool = True   # False for an Unknown verdict or an exception
    gate: bool = False      # failed only on a built-in time gate


def round_rng(seed: int, r: int) -> random.Random:
    return random.Random(f"lnz-bench/{seed}/{r}")


def catalog_tensor(row, values, n):
    params = row.make_params(values)
    if row.kind == "second":
        tensor = lnz.build_second_type(n, params)
    else:
        tensor = lnz.build_first_type(n, params)
    vals = ", ".join(f"{s.name}={v}" for s, v in zip(row.params, values))
    label = f"l({row.row_id})" + (f"[{vals}]" if vals else "") + f" n={n}"
    return tensor.renamed(label)


def pick_row(rng, kind: str, eps, n: int):
    """A seeded catalog row of the given kind (and epsilon, unless None)
    admissible at n, and seeded values of its free parameters."""
    rows = [r for r in lnz.CATALOG_ROWS
            if r.kind == kind and (eps is None or r.epsilon == eps)
            and not (r.parity == "even" and n % 2)]
    row = rng.choice(rows)
    return row, rng.choice(row.sample_grid(lnz.DEFAULT_FREE_SAMPLES))


def graded_change(rng, tensor, kind: str):
    """A seeded graded generator change completed to a full basis."""
    complete = (lnz.completed_second_type_change if kind == "second"
                else lnz.completed_first_type_change)
    while True:
        g = lnz.GradedChange2(rng.choice(NONZERO), rng.choice(POOL),
                              rng.choice(NONZERO))
        try:
            return complete(tensor, g)
        except SingularChange:
            continue


def unimodular_rows(rng, n: int) -> list:
    """M0 * P for a seeded signed permutation P.  M0 = L*U with L and U the
    all-ones unit triangular matrices, so M0[i][j] = min(i, j) + 1, its
    determinant is 1 and its inverse is tridiagonal: every catalog table
    moved by it is dense.  P only reorders and negates the new basis, so
    every seed gives a table of the same density and coefficient sizes."""
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    return [[(min(i, perm[j]) + 1) * signs[j] for j in range(n)]
            for i in range(n)]


def table_properties(tensor) -> dict:
    """Dimension, share of nonzero cells (cells / n^2) and the largest
    numerator or denominator bit length of a structure tensor."""
    n = tensor.dim
    bits = max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for _, terms in tensor.entries() for _, c in terms),
               default=0)
    return {"n": n, "cell_share": len(tensor.table) / (n * n),
            "max_bits": bits}


def summarize_properties(items: list) -> dict:
    """Dimension mix, cell share and coefficient bits over input tables."""
    if not items:
        return {}
    shares = [p["cell_share"] for p in items]
    return {"tables": len(items),
            "dims": dict(sorted(Counter(p["n"] for p in items).items())),
            "cell_share_mean": sum(shares) / len(shares),
            "cell_share_max": max(shares),
            "max_bits": max(p["max_bits"] for p in items)}


# ----------------------------------------------------------------------
# CLI calls and their checks

def cli(argv) -> tuple:
    """``lnz.cli.main`` in process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lnz.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def expected_analysis(n: int) -> list:
    """Lines ``lnz analyze`` must print for a catalog algebra of dim n,
    in any basis: gradation (2, 2, 2, 1, ..., 1), central series dims the
    suffix sums of the gradation, nilindex n - 2, sequence (n - 3, 3)."""
    pieces = [2, 2, 2] + [1] * (n - 6)
    series = [sum(pieces[k:]) for k in range(len(pieces) + 1)]
    return [f"dim: {n}",
            "central series dims: " + " ".join(map(str, series)),
            f"nilindex: {n - 2}",
            "gradation dims: " + " ".join(map(str, pieces)),
            f"characteristic sequence (sampled): ({n - 3}, 3)"]


def check_check_output(n: int, result) -> bool:
    code, out, _ = result
    return code == 0 and out == (
        f"ok: identity holds on all {n}^3 basis triples\n")


def check_analyze_output(n: int, result) -> bool:
    code, out, _ = result
    lines = out.splitlines()
    return code == 0 and all(line in lines for line in expected_analysis(n))


def check_transform_output(input_text: str, change_text: str,
                           output_text: str, code: int) -> bool:
    """The output re-parses, satisfies the Leibniz identity, and the
    inverse change takes it back to the input document byte for byte."""
    if code != 0:
        return False
    try:
        moved = lnz.parse(output_text)
        if not lnz.leibniz_residual(moved).is_empty():
            return False
        back = lnz.apply_change(moved, lnz.parse_change(change_text).inverted())
    except lnz.ToolkitError:
        return False
    return lnz.serialize(back) == input_text


def check_decision(mapped: bool, p, q, verdict) -> bool:
    """Distinct on a mapped pair is wrong; an Equivalent witness must
    reproduce q through a real basis change.  The replay repeats the
    battery's private witness check on purpose: the benchmark uses only
    the public API, so that no refactor of lnz internals breaks it."""
    if verdict.kind == "distinct":
        return not mapped
    if verdict.kind != "equivalent":
        return True
    n = 10 if p.epsilon == 1 else 9
    try:
        tensor = lnz.build_second_type(n, p)
        change = lnz.completed_second_type_change(tensor, verdict.witness)
        got = lnz.extract_second_type(lnz.apply_change(tensor, change))
    except lnz.ToolkitError:
        return False
    return got.alphas == q.alphas and got.beta == q.beta


# ----------------------------------------------------------------------
# workloads

class Battery:
    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self, r: int) -> list:
        seed = self.seed if r == 0 else round_rng(self.seed, r).randrange(2**31)
        return [Op("verify_all",
                   lambda: lnz.verify_all(dims=BATTERY_DIMS, seed=seed),
                   outcomes=len(CRITERIA) + len(FLAGGED))]

    def check(self, op: Op, output) -> list:
        outcomes = []
        records = {rec.name: rec for rec in output.records}
        for name in CRITERIA:
            rec = records.get(name)
            ok = rec is not None and rec.status == "pass"
            gate = (rec is not None and rec.status == "fail"
                    and bool(_GATE.match(rec.detail)))
            outcomes.append(Outcome(ok, gate=gate))
        for name in FLAGGED:
            rec = records.get(name)
            outcomes.append(Outcome(rec is not None
                                    and rec.status == "flagged"))
        return outcomes

    def properties(self) -> dict:
        return summarize_properties(
            [table_properties(inst.tensor)
             for inst in lnz.enumerate_catalog(BATTERY_DIMS)])


class Docs:
    """Shared by ``sparse_docs`` and ``dense_docs``."""

    def __init__(self, dense: bool, seed: int, workdir: Path):
        self.dense = dense
        self.seed = seed
        self.workdir = workdir
        self.inputs: list = []

    def _document(self, rng, spec, folder: Path) -> dict:
        if self.dense:
            row_id, values, n = spec
            row = lnz.row_by_id(row_id)
            tensor = catalog_tensor(row, tuple(map(Q, values)), n)
            rows = unimodular_rows(rng, n)
            change_text = json.dumps(
                {"dim": n, "matrix": [[str(x) for x in r] for r in rows]})
        else:
            kind, eps, n = spec
            row, values = pick_row(rng, kind, eps, n)
            tensor = catalog_tensor(row, values, n)
            change_text = lnz.serialize_change(graded_change(rng, tensor, kind))
        stem = folder / f"{row.row_id}-{n}"
        doc = {"n": n, "input": f"{stem}.json", "change": f"{stem}.change",
               "output": f"{stem}.out.json", "text": lnz.serialize(tensor),
               "change_text": change_text, "tensor": tensor}
        Path(doc["input"]).write_text(doc["text"], encoding="utf-8")
        Path(doc["change"]).write_text(change_text, encoding="utf-8")
        return doc

    def prepare(self, r: int) -> list:
        rng = round_rng(self.seed, r)
        folder = self.workdir / f"round{r}"
        folder.mkdir(parents=True, exist_ok=True)
        plan = DENSE_DOCS if self.dense else SPARSE_DOCS
        docs = [self._document(rng, spec, folder) for spec in plan]
        if r == 0:
            self.inputs = docs
        ops = []
        for doc in docs:
            transform = Op("transform", partial(
                cli, ["transform", doc["input"], "--change", doc["change"],
                      "-o", doc["output"]]), doc)
            # dense: check and analyze read the transformed document
            target = doc["output"] if self.dense else doc["input"]
            reads = [Op("check", partial(cli, ["check", target]), doc),
                     Op("analyze", partial(cli, ["analyze", target,
                                                 "--seed", "0"]), doc)]
            ops += [transform] + reads if self.dense else reads + [transform]
        return ops

    def check(self, op: Op, output) -> list:
        doc = op.context
        if op.kind == "check":
            ok = check_check_output(doc["n"], output)
        elif op.kind == "analyze":
            ok = check_analyze_output(doc["n"], output)
        else:
            try:
                text = Path(doc["output"]).read_text(encoding="utf-8")
            except OSError:
                text = ""
            ok = check_transform_output(doc["text"], doc["change_text"],
                                        text, output[0])
        return [Outcome(ok)]

    def properties(self) -> dict:
        props = {"inputs": summarize_properties(
            [table_properties(d["tensor"]) for d in self.inputs])}
        if self.dense:
            moved = []
            for d in self.inputs:
                try:
                    text = Path(d["output"]).read_text(encoding="utf-8")
                    moved.append(table_properties(lnz.parse(text)))
                except (OSError, lnz.ToolkitError):
                    continue
            props["transformed"] = summarize_properties(moved)
        return props


def strata_counts(samples: dict, total: int) -> dict:
    """``total`` catalog pairs split over the (epsilon, signatures agree)
    strata in proportion to each stratum's count among all distinct
    same-epsilon ordered pairs of ``samples`` (largest remainders).
    Pairs whose nullity signatures differ are settled at once; agreeing
    ones go into the witness search."""
    natural = {}
    for eps, pool in samples.items():
        groups = Counter(lnz.nullity_signature(p) for p in pool)
        same = sum(k * (k - 1) for k in groups.values())
        natural[(eps, True)] = same
        natural[(eps, False)] = len(pool) * (len(pool) - 1) - same
    whole = sum(natural.values())
    exact = {key: total * count / whole for key, count in natural.items()}
    counts = {key: int(x) for key, x in exact.items()}
    by_remainder = sorted(exact, key=lambda k: exact[k] - counts[k],
                          reverse=True)
    for key in by_remainder[:total - sum(counts.values())]:
        counts[key] += 1
    return counts


class Equiv:
    def __init__(self, seed: int):
        self.seed = seed
        self.samples = {0: [], 1: []}
        for row in lnz.CATALOG_ROWS:
            if row.kind == "second":
                for values in row.sample_grid(lnz.DEFAULT_FREE_SAMPLES):
                    self.samples[row.epsilon].append(row.make_params(values))
        self.signature = {p: lnz.nullity_signature(p)
                          for pool in self.samples.values() for p in pool}
        self.strata = strata_counts(self.samples, EQUIV_CATALOG)
        self.inputs: list = []
        self._replayed: dict = {}

    def _catalog_pair(self, rng, eps: int, agreeing: bool):
        pool = self.samples[eps]
        while True:
            p, q = rng.choice(pool), rng.choice(pool)
            same = self.signature[p] == self.signature[q]
            if p != q and same == agreeing:
                return p, q

    def _mapped_pair(self, rng, eps: int):
        forward = lnz.param_map_case1 if eps == 0 else lnz.param_map_case2
        while True:
            p = rng.choice(self.samples[eps])
            g = lnz.GradedChange2(rng.choice(NONZERO), rng.choice(POOL),
                                  rng.choice(NONZERO))
            try:
                return p, forward(p, g)
            except (RestrictionViolated, InadmissibleParams):
                continue

    def prepare(self, r: int) -> list:
        rng = round_rng(self.seed, r)
        pairs = []
        for (eps, agreeing), count in sorted(self.strata.items()):
            pairs += [(False,) + self._catalog_pair(rng, eps, agreeing)
                      for _ in range(count)]
        pairs += [(True,) + self._mapped_pair(rng, k % 2)
                  for k in range(EQUIV_MAPPED)]
        rng.shuffle(pairs)
        if r == 0:
            self.inputs = pairs
        return [Op("decide", self._call(p, q), (mapped, p, q))
                for mapped, p, q in pairs]

    @staticmethod
    def _call(p, q):
        # looked up at call time, so that a traced round calls the wrapper
        return lambda: lnz.decide_equivalence(p, q, budget=EQUIV_BUDGET)

    def check(self, op: Op, verdict) -> list:
        mapped, p, q = op.context
        key = (mapped, p, q, verdict)
        if key not in self._replayed:
            self._replayed[key] = check_decision(mapped, p, q, verdict)
        return [Outcome(self._replayed[key],
                        definite=verdict.kind != "unknown")]

    def properties(self) -> dict:
        params = {x for _, p, q in self.inputs for x in (p, q)}
        tables = [table_properties(
            lnz.build_second_type(10 if x.epsilon == 1 else 9, x))
            for x in params]
        bits = max(max(a.numerator.bit_length(), a.denominator.bit_length())
                   for _, p, q in self.inputs for a in p.alphas + q.alphas)
        return {"pairs": len(self.inputs),
                "mapped": sum(m for m, _, _ in self.inputs),
                "param_max_bits": bits,
                "normal_forms": summarize_properties(tables)}


WORKLOADS = ("battery", "sparse_docs", "dense_docs", "equiv")


def make(name: str, seed: int, workdir: Path):
    if name == "battery":
        return Battery(seed)
    if name in ("sparse_docs", "dense_docs"):
        return Docs(name == "dense_docs", seed, workdir)
    if name == "equiv":
        return Equiv(seed)
    raise ValueError(f"unknown workload {name!r}")
