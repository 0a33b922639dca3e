"""Same results across source trees: one sha256 per item and tree.

Run from the repository root, naming each source tree to compare:

    python bench/same.py -o same.json before=/path/to/old/src after=src

Each tree runs in its own interpreter, which imports lnz from that tree
alone, and hashes what lnz gives on fixed seeded inputs.  The items:

* ``right_annihilator``: the annihilator's coordinates on a 914-table set:
  the 439 catalog instances at n = 9 and 10; round 0 of the dense_docs
  tables of seeds 0-59 (120); 300 random rational tables with n <= 9;
  two dense tables (n = 8 and 12) with every cell full, entries in
  [-3, 3]; row 1,2 (lambda = 1) at n = 16 and 32, as the normal form and
  after ``bench/layers.py``'s dense change; and every 7th catalog
  instance at n = 16 (49).
* ``cells``: the integer cells ``(scale, by_left)`` of each table of that
  set after a round trip through its document, ``parse(serialize(t))``,
  as ``lnz.algebra._integer_cells`` gives them, order included.
* ``series``: the rows (each as its sorted (column, value) pairs), dims
  and ``nilpotent`` of ``lower_central_series`` on that set.
* ``gradation``: the piece dims, the section coordinates and
  ``serialize`` of the graded algebra of ``natural_gradation`` on that
  set, or the exception type and text it raises.
* ``residual``: the violations of ``leibniz_residual`` on that set, in
  order, each with its defect.
* ``kernel_basis/functionals``: ``kernel_basis`` of the stacked functionals
  sum_j c^k_(i,j) x_j of each table of that set.
* ``kernel_basis/random``: ``kernel_basis`` of 3,000 random rational
  matrices, r and c in 0..8, at densities 0, 0.2, 0.5 and 1.
* ``build``: ``CatalogRow.build`` of every row over its sample grid at
  n = 9, 10 and 16, as the serialized table with its name masked, or the
  exception raised.
* ``names``: the names of those tables, each followed for a first-type
  row by the name of ``build_first_type`` on the row's parameters; then
  the names of the ``enumerate_catalog`` instances at n = 9, 10 and 16.
* ``equiv``: the verdict of ``decide_equivalence`` on every ordered pair
  of the 62 epsilon = 0 second-type tuples of the catalog's sample grid
  (3,844 pairs) at budget 1, then on every 7th ordered pair of the 245
  epsilon = 1 tuples (8,575 pairs) at budget 6, then on 3,000 seeded
  mapped pairs (p, param_map(p, g)), epsilon 0 and 1 in turn, at budget
  1 and then at budget 6, so that Equivalent witnesses from the root
  search are hashed too.
* ``docs``: the exit code, stdout, stderr and written file of every
  round-0 operation of the sparse_docs and dense_docs workloads of
  ``perfbench/workloads.py`` at seeds 1-3, in a scratch directory whose
  path is masked.
* ``verify-all``: the text of ``lnz verify-all`` at ``--dims 9,10``,
  ``9``, ``10`` and ``15,16``, with every time in seconds masked.
* ``documents``: the exception type and text that ``parse`` and
  ``parse_change`` give on each of ten header faults (``HEADER_FAULTS``),
  then ``serialize_change`` of each round-0 change of the sparse_docs and
  dense_docs workloads at seeds 1-3, and of its ``inverted()``.

The JSON output holds, per item and tree, the number of cases and the
digest, and names the first item, in the order above, whose digests
differ; the exit code is 1 when one does.  Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ITEMS = ("right_annihilator", "cells", "series", "gradation", "residual",
         "kernel_basis/functionals", "kernel_basis/random", "build", "names",
         "equiv", "docs", "verify-all", "documents")
SECONDS = re.compile(r"\b\d+\.\d+s\b")
# a list, a string, five bad dims, an unknown key, an integer over the
# default digit limit (4,300), deep nesting and truncated JSON
HEADER_FAULTS = ("[]", '"x"', '{"dim": true}', '{"dim": 0}', '{"dim": "3"}',
                 '{"dim": 1.0}', '{"dim": 2, "extra": 0}',
                 '{"dim": %s}' % ("7" * 5000),
                 "[" * 100_000 + "]" * 100_000, '{\n  "dim": 2,\n')


def random_table(lnz, rng):
    """A random rational table, n in 2..9: a sparse or dense cell pattern,
    one or two terms per cell with entries a/b, |a| <= 5, 1 <= b <= 6."""
    n = rng.randint(2, 9)
    density = rng.choice((0.1, 0.3, 0.6, 0.9))
    return lnz.StructureTensor(n, {
        (i, j): [(k, Fraction(rng.randint(-5, 5), rng.randint(1, 6)))
                 for k in rng.sample(range(1, n + 1), rng.randint(1, 2))]
        for i in range(1, n + 1) for j in range(1, n + 1)
        if rng.random() < density})


def tables(lnz, workloads, layers):
    """The 914-table set of the ``right_annihilator`` item, in order."""
    yield from (inst.tensor for inst in lnz.enumerate_catalog((9, 10)))
    for seed in range(60):
        rng = workloads.round_rng(seed, 0)
        for row_id, values, n in workloads.DENSE_DOCS:
            tensor = workloads.catalog_tensor(
                lnz.row_by_id(row_id), tuple(map(Fraction, values)), n)
            change = lnz.BasisChange(lnz.MatrixQ.from_rows(
                workloads.unimodular_rows(rng, n)))
            yield lnz.apply_change(tensor, change)
    rng = random.Random("same/random-tables")
    for _ in range(300):
        yield random_table(lnz, rng)
    for n in (8, 12):
        yield lnz.StructureTensor(n, {
            (i, j): [(k, rng.choice((-3, -2, -1, 1, 2, 3)))
                     for k in range(1, n + 1)]
            for i in range(1, n + 1) for j in range(1, n + 1)})
    for n in (16, 32):
        normal = lnz.row_by_id("1,2").build(n, (Fraction(1),))
        yield normal
        yield lnz.apply_change(normal, layers.dense_change(lnz, n))
    for k, inst in enumerate(lnz.enumerate_catalog((16,))):
        if k % 7 == 0:
            yield inst.tensor


def functionals(lnz, tensor):
    """The stacked functionals of a table as a ``MatrixQ``, one row per
    (i, k) in order of first appearance."""
    n = tensor.dim
    rows: dict = {}
    for (i, j), terms in tensor.table.items():
        for k, c in terms:
            rows.setdefault((i, k), [Fraction(0)] * n)[j - 1] = c
    return lnz.MatrixQ(len(rows), n, tuple(x for r in rows.values()
                                           for x in r))


def random_matrices(lnz):
    rng = random.Random("same/random-matrices")
    for _ in range(3000):
        r, c = rng.randint(0, 8), rng.randint(0, 8)
        density = rng.choice((0.0, 0.2, 0.5, 1.0))
        yield lnz.MatrixQ(r, c, tuple(
            Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            if rng.random() < density else Fraction(0)
            for _ in range(r * c)))


def outcome(lnz, make):
    """What ``make()`` returns, or the toolkit error it raises."""
    try:
        return make()
    except lnz.ToolkitError as exc:
        return f"{type(exc).__name__}: {exc}"


def row_builds(lnz):
    for row in lnz.CATALOG_ROWS:
        for values in row.sample_grid(lnz.DEFAULT_FREE_SAMPLES):
            for n in (9, 10, 16):
                yield row, values, n


def builds(lnz):
    for row, values, n in row_builds(lnz):
        yield outcome(lnz, lambda: lnz.serialize(
            row.build(n, values).renamed(None)))


def names(lnz):
    for row, values, n in row_builds(lnz):
        yield outcome(lnz, lambda: row.build(n, values).name)
        if row.kind == "first":
            yield outcome(lnz, lambda: lnz.build_first_type(
                n, row.make_params(values)).name)
    yield from (inst.tensor.name
                for inst in lnz.enumerate_catalog((9, 10, 16)))


def series(lnz, tensor):
    found = lnz.lower_central_series(tensor)
    return ([[sorted(row.items()) for row in term] for term in found.rows],
            found.dims, found.nilpotent)


def gradation(lnz, tensor):
    grading = lnz.natural_gradation(tensor)
    return (grading.piece_dims, [v.coords for v in grading.sections],
            lnz.serialize(grading.algebra))


def mapped_pairs(lnz, workloads, grids):
    """3,000 seeded pairs (p, param_map(p, g)), epsilon 0 and 1 in turn:
    p from the sample grid, g as the equiv workload draws it."""
    rng = random.Random("same/mapped-pairs")
    for k in range(3000):
        epsilon = k % 2
        forward = lnz.param_map_case2 if epsilon else lnz.param_map_case1
        while True:
            p = rng.choice(grids[epsilon])
            g = lnz.GradedChange2(rng.choice(workloads.NONZERO),
                                  rng.choice(workloads.POOL),
                                  rng.choice(workloads.NONZERO))
            try:
                q = forward(p, g)
            except lnz.RestrictionViolated:
                continue
            yield p, q
            break


def verdicts(lnz, workloads):
    grids = {epsilon: [row.make_params(values) for row in lnz.CATALOG_ROWS
                       if row.kind == "second" and row.epsilon == epsilon
                       for values in row.sample_grid(
                           lnz.DEFAULT_FREE_SAMPLES)]
             for epsilon in (0, 1)}
    for epsilon, budget, step in ((0, 1, 1), (1, 6, 7)):
        pairs = [(p, q) for p in grids[epsilon] for q in grids[epsilon]]
        for p, q in pairs[::step]:
            yield lnz.decide_equivalence(p, q, budget=budget)
    mapped = list(mapped_pairs(lnz, workloads, grids))
    for budget in (1, 6):
        for p, q in mapped:
            yield lnz.decide_equivalence(p, q, budget=budget)


def docs(workloads):
    for name in ("sparse_docs", "dense_docs"):
        for seed in (1, 2, 3):
            with tempfile.TemporaryDirectory() as workdir:
                ops = workloads.make(name, seed, Path(workdir)).prepare(0)
                for op in ops:
                    try:
                        code, out, err = op.call()
                    except Exception as exc:    # a difference, not a stop
                        code, out, err = None, "", f"{type(exc).__name__}: {exc}"
                    written = ""
                    if op.kind == "transform":
                        with contextlib.suppress(OSError):
                            written = Path(op.context["output"]).read_text(
                                encoding="utf-8")
                    yield [name, seed, op.kind, code,
                           *(t.replace(workdir, "<dir>")
                             for t in (out, err, written))]


def verify_all(workloads):
    for dims in ("9,10", "9", "10", "15,16"):
        code, out, err = workloads.cli(["verify-all", "--dims", dims])
        yield [dims, code, SECONDS.sub("<s>", out), SECONDS.sub("<s>", err)]


def documents(lnz, workloads):
    for text in HEADER_FAULTS:
        for read in (lnz.parse, lnz.parse_change):
            yield outcome(lnz, lambda: read(text))
    for name in ("sparse_docs", "dense_docs"):
        for seed in (1, 2, 3):
            with tempfile.TemporaryDirectory() as workdir:
                workload = workloads.make(name, seed, Path(workdir))
                workload.prepare(0)
                for doc in workload.inputs:
                    change = lnz.parse_change(doc["change_text"])
                    yield lnz.serialize_change(change)
                    yield lnz.serialize_change(change.inverted())


def digests(src: str) -> dict:
    """Item -> [cases, sha256] with lnz imported from ``src``."""
    src_path = Path(src).resolve()
    sys.path[:0] = [str(src_path), str(ROOT / "perfbench"),
                    str(ROOT / "bench")]
    import lnz
    if not Path(lnz.__file__).resolve().is_relative_to(src_path):
        raise SystemExit(f"lnz came from {lnz.__file__}, not from {src}")
    import layers
    import workloads
    table_set = list(tables(lnz, workloads, layers))
    cases = {
        "right_annihilator": ([v.coords for v in lnz.right_annihilator(t)]
                              for t in table_set),
        "cells": (lnz.algebra._integer_cells(lnz.parse(lnz.serialize(t)))
                  for t in table_set),
        "series": (series(lnz, t) for t in table_set),
        "gradation": (outcome(lnz, lambda: gradation(lnz, t))
                      for t in table_set),
        "residual": (lnz.leibniz_residual(t).violations for t in table_set),
        "kernel_basis/functionals": (lnz.kernel_basis(functionals(lnz, t))
                                     for t in table_set),
        "kernel_basis/random": (lnz.kernel_basis(m)
                                for m in random_matrices(lnz)),
        "build": builds(lnz),
        "names": names(lnz),
        "equiv": verdicts(lnz, workloads),
        "docs": docs(workloads),
        "verify-all": verify_all(workloads),
        "documents": documents(lnz, workloads),
    }
    out = {}
    for item in ITEMS:
        digest, count = hashlib.sha256(), 0
        for case in cases[item]:
            digest.update(repr(case).encode() + b"\n")
            count += 1
        out[item] = [count, digest.hexdigest()]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("trees", nargs="*", metavar="NAME=SRC",
                        help="a label and the src directory holding lnz")
    parser.add_argument("-o", "--output", help="JSON file to write")
    parser.add_argument("--worker", metavar="SRC", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        json.dump(digests(args.worker), sys.stdout)
        return 0
    if not args.trees or not args.output:
        parser.error("name at least one tree and an --output file")
    if not all("=" in t for t in args.trees):
        parser.error("name each tree as NAME=SRC")
    trees = dict(t.split("=", 1) for t in args.trees)
    found = {}
    for name, src in trees.items():
        done = subprocess.run(
            [sys.executable, *(f"-W{w}" for w in sys.warnoptions),
             __file__, "--worker", src],
            check=True, capture_output=True, text=True,
            env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
        found[name] = json.loads(done.stdout)
    items = {item: {name: dict(zip(("cases", "sha256"), found[name][item]))
                    for name in trees} for item in ITEMS}
    differs = [item for item in ITEMS
               if len({tuple(found[name][item]) for name in trees}) > 1]
    doc = {"script": "bench/same.py", "trees": trees, "items": items,
           "first_difference": differs[0] if differs else None}
    Path(args.output).write_text(json.dumps(doc, indent=1) + "\n",
                                 encoding="utf-8")
    for item in ITEMS:
        cells = "  ".join(f"{name}: {found[name][item][0]} "
                          f"{found[name][item][1][:16]}" for name in trees)
        print(f"{item:26} {'DIFFERS' if item in differs else 'same':8} {cells}")
    if differs:
        print(f"first difference: {differs[0]}")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
