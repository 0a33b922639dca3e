"""Per-layer timings of lnz on fresh tensors, one interpreter per tree.

Run from the repository root, naming each source tree to measure:

    python bench/layers.py -o layers.json before=/path/to/old/src after=src

Each tree is timed in its own interpreter, which imports lnz from that
tree alone; with several trees the rounds alternate between them, the
first tree of a round rotating.  A round times twelve layers: ``parse``
of the document, ``build`` (``CatalogRow.build`` of the row below, on
the normal form only), ``lower_central_series``, ``char_sequence_at(e_1)``,
``char_sequence_estimate`` (budget 200, seed 0), ``natural_gradation``,
``gradation_views`` (``natural_gradation``, then a read of its
``sections`` and ``algebra``), ``leibniz_residual``, ``right_annihilator``,
``apply_change`` by the completed graded change (2, 1, 3), ``bracket``
(every row of each central series term bracketed with each basis vector
and tested for zero, as ``verify``'s brute-force series does) and
``matmul`` (the change's matrix times its inverse: the completed graded
change on the normal form, the dense change below on the dense one).
They run on catalog row 1,2 (second
type, epsilon = 1, lambda = 1) at each even size, and on row 0,2
(epsilon = 0, lambda = 1) at each odd size, since row 1,2 needs even n;
each as the normal form and after the dense unimodular change M0 * P
(M0[i][j] = min(i, j) + 1, P the order-reversing permutation with
alternating signs), where no Jordan chain of R_(e_1) runs through the
basis: there the central series is certified
off the echelons of the powers of R_(e_1), and the Jordan block sizes
take the power loop.  Every timed call but ``parse``, ``build`` and
``matmul`` gets a tensor parsed afresh from its document before the clock
starts (``bracket`` gets its series rows and basis vectors, built before
the clock as well), so no call shares a series, integer cells or a
vector's support with another, and runs with the garbage collector off,
as in ``timeit``.
Where ``parse`` hands the tensor its integer cells (``BENCH_32.json``
on), the other layers do not time building them.  ``build`` builds only
the ``Fraction`` table, where it built the integer cells as well in
``BENCH_41.json``, so its figures there are not comparable with later
ones.  Each layer, form and size first makes one untimed call.

A last layer, ``decide_equivalence``, takes parameter tuples rather
than tables: 40 seeded pairs p != q of the second-type catalog sample
grid whose nullity signatures agree, per epsilon, at budget 1 for
epsilon = 0, where the height grid adds six candidates (A4 in {-1, 0,
1}, B4 = +-1) to the root search, and at budget 6 for epsilon = 1, which
has no grid.  Each round decides every pair once untimed, then times
each call of ``--repeats`` passes; its cells are keyed by epsilon and
budget instead of form and size.

The JSON output holds, per tree, layer, form ("normal" or "dense") and
size, the median and quartiles of the per-call times in milliseconds and
the number of calls; the host and the settings are recorded beside them.
Standard library only.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

LAYERS = ("parse", "build", "lower_central_series", "char_sequence_at",
          "char_sequence_estimate", "natural_gradation", "gradation_views",
          "leibniz_residual", "right_annihilator", "apply_change", "bracket",
          "matmul")
FORMS = ("normal", "dense")
ROWS = (("1,2", 1), ("0,2", 1))     # (row, lambda) at even and at odd n
EQUIV = ((0, 1), (1, 6))            # (epsilon, budget) of decide_equivalence
EQUIV_PAIRS = 40                    # pairs per epsilon


def dense_change(lnz, n: int):
    """M0 * P: column j of M0 = L * U (all-ones unit triangular factors)
    at row i is min(i, j) + 1; P reverses the basis and negates every
    other vector.  Determinant +-1, and the moved table is dense."""
    return lnz.BasisChange(lnz.MatrixQ.from_rows(
        [[(min(i, n - 1 - j) + 1) * (-1) ** j for j in range(n)]
         for i in range(n)]))


def gradation_views(lnz, tensor):
    """The gradation with both of its views read."""
    grading = lnz.natural_gradation(tensor)
    return grading.sections, grading.algebra


def series_operands(lnz, tensor) -> tuple:
    """The tensor, every row of each of its series terms and the basis, as
    the brute-force series of ``verify`` brackets them."""
    n = tensor.dim
    return (tensor, [v for term in lnz.lower_central_series(tensor).terms
                     for v in term],
            [lnz.Vec.basis(n, i) for i in range(1, n + 1)])


def bracket_rows(lnz, tensor, rows, basis) -> None:
    """[v, e_j] of every row v with every basis vector, each tested for
    zero."""
    for x in rows:
        for y in basis:
            lnz.bracket(tensor, x, y).is_zero()


def equivalence_pairs(lnz, epsilon: int) -> list:
    """``EQUIV_PAIRS`` seeded pairs p != q of the sample grid's tuples at
    ``epsilon`` whose nullity signatures agree."""
    rng = random.Random(f"layers/equiv/{epsilon}")
    pool = [row.make_params(values) for row in lnz.CATALOG_ROWS
            if row.kind == "second" and row.epsilon == epsilon
            for values in row.sample_grid(lnz.DEFAULT_FREE_SAMPLES)]
    pairs = []
    while len(pairs) < EQUIV_PAIRS:
        p, q = rng.choice(pool), rng.choice(pool)
        if p != q and lnz.nullity_signature(p) == lnz.nullity_signature(q):
            pairs.append((p, q))
    return pairs


def time_decisions(lnz, repeats: int) -> dict:
    """Per-call seconds of ``decide_equivalence`` on the pairs of each
    (epsilon, budget), after one untimed pass; keys are
    "decide_equivalence/epsilon=E/budget=B"."""
    times = {}
    for epsilon, budget in EQUIV:
        pairs = equivalence_pairs(lnz, epsilon)
        spent = times[f"decide_equivalence/epsilon={epsilon}/budget={budget}"] = []
        for rep in range(1 + repeats):          # pass 0 warms up
            for p, q in pairs:
                gc.disable()
                start = perf_counter()
                lnz.decide_equivalence(p, q, budget=budget)
                seconds = perf_counter() - start
                gc.enable()
                if rep:
                    spent.append(seconds)
    return times


def measure(src: str, sizes, repeats: int) -> dict:
    """Per-call seconds of every layer, form and size, with lnz imported
    from ``src``, after one untimed call; keys are "layer/form/n"."""
    sys.path.insert(0, str(Path(src).resolve()))
    import lnz
    if not Path(lnz.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"lnz came from {lnz.__file__}, not from {src}")
    times: dict = {}
    for n in sizes:
        row_id, value = ROWS[n % 2]
        row, values = lnz.row_by_id(row_id), (Fraction(value),)
        normal = row.build(n, values)
        change = lnz.completed_second_type_change(normal,
                                                  lnz.GradedChange2(2, 1, 3))
        e1 = lnz.Vec.basis(n, 1)
        calls = {
            "parse": lnz.parse,
            "build": lambda _: row.build(n, values),
            "lower_central_series": lnz.lower_central_series,
            "char_sequence_at": lambda t: lnz.char_sequence_at(t, e1),
            "char_sequence_estimate": lnz.char_sequence_estimate,
            "natural_gradation": lnz.natural_gradation,
            "gradation_views": lambda t: gradation_views(lnz, t),
            "leibniz_residual": lnz.leibniz_residual,
            "right_annihilator": lnz.right_annihilator,
            "apply_change": lambda t: lnz.apply_change(t, change),
            "bracket": lambda operands: bracket_rows(lnz, *operands),
            "matmul": lambda factors: factors[0] @ factors[1],
        }
        dense = dense_change(lnz, n)
        documents = {"normal": lnz.serialize(normal),
                     "dense": lnz.serialize(lnz.apply_change(normal, dense))}
        factors = {"normal": (change.matrix, change.inverse),
                   "dense": (dense.matrix, dense.inverse)}
        inputs = {"parse": lambda form: documents[form],
                  "build": lambda form: None,
                  "bracket": lambda form: series_operands(
                      lnz, lnz.parse(documents[form])),
                  "matmul": lambda form: factors[form]}
        for form in documents:
            for layer in LAYERS:
                if form != "normal" and layer == "build":   # no table
                    continue
                spent = times.setdefault(f"{layer}/{form}/{n}", [])
                for call in range(1 + repeats):     # call 0 warms up
                    arg = (inputs[layer](form) if layer in inputs
                           else lnz.parse(documents[form]))
                    gc.disable()
                    start = perf_counter()
                    calls[layer](arg)
                    seconds = perf_counter() - start
                    gc.enable()
                    if call:
                        spent.append(seconds)
    times.update(time_decisions(lnz, repeats))
    return times


def summary(seconds: list) -> dict:
    ms = sorted(1e3 * s for s in seconds)
    q1, median, q3 = (statistics.quantiles(ms, n=4, method="inclusive")
                      if len(ms) > 1 else ms * 3)
    return {"median": round(median, 4), "q1": round(q1, 4),
            "q3": round(q3, 4), "calls": len(ms)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("trees", nargs="*", metavar="NAME=SRC",
                        help="a label and the src directory holding lnz")
    parser.add_argument("--sizes", default="9,10,16,32",
                        help="comma-separated dimensions, at least 9 "
                             "(default 9,10,16,32)")
    parser.add_argument("--rounds", type=int, default=3,
                        help="interpreters per tree (default 3)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="calls per layer, form and size in each "
                             "round (default 5)")
    parser.add_argument("-o", "--output", help="JSON file to write")
    parser.add_argument("--worker", metavar="SRC", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sizes = [int(s) for s in args.sizes.split(",")]
    if any(n < 9 for n in sizes):
        parser.error("sizes must be at least 9 (second-type rows need "
                     "n >= 9)")
    if args.rounds < 1 or args.repeats < 1:
        parser.error("--rounds and --repeats must be at least 1")
    if args.worker:
        json.dump(measure(args.worker, sizes, args.repeats), sys.stdout)
        return 0
    if not args.trees or not args.output:
        parser.error("name at least one tree and an --output file")
    if not all("=" in t for t in args.trees):
        parser.error("name each tree as NAME=SRC")
    trees = dict(t.split("=", 1) for t in args.trees)
    raw: dict = {name: {} for name in trees}
    for r in range(args.rounds):
        names = list(trees)
        names = names[r % len(names):] + names[:r % len(names)]
        for name in names:
            done = subprocess.run(
                [sys.executable, *(f"-W{w}" for w in sys.warnoptions),
                 __file__, "--worker", trees[name], "--sizes", args.sizes,
                 "--repeats", str(args.repeats)],
                check=True, capture_output=True, text=True,
                env={k: v for k, v in os.environ.items()
                     if k != "PYTHONPATH"})
            for key, seconds in json.loads(done.stdout).items():
                raw[name].setdefault(key, []).extend(seconds)
    results = {}
    for name, cells in raw.items():
        out = results[name] = {}
        for key, seconds in cells.items():
            layer, form, n = key.split("/")
            out.setdefault(layer, {}).setdefault(form, {})[n] = \
                summary(seconds)
    doc = {"script": "bench/layers.py", "unit": "ms",
           "host": {"python": platform.python_version(),
                    "machine": platform.machine(), "cpus": os.cpu_count()},
           "settings": {"rows": {str(n): {"row": ROWS[n % 2][0],
                                          "lambda": ROWS[n % 2][1]}
                                 for n in sizes},
                        "sizes": sizes, "rounds": args.rounds,
                        "decide_equivalence": {
                            "pairs": EQUIV_PAIRS,
                            "epsilon_budget": [list(c) for c in EQUIV]},
                        "repeats": args.repeats, "warmup": 1,
                        "trees": list(trees)},
           "results": results}
    Path(args.output).write_text(json.dumps(doc, indent=1) + "\n",
                                 encoding="utf-8")
    print("median ms" + "".join(f"  n={n}: " + " ".join(trees)
                                for n in sizes))
    for layer in LAYERS:
        for form in FORMS:
            if form != "normal" and layer == "build":
                continue
            cells = "".join(
                "  " + " ".join(f"{results[name][layer][form][str(n)]['median']:.3f}"
                                for name in trees) for n in sizes)
            print(f"{layer} {form}{cells}")
    for epsilon, budget in EQUIV:
        form, column = f"epsilon={epsilon}", f"budget={budget}"
        cells = " ".join(
            f"{results[name]['decide_equivalence'][form][column]['median']:.3f}"
            for name in trees)
        print(f"decide_equivalence {form} {column}  {cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
