"""Statements of lnz that one benchmark round never reaches.

    python bench/reach.py sparse_docs --seed 1 -o reach.json

Runs round 0 of the named ``perfbench/workloads.py`` workload at the seed
under a line tracer limited to ``src/lnz``; building the round is not
traced.  Writes JSON mapping each function ("module.py:qualified name")
with a statement whose first line never ran to those lines and its
statement count (docstrings, ``pass``, ``global``, ``nonlocal`` and
``try:`` run no code and are not counted), and the operations that
raised.  Standard library only.
"""

import argparse
import ast
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "lnz"
SILENT = (ast.Pass, ast.Global, ast.Nonlocal, ast.Try)


def statements(node, prefix="", owner=None, out=None) -> dict:
    """Qualified function name -> first lines of its own statements."""
    out = {} if out is None else out
    for child in ast.iter_child_nodes(node):
        docstring = (isinstance(child, ast.Expr)
                     and isinstance(child.value, ast.Constant))
        if owner and isinstance(child, ast.stmt) \
                and not isinstance(child, SILENT) and not docstring:
            out[owner].add(child.lineno)
        if isinstance(child, ast.ClassDef):
            statements(child, prefix + child.name + ".", None, out)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out[prefix + child.name] = set()
            statements(child, prefix + child.name + ".",
                       prefix + child.name, out)
        else:
            statements(child, prefix, owner, out)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("-o", "--output", required=True)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads
    hits, errors, prefix = set(), [], str(SRC) + "/"

    def line(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return line
    with tempfile.TemporaryDirectory() as workdir:
        ops = workloads.make(args.workload, args.seed,
                             Path(workdir)).prepare(0)
        sys.settrace(lambda frame, event, arg: line if
                     frame.f_code.co_filename.startswith(prefix) else None)
        try:
            for op in ops:
                try:
                    op.call()
                except Exception as exc:    # reported, and the round goes on
                    errors.append(f"{op.kind}: {type(exc).__name__}: {exc}")
        finally:
            sys.settrace(None)
    unreached = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, lines in statements(tree).items():
            missed = sorted(n for n in lines if (str(path), n) not in hits)
            if missed:
                unreached[f"{path.name}:{name}"] = {"lines": missed,
                                                    "of": len(lines)}
    Path(args.output).write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "ops": len(ops),
         "errors": errors, "unreached": unreached}, indent=1) + "\n",
        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
