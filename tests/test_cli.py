"""End-to-end tests of the command-line front end."""

import hashlib
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import lnz
from lnz import (
    DocumentError,
    GradedChange2,
    SecondTypeParams,
    StructureTensor,
    apply_change,
    build_second_type,
    completed_second_type_change,
    parse,
    parse_change,
    serialize,
    serialize_change,
)
from lnz import cli
from lnz.cli import main


@pytest.fixture
def chain_doc(tmp_path):
    algebra = build_second_type(9, SecondTypeParams(0, (0, 0, 0, 0), 0))
    path = tmp_path / "chain.json"
    path.write_text(serialize(algebra))
    return path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------
# usage errors


def test_no_subcommand(capsys):
    code, _, err = run(capsys, )
    assert code == 64
    assert "subcommand is required" in err


def test_unknown_subcommand(capsys):
    code, _, err = run(capsys, "bogus")
    assert code == 64


def test_missing_input_file(capsys, tmp_path):
    code, _, err = run(capsys, "check", str(tmp_path / "absent.json"))
    assert code == 64
    assert "cannot read" in err


CATALOG_0_2 = ["catalog", "--type", "2", "--family", "0,2", "--dim", "9"]


@pytest.mark.parametrize("argv, code, last", [
    (["analyze", "{doc}", "--budget", "x"], 64,
     "lnz analyze: error: argument --budget: invalid int value: 'x'"),
    (CATALOG_0_2 + ["--params", "1", "-o", "{missing}/x.json"], 64,
     "lnz: error: cannot write {missing}/x.json: No such file or directory"),
    (CATALOG_0_2 + ["--params", "0.5"], 64,
     "lnz: error: --params: '0.5' is not an exact fraction like '-3/4'"),
    (["catalog", "--type", "2", "--family", "99", "--epsilon", "1", "--dim",
      "10", "--params", "1"], 2, "lnz: error: no catalog family '99'"),
    (["verify-all", "--dims", "9,x"], 64,
     "lnz: error: --dims must be a comma list of integers, got '9,x'"),
], ids=["analyze-budget", "catalog-output", "catalog-params",
        "catalog-family", "verify-all-dims"])
def test_usage_errors_name_themselves(capsys, tmp_path, chain_doc, argv,
                                      code, last):
    # an exception escaping main would fail the test with its traceback
    where = {"doc": chain_doc, "missing": tmp_path / "missing"}
    got, out, err = run(capsys, *(a.format(**where) for a in argv))
    assert (got, out) == (code, "")
    assert err.splitlines()[-1] == last.format(**where)


# ----------------------------------------------------------------------
# repeated calls in one process


def test_main_builds_one_parser_per_process(capsys, chain_doc, monkeypatch):
    tops = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        tops.append(kwargs.get("prog") == "lnz")
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    for argv in (["check", str(chain_doc)], ["analyze", str(chain_doc)],
                 ["bogus"]):
        main(argv)
    capsys.readouterr()
    assert tops.count(True) == 1


def test_in_process_calls_match_fresh_processes(capsys, chain_doc,
                                                monkeypatch):
    # the shared parser carries nothing from one call to the next: each
    # call prints the bytes and exits with the code of a fresh process
    monkeypatch.setenv("COLUMNS", "80")
    env = {**os.environ, "PYTHONPATH": str(Path(lnz.__file__).parents[1])}
    doc = str(chain_doc)
    for argv in (["analyze", doc, "--budget", "5", "--seed", "3"],
                 ["analyze", doc], ["check"], ["check", doc],
                 ["--help"], ["--help"], ["analyze", "--help"], ["bogus"],
                 []):
        code, out, err = run(capsys, *argv)
        done = subprocess.run([sys.executable, "-m", "lnz.cli", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=30)
        assert (code, out, err) == (done.returncode, done.stdout,
                                    done.stderr), argv


# ----------------------------------------------------------------------
# check


def test_check_passes_on_catalog_document(capsys, chain_doc):
    code, out, _ = run(capsys, "check", str(chain_doc))
    assert code == 0
    assert out.startswith("ok: identity holds on all 9^3")


def test_check_reports_violations(capsys, tmp_path):
    algebra = build_second_type(9, SecondTypeParams(0, (0, 0, 0, 0), 0))
    table = dict(algebra.table)
    table[(1, 4)] = ((2, Fraction(1)),)
    bad = tmp_path / "bad.json"
    bad.write_text(serialize(StructureTensor(9, table)))
    code, out, err = run(capsys, "check", str(bad))
    assert code == 1
    assert "violating triples" in err
    first = out.splitlines()[0]
    assert first.startswith("(") and "):" in first and "e_" in first


def test_check_bytes_are_pinned(capsys, tmp_path):
    # a dense non-Leibniz table: every cell has up to four fractional
    # terms of either sign, so all 7^3 triples fail; sha256 of stdout and
    # of stderr
    rng = random.Random(2389)
    n = 7
    table = {(i, j): [(k, Fraction(rng.randint(-9, 9), rng.randint(1, 6)))
                      for k in rng.sample(range(1, n + 1), 4)]
             for i in range(1, n + 1) for j in range(1, n + 1)}
    doc = tmp_path / "dense.json"
    doc.write_text(serialize(StructureTensor(n, table)))
    code, out, err = run(capsys, "check", str(doc))
    assert code == 1
    assert err == "343 violating triples\n"
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "688c5b5a7110abea3a769a49025ac6d773008c55d8bd94533a2813fbd72258c5")
    assert hashlib.sha256(err.encode()).hexdigest() == (
        "a02e0c8d4d39a25b5aa24ffac7f122c876e1f42001ec12cd47d91ddd50bdc0e7")


def test_check_rejects_malformed_document(capsys, tmp_path):
    doc = tmp_path / "broken.json"
    doc.write_text("{ not json")
    code, _, err = run(capsys, "check", str(doc))
    assert code == 65
    assert "malformed document" in err


# coefficient strings that are no exact fraction: "$" would match before a
# final newline, and "\d" matches non-ASCII digits
INEXACT = {"newline": "3\n", "fraction-newline": "1/2\n",
           "arabic-indic": "\u0663"}
HOSTILE = ["string", "denominator", "integer", "nested", "not-utf8", *INEXACT]


def hostile_bytes(kind, wrap):
    """Document bytes that must end in exit 65, not a traceback.
    ``wrap`` builds a document around one coefficient's JSON text."""
    if kind == "not-utf8":
        return wrap('"@"').encode().replace(b"@", b"\xff\xfe")
    if kind in INEXACT:
        return wrap(json.dumps(INEXACT[kind])).encode()
    if kind == "nested":
        return ("[" * 100_000 + "]" * 100_000).encode()
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter converts integers of any length")
    digits = "7" * (limit + 1)
    if kind == "denominator":
        return wrap(f'"-1/{digits}"').encode()
    return wrap(f'"{digits}"' if kind == "string" else digits).encode()


@pytest.mark.parametrize("kind", HOSTILE)
def test_check_rejects_hostile_document(capsys, tmp_path, kind):
    doc = tmp_path / "hostile.json"
    doc.write_bytes(hostile_bytes(kind, lambda c: (
        '{"dim": 2, "table": [{"i": 1, "j": 1, "terms": [[2, %s]]}]}' % c)))
    code, _, err = run(capsys, "check", str(doc))
    assert code == 65
    assert "malformed document" in err


# coefficients of a type no exact fraction has: JSON text and type name
WRONG_TYPES = {"list": ("[1]", "list"), "dict": ('{"1": 2}', "dict"),
               "null": ("null", "NoneType"), "true": ("true", "bool"),
               "false": ("false", "bool"), "float": ("0.5", "float"),
               "float-one": ("1.0", "float")}


@pytest.mark.parametrize("after", [False, True], ids=["first", "after"])
@pytest.mark.parametrize("kind", WRONG_TYPES)
def test_coefficients_of_the_wrong_type(capsys, tmp_path, kind, after):
    # first in its cell or row, or after the string "1" and the int 1 have
    # been read, which true and 1.0 equal as dict keys: a DocumentError
    # that names the type, never a TypeError, and exit 65
    raw, name = WRONG_TYPES[kind]
    message = f"must be an exact fraction string, got {name}"
    values = ['"1"', "1", raw] if after else [raw, '"1"', "1"]
    text = ('{"dim": 3, "table": [{"i": 1, "j": 1, "terms": [%s]}]}'
            % ", ".join(f"[{k}, {v}]" for k, v in enumerate(values, 1)))
    change_text = ('{"dim": 3, "matrix": [[%s], ["0", "1", "0"], '
                   '["0", "0", "1"]]}' % ", ".join(values))
    with pytest.raises(DocumentError, match=message):
        parse(text)
    with pytest.raises(DocumentError, match=message):
        parse_change(change_text)
    doc, change_doc = tmp_path / "doc.json", tmp_path / "change.json"
    doc.write_text(text)
    change_doc.write_text(change_text)
    code, out, err = run(capsys, "check", str(doc))
    assert code == 65 and out == "" and message in err
    space = tmp_path / "space.json"
    space.write_text('{"dim": 3, "table": []}')
    code, out, err = run(capsys, "transform", str(space), "--change",
                         str(change_doc))
    assert code == 65 and out == "" and message in err


# schema errors past the top level, each with the place it names
CELL = '{"i": 1, "j": 1, "terms": [[2, "1"]]}'
SCHEMA = [
    ('"name": 5, "table": []', '"name" must be a string'),
    ('"table": {}', '"table" must be a list'),
    ('"table": [%s, 7]' % CELL,
     "table[1] must be an object with keys i, j, terms"),
    ('"table": [{"i": 1, "j": 1}]',
     "table[0] must be an object with keys i, j, terms"),
    ('"table": [{"i": "1", "j": 1, "terms": []}]',
     "table[0].i must be an integer"),
    ('"table": [%s, {"i": 2, "j": true, "terms": []}]' % CELL,
     "table[1].j must be an integer"),
    ('"table": [{"i": 1, "j": 1, "terms": "2"}]',
     "table[0].terms must be a list"),
    ('"table": [{"i": 1, "j": 1, "terms": [[2, "1"], [2]]}]',
     "table[0].terms[1] must be a [target, coefficient] pair"),
    ('"table": [{"i": 1, "j": 1, "terms": ["2"]}]',
     "table[0].terms[0] must be a [target, coefficient] pair"),
    ('"table": [{"i": 1, "j": 1, "terms": [["2", "1"]]}]',
     "table[0].terms[0] target must be an integer"),
    ('"table": [%s, {"i": 2, "j": 1, "terms": [[3, "1"]]}]' % CELL,
     "table[1].terms[0] target 3 outside 1..2"),
]


@pytest.mark.parametrize("body, message", SCHEMA)
def test_check_names_where_the_schema_fails(capsys, tmp_path, body, message):
    doc = tmp_path / "schema.json"
    doc.write_text('{"dim": 2, %s}' % body)
    code, out, err = run(capsys, "check", str(doc))
    assert code == 65 and out == ""
    assert err == f"lnz: malformed document: {message}\n"


# faults of one table cell in a dimension 2 document: the exception type
# and text of parse, and so the stderr line of lnz check with exit 65; the
# last three pin which fault of a cell with two is named
SHAPE = "table[%d] must be an object with keys i, j, terms"
CELL_FAULTS = {
    "entry-list": ('[%s, [1, 1, []]]' % CELL, DocumentError, SHAPE % 1),
    "extra-key": ('[{"i": 1, "j": 1, "terms": [], "k": 0}]', DocumentError,
                  SHAPE % 0),
    "missing-key": ('[{"j": 1, "terms": []}]', DocumentError, SHAPE % 0),
    "i-bool": ('[{"i": true, "j": 1, "terms": []}]', DocumentError,
               "table[0].i must be an integer"),
    "i-string": ('[%s, {"i": "2", "j": 1, "terms": []}]' % CELL,
                 DocumentError, "table[1].i must be an integer"),
    "j-zero": ('[{"i": 1, "j": 0, "terms": []}]', lnz.IndexOutOfRange,
               "table[0].j = 0 outside 1..2"),
    "j-over": ('[%s, {"i": 2, "j": 3, "terms": []}]' % CELL,
               lnz.IndexOutOfRange, "table[1].j = 3 outside 1..2"),
    "terms-dict": ('[{"i": 1, "j": 2, "terms": {"2": "1"}}]', DocumentError,
                   "table[0].terms must be a list"),
    "duplicate": ('[%s, %s]' % (CELL, CELL), lnz.DuplicateEntry,
                  "cell (1,1) appears twice"),
    "i-string-j-zero": ('[{"i": "1", "j": 0, "terms": []}]', DocumentError,
                        "table[0].i must be an integer"),
    "i-zero-j-string": ('[{"i": 0, "j": "1", "terms": []}]',
                        lnz.IndexOutOfRange, "table[0].i = 0 outside 1..2"),
    "duplicate-terms-dict": ('[%s, {"i": 1, "j": 1, "terms": {}}]' % CELL,
                             lnz.DuplicateEntry, "cell (1,1) appears twice"),
}


@pytest.mark.parametrize("fault", CELL_FAULTS)
def test_each_cell_fault_keeps_its_type_and_text(capsys, tmp_path, fault):
    table, kind, message = CELL_FAULTS[fault]
    text = '{"dim": 2, "table": %s}' % table
    with pytest.raises(lnz.ToolkitError) as info:
        parse(text)
    assert type(info.value) is kind and str(info.value) == message
    doc = tmp_path / "cell.json"
    doc.write_text(text)
    code, out, err = run(capsys, "check", str(doc))
    assert code == 65 and out == ""
    assert err == f"lnz: malformed document: {message}\n"


# header faults, one rule for algebra and change documents: the text, and
# the message, which names the kind of document where it names one
OBJECT = "{kind} document must be a JSON object"
DIM = '"dim" must be a positive integer'
HEADER_FAULTS = {
    "list": ("[]", OBJECT), "string": ('"x"', OBJECT),
    "dim-true": ('{"dim": true}', DIM), "dim-zero": ('{"dim": 0}', DIM),
    "dim-string": ('{"dim": "3"}', DIM), "dim-float": ('{"dim": 1.0}', DIM),
    "unknown-key": ('{"dim": 2, "extra": 0}',
                    "unknown {kind} fields ['extra']"),
    "long-integer": (None, "not valid JSON: an integer has too many digits"),
    "nested": ("[" * 100_000 + "]" * 100_000,
               "not valid JSON: nested too deeply"),
    "truncated": ('{\n  "dim": 2,\n', "not valid JSON: Expecting property "
                  "name enclosed in double quotes (line 3, column 1)"),
}


@pytest.mark.parametrize("fault", HEADER_FAULTS)
def test_document_headers_share_one_rule(capsys, tmp_path, fault):
    text, message = HEADER_FAULTS[fault]
    if text is None:
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this interpreter converts integers of any length")
        text = '{"dim": %s}' % ("7" * (limit + 1))
    space = tmp_path / "space.json"
    space.write_text('{"dim": 3, "table": []}')
    doc = tmp_path / "doc.json"
    doc.write_text(text)
    for kind, read, argv in (
            ("algebra", parse, ["check", str(doc)]),
            ("change", parse_change,
             ["transform", str(space), "--change", str(doc)])):
        expected = message.format(kind=kind)
        with pytest.raises(DocumentError) as info:
            read(text)
        assert str(info.value) == expected
        if fault == "truncated":
            assert (info.value.line, info.value.column) == (3, 1)
        code, out, err = run(capsys, *argv)
        assert code == 65 and out == ""
        assert err == f"lnz: malformed document: {expected}\n"


def test_check_empty_table_in_huge_dimension(tmp_path):
    doc = tmp_path / "huge.json"
    doc.write_text('{"dim": 100000, "table": []}')
    # a child process, so that a slow check fails the test instead of hanging it
    src = str(Path(lnz.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "lnz.cli", "check", str(doc)],
        capture_output=True, text=True, timeout=2,
        env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0
    assert done.stdout.startswith("ok: identity holds on all 100000^3")


def test_analyze_empty_table_in_large_dimension(tmp_path):
    doc = tmp_path / "wide.json"
    doc.write_text('{"dim": 400, "table": []}')
    # e_1 meets the series bound, so none of the 200 samples is profiled
    src = str(Path(lnz.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "lnz.cli", "analyze", str(doc)],
        capture_output=True, text=True, timeout=10,
        env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0
    lines = done.stdout.splitlines()
    assert lines[1:4] == ["central series dims: 400 0", "nilindex: 2",
                          "gradation dims: 400"]
    assert lines[4] == ("characteristic sequence (sampled): ("
                        + ", ".join(["1"] * 400) + ")")
    assert lines[5] == "right annihilator dim: 400"


def test_analyze_of_the_one_dimensional_empty_table(capsys, tmp_path):
    # the smallest nilpotent table: e_1 lies outside [L, L] = 0
    doc = tmp_path / "point.json"
    doc.write_text('{"dim": 1, "table": []}')
    code, out, err = run(capsys, "analyze", str(doc))
    assert (code, err) == (0, "")
    assert out == ("dim: 1\ncentral series dims: 1 0\nnilindex: 2\n"
                   "gradation dims: 1\ncharacteristic sequence (sampled): (1)\n"
                   "right annihilator dim: 1\n  e_1\n")


def test_closed_stdout_pipe_exits_quietly(tmp_path):
    # [e_i, e_1] = e_1 for every i, so all 100^2 triples (i, j, 1) fail: the
    # report outgrows the pipe buffer, and the child writes to a closed pipe
    doc = tmp_path / "loud.json"
    doc.write_text(serialize(StructureTensor(
        100, {(i, 1): ((1, 1),) for i in range(1, 101)})))
    src = str(Path(lnz.__file__).resolve().parents[1])
    child = subprocess.Popen(
        [sys.executable, "-m", "lnz.cli", "check", str(doc)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": src})
    assert child.stdout.readline() == "(1,1,1): e_1\n"
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=30) == 141
    assert "Traceback" not in err and "BrokenPipeError" not in err


# ----------------------------------------------------------------------
# analyze


def test_analyze_full_output(capsys, tmp_path):
    code, out, _ = run(capsys, "catalog", "--type", "2", "--family", "0,2",
                       "--dim", "9", "--params", "1",
                       "-o", str(tmp_path / "a.json"))
    assert code == 0
    code, out, _ = run(capsys, "analyze", str(tmp_path / "a.json"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "name: l(0,2)[lambda=1] n=9"
    assert lines[1] == "dim: 9"
    assert lines[2] == "central series dims: 9 7 5 3 2 1 0"
    assert lines[3] == "nilindex: 7"
    assert lines[4] == "gradation dims: 2 2 2 1 1 1"
    assert lines[5] == "characteristic sequence (sampled): (6, 3)"
    assert lines[6] == "right annihilator dim: 3"
    assert set(lines[7:]) == {"  e_2", "  e_3", "  e_9"}


def test_analyze_bytes_are_pinned(capsys, tmp_path):
    # sha256 over exit code and stdout of the first instance of every row
    # at n = 9, 16 and 32, with the default options and with a budget and
    # a seed
    doc = tmp_path / "doc.json"
    digest = hashlib.sha256()
    runs = 0
    for n in (9, 16, 32):
        seen = set()
        for inst in lnz.enumerate_catalog((n,)):
            if inst.row.row_id in seen:
                continue
            seen.add(inst.row.row_id)
            doc.write_text(serialize(inst.tensor))
            for extra in ([], ["--budget", "15", "--seed", "3"]):
                code, out, _ = run(capsys, "analyze", str(doc), *extra)
                digest.update(f"{code}\n{out}".encode())
                runs += 1
    assert runs == 254
    assert digest.hexdigest() == (
        "12a0694eade3f4f7b5c1b059fd0f765ce168d57114fce7b4469cdef3fc4d81b4")


def random_rational_document(rng):
    """A table with n <= 9 whose entries a/b have |a| <= 5 and b <= 6:
    strictly triangular (so nilpotent) or general, sparse or dense."""
    n = rng.randint(1, 9)
    density, triangular = rng.choice((0.1, 0.3, 0.6)), rng.random() < 0.5
    table = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            low = max(i, j) + 1 if triangular else 1
            if low <= n and rng.random() < density:
                table[(i, j)] = [
                    (k, Fraction(rng.randint(-5, 5), rng.randint(1, 6)))
                    for k in rng.sample(range(low, n + 1),
                                        rng.randint(1, min(3, n + 1 - low)))]
    return serialize(StructureTensor(n, table))


def test_annihilator_and_violation_lines_are_pinned(capsys, tmp_path):
    # sha256 over exit code, stdout and stderr of lnz analyze (budget 0)
    # and lnz check on 300 random rational tables: the annihilator lines,
    # with their fractional and negative coefficients, and the violation
    # lines of the tables that are no Leibniz algebras
    rng = random.Random("cli/annihilator-lines")
    doc = tmp_path / "doc.json"
    digest = hashlib.sha256()
    lines = violations = 0
    for _ in range(300):
        doc.write_text(random_rational_document(rng))
        for argv in (["analyze", str(doc), "--budget", "0"],
                     ["check", str(doc)]):
            code, out, err = run(capsys, *argv)
            digest.update(f"{code}\n{out}\n{err}\n".encode())
            lines += out.count("\n  ")
            violations += code == 1
    assert (lines, violations) == (368, 199)
    assert digest.hexdigest() == (
        "ff5c46d2a15be1aa916ebcd0daf26707d87204a270e79b962d627452aa6704c0")


def test_analyze_non_nilpotent(capsys, tmp_path):
    doc = tmp_path / "x.json"
    doc.write_text(serialize(StructureTensor(3, {(1, 1): ((1, Fraction(1)),)})))
    code, out, _ = run(capsys, "analyze", str(doc))
    assert code == 0
    assert "nilindex: none" in out


def test_analyze_refuses_a_series_that_is_no_filtration(capsys, tmp_path):
    # nilpotent, not Leibniz: [e_2, e_2] = -e_3 lies in L^3, not in L^4 = 0
    doc = tmp_path / "n3.json"
    doc.write_text(serialize(StructureTensor(3, {
        (1, 1): ((2, Fraction(-2, 3)),), (2, 1): ((3, Fraction(-5, 6)),),
        (2, 2): ((3, Fraction(-1)),)})))
    code, _, err = run(capsys, "check", str(doc))
    assert code == 1 and err == "3 violating triples\n"
    code, out, err = run(capsys, "analyze", str(doc))
    assert code == 2
    assert out.splitlines()[-1] == "nilindex: 4"
    assert err == ("lnz: error: [L^2, L^2] is not inside L^4: sections 2 "
                   "(e_2) and 2 (e_2) bracket outside it\n")


def test_seed_comes_from_the_flag_alone(capsys, tmp_path, monkeypatch):
    # two null-filiform algebras side by side: at budget 1 the sampled
    # sequence reads (3, 1, 1, 1) at seed 3 and (3, 3) at seed 5, so a
    # seed taken from anywhere but --seed shows in the bytes; verify-all's
    # durations are masked, they vary from run to run
    doc = tmp_path / "sum.json"
    doc.write_text(serialize(StructureTensor(6, {
        (1, 1): ((2, Fraction(1)),), (2, 1): ((3, Fraction(1)),),
        (4, 4): ((5, Fraction(1)),), (5, 4): ((6, Fraction(1)),)})))

    def runs():
        analyzed = run(capsys, "analyze", str(doc), "--budget", "1",
                       "--seed", "3")
        code, out, err = run(capsys, "verify-all", "--dims", "9")
        return analyzed, (code, re.sub(r" in \d+\.\ds", " in _s", out), err)

    monkeypatch.delenv("LNZ_SEED", raising=False)
    unset = runs()
    assert "characteristic sequence (sampled): (3, 1, 1, 1)\n" in unset[0][1]
    assert (unset[0][0], unset[1][0]) == (0, 0)
    for value in ("5", "weird"):
        monkeypatch.setenv("LNZ_SEED", value)
        assert runs() == unset, value


def test_analyze_rejects_negative_budget(capsys, chain_doc):
    code, out, err = run(capsys, "analyze", str(chain_doc), "--budget", "-1")
    assert code == 64
    assert out == ""
    assert "argument --budget: must be at least 0, got -1" in err
    code, out, _ = run(capsys, "analyze", str(chain_doc), "--budget", "0")
    assert code == 0
    assert "characteristic sequence (sampled): (6, 3)" in out


# ----------------------------------------------------------------------
# catalog


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog", "--list")
    assert code == 0
    assert len(json.loads(out)["rows"]) == 52


def test_catalog_builds_document(capsys):
    code, out, _ = run(capsys, "catalog", "--type", "2", "--family", "0,3",
                       "--dim", "9", "--params", "2")
    assert code == 0
    algebra = parse(out)
    assert algebra.name == "l(0,3)[lambda=2] n=9"
    assert algebra.coefficient(2, 4, 3) == 0
    assert algebra.coefficient(5, 4, 3) == 2


def test_catalog_missing_flags(capsys):
    code, _, err = run(capsys, "catalog", "--type", "2")
    assert code == 64
    assert "catalog needs" in err and "--family" in err and "--dim" in err


def test_catalog_unknown_family(capsys):
    code, _, err = run(capsys, "catalog", "--type", "2", "--family", "8,8",
                       "--dim", "9")
    assert code == 2
    assert "no catalog family" in err


@pytest.mark.parametrize("type_, label, params", [
    ("2", "34", ()), ("1", "0,2", ("--params", "1"))])
def test_catalog_family_of_the_other_type(capsys, type_, label, params):
    code, out, err = run(capsys, "catalog", "--type", type_, "--family",
                         label, "--dim", "9", *params)
    assert code == 2 and out == ""
    assert err == f"lnz: error: family {label!r} is not type {type_}\n"


def test_catalog_ambiguous_label(capsys):
    code, _, err = run(capsys, "catalog", "--type", "2", "--family", "0,6",
                       "--dim", "9", "--params", "1")
    assert code == 64
    assert "0,6a" in err and "0,6b" in err


def test_catalog_bare_label_with_epsilon(capsys):
    code, out, _ = run(capsys, "catalog", "--type", "2", "--family", "2",
                       "--epsilon", "1", "--dim", "10", "--params", "1")
    assert code == 0
    assert parse(out).name == "l(1,2)[lambda=1] n=10"


def test_catalog_epsilon_crosscheck(capsys):
    code, _, err = run(capsys, "catalog", "--type", "2", "--family", "0,2",
                       "--epsilon", "1", "--dim", "9", "--params", "0")
    assert code == 2
    assert "has epsilon 0" in err
    # a first-type row has no epsilon to compare
    code, _, err = run(capsys, "catalog", "--type", "1", "--family", "34",
                       "--dim", "9", "--params", "2", "--epsilon", "0")
    assert code == 2
    assert err == ("error: row 34 is a first-type row, which has no "
                   "epsilon or beta\n")


def test_catalog_beta_crosscheck(capsys):
    code, _, err = run(capsys, "catalog", "--type", "2", "--family", "0,1",
                       "--dim", "9", "--beta", "-1")
    assert code == 2
    assert "has beta 0" in err
    code, _, err = run(capsys, "catalog", "--type", "1", "--family", "34",
                       "--dim", "9", "--params", "2", "--beta", "-1")
    assert code == 2
    assert err == ("error: row 34 is a first-type row, which has no "
                   "epsilon or beta\n")


def test_catalog_inadmissible_parameter(capsys):
    code, _, err = run(capsys, "catalog", "--type", "2", "--family", "0,2",
                       "--dim", "9", "--params", "7")
    assert code == 2
    assert "must lie in" in err


def test_catalog_reports_lambda_zero_under_2_over_lambda_once(capsys):
    # row 1,27's ParamSpec excludes 0, which is the one reason 2/lambda fails
    code, out, err = run(capsys, "catalog", "--type", "2", "--family", "1,27",
                         "--dim", "10", "--params", "0,1")
    assert (code, out) == (2, "")
    assert err == ("error: lambda = 0 not admissible for row 1,27: lambda "
                   "must lie in any rational except -1, 0, 1\n")


def test_catalog_parity_check(capsys):
    code, _, err = run(capsys, "catalog", "--type", "2", "--family", "1,2",
                       "--dim", "9", "--params", "0")
    assert code == 2
    assert "even dimension" in err


def test_catalog_first_type(capsys):
    code, out, _ = run(capsys, "catalog", "--type", "1", "--family", "34",
                       "--dim", "9", "--params", "2")
    assert code == 0
    algebra = parse(out)
    assert algebra.coefficient(1, 7, 8) == 2


def test_catalog_row_resolution_is_pinned(capsys):
    # every row id and printed label under both --type values, and every
    # bare second-type label under --type 2 with --epsilon 0 and 1, at
    # n = 10 with the row's first sample tuple; each outcome is checked
    # by its rule, and the sha256 below pins exit code, stdout digest and
    # stderr of every case in order
    rows = {row.row_id: row for row in lnz.CATALOG_ROWS}
    labels = {}
    for row in rows.values():
        labels.setdefault(row.family_label, []).append(row.row_id)
    # a printed label is its own row's id or belongs to no row id at all
    assert all(ids == [label] or label not in rows
               for label, ids in labels.items())
    assert [label for label, ids in labels.items() if len(ids) > 1] == [
        "0,6", "0,10"]
    bare = sorted({row.family_label.split(",")[1] for row in rows.values()
                   if row.kind == "second"}, key=lambda b: (len(b), b))
    assert bare == [str(b) for b in range(1, 34)]

    def values(row_id):
        return rows[row_id].sample_grid(lnz.DEFAULT_FREE_SAMPLES)[0]

    def params(row_id):
        vals = values(row_id)
        return [f"--params={','.join(map(str, vals))}"] if vals else []

    def built(row_id):
        return serialize(rows[row_id].build(10, values(row_id)))

    def error(text, code=2):
        return code, "", f"lnz: error: {text}\n"

    def ambiguous(label, ids):
        return error(f"label {label!r} is ambiguous; use a row id: "
                     f"{', '.join(ids)}", 64)

    cases = []
    for label, ids in labels.items():
        kind = rows[ids[0]].kind
        for type_ in ("1", "2"):
            argv = ["--type", type_, "--family", label]
            if (type_ == "2") != (kind == "second"):
                want = error(f"family {label!r} is not type {type_}")
            elif len(ids) > 1:
                want = ambiguous(label, ids)
            else:
                argv += params(label)
                want = 0, built(label), ""
            cases.append((argv, want))
        for row_id in ids if len(ids) > 1 else ():
            cases.append((["--type", "2", "--family", row_id]
                          + params(row_id), (0, built(row_id), "")))
            cases.append((["--type", "1", "--family", row_id],
                          error(f"family {row_id!r} is not type 1")))
    for b in bare + ["6a", "10c", "34"]:
        for epsilon in "01":
            argv = ["--type", "2", "--family", b, "--epsilon", epsilon]
            full = f"{epsilon},{b}"
            if b in rows:
                want = error(f"family {b!r} is not type 2")
            elif len(labels.get(full, ())) > 1:
                want = ambiguous(b, labels[full])
            elif full in labels:
                argv += params(full)
                want = 0, built(full), ""
            else:
                want = error(f"no catalog family {b!r}")
            cases.append((argv, want))
    for argv in (["--type", "2", "--family", "2"],
                 ["--type", "1", "--family", "2", "--epsilon", "0"],
                 ["--type", "2", "--family", "8,8", "--epsilon", "0"]):
        cases.append((argv, error(f"no catalog family {argv[3]!r}")))
    cases.append((["--type", "2", "--family", "0,2", "--epsilon", "1"]
                  + params("0,2"),
                  (2, "", "error: row 0,2 has epsilon 0, not 1\n")))
    assert len(cases) == 2 * len(labels) + 2 * 6 + 2 * 36 + 4 == 184

    digest = hashlib.sha256()
    for argv, want in cases:
        code, out, err = run(capsys, "catalog", "--dim", "10", *argv)
        assert (code, out, err) == want, argv
        digest.update(json.dumps([argv, code, hashlib.sha256(
            out.encode()).hexdigest(), err]).encode() + b"\n")
    assert digest.hexdigest() == (
        "51e08a626c46f9bf341edbe40701a44be27d210b31e8cc6112d36288fbb8355a")


# ----------------------------------------------------------------------
# transform


def test_transform_applies_change(capsys, tmp_path):
    algebra = build_second_type(9, SecondTypeParams(0, (1, 0, 0, 1), -1))
    doc = tmp_path / "alg.json"
    doc.write_text(serialize(algebra))
    g = GradedChange2(Fraction(1), Fraction(0), Fraction(2))
    change = completed_second_type_change(algebra, g)
    change_doc = tmp_path / "change.json"
    change_doc.write_text(serialize_change(change))
    out_doc = tmp_path / "moved.json"
    code, _, _ = run(capsys, "transform", str(doc), "--change",
                     str(change_doc), "-o", str(out_doc))
    assert code == 0
    moved = parse(out_doc.read_text())
    assert moved.table == apply_change(algebra, change).table


def test_transform_singular_change(capsys, tmp_path, chain_doc):
    change_doc = tmp_path / "sing.json"
    change_doc.write_text(
        '{"dim": 9, "matrix": ' +
        json.dumps([["0"] * 9 for _ in range(9)]) + "}")
    code, _, err = run(capsys, "transform", str(chain_doc), "--change",
                       str(change_doc))
    assert code == 2
    assert "singular" in err


def test_transform_malformed_change(capsys, tmp_path, chain_doc):
    change_doc = tmp_path / "bad.json"
    change_doc.write_text("nope")
    code, _, err = run(capsys, "transform", str(chain_doc), "--change",
                       str(change_doc))
    assert code == 65


def spelled(rng, value):
    """A document spelling of a Fraction: an int, or a string that may be
    unreduced or carry leading zeros."""
    if value.denominator == 1 and rng.random() < 0.3:
        return value.numerator
    f = rng.choice((1, 1, 2, 3))
    num, den = value.numerator * f, value.denominator * f
    sign, zeros = "-" if num < 0 else "", "0" * rng.choice((0, 0, 2))
    return f"{sign}{zeros}{abs(num)}" + (f"/{den}" if den != 1 else "")


def test_transform_bytes_are_pinned(capsys, tmp_path):
    # sha256 over exit code and stdout of lnz transform on seeded tables
    # with negative fractional coefficients, written with json.dumps in
    # assorted spellings, under seeded invertible rational changes
    rng = random.Random(2024)
    doc, change_doc = tmp_path / "doc.json", tmp_path / "change.json"
    names = (None, "moved", 'a "quoted" \\ name\n', "λ = −½ \U0001F600")
    digest = hashlib.sha256()
    for case in range(16):
        n = rng.randint(2, 8)
        table = []
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                targets = [k for k in range(1, n + 1) if rng.random() < 0.35]
                if targets and rng.random() < 0.6:
                    table.append({"i": i, "j": j, "terms": [
                        [k, spelled(rng, Fraction(rng.randint(-40, 20),
                                                  rng.randint(1, 12)))]
                        for k in targets]})
        rng.shuffle(table)
        source = {"dim": n, "table": table}
        if names[case % 4] is not None:
            source["name"] = names[case % 4]
        doc.write_text(json.dumps(source, indent=rng.choice((None, 1))))
        # upper triangular with a nonzero diagonal, rows permuted
        rows = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) if c > r
                 else Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3))
                 if c == r else Fraction(0) for c in range(n)]
                for r in range(n)]
        rng.shuffle(rows)
        change_doc.write_text(json.dumps(
            {"dim": n, "matrix": [[spelled(rng, x) for x in row]
                                  for row in rows]}))
        code, out, _ = run(capsys, "transform", str(doc), "--change",
                           str(change_doc))
        digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == (
        "d00d22dd639f0b5fcee85b2262f12360bcec9d600bd32d85e5cb6aa136ffebd4")


@pytest.mark.parametrize("kind", HOSTILE)
def test_transform_rejects_hostile_change(capsys, tmp_path, kind):
    doc = tmp_path / "plane.json"
    doc.write_text('{"dim": 2, "table": []}')
    change_doc = tmp_path / "hostile.json"
    change_doc.write_bytes(hostile_bytes(kind, lambda c: (
        '{"dim": 2, "matrix": [[%s, "0"], ["0", "1"]]}' % c)))
    code, _, err = run(capsys, "transform", str(doc), "--change",
                       str(change_doc))
    assert code == 65
    assert "malformed document" in err


# ----------------------------------------------------------------------
# equiv


def test_equiv_equivalent_pair(capsys):
    code, out, _ = run(capsys, "equiv", "--epsilon", "0", "--dim", "9",
                       "--p", "1,0,0,1", "--q", "2,0,0,4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "Equivalent"
    assert lines[1] == "witness: A1 = 1, A4 = 0, B4 = 2"


def test_equiv_distinct_pair(capsys):
    code, out, _ = run(capsys, "equiv", "--epsilon", "0", "--dim", "9",
                       "--p", "1,0,0,0", "--q", "1,0,0,1")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "Distinct"
    assert lines[1] == "invariant: alpha1*alpha2-2*alpha4"


def test_equiv_unknown_pair(capsys):
    code, out, _ = run(capsys, "equiv", "--epsilon", "0", "--dim", "9",
                       "--p", "0,0,-1,0", "--q", "0,0,-2,0")
    assert code == 3
    assert out.splitlines()[0] == "Unknown"
    assert "no rational witness" in out


def test_equiv_epsilon_one_pins_b4(capsys):
    code, out, _ = run(capsys, "equiv", "--epsilon", "1", "--dim", "10",
                       "--p", "0,0,0,1", "--q", "0,0,0,1/4")
    assert code == 0
    assert "(B4 pinned to A1-A4 = " in out


def test_equiv_dimension_and_parity_guards(capsys):
    code, _, err = run(capsys, "equiv", "--epsilon", "0", "--dim", "8",
                       "--p", "0,0,0,0", "--q", "0,0,0,0")
    assert code == 2
    assert "n >= 9" in err
    code, _, err = run(capsys, "equiv", "--epsilon", "1", "--dim", "9",
                       "--p", "0,0,0,0", "--q", "0,0,0,0")
    assert code == 2
    assert "even dimension" in err


def test_equiv_rejects_bad_tuples(capsys):
    code, _, err = run(capsys, "equiv", "--epsilon", "0", "--dim", "9",
                       "--p", "1,2,3", "--q", "0,0,0,0")
    assert code == 64
    code, _, err = run(capsys, "equiv", "--epsilon", "0", "--dim", "9",
                       "--p", "1,0.5,0,0", "--q", "0,0,0,0")
    assert code == 64
    assert "--p" in err


def test_equiv_rejects_negative_budget(capsys):
    argv = ("equiv", "--epsilon", "0", "--dim", "9", "--p", "1,0,0,1",
            "--q", "2,0,0,4", "--budget")
    code, out, err = run(capsys, *argv, "-3")
    assert code == 64
    assert out == ""
    assert "argument --budget: must be at least 0, got -3" in err
    code, out, _ = run(capsys, *argv, "0")
    assert code == 0
    assert out.splitlines()[0] == "Equivalent"


def test_equiv_explicit_beta(capsys):
    code, out, _ = run(capsys, "equiv", "--epsilon", "0", "--dim", "9",
                       "--p", "0,0,0,0,0", "--q", "0,0,0,0,0")
    assert code == 0
    assert out.splitlines()[0] == "Equivalent"


@pytest.mark.parametrize("p, q, alphas", [
    ("1,0,0,0,0", "1,0,0,0,0", "(1, 0, 0, 0)"),
    ("1,0,0,0,0", "2,0,0,0,0", "(1, 0, 0, 0)"),
    ("0,0,0,0,0", "0,-1/2,0,0,0", "(0, -1/2, 0, 0)"),
])
def test_equiv_rejects_beta_zero_with_nonzero_alpha(capsys, p, q, alphas):
    # no algebra has beta = 0 and a nonzero alpha: inadmissible, exit 2
    code, out, err = run(capsys, "equiv", "--epsilon", "0", "--dim", "9",
                         "--p", p, "--q", q)
    assert code == 2
    assert out == ""
    assert ("beta = 0 forces alpha1 = alpha2 = alpha3 = alpha4 = 0; "
            f"got alphas {alphas}") in err


def test_values_with_a_leading_minus_take_the_equals_form(capsys,
                                                         monkeypatch):
    # argparse reads "--p -2,0,1,0" as two options; "--p=-2,0,1,0" is the
    # form the help texts and the README give for such values
    code, out, _ = run(capsys, "equiv", "--epsilon", "1", "--dim", "10",
                       "--p=-2,0,1,0", "--q=1,0,1/4,0")
    assert (code, out) == (1, "Distinct\ninvariant: alpha1+2*alpha3\n")
    code, out, _ = run(capsys, "catalog", "--type", "2", "--family", "0,3",
                       "--dim", "9", "--params=-1/2")
    assert code == 0
    assert parse(out).name == "l(0,3)[lambda=-1/2] n=9"
    seen = []

    def spy(**kwargs):
        seen.append(kwargs["samples"])
        return verify_all(**kwargs)

    verify_all = cli.verify_all
    monkeypatch.setattr(cli, "verify_all", spy)
    code, out, _ = run(capsys, "verify-all", "--dims", "9", "--samples=-1,2")
    assert code == 0 and out.endswith("0 failed, 5 flagged\n")
    assert seen == [(Fraction(-1), Fraction(2))]


# ----------------------------------------------------------------------
# verify-all argument handling (the full run lives in the acceptance tests)


def test_verify_all_rejects_small_dims(capsys):
    code, _, err = run(capsys, "verify-all", "--dims", "8")
    assert code == 2
    assert "n >= 9" in err


def test_verify_all_rejects_bad_dims_list(capsys):
    code, _, err = run(capsys, "verify-all", "--dims", "nine")
    assert code == 64


def test_verify_all_takes_no_budget_flag(capsys):
    # e_1 certifies every catalog estimate, so the battery has no budget
    code, out, err = run(capsys, "verify-all", "--dims", "9", "--budget", "1")
    assert code == 64
    assert out == ""
    assert err.endswith("lnz: error: unrecognized arguments: --budget 1\n")
