"""Property oracles on random inputs, drawn by hypothesis when installed."""

import json
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from lnz import StructureTensor, parse, serialize  # noqa: E402

SETTINGS = hypothesis.settings(deadline=None, database=None, derandomize=True)

fractions = st.fractions(max_denominator=10**12).filter(bool) | st.builds(
    Fraction, st.integers(-(10**40), 10**40).filter(bool), st.integers(1, 10**30))


@st.composite
def tables(draw):
    """A dimension, a name and the nonzero cells {(i, j): {k: Fraction}}."""
    n = draw(st.integers(1, 5))
    index = st.integers(1, n)
    cells = draw(st.dictionaries(st.tuples(index, index),
                                 st.dictionaries(index, fractions, min_size=1),
                                 max_size=n * n))
    return n, draw(st.none() | st.text(max_size=12)), cells


def reference_text(n, name, cells) -> str:
    """The canonical document as json's indenting encoder writes it."""
    doc = {"dim": n}
    if name is not None:
        doc["name"] = name
    doc["table"] = [{"i": i, "j": j,
                     "terms": [[k, str(c)] for k, c in sorted(cells[i, j].items())]}
                    for i, j in sorted(cells)]
    return json.dumps(doc, indent=2) + "\n"


@SETTINGS
@hypothesis.given(tables())
def test_documents_round_trip(drawn):
    n, name, cells = drawn
    algebra = StructureTensor(n, cells, name)
    text = reference_text(n, name, cells)
    assert serialize(algebra) == text
    back = parse(text)
    assert back == algebra and back.name == name
    assert serialize(back) == text
