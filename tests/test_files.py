import io
import itertools

import pytest

from matzeta.files import (
    FileFormatError,
    dump_bases,
    dump_graph,
    load_bases,
    load_graph,
    load_graphic_matroid,
)
from matzeta.matroid import MAX_GROUND_SIZE, graphic, uniform
from oracles import mask_of

TRIANGLE_TEXT = """\
# the 3-cycle
v 3
e 0 1
e 1 2
e 0 2
"""


def test_bases_roundtrip(tmp_path):
    m = uniform(2, 4)
    path = tmp_path / "u24.bases"
    dump_bases(m, path)
    assert load_bases(path) == m


def test_bases_roundtrip_all_catalog(catalog4):
    for entry in catalog4:
        text = dump_bases(entry.matroid)
        assert load_bases(io.StringIO(text)) == entry.matroid, entry.name


def test_bases_parsing_details():
    text = "# comment\nn 3\n\nb 0 1  # trailing comment\nb 1 2\nb 0 2\n"
    assert load_bases(io.StringIO(text)) == uniform(2, 3)
    assert load_bases(io.StringIO("n +3\nb 0 2\nb -0 +1\nb 1 2\n")) == uniform(2, 3)
    trivial = load_bases(io.StringIO("n 0\nb\n"))
    assert trivial == uniform(0, 0)


def test_bases_at_the_ground_size_bound():
    n = MAX_GROUND_SIZE
    m = uniform(n // 2, n)
    assert load_bases(io.StringIO(dump_bases(m))) == m
    # without S+a and S+b for a 7-set S, exchange fails from S+x towards
    # S-z+a+b: taking x out leaves S, and both S+a and S+b are gone
    core = mask_of(range(n // 2 - 1))
    gone = {core | 1 << (n // 2 - 1), core | 1 << (n // 2)}
    lines = [f"n {n}"] + [
        "b " + " ".join(map(str, c))
        for c in itertools.combinations(range(n), n // 2)
        if mask_of(c) not in gone
    ]
    with pytest.raises(FileFormatError, match="not a matroid"):
        load_bases(io.StringIO("\n".join(lines)))


@pytest.mark.parametrize(
    "text, message",
    [
        ("b 0 1\n", "basis before"),
        ("n 2\nn 2\n", "duplicate"),
        ("n 2\nb 0 5\n", "outside"),
        ("n 2\nb 0 0\n", "repeated"),
        ("n 2\nx 1\n", "unknown directive"),
        ("n 2\n", "no bases"),
        ("", "missing size"),
        ("n 2\nb zero\n", "not an integer"),
        ("n 2\nb +-1\n", "not an integer"),
        ("n 4\nb 0 1\nb 2 3\n", "not a matroid"),
        ("n -1\n", "negative size"),
        ("# size\nn -3\nb 0\n", "line 2: negative size -3"),
    ],
)
def test_bases_errors(text, message):
    with pytest.raises(FileFormatError, match=message):
        load_bases(io.StringIO(text))


@pytest.mark.parametrize(
    "line, message",
    [
        ("b 0 -1", "line 3: element -1 outside 0..3"),
        ("b 0 +-1", "line 3: '+-1' is not an integer"),
        ("b 0 \u0661", "line 3: '\u0661' is not an integer"),
        ("b 0 \u00b2", "line 3: '\u00b2' is not an integer"),
        ("b 0 \uff11", "line 3: '\uff11' is not an integer"),
        ("b 1_0", "line 3: '1_0' is not an integer"),
        ("b 0 9", "line 3: element 9 outside 0..3"),
        ("b 1 1", "line 3: repeated element in basis"),
        ("b 1 +1", "line 3: repeated element in basis"),
        ("b 9 5", "line 3: element 9 outside 0..3"),
        ("b 1 1 9", "line 3: element 9 outside 0..3"),
        ("b 9 x", "line 3: 'x' is not an integer"),
        ("b -1 1_0", "line 3: '1_0' is not an integer"),
    ],
    ids=["negative", "two-signs", "arabic-indic", "superscript", "fullwidth", "underscore",
         "out-of-range", "repeat", "signed-repeat", "first-out-of-range",
         "range-before-repeat", "parse-before-range", "parse-before-sign"],
)
def test_bases_line_error_texts(line, message):
    """A basis line's error text and the priority of its errors: a token that
    is no integer first, then the first element out of range, then a repeat."""
    with pytest.raises(FileFormatError) as caught:
        load_bases(io.StringIO(f"n 4\nb 0 1\n{line}\nb 2 3\n"))
    assert str(caught.value) == message


def test_graph_roundtrip(tmp_path):
    path = tmp_path / "c3.graph"
    dump_graph(3, [(0, 1), (1, 2), (0, 2)], path)
    vertices, edges = load_graph(path)
    assert vertices == 3 and edges == [(0, 1), (1, 2), (0, 2)]
    assert load_graph(io.StringIO(dump_graph(vertices, edges))) == (vertices, edges)


def test_writers_write_to_a_file_object():
    bases, graph = io.StringIO(), io.StringIO()
    text = dump_bases(uniform(2, 3), bases)
    assert bases.getvalue() == text == "n 3\nb 0 1\nb 0 2\nb 1 2\n"
    assert dump_graph(3, [(0, 1), (1, 2)], graph) == graph.getvalue() == "v 3\ne 0 1\ne 1 2\n"


def test_graphic_matroid_from_file():
    m = load_graphic_matroid(io.StringIO(TRIANGLE_TEXT))
    assert m == graphic([(0, 1), (1, 2), (0, 2)])
    assert m == uniform(2, 3)


@pytest.mark.parametrize(
    "text, message",
    [
        ("e 0 1\n", "edge before"),
        ("v 2\nv 2\n", "duplicate"),
        ("v 2\ne 0 2\n", "outside"),
        ("v 2\ne 0\n", "expected 2"),
        ("v 2\nq\n", "unknown directive"),
        ("", "missing vertex"),
        ("v -1\n", "negative vertex count"),
    ],
)
def test_graph_errors(text, message):
    with pytest.raises(FileFormatError, match=message):
        load_graph(io.StringIO(text))


@pytest.mark.parametrize("load", [load_bases, load_graph])
def test_unreadable_sources_are_format_errors(tmp_path, load):
    with pytest.raises(FileFormatError, match="unreadable input: .*directory"):
        load(tmp_path)
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"n 2\nb 0 \xff\n")
    with pytest.raises(FileFormatError, match="unreadable input: .*utf-8"):
        load(binary)
