"""Text formats for matroids given by bases and for graphs.

Bases file: a line "n <size>" followed by one "b <i1> <i2> ..." line per
basis (0-based element indices).  Graph file: "v <count>" followed by
"e <u> <w>" lines.  "#" starts a comment; blank lines are ignored.  Both
formats round-trip through the writers here.
"""

from __future__ import annotations

import os
from typing import Sequence

from .matroid import MAX_GROUND_SIZE, Matroid, graphic, iter_bits


class FileFormatError(ValueError):
    """Malformed bases or graph file."""


def _lines(source) -> list[str]:
    try:
        if isinstance(source, (str, os.PathLike)):
            with open(source, "r", encoding="utf-8") as handle:
                return handle.read().splitlines()
        return source.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise FileFormatError(f"unreadable input: {exc}") from exc


def _emit(target, text: str) -> None:
    if isinstance(target, (str, os.PathLike)):
        with open(target, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        target.write(text)


def _tokens(lines: list[str]):
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        yield lineno, parts[0], parts[1:]


def load_bases(source) -> Matroid:
    """Parse a bases file into a validated Matroid."""
    size: int | None = None
    bases: list[int] = []
    for lineno, tag, rest in _tokens(_lines(source)):
        if tag == "n":
            if size is not None:
                raise FileFormatError(f"line {lineno}: duplicate size line")
            size = _parse_int(lineno, rest, exactly=1)[0]
            if size < 0:
                raise FileFormatError(f"line {lineno}: negative size {size}")
            if size > MAX_GROUND_SIZE:  # a domain error, as for u:3,17
                raise ValueError(
                    f"line {lineno}: ground size {size} exceeds the bound {MAX_GROUND_SIZE}"
                )
        elif tag == "b":
            if size is None:
                raise FileFormatError(f"line {lineno}: basis before the size line")
            # one test per line: a line of plain digit tokens needs no token test
            digits = "".join(rest)
            if digits.isascii() and digits.isdigit():
                elems = list(map(int, rest))
            else:
                elems = _parse_int(lineno, rest)
            mask = 0
            for e in elems:
                if not 0 <= e < size:
                    raise FileFormatError(
                        f"line {lineno}: element {e} outside 0..{size - 1}"
                    )
                mask |= 1 << e
            if mask.bit_count() != len(elems):
                raise FileFormatError(f"line {lineno}: repeated element in basis")
            bases.append(mask)
        else:
            raise FileFormatError(f"line {lineno}: unknown directive {tag!r}")
    if size is None:
        raise FileFormatError("missing size line 'n <size>'")
    if not bases:
        raise FileFormatError("no bases given")
    try:
        return Matroid(size, bases, validate=True)
    except ValueError as exc:
        raise FileFormatError(f"not a matroid: {exc}") from exc


def dump_bases(m: Matroid, target=None) -> str:
    """Write a matroid in the bases format; returns the text."""
    lines = [f"n {m.size}"]
    for b in sorted(m.bases):
        elems = " ".join(str(e) for e in iter_bits(b))
        lines.append(f"b {elems}".rstrip())
    text = "\n".join(lines) + "\n"
    if target is not None:
        _emit(target, text)
    return text


def load_graph(source) -> tuple[int, list[tuple[int, int]]]:
    """Parse a graph file into (vertex count, edge list)."""
    vertices: int | None = None
    edges: list[tuple[int, int]] = []
    for lineno, tag, rest in _tokens(_lines(source)):
        if tag == "v":
            if vertices is not None:
                raise FileFormatError(f"line {lineno}: duplicate vertex line")
            vertices = _parse_int(lineno, rest, exactly=1)[0]
            if vertices < 0:
                raise FileFormatError(f"line {lineno}: negative vertex count {vertices}")
        elif tag == "e":
            if vertices is None:
                raise FileFormatError(f"line {lineno}: edge before the vertex line")
            u, w = _parse_int(lineno, rest, exactly=2)
            for x in (u, w):
                if not 0 <= x < vertices:
                    raise FileFormatError(
                        f"line {lineno}: vertex {x} outside 0..{vertices - 1}"
                    )
            edges.append((u, w))
        else:
            raise FileFormatError(f"line {lineno}: unknown directive {tag!r}")
    if vertices is None:
        raise FileFormatError("missing vertex line 'v <count>'")
    return vertices, edges


def dump_graph(vertices: int, edges: Sequence[tuple[int, int]], target=None) -> str:
    """Write a graph file; returns the text."""
    lines = [f"v {vertices}"]
    lines += [f"e {u} {w}" for u, w in edges]
    text = "\n".join(lines) + "\n"
    if target is not None:
        _emit(target, text)
    return text


def load_graphic_matroid(source) -> Matroid:
    """Parse a graph file and build its cycle matroid (elements are edges)."""
    vertices, edges = load_graph(source)
    return graphic(edges, vertices)


def _ascii_int(text: str) -> int:
    """An integer matching [+-]?[0-9]+; ``int()`` alone would also take other
    Unicode digits, underscores and whitespace.  The test is on str methods,
    not a regex, because bases files hold tens of thousands of tokens; it
    lets several signs through, and ``int()`` refuses those."""
    if not (text.isascii() and text.lstrip("+-").isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _parse_int(lineno: int, items: list[str], exactly: int | None = None) -> list[int]:
    if exactly is not None and len(items) != exactly:
        raise FileFormatError(f"line {lineno}: expected {exactly} integer(s)")
    out = []
    for item in items:
        try:
            out.append(_ascii_int(item))
        except ValueError as exc:
            raise FileFormatError(f"line {lineno}: {item!r} is not an integer") from exc
    return out
