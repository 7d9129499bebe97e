"""Fuzzing of every text format and of the CLI commands that read them.

Texts are drawn from each format's keywords, small integers (at most two
digits), ': , = -', spaces and newlines: mostly lines in a keyword's
shape, some bare integer rows and some token soup. Every text must
either raise ValueError or parse to a value that round-trips exactly
through to_text; on the CLI every text must end in exit 0, 1 or 2.
"""

import contextlib
import io
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from fticalc.chords import ChordDiagram
from fticalc.cli import main
from fticalc.links import BlinkPresentation, FramedLink, SeifertMatrix
from fticalc.symplectic import SpMatrix, Sublattice, SymplecticLattice

FUZZ = settings(derandomize=True, deadline=None, max_examples=50)

# keyword shapes, whether bare integer rows belong to the format, and
# valid texts that fuzzed texts are also drawn around
BLINK = ({"pairs=": "#", "lk": "# # #", "eps": "# #"}, False,
         ["pairs=2\nlk 0 1 3\nlk 0 2 1\nlk 1 2 1\neps 0 1\neps 1 -1\n"])
LINK = ({"components=": "#", "lk": "# # #", "frame": "# #"}, False,
        ["components=3\nlk 0 2 2\nframe 0 1\nframe 1 -1\n"])
SEIFERT = ({"sizes=": "*", "frames=": "*"}, True,
           ["sizes=2\n-1 1\n0 -1\n",
            "sizes=2 2\nframes=1 -1\n-1 1 0 0\n0 -1 0 0\n0 0 1 1\n0 0 0 -1\n"])
DIAGRAM = ({"circles": "#", "marks": "#", "I": "#:# #:#", "II": "#:#,# #:#,#"}, False,
           ["circles 2\nI 0:0 0:2\nI 0:1 0:3\nII 0:4,5 1:0,1\nmarks 1\n"])
LATTICE = ({"g=": "#"}, False, ["g=2\n"])
SUBLATTICE = ({"g=": "#"}, True, ["g=2\n1 0 0 0\n0 0 0 1\n"])
SPMATRIX = ({"g=": "#"}, True,
            ["g=1\n1 1\n0 1\n", "g=2\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n"])

INTS = st.one_of(st.sampled_from(["0", "1", "2"]), st.integers(-99, 99).map(str))
ROW = st.lists(INTS, max_size=5).map(" ".join)


def _fill(shape):
    if shape == "*":
        return ROW
    pieces = [INTS if ch == "#" else st.just(ch) for ch in shape]
    return st.tuples(*pieces).map("".join)


def texts(fmt):
    """Lines in the format's shapes, bare rows or token soup, alone or
    added to a valid text with its lines permuted."""
    shapes, rows, seeds = fmt
    shaped = [
        _fill(shape).map(lambda v, kw=kw: kw + ("" if kw.endswith("=") else " ") + v)
        for kw, shape in shapes.items()
    ]
    token = st.one_of(st.sampled_from(sorted(shapes)), INTS,
                      st.sampled_from([":", ",", "=", "-", " ", "\n"]))
    soup = st.lists(token, max_size=8).map("".join)
    line = st.one_of(*shaped, *([ROW] if rows else []), soup)
    seeded = st.sampled_from(seeds).map(str.splitlines).flatmap(st.permutations)
    extra = st.lists(line, max_size=2)
    return st.one_of(
        st.lists(line, max_size=8),
        st.tuples(seeded, extra).map(lambda t: t[0] + t[1]),
    ).map("\n".join)


def parse_or_reject(from_text, text):
    try:
        return from_text(text)
    except ValueError:
        return None


@pytest.mark.parametrize("cls, fmt", [
    (BlinkPresentation, BLINK),
    (ChordDiagram, DIAGRAM),
    (SymplecticLattice, LATTICE),
    (Sublattice, SUBLATTICE),
    (SpMatrix, SPMATRIX),
])
def test_from_text_rejects_or_round_trips(cls, fmt):
    @FUZZ
    @given(texts(fmt))
    def check(text):
        v = parse_or_reject(cls.from_text, text)
        if v is not None:
            assert cls.from_text(v.to_text()) == v
    check()


@FUZZ
@given(texts(LINK))
def test_link_from_text_rejects_or_round_trips(text):
    v = parse_or_reject(FramedLink.from_text, text)
    if v is not None:
        assert FramedLink.from_text(v.to_text()).lk == v.lk


@FUZZ
@given(texts(SEIFERT))
def test_seifert_from_text_rejects_or_round_trips(text):
    parsed = parse_or_reject(SeifertMatrix.from_text, text)
    if parsed is not None:
        matrix, frames = parsed
        assert SeifertMatrix.from_text(matrix.to_text(frames)) == (matrix, frames)


@pytest.mark.parametrize("argv, fmt", [
    (["blink", "det"], BLINK),
    (["cd", "degree"], DIAGRAM),
    (["seifert", "alexander"], SEIFERT),
])
def test_cli_exit_status_on_fuzzed_files(argv, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.txt")

        @settings(FUZZ, max_examples=25)
        @given(texts(fmt))
        def check(text):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                assert main(argv + [path]) in (0, 1, 2)
        check()
