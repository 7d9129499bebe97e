"""Command-line front end.

Prints deterministic key=value blocks. Exit codes: 0 success, 1 domain
error (a precondition of the requested operation fails, a reduction
gets stuck or expands more states than --bound allows, memory runs out,
or stdout is closed early), 2 parse error (unknown subcommand, malformed
file or expression).

    fticalc blink det FILE
    fticalc blink bracket FILE [--base M]
    fticalc link casson FILE
    fticalc seifert alexander FILE
    fticalc cd degree FILE
    fticalc cd reduce FILE --m M [--c C] [--bound STEPS]
    fticalc johnson triple --g G [--C "1 0 0;0 1 0;0 0 1"]
    fticalc magnus degree WORD --N N
    fticalc sp realize --C "0 1;1 0"

FILE may be '-' for stdin.
"""

import argparse
import itertools
import os
import sys

from . import chords, groupring, johnson, links, symplectic
from .exterior import wedge
from ._intlinalg import identity as _identity
from ._records import read


class CliParseError(ValueError):
    """Malformed input text; mapped to exit status 2."""


def _read(path):
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliParseError("cannot read %s: %s" % (path, exc))


def _parse_matrix(spec):
    _, _, rows = _parse_with(lambda s: read(s.split(";"), {}, rows=True), spec, "matrix")
    if not rows or any(len(r) != len(rows) for r in rows):
        raise CliParseError("matrix must be square: %r" % spec)
    return tuple(rows)


def _parse_with(parser_fn, text, what):
    try:
        return parser_fn(text)
    except ValueError as exc:
        raise CliParseError("bad %s: %s" % (what, exc))


def cmd_blink_det(args):
    b = _parse_with(links.BlinkPresentation.from_text, _read(args.file), "blink file")
    links.blink_linking_matrix(b)  # raises on inconsistent pair data
    # the linking matrix of every blink it accepts has det (-1)^r
    print("det=%d" % (-1) ** b.pairs)
    print("unimodular=true")
    return 0


def cmd_blink_bracket(args):
    b = _parse_with(links.BlinkPresentation.from_text, _read(args.file), "blink file")
    total = links.bracket_expand(args.base, b)
    print("terms=%d" % len(total))
    for desc, coeff in total.sorted_terms():
        print("term.%s=%s" % (links._render_descriptor(desc), coeff))
    return 0


def cmd_link_casson(args):
    parsed, frames = _parse_with(
        links.SeifertMatrix.from_text, _read(args.file), "seifert file"
    )
    if frames is None:
        raise CliParseError("casson needs a 'frames=' line")
    blocks = [
        links.SeifertMatrix.knot(parsed.block(i, i)) for i in range(len(parsed.sizes))
    ]
    value = links.casson(frames, blocks)
    print("casson=%s" % value)
    return 0


def cmd_seifert_alexander(args):
    parsed, _frames = _parse_with(
        links.SeifertMatrix.from_text, _read(args.file), "seifert file"
    )
    delta = links.alexander(parsed)
    print("alexander=%s" % delta.to_text())
    print("phi=%s" % links.phi(parsed))
    return 0


def cmd_cd_degree(args):
    d = _parse_with(chords.ChordDiagram.from_text, _read(args.file), "diagram file")
    print("boundary_degree=%d" % chords.boundary_degree(d))
    return 0


def cmd_cd_reduce(args):
    d = _parse_with(chords.ChordDiagram.from_text, _read(args.file), "diagram file")
    limits = chords.ReductionLimits(c=args.c, max_steps=args.bound)
    total = chords.multi_tower_reduce(d, args.m, limits=limits)
    print("terms=%d" % len(total))
    for i, (term, coeff) in enumerate(total.items()):
        print("term.%d.coeff=%s" % (i, coeff))
        print("term.%d.diagram=%s" % (i, term.to_text().strip().replace("\n", ";")))
        print("term.%d.boundary_degree=%d" % (i, chords.boundary_degree(term)))
        print("term.%d.marks=%d" % (i, term.marks))
    return 0


def cmd_johnson_triple(args):
    lat = symplectic.SymplecticLattice(args.g)
    if args.g < 3:
        raise ValueError("the triple value needs genus at least 3")
    c = _parse_matrix(args.C) if args.C else _identity(args.g)
    if len(c) != args.g:
        raise CliParseError("C must be g x g")
    lam = johnson.LbarElement.from_symmetric(lat, c)
    w = wedge((lat.f(1), lat.f(2), lat.f(3)))
    value = johnson.triple_commutator_tau(lam, w)
    print("tau3=%s" % value.to_text())
    return 0


def cmd_magnus_degree(args):
    word = _parse_with(groupring.parse_word, args.word, "word")
    series = groupring.magnus(word, args.N)
    deg = groupring.iadic_degree(series)
    print("degree=%s" % (">=%d" % (args.N + 1) if deg is None else deg))
    return 0


def cmd_sp_realize(args):
    c = _parse_matrix(args.C)
    g = len(c)
    lat = symplectic.SymplecticLattice(g)
    data = symplectic.realize_symmetric(lat, c)
    print("transvections=%d" % len(data))
    for i, (vec, sign) in enumerate(data):
        print("t.%d=%+d:%s" % (i, sign, " ".join(str(x) for x in vec)))
    # one k-th power per run of equal twists, k = +-(run length)
    product = symplectic.SpMatrix.identity(lat)
    for (vec, sign), run in itertools.groupby(data):
        k = sign * sum(1 for _ in run)
        product = symplectic.compose(product, symplectic.transvection(lat, vec, k))
    expected = symplectic.SpMatrix.upper_unitriangular(lat, c)
    print("verified=%s" % ("true" if product == expected else "false"))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fticalc",
        description="exact engine for blink, chord-diagram and symplectic calculations",
    )
    from . import __version__

    parser.add_argument("--version", action="version", version="fticalc " + __version__)
    sub = parser.add_subparsers(dest="group", required=True)

    blink = sub.add_parser("blink", help="blink presentations")
    blink_sub = blink.add_subparsers(dest="action", required=True)
    p = blink_sub.add_parser("det", help="determinant of the blink linking matrix")
    p.add_argument("file")
    p.set_defaults(func=cmd_blink_det)
    p = blink_sub.add_parser("bracket", help="surgery bracket expansion")
    p.add_argument("file")
    p.add_argument("--base", default="M", help="manifold label (default M)")
    p.set_defaults(func=cmd_blink_bracket)

    link = sub.add_parser("link", help="framed links")
    link_sub = link.add_subparsers(dest="action", required=True)
    p = link_sub.add_parser("casson", help="Casson invariant from Seifert blocks")
    p.add_argument("file")
    p.set_defaults(func=cmd_link_casson)

    seif = sub.add_parser("seifert", help="Seifert matrices")
    seif_sub = seif.add_subparsers(dest="action", required=True)
    p = seif_sub.add_parser("alexander", help="normalized Alexander polynomial")
    p.add_argument("file")
    p.set_defaults(func=cmd_seifert_alexander)

    cd = sub.add_parser("cd", help="chord diagrams")
    cd_sub = cd.add_subparsers(dest="action", required=True)
    p = cd_sub.add_parser("degree", help="boundary degree")
    p.add_argument("file")
    p.set_defaults(func=cmd_cd_degree)
    p = cd_sub.add_parser("reduce", help="tower reduction")
    p.add_argument("file")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--c", type=int, default=2)
    p.add_argument("--bound", type=int, default=200000,
                   help="most states multi-circle reduction may expand; paths "
                   "that meet in a state count once")
    p.set_defaults(func=cmd_cd_reduce)

    jo = sub.add_parser("johnson", help="difference-action calculus")
    jo_sub = jo.add_subparsers(dest="action", required=True)
    p = jo_sub.add_parser("triple", help="iterated difference action on f1^f2^f3")
    p.add_argument("--g", type=int, default=3)
    p.add_argument("--C", default=None, help="symmetric g x g block, rows ';'-separated")
    p.set_defaults(func=cmd_johnson_triple)

    mg = sub.add_parser("magnus", help="free-group expansions")
    mg_sub = mg.add_subparsers(dest="action", required=True)
    p = mg_sub.add_parser("degree", help="I-adic degree of a word")
    p.add_argument("word")
    p.add_argument("--N", type=int, default=5)
    p.set_defaults(func=cmd_magnus_degree)

    sp = sub.add_parser("sp", help="symplectic block calculus")
    sp_sub = sp.add_subparsers(dest="action", required=True)
    p = sp_sub.add_parser("realize", help="transvection factorization of [[I,C],[0,I]]")
    p.add_argument("--C", required=True, help="symmetric matrix, rows ';'-separated")
    p.set_defaults(func=cmd_sp_realize)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return status
    except BrokenPipeError:
        # later flushes of stdout would fail again: point it at devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except CliParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OverflowError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
