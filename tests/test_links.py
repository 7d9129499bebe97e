import functools
import itertools
import random
import sys
import time
from fractions import Fraction

import pytest

from fticalc import _intlinalg as la
from fticalc.chords import ChordDiagram, four_term, tower_reduce
from fticalc.exterior import act, tensor_wedge, wedge
from fticalc.groupring import GroupWord, magnus
from fticalc.johnson import LbarElement, lmo_delta, triple_commutator_tau
from fticalc.links import (
    BlinkPresentation,
    FormalSum,
    FramedLink,
    LaurentPoly,
    SeifertMatrix,
    alexander,
    blink_linking_matrix,
    boundary_to_blink,
    bracket_expand,
    casson,
    fundamental_relation,
    phi,
    seifert_congruent,
    seifert_framing_to_framing,
)
from fticalc.symplectic import SymplecticLattice

TREFOIL = SeifertMatrix.knot([[-1, 1], [0, -1]])
FIGURE8 = SeifertMatrix.knot([[1, 1], [0, -1]])
UNKNOT = SeifertMatrix.knot([])


def random_blink(rng, r, lo=-10, hi=10):
    internal = [rng.randint(lo, hi) for _ in range(r)]
    eps = [rng.choice((1, -1)) for _ in range(r)]
    cross = [[0] * r for _ in range(r)]
    for p in range(r):
        for q in range(p + 1, r):
            cross[p][q] = cross[q][p] = rng.randint(lo, hi)
    return BlinkPresentation.from_pair_data(internal, eps, cross)


def random_knot_block(rng, genus):
    """Seifert matrix with A - A^T unimodular: symmetric part random,
    skew part a unimodular skew form conjugated by a random unimodular P."""
    n = 2 * genus
    j = [[0] * n for _ in range(n)]
    for h in range(genus):
        j[2 * h][2 * h + 1] = 1
        j[2 * h + 1][2 * h] = -1
    p = [[1 if i == k else 0 for k in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, k = rng.sample(range(n), 2)
        c = rng.randint(-1, 1)
        for col in range(n):
            p[i][col] += c * p[k][col]
    pj = la.mat_mul(la.mat_mul(la.transpose(tuple(map(tuple, p)))
                               , tuple(map(tuple, j))), tuple(map(tuple, p)))
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for k in range(i, n):
            s = rng.randint(-2, 2)
            a[i][k] += s
            if k != i:
                a[k][i] += s
    for i in range(n):
        for k in range(i + 1, n):
            a[i][k] += pj[i][k]
    return SeifertMatrix.knot(a)


def test_blink_linking_matrix_block():
    b = BlinkPresentation.from_pair_data([3], [1])
    assert blink_linking_matrix(b) == ((4, 3), (3, 2))
    assert blink_linking_matrix(BlinkPresentation(0, (), ())) == ()


def test_blink_linking_matrix_bordered_display():
    # second pair borders the first with its cross column repeated
    b = BlinkPresentation.from_pair_data([2, -1], [1, -1], {(0, 1): 5})
    m = blink_linking_matrix(b)
    assert m == (
        (3, 2, 5, 5),
        (2, 1, 5, 5),
        (5, 5, -2, -1),
        (5, 5, -1, 0),
    )


def test_blink_inconsistent_pair_data():
    bad = BlinkPresentation(
        2,
        [
            [0, 0, 1, 0],
            [0, 0, 0, 0],
            [1, 0, 0, 0],
            [0, 0, 0, 0],
        ],
        [1, 1],
    )
    with pytest.raises(ValueError, match="components 0, 1 link 2 differently"):
        blink_linking_matrix(bad)
    # component 4 links both of pair 0 once and both of pair 3 twice, and
    # component 5 links neither: only pair 2 is inconsistent, first at 0
    rows = [list(row) for row in BlinkPresentation.from_pair_data([1, 2, 3, 4], [1] * 4).lk]
    for z, v in ((0, 1), (1, 1), (6, 2), (7, 2)):
        rows[4][z] = rows[z][4] = v
    with pytest.raises(ValueError, match="components 4, 5 link 0 differently"):
        blink_linking_matrix(BlinkPresentation(4, rows, [1] * 4))
    missing = BlinkPresentation.from_pair_data([0], [None])
    with pytest.raises(ValueError):
        blink_linking_matrix(missing)


def test_one_pair_determinant_symbolic():
    for l in range(-50, 51):
        for eps in (1, -1):
            m = blink_linking_matrix(BlinkPresentation.from_pair_data([l], [eps]))
            assert la.det(m) == -1


def unimodular(m):
    """|det m| = 1 by the exact det, which rejects a non-square m."""
    return abs(la.det(m)) == 1


def test_blink_unimodularity_random():
    rng = random.Random(71)
    for _ in range(150):
        b = random_blink(rng, rng.randint(0, 5))
        assert unimodular(blink_linking_matrix(b))


def test_blink_determinant_is_sign_of_pair_count():
    # row x - row y of pair p is eps(e_x + e_y), because the cross-pair
    # entries agree; column y - column x then leaves eps and -eps on the
    # pair's diagonal, so det = (-1)^r whatever the integers
    rng = random.Random(103)
    for _ in range(300):
        r = rng.randint(0, 7)
        assert la.det(blink_linking_matrix(random_blink(rng, r))) == (-1) ** r
    # up to the benchmark's 64 x 64; a pair with l = -eps has l + eps = 0 on
    # the diagonal, so det meets zero pivots mid-elimination
    for r in list(range(1, 9)) + list(range(26, 33)):
        b = random_blink(rng, r)
        internal = [b.lk[2 * p][2 * p + 1] for p in range(r)]
        for p in rng.sample(range(r), rng.randint(1, r)):
            internal[p] = -b.eps[p]
        cross = [[b.lk[2 * p][2 * q] for q in range(r)] for p in range(r)]
        forced = BlinkPresentation.from_pair_data(internal, b.eps, cross)
        assert la.det(blink_linking_matrix(forced)) == (-1) ** r


def test_is_unimodular_examples():
    assert unimodular(((4, 3), (3, 2)))
    assert unimodular(((1,),))
    assert not unimodular(((2, 0), (0, 1)))
    with pytest.raises(ValueError):
        unimodular(((1, 2),))


def test_bracket_expand_examples():
    empty = FramedLink(0, ())
    s = bracket_expand("M", empty)
    assert s.terms == {("M", frozenset()): Fraction(1)}

    l2 = FramedLink(2, [[1, 0], [0, -1]])
    s = bracket_expand("M", l2)
    assert len(s) == 4
    assert s.terms[("M", frozenset())] == 1
    assert s.terms[("M", frozenset([("comp", 0)]))] == -1
    assert s.terms[("M", frozenset([("comp", 1)]))] == -1
    assert s.terms[("M", frozenset([("comp", 0), ("comp", 1)]))] == 1

    b1 = BlinkPresentation.from_pair_data([0], [1])
    s = bracket_expand("M", b1)
    assert s.terms == {
        ("M", frozenset()): Fraction(1),
        ("M", frozenset([("pair", 0)])): Fraction(-1),
    }


def test_bracket_counts_and_zero_sum():
    rng = random.Random(73)
    for n in range(1, 5):
        lk = [[0] * n for _ in range(n)]
        for i in range(n):
            lk[i][i] = rng.choice((1, -1))
        s = bracket_expand("M", FramedLink(n, lk))
        assert len(s) == 2 ** n
        assert s.coefficient_sum() == 0
    for r in range(1, 5):
        s = bracket_expand("M", random_blink(rng, r))
        assert len(s) == 2 ** r
        assert s.coefficient_sum() == 0


def test_bracket_inadmissible():
    with pytest.raises(ValueError):
        bracket_expand("M", FramedLink(2, [[1, 1], [1, -1]]))
    with pytest.raises(ValueError):
        bracket_expand("M", FramedLink(1, [[2]]))
    with pytest.raises(ValueError):
        bracket_expand("M", BlinkPresentation.from_pair_data([0], [None]))


def test_fundamental_relation_simple():
    l1 = FramedLink(1, [[1]])
    none = BlinkPresentation(0, (), ())
    lhs, rhs = fundamental_relation("M", none, l1, ("comp", 0))
    assert lhs == rhs
    assert lhs.terms == {
        ("M", frozenset()): Fraction(1),
        ("M", frozenset([("comp", 0)])): Fraction(-1),
    }


def test_fundamental_relation_exhaustive():
    rng = random.Random(79)
    none = BlinkPresentation(0, (), ())
    for n in range(1, 5):
        lk = [[0] * n for _ in range(n)]
        for i in range(n):
            lk[i][i] = rng.choice((1, -1))
        link = FramedLink(n, lk)
        for i in range(n):
            lhs, rhs = fundamental_relation("M", none, link, ("comp", i))
            assert lhs == rhs
    for r in (1, 2):
        blink = random_blink(rng, r)
        link = FramedLink(2, [[1, 0], [0, -1]])
        for p in range(r):
            lhs, rhs = fundamental_relation("M", blink, link, ("pair", p))
            assert lhs == rhs
        for i in range(2):
            lhs, rhs = fundamental_relation("M", blink, link, ("comp", i))
            assert lhs == rhs


def test_fundamental_relation_absent_piece():
    l1 = FramedLink(1, [[1]])
    none = BlinkPresentation(0, (), ())
    with pytest.raises(ValueError):
        fundamental_relation("M", none, l1, ("comp", 3))
    with pytest.raises(ValueError):
        fundamental_relation("M", none, l1, ("pair", 0))


def expand_reference(base, items):
    """The alternating subset sum by itertools.combinations, collected."""
    label, surged = base
    acc = {}
    for size in range(len(items) + 1):
        for chosen in itertools.combinations(items, size):
            key = (label, surged | frozenset(chosen))
            acc[key] = acc.get(key, 0) + (-1) ** size
    return {k: c for k, c in acc.items() if c}


def split_link(rng, n):
    return FramedLink(n, [[rng.choice((1, -1)) if i == j else 0 for j in range(n)]
                          for i in range(n)])


def test_bracket_expand_matches_combinations_reference():
    rng = random.Random(127)
    bases = [("M", frozenset()), ("N", frozenset([("comp", 9), ("pair", 9)])),
             ("M", frozenset([("comp", 1), ("pair", 2)]))]
    for label, surged in bases:
        base = (label, sorted(surged))
        for n in range(6):
            items = [("comp", i) for i in range(n)]
            got = bracket_expand(base, split_link(rng, n)).terms
            assert got == expand_reference((label, surged), items)
            assert all(type(c) is int for c in got.values())
        for r in range(7):
            items = [("pair", p) for p in range(r)]
            got = bracket_expand(base, random_blink(rng, r)).terms
            assert got == expand_reference((label, surged), items)
            assert all(type(c) is int for c in got.values())


def test_fundamental_relation_matches_combinations_reference():
    rng = random.Random(131)
    for n in range(4):
        for r in range(4):
            link, blink = split_link(rng, n), random_blink(rng, r)
            items = [("comp", i) for i in range(n)] + [("pair", p) for p in range(r)]
            for l in items:
                rest = [x for x in items if x != l]
                lhs, rhs = fundamental_relation("M", blink, link, l)
                base = ("M", frozenset())
                want = expand_reference(base, rest)
                for k, c in expand_reference(("M", frozenset([l])), rest).items():
                    want[k] = want.get(k, 0) - c
                assert lhs.terms == expand_reference(base, items)
                assert rhs.terms == {k: c for k, c in want.items() if c} == lhs.terms


def test_bracket_of_a_base_already_surged_on_an_item_is_zero():
    rng = random.Random(137)
    for n in range(1, 5):
        for i in range(n):
            s = bracket_expand(("M", [("comp", i)]), split_link(rng, n))
            assert s == FormalSum() and len(s) == 0 and repr(s) == "FormalSum(0)"
    for r in range(1, 5):
        for p in range(r):
            s = bracket_expand(("M", [("pair", p), ("comp", 0)]), random_blink(rng, r))
            assert s == FormalSum() and repr(s) == "FormalSum(0)"
    lhs, rhs = fundamental_relation(("M", [("pair", 0)]), random_blink(rng, 2),
                                    split_link(rng, 1), ("comp", 0))
    assert lhs == rhs == FormalSum()


def test_from_pair_data_matches_entrywise_rule():
    rng = random.Random(139)
    for r in range(6):
        internal = [rng.randint(-5, 5) for _ in range(r)]
        eps = [rng.choice((1, -1)) for _ in range(r)]
        cross = [[rng.randint(-5, 5) if p != q else None for q in range(r)] for p in range(r)]
        for p in range(r):
            for q in range(p):
                cross[p][q] = cross[q][p]
        sparse = {(p, q): cross[p][q] for p in range(r) for q in range(p + 1, r)
                  if rng.random() < 0.6}
        dense = {(p, q): sparse.get((p, q), sparse.get((q, p), 0))
                 for p in range(r) for q in range(r) if p != q}
        for given, table in ((None, {}), (cross, {(p, q): cross[p][q] for p in range(r)
                                                   for q in range(r) if p != q}),
                             (sparse, dense)):
            b = BlinkPresentation.from_pair_data(internal, eps, given)
            for i in range(2 * r):
                for j in range(2 * r):
                    p, q = i // 2, j // 2
                    if p != q:
                        want = table.get((p, q), 0)
                    else:
                        want = internal[p] if i != j else 0
                    assert b.lk[i][j] == want
            assert b.eps == tuple(eps)


def test_seifert_framing_conversion():
    assert seifert_framing_to_framing(1, -1, 0) == (1, -1)
    assert seifert_framing_to_framing(1, -1, 3) == (4, 2)
    assert seifert_framing_to_framing(0, 0, 7) == (7, 7)


def test_boundary_to_blink():
    single = FramedLink(1, [[1]], boundary=True)
    b = boundary_to_blink(single)
    m = blink_linking_matrix(b)
    assert m == ((1, 0), (0, -1))
    assert la.det(m) == -1

    empty = FramedLink(0, (), boundary=True)
    assert boundary_to_blink(empty).pairs == 0

    two = FramedLink(2, [[1, 0], [0, -1]], boundary=True)
    b = boundary_to_blink(two)
    assert abs(la.det(blink_linking_matrix(b))) == abs(la.det(two.lk))

    with pytest.raises(ValueError):
        boundary_to_blink(FramedLink(1, [[2]], boundary=True))
    with pytest.raises(ValueError):
        boundary_to_blink(FramedLink(1, [[1]]))


def poly_from_pairs(pairs):
    return LaurentPoly(dict(pairs))


def test_alexander_examples():
    assert alexander(UNKNOT) == poly_from_pairs([(0, 1)])
    # oracle: 2x2 determinant expansion of t^(1/2)A - t^(-1/2)A^T:
    # det = (t a00 - a00)(t a11 - a11) - (t a01 - a10)(t a10 - a01), then / t
    a = TREFOIL.entries
    raw = (
        poly_from_pairs([(1, a[0][0]), (0, -a[0][0])])
        * poly_from_pairs([(1, a[1][1]), (0, -a[1][1])])
        - poly_from_pairs([(1, a[0][1]), (0, -a[1][0])])
        * poly_from_pairs([(1, a[1][0]), (0, -a[0][1])])
    ).shift(-1)
    assert alexander(TREFOIL) == raw
    assert alexander(TREFOIL) == poly_from_pairs([(1, 1), (0, -1), (-1, 1)])
    assert alexander(FIGURE8) == poly_from_pairs([(1, -1), (0, 3), (-1, -1)])


def test_alexander_torus_knot_value():
    # genus-2 band matrix of the (2,5) torus knot; its polynomial is the
    # textbook t^2 - t + 1 - t^-1 + t^-2
    t25 = SeifertMatrix.knot(
        [[-1, 1, 0, 0], [0, -1, 1, 0], [0, 0, -1, 1], [0, 0, 0, -1]]
    )
    assert alexander(t25) == poly_from_pairs(
        [(2, 1), (1, -1), (0, 1), (-1, -1), (-2, 1)]
    )
    assert phi(t25) == 6


def test_alexander_symmetry_and_normalization():
    rng = random.Random(83)
    for _ in range(60):
        block = random_knot_block(rng, rng.randint(1, 3))
        d = alexander(block)
        assert d == d.reciprocal()
        assert d(1) == 1


def test_alexander_degenerate():
    with pytest.raises(ValueError):
        alexander(SeifertMatrix.knot([[1, 0], [0, 1]]))
    with pytest.raises(ValueError):
        alexander(SeifertMatrix((2, 2), [[0] * 4] * 4))


def test_alexander_matches_sympy_determinant():
    # independent oracle: det(t A - A^T) over Z[t] by sympy, up to genus 6
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    t = sympy.Symbol("t")
    ring = sympy.ZZ[t]
    rng = random.Random(89)
    for g in range(1, 7):
        for _ in range(2):
            a = random_knot_block(rng, g).entries
            n = 2 * g
            m = DomainMatrix(
                [[ring.from_sympy(t * a[i][j] - a[j][i]) for j in range(n)] for i in range(n)],
                (n, n),
                ring,
            )
            coeffs = sympy.Poly(ring.to_sympy(m.det()), t).all_coeffs()[::-1]
            sign = 1 if sum(coeffs) == 1 else -1
            expected = {k - g: sign * int(c) for k, c in enumerate(coeffs) if c}
            assert alexander(SeifertMatrix.knot(a)).coeffs == expected


def test_phi_examples():
    assert phi(UNKNOT) == 0
    assert phi(TREFOIL) == 2
    assert phi(FIGURE8) == -2
    assert all(type(phi(b)) is int for b in (UNKNOT, TREFOIL, FIGURE8))


def test_casson_examples():
    assert casson([], []) == 0
    assert casson([1], [TREFOIL]) == 2
    assert casson([1, 1], [TREFOIL, FIGURE8]) == 0
    assert type(casson([], [])) is int and type(casson([1, -1], [TREFOIL, FIGURE8])) is int
    with pytest.raises(ValueError):
        casson([1], [])


def test_casson_linear_in_framings():
    rng = random.Random(89)
    blocks = [TREFOIL, FIGURE8, random_knot_block(rng, 1)]
    f1 = [1, -1, 1]
    f2 = [-1, -1, 1]
    fsum = [a + b for a, b in zip(f1, f2)]
    assert casson(fsum, blocks) == casson(f1, blocks) + casson(f2, blocks)
    assert casson([-f for f in f1], blocks) == -casson(f1, blocks)


def test_seifert_congruent_examples():
    assert seifert_congruent(UNKNOT, UNKNOT, 1)
    assert seifert_congruent(TREFOIL, TREFOIL, 1)
    p = ((1, 1), (0, 1))
    b = la.mat_mul(la.mat_mul(la.transpose(p), TREFOIL.entries), p)
    assert seifert_congruent(TREFOIL, SeifertMatrix.knot(b), 2)
    assert not seifert_congruent(TREFOIL, FIGURE8, 2)
    # P = diag(+-1, +-1) leaves the lower cross-block entry (1, 0) at 0, never 5
    a = SeifertMatrix((1, 1), ((1, 0), (0, 1)))
    b = SeifertMatrix((1, 1), ((1, 0), (5, 1)))
    assert not seifert_congruent(a, b, 1)
    assert not seifert_congruent(b, a, 2)
    with pytest.raises(ValueError):
        seifert_congruent(TREFOIL, UNKNOT, 1)


def test_seifert_congruent_deeper_than_recursion_limit():
    # one search level per column of P: more columns than Python frames
    n = sys.getrecursionlimit() + 10
    eye = SeifertMatrix((1,) * n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))
    assert seifert_congruent(eye, eye, 1)


def test_congruence_implies_equal_alexander():
    rng = random.Random(97)
    for _ in range(20):
        a = random_knot_block(rng, 1)
        p = random.Random(rng.random()).choice(
            [((1, 1), (0, 1)), ((1, 0), (1, 1)), ((0, 1), (-1, 0)), ((1, -1), (0, 1))]
        )
        b = SeifertMatrix.knot(la.mat_mul(la.mat_mul(la.transpose(p), a.entries), p))
        assert seifert_congruent(a, b, 2)
        assert alexander(a) == alexander(b)


def test_formal_sum_arithmetic():
    s = FormalSum({("M", frozenset()): Fraction(1)})
    t = FormalSum({("M", frozenset()): Fraction(-1)})
    assert len(s + t) == 0
    assert (Fraction(2) * s).terms[("M", frozenset())] == 2


def test_from_text_rejects_out_of_range_indices():
    for text in (
        "components=2\nlk 0 5 1\n",
        "components=2\nlk -1 1 1\n",
        "components=2\nframe 4 1\n",
        "components=2\nframe -1 1\n",
        "components=1\nlk 0 0 5\nframe 0 1\n",  # a framing on an lk line
        "components=2\nframe 0 1\nframe 0 -1\n",  # conflicting framings
        "components=2\ncomponents=2\n",  # repeated header
        "components=2\nframes 0 1\n",  # keywords match exactly
    ):
        with pytest.raises(ValueError):
            FramedLink.from_text(text)
    for text in (
        "pairs=1\neps 7 1\n",
        "pairs=1\neps -1 1\n",
        "pairs=1\neps 0 1\neps 0 -1\n",
        "pairs=1\npairs=1\n",
        "pairs=1\nlkx 0 1 2\n",
        "pairs=1\nepsilon 0 1\n",
        "pairs=1\nlk 0 1\n",
    ):
        with pytest.raises(ValueError):
            BlinkPresentation.from_text(text)
    for text in (
        "sizes=2\nsizes=2\n-1 1\n0 -1\n",
        "sizes=2\nframes=1\nframes=1\n-1 1\n0 -1\n",
        "sizes=2\nframes=1 1 1\n-1 1\n0 -1\n",  # one frame per block
        "sizes=2\n-1 1\n0 x\n",
    ):
        with pytest.raises(ValueError):
            SeifertMatrix.from_text(text)


def test_lk_records_checked_alike_in_both_formats():
    for parse, head in ((BlinkPresentation.from_text, "pairs=2\n"),
                        (FramedLink.from_text, "components=4\n")):
        parse(head + "lk 0 3 2\nlk 3 0 2\n")  # a repeat that agrees is fine
        for body, match in (
            ("lk 1 1 2\n", "does not link itself"),
            ("lk 9 9 2\n", "does not link itself"),
            ("lk 0 1 2\nlk 1 0 3\n", "conflicting lk"),
            ("lk 0 4 2\n", "out of range"),
            ("lk -1 2 2\n", "out of range"),
        ):
            with pytest.raises(ValueError, match=match):
                parse(head + body)
    lk = [[0] * 4 for _ in range(4)]
    lk[2][3] = 1  # one asymmetric entry, off the first row and column
    for build in (lambda: BlinkPresentation(2, lk, [1, 1]), lambda: FramedLink(4, lk)):
        with pytest.raises(ValueError, match="symmetric"):
            build()


@pytest.mark.parametrize("parse, text, message", (
    (BlinkPresentation.from_text, "pairs=-1\neps 0 1\n", "pairs=-1: negative pair count"),
    (FramedLink.from_text, "components=-2\nframe 0 1\n", "components=-2: negative component count"),
))
def test_negative_count_header_is_named(parse, text, message):
    with pytest.raises(ValueError) as exc:
        parse(text)
    assert str(exc.value) == message


def test_file_round_trips():
    rng = random.Random(101)
    b = random_blink(rng, 3)
    assert BlinkPresentation.from_text(b.to_text()) == b
    # whitespace and order insensitivity
    scrambled = "\n".join(reversed(b.to_text().strip().splitlines()[1:]))
    text = "pairs=3\n  " + scrambled.replace(" ", "   ")
    assert BlinkPresentation.from_text(text) == b

    l = FramedLink(3, [[1, 0, 2], [0, -1, 0], [2, 0, 1]])
    assert FramedLink.from_text(l.to_text()).lk == l.lk

    rng = random.Random(59)  # blinks and links, lines shuffled
    for r in range(5):
        b = random_blink(rng, r)
        b = BlinkPresentation(b.pairs, b.lk, [rng.choice((1, -1, None)) for _ in b.eps])
        n = 2 * r + 1
        lk = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                lk[i][j] = lk[j][i] = rng.choice((0, 0, rng.randint(-5, 5)))
        link = FramedLink(n, lk)
        for x in (b, link):
            lines = x.to_text().splitlines()
            rng.shuffle(lines)
            y = type(x).from_text("\n".join(lines))
            assert (y.lk, getattr(y, "eps", None)) == (x.lk, getattr(x, "eps", None))
            assert y.to_text() == x.to_text()

    sm, frames = SeifertMatrix.from_text(TREFOIL.to_text(frames=(1,)))
    assert sm == TREFOIL and frames == (1,)
    sm2, frames2 = SeifertMatrix.from_text(TREFOIL.to_text())
    assert sm2 == TREFOIL and frames2 is None


def test_entry_points_keep_int_coefficients():
    # integer inputs give int coefficients, and a Fraction appears only
    # where a division makes one: no entry point ever stores a float
    rng = random.Random(107)
    lat = SymplecticLattice(3)
    n = lat.dim

    def vec():
        return tuple(rng.randint(-3, 3) for _ in range(n))

    def coefficients(*values):
        for v in values:
            terms = v.terms
            yield from (terms.values() if isinstance(terms, dict) else (c for _, c in terms))

    exact_ints = []
    for _ in range(4):
        seq = [i for i in range(16) for _ in range(2)]
        rng.shuffle(seq)
        d = ChordDiagram([seq])
        slot = rng.choice([p for p in range(32) if seq[p] != seq[(p + 1) % 32]])
        exact_ints += [
            bracket_expand("M", random_blink(rng, rng.randint(1, 5))),
            four_term(d, d.circles[0][(slot + 1) % 32], (0, slot), 1),
            tower_reduce(d, 2),
        ]
    assert all(type(c) is int for c in coefficients(*exact_ints))

    others = []
    for _ in range(4):
        c = tuple(tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(3))
        lam = LbarElement.from_symmetric(lat, tuple(
            tuple(c[min(i, j)][max(i, j)] for j in range(3)) for i in range(3)))
        x = tensor_wedge(vec(), wedge((vec(), vec())))
        w = wedge((vec(), vec(), vec()))
        word = GroupWord(4, [(rng.randrange(4), rng.choice((1, -1))) for _ in range(8)])
        others += [act(lam.matrix, x), lmo_delta(lam, x), triple_commutator_tau(lam, w),
                   magnus(word, 4), alexander(random_knot_block(rng, rng.randint(1, 2))),
                   act(lam.matrix, Fraction(1, 2) * x), lmo_delta(lam, Fraction(1, 3) * x)]
    assert not any(isinstance(c, float) for c in coefficients(*others))
    assert any(isinstance(c, Fraction) for c in coefficients(*others))


@functools.lru_cache(maxsize=None)
def unimodular_blocks(size, bound):
    """Every size x size matrix with entries in [-bound, bound] and det +-1."""
    def det(m):
        if not m:
            return 1
        return sum((-1) ** j * m[0][j] * det([row[:j] + row[j + 1:] for row in m[1:]])
                   for j in range(len(m)))

    values = range(-bound, bound + 1)
    return [m for m in itertools.product(itertools.product(values, repeat=size), repeat=size)
            if abs(det(m)) == 1]


def exhaustive_congruent(a, b, bound):
    """Every block-diagonal P with entries in [-bound, bound] and unimodular
    blocks, tried against the whole of P^T A P = B."""
    n = sum(a.sizes)
    for blocks in itertools.product(*(unimodular_blocks(s, bound) for s in a.sizes)):
        p = [[0] * n for _ in range(n)]
        start = 0
        for blk in blocks:
            for i, row in enumerate(blk):
                p[start + i][start:start + len(row)] = row
            start += len(blk)
        ap = [[sum(a.entries[i][k] * p[k][j] for k in range(n)) for j in range(n)]
              for i in range(n)]
        if all(sum(p[k][i] * ap[k][j] for k in range(n)) == b.entries[i][j]
               for i in range(n) for j in range(n)):
            return True
    return False


def random_block_unimodular(rng, sizes, bound):
    n = sum(sizes)
    p = [[0] * n for _ in range(n)]
    start = 0
    for s in sizes:
        while True:
            blk = [[rng.randint(-bound, bound) for _ in range(s)] for _ in range(s)]
            if abs(la.det(blk)) == 1:
                break
        for i in range(s):
            p[start + i][start:start + s] = blk[i]
        start += s
    return p


def test_seifert_congruent_matches_exhaustive_oracle():
    rng = random.Random(109)
    cases = [(sizes, 1) for sizes in ((1,), (2,), (3,), (1, 1), (2, 1), (1, 2), (1, 1, 1), (0, 2))]
    cases += [(sizes, 2) for sizes in ((1,), (2,), (1, 1))]
    seen = set()
    for sizes, bound in cases:
        n = sum(sizes)
        for t in range(12):
            a = SeifertMatrix(sizes, [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
            if t % 3 == 0:
                b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            else:
                p = random_block_unimodular(rng, sizes, bound)
                b = [list(row) for row in la.mat_mul(la.mat_mul(la.transpose(p), a.entries), p)]
                if t % 3 == 2:  # a congruent copy with one entry moved
                    b[rng.randrange(n)][rng.randrange(n)] += rng.choice((1, -1))
            b = SeifertMatrix(sizes, b)
            want = exhaustive_congruent(a, b, bound)
            assert seifert_congruent(a, b, bound) == want, (sizes, bound, a.entries, b.entries)
            seen.add(want)
    assert seen == {True, False}


def test_seifert_congruent_genus_two_within_budget():
    rng = random.Random(113)
    a = random_knot_block(rng, 2)
    other = random_knot_block(rng, 2)
    while alexander(other) == alexander(a):
        other = random_knot_block(rng, 2)
    p = ((1, 1, 0, -1), (0, 1, 0, 0), (0, -1, 1, 0), (1, 0, 1, 0))
    assert abs(la.det(p)) == 1
    copy = SeifertMatrix.knot(la.mat_mul(la.mat_mul(la.transpose(p), a.entries), p))
    for bound in (1, 2):
        for b, want in ((copy, True), (other, False)):
            t0 = time.monotonic()
            assert seifert_congruent(a, b, bound) is want
            assert time.monotonic() - t0 < 2.0
