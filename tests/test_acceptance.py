"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every stated tolerance is exact and every stated runtime bound is
asserted.
"""

import itertools
import random
import time
from fractions import Fraction

from fticalc import _intlinalg as la
from fticalc.chords import (
    ChordDiagram,
    boundary_degree,
    chords_intersect,
    pigeonhole_ok,
    tower_reduce,
)
from fticalc.exterior import MultiVector, wedge
from fticalc.groupring import (
    binomial_identity_check,
    iadic_degree,
    lcs_commutator,
    magnus,
)
from fticalc.johnson import (
    LbarElement,
    filtration_containment,
    level_generators,
    lmo_delta,
    triple_commutator_tau,
)
from fticalc.links import (
    BlinkPresentation,
    FramedLink,
    LaurentPoly,
    SeifertMatrix,
    alexander,
    blink_linking_matrix,
    bracket_expand,
    casson,
    fundamental_relation,
    phi,
    seifert_congruent,
)
from fticalc.symplectic import (
    SpMatrix,
    SymplecticLattice,
    compose,
    realize_symmetric,
    transvection,
)


def report(num, label, t0, budget=None):
    elapsed = time.monotonic() - t0
    if budget is not None:
        assert elapsed < budget, "criterion %d exceeded %ss (%.1fs)" % (
            num, budget, elapsed,
        )
    print("criterion %d PASS (%s, %.2fs)" % (num, label, elapsed))


def random_symmetric(rng, g, lo, hi):
    m = [[0] * g for _ in range(g)]
    for i in range(g):
        for j in range(i, g):
            m[i][j] = m[j][i] = rng.randint(lo, hi)
    return tuple(tuple(r) for r in m)


def test_criterion_1_blink_unimodularity():
    t0 = time.monotonic()
    rng = random.Random(2024)
    for _ in range(500):
        r = rng.randint(0, 5)
        internal = [rng.randint(-10, 10) for _ in range(r)]
        eps = [rng.choice((1, -1)) for _ in range(r)]
        cross = [[0] * r for _ in range(r)]
        for p in range(r):
            for q in range(p + 1, r):
                cross[p][q] = cross[q][p] = rng.randint(-10, 10)
        b = BlinkPresentation.from_pair_data(internal, eps, cross)
        assert abs(la.det(blink_linking_matrix(b))) == 1
    for l in range(-50, 51):
        for eps in (1, -1):
            m = blink_linking_matrix(BlinkPresentation.from_pair_data([l], [eps]))
            assert m == ((l + eps, l), (l, l - eps))
            assert la.det(m) == -1
    report(1, "blink unimodularity", t0, budget=5.0)


def test_criterion_2_triple_commutator_value():
    t0 = time.monotonic()
    lat = SymplecticLattice(3)
    c_identity = tuple(
        tuple(1 if i == j else 0 for j in range(3)) for i in range(3)
    )
    lam = LbarElement.from_symmetric(lat, c_identity)
    a = [lat.f(1), lat.f(2), lat.f(3)]
    got = triple_commutator_tau(lam, wedge(a))
    expected = Fraction(6) * wedge([lam.delta(v) for v in a])
    assert got == expected
    assert got == Fraction(6) * wedge((lat.e(1), lat.e(2), lat.e(3)))
    assert got.terms == (((0, 1, 2), Fraction(6)),)
    assert not got.is_zero()
    report(2, "triple-commutator value 6*e1^e2^e3", t0, budget=1.0)


def test_criterion_3_filtration_promotion():
    t0 = time.monotonic()
    rng = random.Random(31415)
    count = 0
    while count < 200:
        g = rng.choice((2, 3))
        lat = SymplecticLattice(g)
        l = lat.standard_lplus()
        n = rng.choice((2, 3, 4))
        gens = level_generators(n, l)
        x = MultiVector.zero(lat.dim, "tensor12")
        for gv in rng.sample(gens, min(4, len(gens))):
            x = x + Fraction(rng.randint(-2, 2)) * gv
        lam = LbarElement.from_symmetric(lat, random_symmetric(rng, g, -3, 3))
        assert filtration_containment(n, x, l)
        y = lmo_delta(lam, x)
        assert filtration_containment(n + 1, y, l)
        if n == 4:
            assert y.is_zero()
        count += 1
    report(3, "filtration promotion n -> n+1, level 5 = 0", t0, budget=30.0)


def _transvection_product_oracle(lat, data):
    """Independent multiplier: right-multiply by I + sign * v (v^T J), that
    is, add (M v) (sign * v^T J) to the columns of M, reading the nonzeros
    of J once and touching only the support of each v."""
    n = lat.dim
    j_rows = [[(c, x) for c, x in enumerate(row) if x] for row in lat.pairing_matrix()]
    cols = [[1 if i == k else 0 for i in range(n)] for k in range(n)]  # the columns of M
    for v, sign in data:
        support = [(r, x) for r, x in enumerate(v) if x]
        mv = [0] * n
        for r, x in support:
            mv = [a + x * b for a, b in zip(mv, cols[r])]
        for r, x in support:
            for c, y in j_rows[r]:
                s = sign * x * y
                cols[c] = [a + s * b for a, b in zip(cols[c], mv)]
    return tuple(zip(*cols))


def test_criterion_4_block_composition_and_realization():
    t0 = time.monotonic()
    rng = random.Random(27182)
    for _ in range(100):
        g = rng.randint(1, 4)
        lat = SymplecticLattice(g)
        a = random_symmetric(rng, g, -5, 5)
        b = random_symmetric(rng, g, -5, 5)
        ab = tuple(tuple(a[i][j] + b[i][j] for j in range(g)) for i in range(g))
        got = compose(
            SpMatrix.upper_unitriangular(lat, a),
            SpMatrix.upper_unitriangular(lat, b),
        )
        assert got == SpMatrix.upper_unitriangular(lat, ab)

    # every symmetric C with entries in [-3, 3], g <= 3
    for g in (1, 2, 3):
        lat = SymplecticLattice(g)
        npairs = g * (g - 1) // 2
        spot = 0
        for entries in itertools.product(range(-3, 4), repeat=g + npairs):
            c = [[0] * g for _ in range(g)]
            for i in range(g):
                c[i][i] = entries[i]
            k = g
            for i in range(g):
                for j in range(i + 1, g):
                    c[i][j] = c[j][i] = entries[k]
                    k += 1
            c = tuple(tuple(row) for row in c)
            data = realize_symmetric(lat, c)
            expected = SpMatrix.upper_unitriangular(lat, c).entries
            assert _transvection_product_oracle(lat, data) == expected
            spot += 1
            if spot % 997 == 0:
                # spot check through the library product as well
                prod = SpMatrix.identity(lat)
                for v, s in data:
                    prod = compose(prod, transvection(lat, v, s))
                assert prod.entries == expected
    report(4, "block composition law and exhaustive realization", t0)


def test_criterion_5_magnus_iadic():
    t0 = time.monotonic()
    for depth in (1, 2, 3):
        for letters in itertools.product(range(3), repeat=depth):
            w = lcs_commutator(depth, letters, ngens=6)
            deg = iadic_degree(magnus(w, depth + 2))
            assert deg is None or deg >= depth
    rng = random.Random(16180)
    for depth in (4, 5):
        for _ in range(10):
            letters = [rng.randrange(6) for _ in range(depth)]
            w = lcs_commutator(depth, letters, ngens=6)
            deg = iadic_degree(magnus(w, depth))
            assert deg is None or deg >= depth
    w = lcs_commutator(5, (0, 1, 2, 3, 4), ngens=6)
    deg = iadic_degree(magnus(w, 5))
    assert deg is None or deg >= 5

    from fticalc.groupring import GroupWord

    for _ in range(100):
        length = rng.randint(1, 5)
        word = GroupWord(
            4, [(rng.randrange(4), rng.choice((1, -1))) for _ in range(length)]
        )
        m = rng.randint(1, 5)
        n = rng.randint(2, 6)
        assert binomial_identity_check(word, m, n)
    report(5, "lower central series degree and binomial identity", t0, budget=60.0)


def test_criterion_6_fundamental_relation():
    t0 = time.monotonic()
    none = BlinkPresentation(0, (), ())
    for n in range(1, 5):
        for framings in itertools.product((1, -1), repeat=n):
            lk = [[0] * n for _ in range(n)]
            for i in range(n):
                lk[i][i] = framings[i]
            link = FramedLink(n, lk)
            for i in range(n):
                lhs, rhs = fundamental_relation("M", none, link, ("comp", i))
                assert lhs == rhs
                assert lhs == bracket_expand("M", link)
    # joint link-and-blink cases
    blink = BlinkPresentation.from_pair_data([3, -2], [1, -1], {(0, 1): 4})
    link = FramedLink(2, [[1, 0], [0, -1]])
    for piece in (("comp", 0), ("comp", 1), ("pair", 0), ("pair", 1)):
        lhs, rhs = fundamental_relation("M", blink, link, piece)
        assert lhs == rhs
    report(6, "surgery bracket recursion, exhaustive n <= 4", t0)


def _mis_oracle(d):
    n = d.chord_count
    masks = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if chords_intersect(d, i, j):
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    best = 0
    for sub in range(1 << n):
        size = bin(sub).count("1")
        if size <= best:
            continue
        ok = True
        rest = sub
        while rest:
            v = (rest & -rest).bit_length() - 1
            if masks[v] & sub:
                ok = False
                break
            rest &= rest - 1
        if ok:
            best = size
    return best


def test_criterion_7_four_term_calculus():
    t0 = time.monotonic()
    rng = random.Random(1729)
    for _ in range(1000):
        n = rng.randint(0, 12)
        toks = [i for i in range(n) for _ in range(2)]
        rng.shuffle(toks)
        d = ChordDiagram([tuple(toks)])
        assert boundary_degree(d) == _mis_oracle(d)

    for m in (1, 2):
        need = 2 * m ** 3
        for _ in range(25):
            toks = [i for i in range(need) for _ in range(2)]
            rng.shuffle(toks)
            d = ChordDiagram([tuple(toks)])
            s = tower_reduce(d, m)
            assert len(s) >= 1
            for term in s.terms:
                assert boundary_degree(term) >= m or term.marks >= m

    for m in range(1, 10001):
        assert pigeonhole_ok(m, 2)
    report(7, "boundary degree oracle, tower postcondition, pigeonhole", t0,
           budget=300.0)


def _second_derivative_oracle(poly):
    """Differentiate twice coefficient-wise, then evaluate at 1."""
    d1 = {k - 1: k * c for k, c in poly.coeffs.items() if k != 0}
    d2 = {k - 1: k * c for k, c in d1.items() if k != 0}
    return sum(d2.values())


def test_criterion_8_alexander_casson():
    t0 = time.monotonic()
    rng = random.Random(1414)

    def random_block(genus):
        n = 2 * genus
        j = [[0] * n for _ in range(n)]
        for h in range(genus):
            j[2 * h][2 * h + 1] = 1
            j[2 * h + 1][2 * h] = -1
        p = [[1 if i == k else 0 for k in range(n)] for i in range(n)]
        for _ in range(2 * n):
            i, k = rng.sample(range(n), 2)
            cc = rng.randint(-1, 1)
            for col in range(n):
                p[i][col] += cc * p[k][col]
        pj = la.mat_mul(
            la.mat_mul(la.transpose(tuple(map(tuple, p))), tuple(map(tuple, j))),
            tuple(map(tuple, p)),
        )
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

    for _ in range(100):
        block = random_block(rng.randint(1, 3))
        delta = alexander(block)
        assert delta == delta.reciprocal()
        assert delta(1) == 1

    trefoil = SeifertMatrix.knot([[-1, 1], [0, -1]])
    fig8 = SeifertMatrix.knot([[1, 1], [0, -1]])
    d3 = alexander(trefoil)
    d4 = alexander(fig8)
    assert d3 == LaurentPoly({1: 1, 0: -1, -1: 1})
    assert d4 == LaurentPoly({1: -1, 0: 3, -1: -1})
    assert phi(trefoil) == _second_derivative_oracle(d3) == 2
    assert phi(fig8) == _second_derivative_oracle(d4) == -2

    blocks = [trefoil, fig8, random_block(1)]
    f1 = [1, 1, -1]
    f2 = [-1, 1, 1]
    fsum = [a + b for a, b in zip(f1, f2)]
    assert casson(fsum, blocks) == casson(f1, blocks) + casson(f2, blocks)
    assert casson([2 * f for f in f1], blocks) == 2 * casson(f1, blocks)
    report(8, "Alexander symmetry/normalization, phi values, Casson linearity",
           t0, budget=5.0)


def test_criterion_9_congruence_invariance():
    t0 = time.monotonic()
    rng = random.Random(2718)
    ps = [
        ((1, 1), (0, 1)),
        ((1, 0), (1, 1)),
        ((0, 1), (-1, 0)),
        ((1, -1), (0, 1)),
        ((-1, 0), (0, -1)),
    ]
    for _ in range(50):
        sym = random_symmetric(rng, 2, -2, 2)
        a = [
            [sym[0][0], sym[0][1] + 1],
            [sym[0][1], sym[1][1]],
        ]
        block_a = SeifertMatrix.knot(a)
        p = ps[rng.randrange(len(ps))]
        b = la.mat_mul(la.mat_mul(la.transpose(p), block_a.entries), p)
        block_b = SeifertMatrix.knot(b)
        assert seifert_congruent(block_a, block_b, 2)
        assert alexander(block_a) == alexander(block_b)
    report(9, "congruence found and Alexander agreement", t0)
