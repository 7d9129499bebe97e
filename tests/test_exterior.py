import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from fticalc import _intlinalg as la
from fticalc import exterior
from fticalc.exterior import (
    MultiVector,
    act,
    adapted_matrix,
    embed_wedge3,
    in_span,
    kernel_wedge2_generators,
    quotient_matrix,
    quotient_mod_L,
    tensor_wedge,
    wedge,
)
from fticalc.johnson import LbarElement, lmo1_delta, lmo_delta
from fticalc.symplectic import (
    SpMatrix,
    Sublattice,
    SymplecticLattice,
    compose,
    transvection,
)


def vec_add(u, v):
    return tuple(x + y for x, y in zip(u, v))


def rand_vec(rng, n, lo=-3, hi=3):
    return tuple(rng.randint(lo, hi) for _ in range(n))


def test_wedge_examples():
    lat = SymplecticLattice(3)
    assert wedge((lat.e(1), lat.e(1))).is_zero()
    assert wedge((lat.e(2), lat.e(1))) == (-1) * wedge((lat.e(1), lat.e(2)))
    w = wedge((lat.e(1), lat.e(2), lat.e(3)))
    assert w.terms == (((0, 1, 2), Fraction(1)),)
    with pytest.raises(ValueError):
        wedge((lat.e(1),))


def test_wedge_alternating_random():
    rng = random.Random(23)
    for _ in range(30):
        u, v, w = (rand_vec(rng, 6) for _ in range(3))
        assert wedge((u, v)) == (-1) * wedge((v, u))
        assert wedge((u, u, w)).is_zero()
        # trilinear in the first slot
        lhs = wedge((vec_add(u, v), v, w))
        assert lhs == wedge((u, v, w)) + wedge((v, v, w))


def test_embed_wedge3_examples():
    lat = SymplecticLattice(3)
    e = [None] + [lat.e(i) for i in (1, 2, 3)]
    w = wedge((e[1], e[2], e[3]))
    emb = embed_wedge3(w)
    expected = (
        tensor_wedge(e[1], wedge((e[2], e[3])))
        + tensor_wedge(e[2], wedge((e[3], e[1])))
        + tensor_wedge(e[3], wedge((e[1], e[2])))
    )
    assert emb == expected
    assert embed_wedge3(MultiVector.zero(6, "wedge3")).is_zero()


def test_embed_wedge3_linearity():
    lat = SymplecticLattice(3)
    a = wedge((lat.e(1), lat.e(2), lat.e(3)))
    b = wedge((lat.e(1), lat.e(2), lat.f(3)))
    combo = Fraction(2) * a - b
    assert embed_wedge3(combo) == Fraction(2) * embed_wedge3(a) - embed_wedge3(b)


def test_embed_wedge3_injective_on_basis():
    # images of all basis wedges stay linearly independent (rank check)
    for g in (2, 3, 4):
        n = 2 * g
        gens = tuple(
            embed_wedge3(MultiVector(n, "wedge3", {key: 1}))
            for key in combinations(range(n), 3)
        )
        keys = sorted({k for v in gens for k, _ in v.terms})
        rows = [[int(dict(v.terms).get(k, 0)) for k in keys] for v in gens]
        assert la.rank(rows, len(keys)) == len(gens)


def test_act_examples():
    lat = SymplecticLattice(3)
    ident = tuple(
        tuple(1 if i == j else 0 for j in range(6)) for i in range(6)
    )
    x = tensor_wedge(lat.f(1), wedge((lat.e(2), lat.f(3))))
    assert act(ident, x) == x
    t = transvection(lat, lat.e(1), 1)
    y = wedge((lat.f(1), lat.e(2)))
    assert act(t, y) == wedge((vec_add(lat.f(1), lat.e(1)), lat.e(2)))


def test_act_functorial():
    rng = random.Random(29)
    lat = SymplecticLattice(2)
    for _ in range(20):
        va = rand_vec(rng, 4, -2, 2)
        vb = rand_vec(rng, 4, -2, 2)
        if all(x == 0 for x in va) or all(x == 0 for x in vb):
            continue
        a = transvection(lat, va, 1)
        b = transvection(lat, vb, -1)
        ab = tuple(
            tuple(sum(a.entries[i][k] * b.entries[k][j] for k in range(4)) for j in range(4))
            for i in range(4)
        )
        for grade, keys in (("wedge2", 2), ("wedge3", 3)):
            key = tuple(sorted(rng.sample(range(4), keys)))
            x = MultiVector(4, grade, {key: rng.randint(-2, 2)})
            assert act(ab, x) == act(a, act(b, x))


def test_quotient_examples():
    lat = SymplecticLattice(2)
    l = lat.standard_lplus()
    assert quotient_mod_L(wedge((lat.e(1), lat.f(1))), l).is_zero()
    q = quotient_mod_L(wedge((lat.f(1), lat.f(2))), l)
    assert q == MultiVector(2, "wedge2", {(0, 1): 1})
    x = wedge((lat.e(1), lat.e(2))) + wedge((lat.f(1), lat.f(2)))
    assert quotient_mod_L(x, l) == MultiVector(2, "wedge2", {(0, 1): 1})
    with pytest.raises(ValueError):
        quotient_mod_L(x, Sublattice(lat, (lat.e(1), lat.f(1))))


def test_quotient_commutes_with_l_preserving_action():
    # quotient(act(M, x)) == act(induced M, quotient(x)) for M fixing L
    rng = random.Random(31)
    lat = SymplecticLattice(2)
    l = lat.standard_lplus()
    q = quotient_matrix(l)
    for _ in range(20):
        v = tuple(rng.randint(-2, 2) for _ in range(2)) + (0, 0)
        if all(x == 0 for x in v):
            continue
        m = transvection(lat, v, rng.choice((1, -1)))
        # induced map on H/L: q . M = Mbar . q
        import fticalc._intlinalg as la

        qm = la.mat_mul(q, m.entries)
        # solve Mbar from Mbar . q = q . M on the f-columns
        mbar = tuple(tuple(qm[i][2 + j] for j in range(2)) for i in range(2))
        for _ in range(5):
            key = tuple(sorted(rng.sample(range(4), 2)))
            x = MultiVector(4, "wedge2", {key: rng.randint(-2, 2)})
            assert quotient_mod_L(act(m, x), l) == act(mbar, quotient_mod_L(x, l))

    # a map preserving L setwise but not pointwise: swap e1, e2 and f1, f2
    swap = (
        (0, 1, 0, 0),
        (1, 0, 0, 0),
        (0, 0, 0, 1),
        (0, 0, 1, 0),
    )
    import fticalc._intlinalg as la

    q = quotient_matrix(l)
    qm = la.mat_mul(q, swap)
    mbar = tuple(tuple(qm[i][2 + j] for j in range(2)) for i in range(2))
    for key in (((0, 2)), (1, 3), (2, 3), (0, 1)):
        x = MultiVector(4, "wedge2", {tuple(key): 1})
        assert quotient_mod_L(act(swap, x), l) == act(mbar, quotient_mod_L(x, l))


def test_in_span_examples():
    lat = SymplecticLattice(3)
    l = lat.standard_lplus()
    e = [None] + [lat.e(i) for i in (1, 2, 3)]
    f = [None] + [lat.f(i) for i in (1, 2, 3)]
    std = e[1:] + f[1:]
    lw = tuple(
        tensor_wedge(v, wedge((a, b)))
        for v in l.basis
        for i, a in enumerate(std)
        for b in std[i + 1:]
    )
    x = tensor_wedge(e[1], wedge((e[2], e[3])))
    assert in_span(x, (x,))
    assert in_span(x, lw)
    k = kernel_wedge2_generators(l)
    hk = tuple(tensor_wedge(b, kk) for b in std for kk in k)
    bad = tensor_wedge(f[1], wedge((f[2], f[3])))
    assert not in_span(bad, lw + hk)
    with pytest.raises(ValueError):
        in_span(wedge((e[1], e[2])), (x,))


def test_in_span_respects_action():
    rng = random.Random(37)
    lat = SymplecticLattice(2)
    gens = tuple(
        wedge((rand_vec(rng, 4, -2, 2), rand_vec(rng, 4, -2, 2))) for _ in range(3)
    )
    gens = tuple(g for g in gens if not g.is_zero())
    x = gens[0] + Fraction(2) * gens[-1]
    t = transvection(lat, lat.e(1), 1)
    assert in_span(x, gens)
    assert in_span(act(t, x), tuple(act(t, g) for g in gens))


def test_kernel_generators_standard_form():
    lat = SymplecticLattice(2)
    k = kernel_wedge2_generators(lat.standard_lplus())
    l = lat.standard_lplus()
    # every generator has a slot in L; quotient kills all of them
    for gvec in k:
        assert quotient_mod_L(gvec, l).is_zero()


def test_text_round_trip():
    lat = SymplecticLattice(2)
    x = Fraction(-3, 2) * wedge((lat.e(1), lat.f(2))) + wedge((lat.e(2), lat.f(1)))
    assert MultiVector.from_text(x.to_text(), 4) == x
    y = tensor_wedge(lat.e(1), wedge((lat.e(2), lat.f(2))))
    assert MultiVector.from_text(y.to_text(), 4) == y
    w = wedge((lat.e(1), lat.e(2), lat.f(1)))
    assert MultiVector.from_text(w.to_text(), 4) == w
    z = MultiVector.zero(4, "wedge2")
    assert z.to_text() == "0"
    assert MultiVector.from_text(z.to_text(), 4, "wedge2") == z
    with pytest.raises(ValueError):
        MultiVector.from_text("0", 4)
    # integral coefficient text gives an int, as the arithmetic does
    v = MultiVector.from_text("3*1^2 + 1/2*2^3 + 4/2*1^4", 4)
    assert v.terms == (((0, 1), 3), ((0, 3), 2), ((1, 2), Fraction(1, 2)))
    assert [type(c) for _, c in v.terms] == [int, int, Fraction]
    assert MultiVector.from_text(v.to_text(), 4) == v
    assert v.to_text() == "3*1^2 + 2*1^4 + 1/2*2^3"


def test_quotient_higher_grades():
    lat = SymplecticLattice(2)
    l = lat.standard_lplus()
    w = wedge((lat.f(1), lat.f(2), lat.e(1)))
    assert quotient_mod_L(w, l).is_zero()
    x = tensor_wedge(lat.f(1), wedge((lat.f(2), lat.e(2))))
    q = quotient_mod_L(x, l)
    assert q.is_zero()
    y = tensor_wedge(lat.f(1), wedge((lat.f(2), lat.f(1))))
    assert quotient_mod_L(y, l) == tensor_wedge((1, 0), wedge(((0, 1), (1, 0))))


def perm_sign(p):
    inversions = sum(1 for a, b in combinations(p, 2) if a > b)
    return -1 if inversions % 2 else 1


def dense_act(m, x):
    """act by its defining formula over every index tuple of the target.

    Entry m[p][i] is coordinate p of the image of basis vector i. A term
    c*a@(i^j) maps to c*m[s][a]*(m[p][i]m[q][j] - m[p][j]m[q][i]) at s@(p^q)
    for every s and p < q; a wedge term maps to c times the minor of m on
    its rows and columns.
    """
    r = len(m)
    out = {}
    for key, c in x.terms:
        if x.grade == "tensor12":
            a, i, j = key
            for s in range(r):
                for p, q in combinations(range(r), 2):
                    v = c * m[s][a] * (m[p][i] * m[q][j] - m[p][j] * m[q][i])
                    out[(s, p, q)] = out.get((s, p, q), 0) + v
        else:
            for rows in combinations(range(r), len(key)):
                v = 0
                for perm in permutations(range(len(key))):
                    prod = perm_sign(perm)
                    for row, col in zip(rows, perm):
                        prod *= m[row][key[col]]
                    v += prod
                out[rows] = out.get(rows, 0) + c * v
    return MultiVector(r, x.grade, out)


def rand_element(rng, n, grade, nterms=4, support=range):
    """Random terms with Fraction coefficients whose indices are drawn from
    support(n): all of range(n) by default."""
    pool = support(n)
    size = 2 if grade == "wedge2" else 3
    terms = {}
    for _ in range(nterms):
        key = tuple(rng.sample(pool, size))
        if grade == "tensor12":
            key = (rng.choice(pool),) + key[:2]
        terms[key] = Fraction(rng.randint(-4, 4), rng.randint(1, 5))
    return MultiVector(n, grade, terms)


def shared_tail_element(rng, n, grade, heads=None, signs=None):
    """Terms c*head^tail (c*head@tail for tensor12) with several heads on
    each of two tails. A wedge tail is drawn from above its heads, so every
    key stays canonical with its head first. Given heads and signs, each
    tail gets the terms sign*c*head with one c per tail."""
    size = 1 if grade == "wedge2" else 2
    terms = {}
    for _ in range(2):
        low = 0 if grade == "tensor12" else (max(heads) + 1 if heads else 1)
        tail = tuple(sorted(rng.sample(range(low, n), size)))
        c = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
        if heads is None:
            pool = range(n) if grade == "tensor12" else range(tail[0])
            for a in rng.sample(pool, min(3, len(pool))):
                terms[(a,) + tail] = rng.randint(-4, 4) * c
        else:
            for a, s in zip(heads, signs):
                terms[(a,) + tail] = s * c
    return MultiVector(n, grade, terms)


def moved_lagrangian(rng, lat):
    """L+ moved by a few random transvections."""
    l = lat.standard_lplus()
    for _ in range(3):
        v = rand_vec(rng, lat.dim, -2, 2)
        if any(v):
            t = transvection(lat, v, rng.choice((1, -1)))
            l = Sublattice(lat, [t.apply(b) for b in l.basis])
    return l


def test_adapted_matrix_sends_l_to_the_first_unit_vectors():
    rng = random.Random(67)
    for g in (1, 2, 3, 4, 5):
        lat = SymplecticLattice(g)
        for _ in range(8):
            l = moved_lagrangian(rng, lat)
            m = adapted_matrix(l)
            assert abs(la.det(m)) == 1
            unit = la.identity(lat.dim)
            for i, v in enumerate(l.basis):
                assert la.mat_vec(m, v) == unit[i]
            full = l.basis + la.complete_to_unimodular(l.basis, lat.dim)
            assert m == la.transpose(la.invert_unimodular(full))


def test_act_matches_dense_oracle():
    rng = random.Random(61)
    for g in (1, 2, 3, 4):
        lat = SymplecticLattice(g)
        n = lat.dim
        for _ in range(10):
            l = moved_lagrangian(rng, lat)
            shapes = [
                quotient_matrix(l),
                tuple(rand_vec(rng, n) for _ in range(n)),
                tuple(rand_vec(rng, n) for _ in range(rng.randint(1, n + 1))),
            ]
            for m in shapes:
                for grade in ("wedge2", "wedge3", "tensor12"):
                    if grade != "wedge2" and n < 3:
                        continue
                    x = rand_element(rng, n, grade)
                    assert act(m, x) == dense_act(m, x)
                    # terms sharing a tail, so the summed heads carry them
                    if grade == "wedge2" or n > 3:
                        x = shared_tail_element(rng, n, grade)
                        assert act(m, x) == dense_act(m, x)
    # heads that cancel: columns 0 and 1 of m are equal (or opposite), and
    # each tail carries c*e0 - c*e1 (or c*e0 + c*e1)
    for g in (2, 3, 4):
        n = 2 * g
        for _ in range(10):
            m = [list(rand_vec(rng, n)) for _ in range(rng.randint(1, n + 1))]
            flip = rng.choice((1, -1))
            for row in m:
                row[1] = flip * row[0]
            for grade in ("wedge2", "wedge3", "tensor12"):
                x = shared_tail_element(rng, n, grade, heads=(0, 1), signs=(1, -flip))
                assert act(m, x).is_zero() and dense_act(m, x).is_zero()
                y = x + rand_element(rng, n, grade, 2)
                assert act(m, y) == dense_act(m, y)
    # g = 6..8 elements supported on four or five coordinates
    for g in (6, 7, 8):
        lat = SymplecticLattice(g)
        n = lat.dim
        for _ in range(3):
            shapes = [quotient_matrix(moved_lagrangian(rng, lat)),
                      tuple(rand_vec(rng, n) for _ in range(rng.randint(1, n + 1)))]
            for m in shapes:
                for grade in ("wedge2", "wedge3", "tensor12"):
                    x = rand_element(rng, n, grade, 6, lambda n: rng.sample(range(n), 5))
                    assert act(m, x) == dense_act(m, x)


def test_act_expands_each_tail_once(monkeypatch):
    """act on tensor12 wedges at most once per distinct (i, j) of x."""
    real, calls = exterior._wedge_terms, []
    monkeypatch.setattr(exterior, "_wedge_terms", lambda f: calls.append(f) or real(f))
    rng = random.Random(73)
    for g in (2, 3, 4):
        n = 2 * g
        for _ in range(10):
            m = tuple(rand_vec(rng, n) for _ in range(rng.randint(1, n + 1)))
            x = shared_tail_element(rng, n, "tensor12") + rand_element(rng, n, "tensor12", 6)
            calls.clear()
            got = act(m, x)
            tails = {key[1:] for key, _ in x.terms}
            assert len(x.terms) > len(tails)
            assert 0 < len(calls) <= len(tails)
            assert got == dense_act(m, x)


def random_lbar(rng, lat):
    """An element fixing a Lagrangian pointwise: either [[I, C], [0, I]] for
    symmetric C, or a product of transvections along a moved Lagrangian."""
    g = lat.genus
    if rng.random() < 0.5:
        c = [[0] * g for _ in range(g)]
        for i in range(g):
            for j in range(i, g):
                c[i][j] = c[j][i] = rng.randint(-3, 3)
        return LbarElement.from_symmetric(lat, tuple(map(tuple, c)))
    l = moved_lagrangian(rng, lat)
    m = SpMatrix(lat, la.identity(lat.dim))
    for v in l.basis:
        m = compose(m, transvection(lat, v, rng.choice((1, -1))))
    return LbarElement(lat, l, m)


def test_deltas_match_dense_oracle():
    rng = random.Random(67)
    for g in (2, 3, 4):
        lat = SymplecticLattice(g)
        n = lat.dim
        for _ in range(25):
            lam = random_lbar(rng, lat)
            m = lam.matrix.entries
            x = rand_element(rng, n, "tensor12")
            assert lmo_delta(lam, x) == dense_act(m, x) - x
            w = rand_element(rng, n, "wedge3")
            assert lmo1_delta(lam, w) == dense_act(m, w) - w
            # terms sharing a tail
            x = shared_tail_element(rng, n, "tensor12")
            assert lmo_delta(lam, x) == dense_act(m, x) - x
            if n > 3:
                w = shared_tail_element(rng, n, "wedge3")
                assert lmo1_delta(lam, w) == dense_act(m, w) - w
    # d-heads that cancel: columns 0 and 1 of C are equal, so d = c - e is
    # equal at the f-indices g and g + 1; each tail carries c*f1 - c*f2
    for g in (3, 4, 5):
        lat = SymplecticLattice(g)
        n = lat.dim
        for _ in range(8):
            c = [[0] * g for _ in range(g)]
            for i in range(g):
                for j in range(i, g):
                    c[i][j] = c[j][i] = rng.randint(-3, 3)
            for i in range(g):
                c[i][1] = c[1][i] = c[i][0]
            c[1][1] = c[0][0]
            lam = LbarElement.from_symmetric(lat, c)
            m = lam.matrix.entries
            x = shared_tail_element(rng, n, "tensor12", heads=(g, g + 1), signs=(1, -1))
            assert lmo_delta(lam, x) == dense_act(m, x) - x
            if g > 3:
                w = shared_tail_element(rng, n, "wedge3", heads=(g, g + 1), signs=(1, -1))
                assert lmo1_delta(lam, w) == dense_act(m, w) - w
    # g = 6..8 elements supported on four or five coordinates
    for g in (6, 7, 8):
        lat = SymplecticLattice(g)
        n = lat.dim
        for _ in range(4):
            lam = random_lbar(rng, lat)
            m = lam.matrix.entries
            narrow = lambda n: rng.sample(range(n), 5)
            x = rand_element(rng, n, "tensor12", 6, narrow)
            assert lmo_delta(lam, x) == dense_act(m, x) - x
            w = rand_element(rng, n, "wedge3", 6, narrow)
            assert lmo1_delta(lam, w) == dense_act(m, w) - w
