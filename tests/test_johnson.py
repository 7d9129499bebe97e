import random
from fractions import Fraction

import pytest

from fticalc.exterior import MultiVector, act, in_span, tensor_wedge, wedge
from fticalc.johnson import (
    LbarElement,
    filtration_containment,
    filtration_level,
    level_generators,
    lmo1_delta,
    lmo_delta,
    triple_commutator_tau,
)
from fticalc.symplectic import SpMatrix, Sublattice, SymplecticLattice, transvection


def random_symmetric(rng, g, lo=-3, hi=3):
    m = [[0] * g for _ in range(g)]
    for i in range(g):
        for j in range(i, g):
            m[i][j] = m[j][i] = rng.randint(lo, hi)
    return tuple(tuple(r) for r in m)


def random_tensor12(rng, n, nterms=4):
    terms = {}
    for _ in range(nterms):
        a = rng.randrange(n)
        i, j = rng.sample(range(n), 2)
        terms[(a, i, j)] = terms.get((a, i, j), 0) + rng.randint(-3, 3)
    return MultiVector(n, "tensor12", terms)


def random_wedge3(rng, n, nterms=3):
    terms = {}
    for _ in range(nterms):
        key = tuple(sorted(rng.sample(range(n), 3)))
        terms[key] = terms.get(key, 0) + rng.randint(-3, 3)
    return MultiVector(n, "wedge3", terms)


def test_lbar_element_validation():
    lat = SymplecticLattice(2)
    lam = LbarElement.from_symmetric(lat, ((1, 0), (0, 1)))
    # (matrix - I)^2 = 0 exactly
    m = lam.matrix.entries
    n = lat.dim
    d = tuple(
        tuple(m[i][j] - (1 if i == j else 0) for j in range(n)) for i in range(n)
    )
    sq = tuple(
        tuple(sum(d[i][k] * d[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )
    assert all(x == 0 for row in sq for x in row)
    # a matrix moving L is rejected
    from fticalc.symplectic import transvection

    bad = transvection(lat, lat.f(1), 1)
    with pytest.raises(ValueError):
        LbarElement(lat, lat.standard_lplus(), bad)


def test_lmo_delta_examples():
    lat = SymplecticLattice(3)
    lam = LbarElement.from_symmetric(lat, ((1, 0, 0), (0, 0, 0), (0, 0, 0)))
    ident = LbarElement.from_symmetric(lat, ((0, 0, 0),) * 3)
    x = tensor_wedge(lat.f(1), wedge((lat.f(2), lat.f(3))))
    assert lmo_delta(ident, x).is_zero()
    assert lmo_delta(lam, x) == tensor_wedge(lat.e(1), wedge((lat.f(2), lat.f(3))))
    with pytest.raises(ValueError):
        lmo_delta(lam, wedge((lat.e(1), lat.e(2))))


def test_lmo1_delta_example_c_identity():
    lat = SymplecticLattice(3)
    lam = LbarElement.from_symmetric(lat, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    w = wedge((lat.f(1), lat.f(2), lat.f(3)))
    lam_f = lambda i: lam.matrix.apply(lat.f(i))
    expected = (
        wedge((lat.e(1), lam_f(2), lam_f(3)))
        + wedge((lat.f(1), lat.e(2), lam_f(3)))
        + wedge((lat.f(1), lat.f(2), lat.e(3)))
    )
    assert lmo1_delta(lam, w) == expected


def test_deltas_equal_act_minus_identity():
    rng = random.Random(41)
    for g in (2, 3, 4):
        lat = SymplecticLattice(g)
        n = lat.dim
        for _ in range(200):
            lam = LbarElement.from_symmetric(lat, random_symmetric(rng, g))
            x = random_tensor12(rng, n)
            assert lmo_delta(lam, x) == act(lam.matrix, x) - x
            w = random_wedge3(rng, n)
            assert lmo1_delta(lam, w) == act(lam.matrix, w) - w


def test_triple_commutator_examples():
    lat = SymplecticLattice(3)
    lam = LbarElement.from_symmetric(lat, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    w = wedge((lat.f(1), lat.f(2), lat.f(3)))
    assert triple_commutator_tau(lam, w) == Fraction(6) * wedge(
        (lat.e(1), lat.e(2), lat.e(3))
    )
    ident = LbarElement.from_symmetric(lat, ((0, 0, 0),) * 3)
    assert triple_commutator_tau(ident, w).is_zero()
    # C vanishing on the first coordinate: (lambda - 1) f1 = 0 kills the wedge
    lam0 = LbarElement.from_symmetric(lat, ((0, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert triple_commutator_tau(lam0, w).is_zero()


def test_triple_commutator_decomposable_random():
    rng = random.Random(43)
    lat = SymplecticLattice(3)
    n = lat.dim
    for _ in range(40):
        lam = LbarElement.from_symmetric(lat, random_symmetric(rng, 3))
        vecs = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(3)]
        w = wedge(vecs)
        expected = Fraction(6) * wedge([lam.delta(v) for v in vecs])
        assert triple_commutator_tau(lam, w) == expected


def test_filtration_containment_examples():
    lat = SymplecticLattice(3)
    l = lat.standard_lplus()
    zero = MultiVector.zero(6, "tensor12")
    for n in (2, 3, 4, 5):
        assert filtration_containment(n, zero, l)
    x = tensor_wedge(lat.e(1), wedge((lat.e(2), lat.e(3))))
    assert filtration_containment(4, x, l)
    y = tensor_wedge(lat.f(1), wedge((lat.e(2), lat.e(3))))
    assert not filtration_containment(4, y, l)
    with pytest.raises(ValueError):
        filtration_containment(6, x, l)


def test_promotion_chain_random():
    rng = random.Random(47)
    for g in (2, 3):
        lat = SymplecticLattice(g)
        l = lat.standard_lplus()
        for n in (2, 3, 4):
            gens = level_generators(n, l)
            for _ in range(20):
                x = MultiVector.zero(lat.dim, "tensor12")
                for gv in rng.sample(gens, min(4, len(gens))):
                    x = x + Fraction(rng.randint(-2, 2)) * gv
                lam = LbarElement.from_symmetric(lat, random_symmetric(rng, g))
                assert filtration_containment(n, x, l)
                assert filtration_containment(n + 1, lmo_delta(lam, x), l)


def test_level_five_image_is_zero():
    rng = random.Random(53)
    lat = SymplecticLattice(3)
    l = lat.standard_lplus()
    gens = level_generators(4, l)
    for _ in range(20):
        x = MultiVector.zero(6, "tensor12")
        for gv in rng.sample(gens, 3):
            x = x + Fraction(rng.randint(-2, 2)) * gv
        lam = LbarElement.from_symmetric(lat, random_symmetric(rng, 3))
        assert lmo_delta(lam, x).is_zero()


def test_nonstandard_lagrangian():
    # transport everything through a symplectic change of basis
    import fticalc._intlinalg as la
    from fticalc.symplectic import compose, transvection

    lat = SymplecticLattice(2)
    q = compose(
        transvection(lat, lat.f(1), 1),
        transvection(lat, tuple(a + b for a, b in zip(lat.e(1), lat.e(2))), -1),
    )
    l2 = Sublattice(lat, tuple(q.apply(v) for v in lat.standard_lplus().basis))
    m = la.mat_mul(
        la.mat_mul(
            q.entries, SpMatrix.upper_unitriangular(lat, ((1, 0), (0, 2))).entries
        ),
        q.inverse().entries,
    )
    lam = LbarElement(lat, l2, SpMatrix(lat, m))
    x = tensor_wedge(q.apply(lat.e(1)), wedge((q.apply(lat.e(2)), q.apply(lat.f(2)))))
    assert filtration_containment(2, x, l2)
    assert filtration_containment(3, lmo_delta(lam, x), l2)


def moved_lagrangian(rng, lat):
    """L+ moved by a few random transvections."""
    l = lat.standard_lplus()
    for _ in range(3):
        v = tuple(rng.randint(-2, 2) for _ in range(lat.dim))
        if any(v):
            t = transvection(lat, v, rng.choice((1, -1)))
            l = Sublattice(lat, [t.apply(b) for b in l.basis])
    return l


def test_filtration_level_matches_span_oracle():
    # the support rule against span membership in the level generators
    rng = random.Random(59)
    seen = set()
    for g in (2, 3):
        lat = SymplecticLattice(g)
        for _ in range(3):
            l = moved_lagrangian(rng, lat)
            oracle = {n: level_generators(n, l) for n in (2, 3, 4, 5)}
            xs = [MultiVector.zero(lat.dim, "tensor12")]
            for n in (2, 3, 4):
                x = MultiVector.zero(lat.dim, "tensor12")
                for gv in rng.sample(oracle[n], min(3, len(oracle[n]))):
                    x = x + Fraction(rng.randint(1, 3)) * gv
                # pushed out of its level by one extra term
                xs += [x, x + random_tensor12(rng, lat.dim, 1)]
            for x in xs:
                level = filtration_level(x, l)
                seen.add(level)
                for n in (2, 3, 4, 5):
                    assert in_span(x, oracle[n]) == (level >= n)
                    assert filtration_containment(n, x, l) == (level >= n)
    assert seen == {1, 2, 3, 4, 5}


def test_filtration_level_examples():
    lat = SymplecticLattice(2)
    l = lat.standard_lplus()
    e1, e2, f1, f2 = lat.e(1), lat.e(2), lat.f(1), lat.f(2)
    assert filtration_level(MultiVector.zero(4, "tensor12"), l) == 5
    assert filtration_level(tensor_wedge(e1, wedge((e1, e2))), l) == 4
    assert filtration_level(tensor_wedge(f1, wedge((e1, e2))), l) == 3
    assert filtration_level(tensor_wedge(f1, wedge((e1, f2))), l) == 2
    assert filtration_level(tensor_wedge(f1, wedge((f1, f2))), l) == 1
    with pytest.raises(ValueError):
        filtration_level(wedge((e1, f1)), l)
    with pytest.raises(ValueError):
        filtration_level(tensor_wedge(f1, wedge((f1, f2))), Sublattice(lat, [e1]))


def test_lbar_element_moves_h_into_l():
    # LbarElement derives (M - I) H in L from its other checks instead of
    # checking it; this oracle checks it for L+ and for L+ moved by q
    import fticalc._intlinalg as la
    from fticalc.symplectic import compose

    rng = random.Random(131)
    for g in (1, 2, 3, 4):
        lat = SymplecticLattice(g)
        for _ in range(4):
            lam = LbarElement.from_symmetric(lat, random_symmetric(rng, g))
            q = SpMatrix.identity(lat)
            for _ in range(3):
                v = tuple(rng.randint(-2, 2) for _ in range(lat.dim))
                if any(v):
                    q = compose(q, transvection(lat, v, rng.choice((1, -1))))
            moved = Sublattice(lat, [q.apply(b) for b in lam.l.basis])
            m = la.mat_mul(la.mat_mul(q.entries, lam.matrix.entries), q.inverse().entries)
            for mu in (lam, LbarElement(lat, moved, SpMatrix(lat, m))):
                assert all(mu.l.contains(mu.delta(e)) for e in la.identity(lat.dim))


def test_from_symmetric_matches_checked_constructor():
    # from_symmetric skips the checks that hold by construction; the
    # checked constructor accepts the same matrix and L
    rng = random.Random(137)
    for g in range(1, 7):
        lat = SymplecticLattice(g)
        for _ in range(3):
            c = random_symmetric(rng, g)
            lam = LbarElement.from_symmetric(lat, c)
            checked = LbarElement(lat, lat.standard_lplus(), SpMatrix.upper_unitriangular(lat, c))
            assert lam.matrix == checked.matrix
            assert lam.l.basis == checked.l.basis
    lat = SymplecticLattice(2)
    with pytest.raises(ValueError, match="symmetric"):
        LbarElement.from_symmetric(lat, ((1, 2), (0, 1)))
