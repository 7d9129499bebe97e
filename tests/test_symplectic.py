import random
from fractions import Fraction

import pytest

from fticalc import _intlinalg as la
from fticalc.symplectic import (
    IncompatibleLagrangians,
    SpMatrix,
    Sublattice,
    SymplecticLattice,
    complementary_lagrangian,
    compose,
    is_compatible,
    lagrangian_split_linking,
    realize_symmetric,
    transvection,
)


def vec_add(u, v):
    return tuple(x + y for x, y in zip(u, v))


def random_symmetric(rng, g, lo=-5, hi=5):
    m = [[0] * g for _ in range(g)]
    for i in range(g):
        for j in range(i, g):
            m[i][j] = m[j][i] = rng.randint(lo, hi)
    return tuple(tuple(r) for r in m)


def test_pairing_examples():
    lat = SymplecticLattice(2)
    assert lat.pairing(lat.e(1), lat.f(1)) == 1
    assert lat.pairing(lat.e(1), lat.e(2)) == 0
    assert lat.pairing(lat.f(1), lat.e(1)) == -1


def test_pairing_antisymmetric():
    rng = random.Random(3)
    lat = SymplecticLattice(3)
    for _ in range(50):
        u = tuple(rng.randint(-5, 5) for _ in range(6))
        v = tuple(rng.randint(-5, 5) for _ in range(6))
        assert lat.pairing(u, v) == -lat.pairing(v, u)


def test_pairing_dimension_mismatch():
    lat = SymplecticLattice(2)
    with pytest.raises(ValueError):
        lat.pairing((1, 0), (0, 1))


def test_is_lagrangian_examples():
    lat = SymplecticLattice(2)
    assert lat.standard_lplus().is_lagrangian()
    assert not Sublattice(lat, (lat.e(1), lat.f(1))).is_lagrangian()
    assert not Sublattice(lat, (lat.e(1),)).is_lagrangian()


def test_standard_lagrangians_are_saturated_bases():
    # built from their unit vectors without saturating; saturate agrees
    for g in range(1, 7):
        lat = SymplecticLattice(g)
        for lag, unit in ((lat.standard_lplus(), lat.e), (lat.standard_lminus(), lat.f)):
            gens = tuple(unit(i) for i in range(1, g + 1))
            assert lag.basis == la.saturate(gens, lat.dim)
            assert lag == Sublattice(lat, gens)
            assert lag.is_lagrangian()


def test_sublattice_saturation():
    lat = SymplecticLattice(1)
    s = Sublattice(lat, ((2, 0),))
    assert s.basis == ((1, 0),)
    assert s.rank == 1
    # an empty span saturates to the empty basis without a kernel computation
    assert Sublattice(SymplecticLattice(400), ()).basis == ()
    assert Sublattice.from_text("g=400\n").basis == ()


def test_is_compatible_examples():
    lat1 = SymplecticLattice(1)
    lp, lm = lat1.standard_lplus(), lat1.standard_lminus()
    assert is_compatible(lp, lp, lm)
    diag = Sublattice(lat1, (vec_add(lat1.e(1), lat1.f(1)),))
    assert not is_compatible(diag, lp, lm)

    lat = SymplecticLattice(2)
    l = Sublattice(lat, (lat.e(1), lat.f(2)))
    assert is_compatible(l, lat.standard_lplus(), lat.standard_lminus())


def test_is_compatible_preconditions():
    lat = SymplecticLattice(2)
    lp, lm = lat.standard_lplus(), lat.standard_lminus()
    with pytest.raises(ValueError):
        is_compatible(Sublattice(lat, (lat.e(1),)), lp, lm)
    # non-complementary pair
    with pytest.raises(ValueError):
        is_compatible(lp, lp, lp)


def test_complementary_lagrangian_examples():
    lat1 = SymplecticLattice(1)
    lp, lm = lat1.standard_lplus(), lat1.standard_lminus()
    assert complementary_lagrangian(lp, lp, lm) == lm

    lat = SymplecticLattice(2)
    l = Sublattice(lat, (lat.e(1), lat.f(2)))
    got = complementary_lagrangian(l, lat.standard_lplus(), lat.standard_lminus())
    assert got == Sublattice(lat, (lat.e(2), lat.f(1)))

    diag = Sublattice(lat1, (vec_add(lat1.e(1), lat1.f(1)),))
    with pytest.raises(IncompatibleLagrangians):
        complementary_lagrangian(diag, lp, lm)


def random_compatible_lagrangian(rng, lat):
    """L = A + B with A a random saturated piece of span(e) and B the
    annihilator of A inside span(f); always compatible by construction."""
    g = lat.genus
    k = rng.randint(0, g)
    rows = tuple(
        tuple(rng.randint(-2, 2) for _ in range(g)) + (0,) * g for _ in range(k)
    )
    a = Sublattice(lat, rows) if rows else Sublattice(lat, ())
    # B: f-vectors pairing to zero with every generator of A
    pair_rows = tuple(
        tuple(lat.pairing(lat.f(i + 1), v) for v in a.basis) for i in range(g)
    )
    ker = la.int_kernel(la.transpose(pair_rows), g) if a.basis else la.identity(g)
    b_gens = [
        tuple(
            sum(cc[i] * lat.f(i + 1)[j] for i in range(g)) for j in range(2 * g)
        )
        for cc in ker
    ]
    return Sublattice(lat, a.basis + tuple(b_gens))


def test_complementary_postconditions_random():
    rng = random.Random(7)
    for g in (2, 3):
        lat = SymplecticLattice(g)
        lp, lm = lat.standard_lplus(), lat.standard_lminus()
        for _ in range(25):
            l = random_compatible_lagrangian(rng, lat)
            if not l.is_lagrangian():
                continue
            if not is_compatible(l, lp, lm):
                continue
            lc = complementary_lagrangian(l, lp, lm)
            assert lc.is_lagrangian()
            assert l.intersection(lc).rank == 0
            assert la.row_hnf(l.basis + lc.basis, lat.dim) == la.identity(lat.dim)
            assert is_compatible(lc, lp, lm)


def test_transvection_examples():
    lat1 = SymplecticLattice(1)
    t = transvection(lat1, lat1.e(1), 1)
    assert t.block_c() == ((1,),)
    assert t.apply(lat1.f(1)) == vec_add(lat1.f(1), lat1.e(1))
    assert t.apply(lat1.e(1)) == lat1.e(1)

    lat = SymplecticLattice(2)
    t = transvection(lat, vec_add(lat.e(1), lat.e(2)), 1)
    assert t.block_c() == ((1, 1), (1, 1))

    with pytest.raises(ValueError):
        transvection(lat, (0, 0, 0, 0), 1)


def test_transvection_always_symplectic():
    rng = random.Random(11)
    for g in (1, 2, 3):
        lat = SymplecticLattice(g)
        for _ in range(40):
            v = tuple(rng.randint(-3, 3) for _ in range(2 * g))
            if all(x == 0 for x in v):
                continue
            for s in (1, -1):
                assert transvection(lat, v, s).is_symplectic()


def test_transvection_power_is_repeated_twist():
    rng = random.Random(19)
    for g in (1, 2, 3):
        lat = SymplecticLattice(g)
        for _ in range(5):
            v = tuple(rng.randint(-3, 3) for _ in range(2 * g))
            if not any(v):
                continue
            for k in [s * a for a in range(1, 7) for s in (1, -1)]:
                step = transvection(lat, v, 1 if k > 0 else -1)
                prod = SpMatrix.identity(lat)
                for _ in range(abs(k)):
                    prod = compose(prod, step)
                assert transvection(lat, v, k) == prod
    lat = SymplecticLattice(2)
    for bad in (0, 0.5):
        with pytest.raises(ValueError, match="nonzero integer"):
            transvection(lat, lat.e(1), bad)


def test_contains_and_coords_match_hnf_oracle():
    # Sublattice bases are saturated Hermite bases; membership is checked
    # against an HNF that does not use coords_in_basis
    rng = random.Random(23)
    seen = {True: 0, False: 0}
    for g in range(1, 6):
        lat = SymplecticLattice(g)
        n = lat.dim
        for _ in range(10):
            gens = [tuple(rng.randint(-3, 3) for _ in range(n))
                    for _ in range(rng.randint(1, n))]
            sub = Sublattice(lat, gens)
            basis = sub.basis
            for _ in range(10):
                if rng.random() < 0.5:
                    v = la.mat_vec(la.transpose(gens), [rng.randint(-2, 2) for _ in gens])
                else:
                    v = tuple(rng.randint(-2, 2) for _ in range(n))
                coords = la.coords_in_basis(v, basis)
                member = la.row_hnf(basis + (v,), n) == basis
                assert (coords is not None) == member == sub.contains(v)
                seen[member] += 1
                if member and basis:
                    assert la.mat_vec(la.transpose(basis), coords) == v
    assert min(seen.values()) > 100


def test_realize_symmetric_examples():
    lat = SymplecticLattice(2)
    assert realize_symmetric(lat, ((0, 0), (0, 0))) == []
    assert realize_symmetric(lat, ((1, 0), (0, 1))) == [
        (lat.e(1), 1),
        (lat.e(2), 1),
    ]
    assert realize_symmetric(lat, ((0, 1), (1, 0))) == [
        (vec_add(lat.e(1), lat.e(2)), 1),
        (lat.e(1), -1),
        (lat.e(2), -1),
    ]


def test_symmetric_block_builders_reject_bad_c():
    lat = SymplecticLattice(2)
    for c in (
        ((1, 2), (2,)),  # ragged
        ((1,), (2, 3)),  # ragged
        ((1, 2, 0), (2, 3, 0)),  # 2 x 3
        ((1, 2), (2, 3), (0, 0)),  # 3 x 2
        ((1,),),  # 1 x 1 at genus 2
        ((1, 2), (0, 1)),  # asymmetric
        [[0, 0], [1, 0]],  # asymmetric, lists of lists
    ):
        with pytest.raises(ValueError, match="symmetric g x g"):
            SpMatrix.upper_unitriangular(lat, c)
        with pytest.raises(ValueError, match="symmetric g x g"):
            realize_symmetric(lat, c)
    c = [[1, -2], [-2, 0]]
    assert realize_symmetric(lat, c) == realize_symmetric(lat, tuple(map(tuple, c)))
    assert SpMatrix.upper_unitriangular(lat, c).block_c() == ((1, -2), (-2, 0))


def test_realize_symmetric_roundtrip_random():
    rng = random.Random(13)
    for g in (1, 2, 3, 4):
        lat = SymplecticLattice(g)
        for _ in range(20):
            c = random_symmetric(rng, g)
            prod = SpMatrix.identity(lat)
            for v, s in realize_symmetric(lat, c):
                prod = compose(prod, transvection(lat, v, s))
            assert prod == SpMatrix.upper_unitriangular(lat, c)


def test_compose_block_addition():
    rng = random.Random(17)
    for g in (1, 2, 3, 4):
        lat = SymplecticLattice(g)
        for _ in range(25):
            a = random_symmetric(rng, g)
            b = random_symmetric(rng, g)
            ab = tuple(
                tuple(a[i][j] + b[i][j] for j in range(g)) for i in range(g)
            )
            lhs = compose(
                SpMatrix.upper_unitriangular(lat, a),
                SpMatrix.upper_unitriangular(lat, b),
            )
            assert lhs == SpMatrix.upper_unitriangular(lat, ab)


def test_compose_inverse_identity():
    lat = SymplecticLattice(2)
    a = compose(
        transvection(lat, lat.e(1), 1),
        transvection(lat, vec_add(lat.e(1), lat.f(2)), -1),
    )
    assert compose(a, a.inverse()) == SpMatrix.identity(lat)
    assert a.is_symplectic()


def test_builders_match_checked_constructor():
    # identity, inverse, compose, transvection and upper_unitriangular skip
    # the symplectic check, which holds by construction; the checked
    # constructor accepts each result unchanged, and every entry is an int
    rng = random.Random(157)
    for g in range(1, 7):
        lat = SymplecticLattice(g)
        for _ in range(3):
            c = random_symmetric(rng, g)
            u = SpMatrix.upper_unitriangular(lat, [[Fraction(x) for x in row] for row in c])
            v = tuple(rng.randint(-3, 3) for _ in range(2 * g))
            t = transvection(lat, v if any(v) else lat.f(1), rng.choice((1, -1, 2)))
            built = [SpMatrix.identity(lat), u, t, compose(u, t), t.inverse(), compose(t, u).inverse()]
            for m in built:
                assert m == SpMatrix(lat, m.entries)
                assert all(type(x) is int for row in m.entries for x in row)
    with pytest.raises(ValueError, match="preserve"):
        SpMatrix(SymplecticLattice(1), ((2, 0), (0, 1)))
    with pytest.raises(ValueError, match="preserve"):
        SpMatrix(SymplecticLattice(2), ((2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))


def test_compose_dimension_mismatch():
    with pytest.raises(ValueError):
        compose(
            SpMatrix.identity(SymplecticLattice(1)),
            SpMatrix.identity(SymplecticLattice(2)),
        )


def test_lagrangian_split_linking_examples():
    lat2 = SymplecticLattice(2)
    zero = (0,) * 4
    assert lagrangian_split_linking(lat2, [(lat2.e(1), zero)]) == ((0,),)
    assert lagrangian_split_linking(
        lat2, [(lat2.e(1), zero), (lat2.e(2), zero)]
    ) == ((0, 0), (0, 0))
    lat1 = SymplecticLattice(1)
    with pytest.raises(ValueError):
        lagrangian_split_linking(lat1, [(lat1.e(1), lat1.f(1))])


def test_lagrangian_split_linking_random():
    rng = random.Random(19)
    for _ in range(60):
        g = rng.randint(1, 4)
        lat = SymplecticLattice(g)
        subset = [i for i in range(1, g + 1) if rng.random() < 0.5]
        classes = []
        for _ in range(rng.randint(1, 3)):
            plus = [0] * (2 * g)
            minus = [0] * (2 * g)
            for i in range(1, g + 1):
                if i in subset:
                    plus[i - 1] = rng.randint(-3, 3)
                else:
                    minus[g + i - 1] = rng.randint(-3, 3)
            classes.append((tuple(plus), tuple(minus)))
        m = lagrangian_split_linking(lat, classes)
        assert all(x == 0 for row in m for x in row)


def test_text_round_trips():
    lat = SymplecticLattice(2)
    assert SymplecticLattice.from_text(lat.to_text()) == lat
    s = Sublattice(lat, (lat.e(1), lat.f(2)))
    assert Sublattice.from_text(s.to_text()) == s
    t = transvection(lat, vec_add(lat.e(1), lat.e(2)), -1)
    assert SpMatrix.from_text(t.to_text()) == t
    for cls in (SymplecticLattice, Sublattice, SpMatrix):
        for text in ("", "1 0 0 0\n", "g=2\ng=2\n", "g=2 3\n", "g=x\n"):
            with pytest.raises(ValueError):
                cls.from_text(text)
    with pytest.raises(ValueError):
        SymplecticLattice.from_text("g=2\n1 2 3\nfoo\n")
    with pytest.raises(ValueError):
        Sublattice.from_text("g=2\n1 0 0 0\nfoo\n")
