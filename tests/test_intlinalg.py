import random

import pytest

from fticalc._intlinalg import (
    adapted_rows,
    complete_to_unimodular,
    coords_in_basis,
    det,
    identity,
    in_rowspan_z,
    int_kernel,
    invert_unimodular,
    mat_mul,
    rank,
    row_hnf,
    saturate,
    transpose,
)


def test_det_small():
    assert det(()) == 1
    assert det(((5,),)) == 5
    assert det(((4, 3), (3, 2))) == -1
    assert det(((2, 0), (0, 1))) == 2


def test_det_matches_permutation_expansion():
    rng = random.Random(0)
    from itertools import permutations

    def perm_det(m):
        n = len(m)
        total = 0
        for perm in permutations(range(n)):
            sign = 1
            seen = [False] * n
            # count inversions
            inv = sum(
                1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
            )
            sign = -1 if inv % 2 else 1
            prod = 1
            for i in range(n):
                prod *= m[i][perm[i]]
            total += sign * prod
            del seen
        return total

    for _ in range(40):
        n = rng.randint(1, 5)
        m = tuple(tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(n))
        assert det(m) == perm_det(m)


def test_row_hnf_canonical():
    a = row_hnf(((2, 4), (1, 1)), 2)
    b = row_hnf(((1, 1), (0, 2), (3, 5)), 2)
    assert a == b
    assert row_hnf(((0, 0),), 2) == ()


def test_saturate_examples():
    assert saturate(((2, 0), (0, 3)), 2) == identity(2)
    # span{(2,0,1),(0,2,1)} gains (1,1,1)
    assert saturate(((2, 0, 1), (0, 2, 1)), 3) == ((1, 1, 1), (0, 2, 1))
    assert saturate((), 3) == saturate(((0, 0, 0),), 3) == ()


def test_int_kernel_is_saturated_and_correct():
    rng = random.Random(1)
    for _ in range(30):
        rows = tuple(
            tuple(rng.randint(-3, 3) for _ in range(5)) for _ in range(rng.randint(1, 3))
        )
        ker = int_kernel(rows, 5)
        for v in ker:
            assert all(sum(r[i] * v[i] for i in range(5)) == 0 for r in rows)
        assert saturate(ker, 5) == ker
        assert rank(ker, 5) + rank(rows, 5) == 5


def test_complete_to_unimodular():
    # kernel of (2,3,5): no standard basis vector completes it
    basis = row_hnf(((1, 1, -1), (4, -1, -1)), 3)
    comp = complete_to_unimodular(basis, 3)
    assert abs(det(basis + comp)) == 1
    rng = random.Random(2)
    for _ in range(30):
        w = rng.randint(2, 6)
        rows = tuple(
            tuple(rng.randint(-4, 4) for _ in range(w))
            for _ in range(rng.randint(1, w))
        )
        b = saturate(rows, w)
        if not b:
            continue
        comp = complete_to_unimodular(b, w)
        assert abs(det(b + comp)) == 1


def random_saturated_basis(rng, width, a):
    """The first a rows of a random unimodular matrix (not in HNF), or the
    saturation of a random integer span."""
    if rng.random() < 0.5:
        rows = tuple(tuple(rng.randint(-4, 4) for _ in range(width)) for _ in range(a))
        return saturate(rows, width)
    rows = [list(r) for r in identity(width)]
    for _ in range(3 * width):
        i, j = rng.randrange(width), rng.randrange(width)
        if i != j:
            k = rng.randint(-3, 3)
            rows[i] = [x + k * y for x, y in zip(rows[i], rows[j])]
    rng.shuffle(rows)
    return tuple(tuple(r) for r in rows[:a])


def test_adapted_rows_invert_the_completed_basis():
    rng = random.Random(3)
    for width in range(1, 11):
        for a in sorted({0, width, rng.randint(0, width), rng.randint(0, width)}):
            for _ in range(4):
                basis = random_saturated_basis(rng, width, a)
                rows = adapted_rows(basis, width)
                full = basis + complete_to_unimodular(basis, width)
                assert mat_mul(transpose(rows), full) == identity(width)
    assert adapted_rows((), 3) == identity(3)


def test_adapted_rows_reject_dependent_and_unsaturated_bases():
    dependent = ((1, 2, 0), (2, 4, 0))
    unsaturated = ((2, 0, 0), (0, 1, 0))
    too_many = ((1, 0), (0, 1), (1, 1))
    for basis in (dependent, unsaturated, too_many):
        for fn in (adapted_rows, complete_to_unimodular):
            with pytest.raises(ValueError, match="not saturated"):
                fn(basis, len(basis[0]))


def test_invert_unimodular():
    t = ((2, 1), (1, 1))
    assert mat_mul(t, invert_unimodular(t)) == identity(2)
    for singular_or_not_unit in (((1, 1), (1, 1)), ((2, 0), (0, 1))):
        with pytest.raises(ValueError, match="not unimodular"):
            invert_unimodular(singular_or_not_unit)


def test_membership_and_coords():
    h = row_hnf(((2, 0), (0, 1)), 2)
    assert in_rowspan_z((2, 5), h)
    assert not in_rowspan_z((1, 0), h)
    assert coords_in_basis((3, 3), ((1, 1),), 2) == (3,)
    assert coords_in_basis((1, 2), ((1, 1),), 2) is None


def test_mat_mul_transpose():
    a = ((1, 2), (3, 4))
    b = ((0, 1), (1, 0))
    assert mat_mul(a, b) == ((2, 1), (4, 3))
    assert transpose(a) == ((1, 3), (2, 4))
