import random
from fractions import Fraction
from math import gcd

import pytest

from fticalc._intlinalg import (
    adapted_rows,
    complete_to_unimodular,
    coords_in_basis,
    det,
    identity,
    int_kernel,
    int_row,
    int_value,
    invert_unimodular,
    is_symmetric,
    mat_mul,
    mat_vec,
    rank,
    row_hnf,
    saturate,
    transpose,
)
from fticalc.chords import ChordDiagram
from fticalc.exterior import MultiVector
from fticalc.groupring import GroupWord, TruncatedSeries, lcs_commutator
from fticalc.links import BlinkPresentation, FramedLink, LaurentPoly, SeifertMatrix
from fticalc.symplectic import (
    SpMatrix,
    Sublattice,
    SymplecticLattice,
    lagrangian_split_linking,
    realize_symmetric,
    transvection,
)


def test_int_row_keeps_exact_integers_only():
    assert int_row([1, Fraction(4, 2), 3.0, True]) == (1, 2, 3, 1)
    assert all(type(x) is int for x in int_row((Fraction(-6, 3), 2.0)))
    assert int_row(iter([5, -5])) == (5, -5) and int_row(()) == ()
    for bad in (1.5, Fraction(1, 2), Fraction(-7, 3), "3"):
        with pytest.raises(ValueError, match="entries must be integers"):
            int_row([0, bad])


def test_integer_constructors_reject_inexact_entries():
    """Every constructor of an integer matrix or vector raises ValueError on a
    non-integer entry, where int() would truncate it."""
    lat = SymplecticLattice(2)
    e1, f1 = lat.e(1), lat.f(1)
    for bad in (1.5, Fraction(1, 2)):
        constructors = (
            lambda: SpMatrix.upper_unitriangular(lat, ((bad, 0), (0, 1))),
            lambda: realize_symmetric(lat, ((bad, 0), (0, 1))),
            lambda: BlinkPresentation(1, [[0, bad], [bad, 0]], [1]),
            lambda: BlinkPresentation.from_pair_data([bad], [1]),
            lambda: BlinkPresentation.from_pair_data([0, 0], [1, 1], {(0, 1): bad}),
            lambda: FramedLink(2, [[bad, 0], [0, 1]]),
            lambda: SeifertMatrix((2,), [[bad, 1], [0, 0]]),
            lambda: SpMatrix(lat, [r[:1] + (bad,) + r[2:] if i == 2 else r
                                   for i, r in enumerate(identity(4))]),
            lambda: Sublattice(lat, [(bad, 0, 0, 0)]),
            lambda: transvection(lat, (bad, 0, 0, 0), 1),
            lambda: lagrangian_split_linking(lat, [((bad, 0, 0, 0), (0,) * 4)]),
        )
        for build in constructors:
            with pytest.raises(ValueError, match="entries must be integers"):
                build()
        # one integer value each: a dimension, an exponent, a generator index
        # or a block size, where int() truncated 1.5 to 1
        values = (
            lambda: MultiVector(bad, "wedge2", {}),
            lambda: LaurentPoly({bad: 1}),
            lambda: GroupWord(2, [(bad, 1)]),
            lambda: GroupWord(2, [(0, 1)]) ** bad,
            lambda: lcs_commutator(2, [0, bad]),
            lambda: SeifertMatrix((bad,), [[0]]),
        )
        for build in values:
            with pytest.raises(ValueError, match="is not an integer"):
                build()
    # an integral Fraction or float is an exact integer value
    three = Fraction(3)
    assert SpMatrix.upper_unitriangular(lat, ((three, 1.0), (1, 0))).block_c() == ((3, 1), (1, 0))
    assert FramedLink(2, [[three, 0], [0, 1.0]]).lk == ((3, 0), (0, 1))
    assert Sublattice(lat, [tuple(map(Fraction, e1)), f1]).basis == Sublattice(lat, [e1, f1]).basis
    assert MultiVector(4.0, "wedge2", {(0, 1): 1}).dim == 4
    assert LaurentPoly({three: 1}).coeffs == {3: 1}
    assert (GroupWord(2, [(Fraction(1), 1)]) ** 2.0).letters == ((1, 1), (1, 1))


def test_scalar_counts_are_exact_integers():
    """int_value keeps int_row's rule, and every integer count a constructor
    takes goes through it: each count below was int() of its input, which
    truncated the value on its line to the exact one."""
    assert (int_value(3.0), int_value(Fraction(4, 2)), int_value(True)) == (3, 2, 1)
    assert type(int_value(Fraction(6, 3))) is int
    counts = (
        (lambda x: FramedLink(x, [[0]]).components, 1, 1.9),
        (lambda x: BlinkPresentation(x, [[0, 0], [0, 0]], [1]).pairs, 1, 1.5),
        (lambda x: SymplecticLattice(x).genus, 2, 2.5),
        (lambda x: ChordDiagram([(0, 0)], marks=x).marks, 1, 1.7),
        (lambda x: GroupWord(x, ()).ngens, 2, 2.9),
        (lambda x: TruncatedSeries(x, 3).nvars, 2, 2.5),
        (lambda x: TruncatedSeries(2, x).degree, 3, 3.9),
    )
    for count, exact, truncated in counts:
        assert count(exact) == count(float(exact)) == count(Fraction(2 * exact, 2)) == exact
        for bad in (1.5, Fraction(1, 2), truncated):
            with pytest.raises(ValueError, match="is not an integer"):
                int_value(bad)
            with pytest.raises(ValueError, match="is not an integer"):
                count(bad)


def test_is_symmetric_shapes():
    assert is_symmetric(()) and is_symmetric([])
    assert is_symmetric(((7,),)) and is_symmetric([[7]])
    assert is_symmetric([[1, 2], [2, 3]])
    assert not is_symmetric([[1, 2], [3, 4]])
    assert not is_symmetric([[1, 2, 0], [2, 3, 0]])  # 2 x 3
    assert not is_symmetric([[1, 2], [2, 3], [0, 0]])  # 3 x 2
    assert not is_symmetric([[]]) and not is_symmetric([[], []])
    for ragged in ([[1, 2], [2]], [[1], [2, 3]], [[1, 2], [2, 3, 4]],
                   [[1, 2, 3], [2, 1, 5], [3, 5]], [[1, 2, 3], [2, 1], [3, 0, 1]]):
        assert not is_symmetric(ragged)
    m = [[1, 2, 3], [2, 4, 5], [3, 5, 6]]
    assert is_symmetric(m)
    m[2][1] = 9  # one asymmetric entry, below the diagonal
    assert not is_symmetric(m)


def test_is_symmetric_matches_pairwise_definition():
    def pairwise(m):
        n = len(m)
        return all(len(r) == n for r in m) and all(
            m[i][j] == m[j][i] for i in range(n) for j in range(n))

    rng = random.Random(47)
    kinds = [0, 0]
    for _ in range(3000):
        n = rng.randint(0, 6)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = rng.randint(-2, 2)
        if n and rng.random() < 0.5:  # one entry off, anywhere
            i, j = rng.randrange(n), rng.randrange(n)
            m[i][j] += rng.choice((-1, 1))
        if n and rng.random() < 0.2:  # a row one too short or too long
            row = m[rng.randrange(n)]
            row.pop() if rng.random() < 0.5 else row.append(0)
        want = pairwise(m)
        kinds[want] += 1
        assert is_symmetric(m) == want
        assert is_symmetric(tuple(map(tuple, m))) == want
    assert min(kinds) > 500


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


def with_mid_pivot_zero(rng, n, k):
    """A random n x n matrix whose leading (k+1) x (k+1) minor is singular,
    so Bareiss meets a zero pivot at step k and must swap rows."""
    m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
    a, b = rng.randint(-2, 2), rng.randint(-2, 2)
    m[k][:k + 1] = [a * x + b * y for x, y in zip(m[0][:k + 1], m[k - 1][:k + 1])]
    return tuple(map(tuple, m))


def test_det_matches_sympy_n_6_to_12():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(107)
    swaps = 0
    for n in range(6, 13):
        cases = [tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(n))
                 for _ in range(3)]
        for _ in range(3):
            k = rng.randint(2, n - 2)
            m = with_mid_pivot_zero(rng, n, k)
            assert sympy.Matrix([row[:k + 1] for row in m[:k + 1]]).det() == 0
            swaps += sympy.Matrix(m).det() != 0
            cases.append(m)
        repeated = [list(row) for row in cases[0]]
        repeated[n - 1] = repeated[rng.randrange(n - 1)]
        zero_col = [list(row) for row in cases[1]]
        c = rng.randrange(n)
        for row in zero_col:
            row[c] = 0
        cases += [tuple(map(tuple, repeated)), tuple(map(tuple, zero_col))]
        for m in cases:
            assert det(m) == int(sympy.Matrix(m).det())
        assert det(cases[-1]) == det(cases[-2]) == 0
        with pytest.raises(ValueError):
            det(tuple(row[:-1] for row in cases[0]))
    assert swaps >= 15  # most mid-elimination zero pivots sit in a nonsingular matrix


def det_mod_p(m, p):
    """Determinant mod a prime p by Gaussian elimination over GF(p)."""
    a = [[x % p for x in row] for row in m]
    n = len(a)
    d = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            d = -d
        d = d * a[k][k] % p
        inv = pow(a[k][k], -1, p)
        for i in range(k + 1, n):
            f = a[i][k] * inv % p
            if f:
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[k])]
    return d % p


def test_det_matches_mod_p_elimination_n_30_to_64():
    rng = random.Random(109)
    primes = (2147483647, 1000000007)
    for n in (30, 41, 53, 64):
        repeated = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        repeated[n - 1] = repeated[0]
        repeated = tuple(map(tuple, repeated))
        cases = (with_mid_pivot_zero(rng, n, 1),
                 with_mid_pivot_zero(rng, n, rng.randint(2, n - 2)), repeated)
        for case in cases:
            d = det(case)
            assert all(d % p == det_mod_p(case, p) for p in primes)
        assert det(repeated) == 0


def random_symmetric(rng, n, lo=-9, hi=9):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = rng.randint(lo, hi)
    return m


def symmetric_cases(rng, n):
    """Seeded symmetric n x n matrices for each path of symmetric Bareiss:
    a zero pivot at step 0 and at a step k > 0 (rows and columns swapped
    together); a zero diagonal throughout, and a nonsingular block plus
    [[0, 1], [1, 0]] blocks (no nonzero diagonal is left: the row-swap
    fallback at step 0 and mid-elimination); and, last, two singular ones."""
    cases = []
    m = random_symmetric(rng, n)
    m[0][0] = 0
    cases.append(m)
    # the leading (k+1) block [[L, Lc], [c^T L, c^T L c]] = [I c]^T L [I c] has rank k
    k = rng.randint(2, n - 2)
    m = random_symmetric(rng, n)
    for i in range(k):
        m[i][i] += 10 * n  # L is diagonally dominant, so no leading minor is zero
    c = [rng.randint(-2, 2) for _ in range(k)]
    l_c = [sum(m[i][j] * c[j] for j in range(k)) for i in range(k)]
    for i in range(k):
        m[i][k] = m[k][i] = l_c[i]
    m[k][k] = sum(x * y for x, y in zip(c, l_c))
    cases.append(m)
    m = random_symmetric(rng, n)
    for i in range(n):
        m[i][i] = 0
    cases.append(m)
    h = rng.randint(1, n // 2)
    m = random_symmetric(rng, n)
    for i in range(n - 2 * h):
        m[i][i] += 10 * n
    for i in range(n - 2 * h, n):
        for j in range(n):
            m[i][j] = m[j][i] = 0
    for i in range(n - 2 * h, n, 2):
        m[i][i + 1] = m[i + 1][i] = rng.choice((1, -1, 2))
    cases.append(m)
    b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n - 1)]
    d = [rng.choice((1, -1, 2)) for _ in range(n - 1)]
    cases.append([[sum(b[t][i] * d[t] * b[t][j] for t in range(n - 1)) for j in range(n)]
                  for i in range(n)])  # B^T D B with B of rank < n
    m = random_symmetric(rng, n)
    x, y = rng.sample(range(n), 2)
    m[y] = m[x][:]
    for row in m:
        row[y] = row[x]
    cases.append(m)
    return [tuple(map(tuple, m)) for m in cases]


def test_symmetric_det_matches_sympy_n_6_to_12():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(149)
    for n in range(6, 13):
        cases = symmetric_cases(rng, n)
        for m in cases + [tuple(map(tuple, random_symmetric(rng, n)))]:
            assert det(m) == int(sympy.Matrix(m).det())
        assert det(cases[-1]) == det(cases[-2]) == 0


def test_symmetric_det_matches_mod_p_elimination_n_30_to_64():
    rng = random.Random(151)
    primes = (2147483647, 1000000007)
    for n in (30, 41, 53, 64):
        cases = symmetric_cases(rng, n)
        for case in cases:
            d = det(case)
            assert all(d % p == det_mod_p(case, p) for p in primes)
        assert det(cases[-1]) == det(cases[-2]) == 0


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


def random_unimodular(rng, n):
    """A product of elementary row operations: adds, swaps and negations."""
    rows = [list(r) for r in identity(n)]
    for _ in range(4 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        op = rng.randrange(3)
        if op == 0 and i != j:
            k = rng.randint(-3, 3)
            rows[i] = [x + k * y for x, y in zip(rows[i], rows[j])]
        elif op == 1:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] = [-x for x in rows[i]]
    return tuple(tuple(r) for r in rows)


def test_invert_unimodular_random():
    rng = random.Random(5)
    for n in range(1, 11):
        for _ in range(6):
            t = random_unimodular(rng, n)
            inv = invert_unimodular(t)
            assert mat_mul(t, inv) == identity(n)
            assert mat_mul(inv, t) == identity(n)
    assert invert_unimodular(()) == ()


def test_invert_unimodular_rejects_det_two_and_singular():
    rng = random.Random(6)
    for n in range(1, 11):
        for _ in range(4):
            u = [list(r) for r in random_unimodular(rng, n)]
            i = rng.randrange(n)
            doubled = [r if k != i else [2 * x for x in r] for k, r in enumerate(u)]
            if n == 1:
                singular = [[0]]
            else:
                j = rng.choice([k for k in range(n) if k != i])
                c = rng.randint(-2, 2)
                singular = [r if k != i else [c * x for x in u[j]] for k, r in enumerate(u)]
            for m in (doubled, singular):
                m = mat_mul(tuple(map(tuple, m)), random_unimodular(rng, n))
                assert abs(det(m)) in (0, 2)
                with pytest.raises(ValueError, match="not unimodular"):
                    invert_unimodular(m)


def test_membership_and_coords():
    h = row_hnf(((2, 0), (0, 1)), 2)
    assert coords_in_basis((2, 5), h) == (1, 5)
    assert coords_in_basis((1, 0), h) is None
    assert coords_in_basis((3, 3), ((1, 1),)) == (3,)
    assert coords_in_basis((1, 2), ((1, 1),)) is None
    assert coords_in_basis((0, 0), ()) == ()
    assert coords_in_basis((0, 1), ()) is None


def test_coords_in_basis_matches_hnf_oracle():
    # unsaturated Hermite bases, and primitive vectors of their rational
    # span that may miss the lattice; the oracle is an HNF without coords
    rng = random.Random(7)
    seen = {True: 0, False: 0}
    for width in range(1, 9):
        for _ in range(12):
            rows = tuple(tuple(rng.randint(-4, 4) for _ in range(width))
                         for _ in range(rng.randint(0, width)))
            basis = row_hnf(rows, width)
            for _ in range(8):
                v = mat_vec(transpose(basis), [rng.randint(-3, 3) for _ in basis])
                if not any(v) or rng.random() < 0.3:
                    v = tuple(rng.randint(-2, 2) for _ in range(width))
                elif rng.random() < 0.5:
                    v = tuple(x // gcd(*v) for x in v)
                coords = coords_in_basis(v, basis)
                member = row_hnf(basis + (v,), width) == basis
                assert (coords is not None) == member
                seen[member] += 1
                if member:
                    assert len(coords) == len(basis)
                    assert mat_vec(transpose(basis), coords) == v if basis else not any(v)
    assert min(seen.values()) > 100


def test_mat_mul_transpose():
    a = ((1, 2), (3, 4))
    b = ((0, 1), (1, 0))
    assert mat_mul(a, b) == ((2, 1), (4, 3))
    assert transpose(a) == ((1, 3), (2, 4))


def test_mat_mul_and_mat_vec_match_triple_loop():
    def naive_mul(a, b):
        width = len(b[0]) if b else 0
        return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(len(b)))
                           for j in range(width)) for i in range(len(a)))

    def naive_vec(m, v):
        return tuple(sum(m[i][k] * v[k] for k in range(len(v))) for i in range(len(m)))

    rng = random.Random(113)
    shapes = [(3, 5, 2), (1, 4, 3), (4, 1, 5), (2, 3, 1), (1, 1, 1), (6, 6, 6), (3, 0, 0),
              (0, 0, 0)]
    shapes += [tuple(rng.randint(1, 7) for _ in range(3)) for _ in range(20)]
    for p, q, s in shapes:
        a = tuple(tuple(rng.randint(-9, 9) for _ in range(q)) for _ in range(p))
        b = tuple(tuple(rng.randint(-9, 9) for _ in range(s)) for _ in range(q))
        v = tuple(rng.randint(-9, 9) for _ in range(q))
        assert mat_mul(a, b) == naive_mul(a, b)
        assert mat_vec(a, v) == naive_vec(a, v)
        assert mat_mul(a, transpose(a)) == naive_mul(a, transpose(a))
    assert mat_mul((), ()) == () and mat_vec((), ()) == ()
    assert transpose(()) == () and mat_mul(((1, 2),), transpose(())) == ((),)
    assert mat_mul(((), ()), ()) == ((), ()) and mat_vec(((), ()), ()) == (0, 0)
    assert all(type(x) is tuple for x in mat_mul(((1, 2),), ((3,), (4,))))
