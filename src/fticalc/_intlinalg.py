"""Exact linear algebra over Z on small dense matrices.

Matrices are tuples of row tuples, dense and of modest size (blink
linking matrices reach dimension 64 in the benchmark's determinants).
There are two eliminations: fraction-free Bareiss for determinants, and
the gcd-based integer row echelon `_echelon`, which carries lattice
normal forms, ranks, kernels, unimodular inverses and lattice
coordinates. No floating point and no fractions. The module is also the
rank and echelon kernel behind span membership in the exterior algebra,
and its det yields the Alexander polynomial by interpolation.

Bareiss updates one list per row in place; each step binds the pivot
row, the pivot and each row's multiplier once, so the inner loop is one
multiply, subtract and exact division per entry, over the upper triangle
only when the input is symmetric (a blink linking matrix). Products are
map(mul).
"""

from operator import mul


def identity(n):
    return tuple((0,) * i + (1,) + (0,) * (n - i - 1) for i in range(n))


def transpose(m):
    return tuple(zip(*m)) if m else ()


def int_row(row):
    """row as a tuple of ints. int() truncates 1.5 and Fraction(1, 2), so a
    converted row that differs from the given one raises ValueError."""
    row = tuple(row)
    out = tuple(map(int, row))
    if out != row:
        raise ValueError("entries must be integers")
    return out


def int_value(x):
    """x as an int, by the rule of int_row: 3.0 and Fraction(4, 2) pass,
    while 1.5 and Fraction(1, 2), which int() truncates, raise ValueError."""
    out = int(x)
    if out != x:
        raise ValueError("%r is not an integer" % (x,))
    return out


def is_symmetric(m):
    """Whether m is square and equal to its transpose. zip yields one tuple
    per column, cut at the shortest row, so a ragged or non-square m
    compares unequal."""
    return tuple(map(tuple, m)) == tuple(zip(*m))


def mat_mul(a, b):
    bt = tuple(zip(*b))
    return tuple(tuple([sum(map(mul, row, col)) for col in bt]) for row in a)


def mat_vec(m, v):
    return tuple([sum(map(mul, row, v)) for row in m])


def vec_add(u, v):
    return tuple(x + y for x, y in zip(u, v))


def det(m):
    """Exact integer determinant (fraction-free Bareiss).

    A symmetric input stays symmetric, so only its upper triangle is
    updated. At a zero pivot the triangle is mirrored, and rows and columns
    k, i are swapped for a nonzero a[i][i] (a similarity: the sign stays);
    with none, as in [[0, 1], [1, 0]] blocks, a row swap and the general
    loop finish.
    """
    n = len(m)
    if n == 0:
        return 1
    if any(len(row) != n for row in m):
        raise ValueError("determinant of a non-square matrix")
    a = [list(row) for row in m]
    sym = n > 1 and m[0][1] == m[1][0] and is_symmetric(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            if sym:
                for i in range(k + 1, n):
                    a[i][k:i] = [a[j][i] for j in range(k, i)]
                i = next((i for i in range(k + 1, n) if a[i][i]), None)
                if i is None:
                    sym = False
                else:
                    a[k], a[i] = a[i], a[k]
                    for r in a:
                        r[k], r[i] = r[i], r[k]
            if not sym:
                for i in range(k + 1, n):
                    if a[i][k] != 0:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
        # column k below the pivot is never read again, so it is not zeroed
        row = a[k]
        p = row[k]
        cols = range(k + 1, n)
        if sym:
            for i in cols:
                ai = a[i]
                f = row[i]
                for j in range(i, n):
                    ai[j] = (ai[j] * p - f * row[j]) // prev
        else:
            for i in cols:
                ai = a[i]
                f = ai[k]
                for j in cols:
                    ai[j] = (ai[j] * p - f * row[j]) // prev
        prev = p
    return sign * a[n - 1][n - 1]


def _echelon(rows, width):
    """Integer row echelon by unimodular row operations.

    Returns (rows, pivot_columns); zero rows are dropped. The row span
    over Z is preserved exactly.
    """
    work = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(width):
        nz = [i for i in range(r, len(work)) if work[i][c] != 0]
        if not nz:
            continue
        while len(nz) > 1:
            nz.sort(key=lambda i: abs(work[i][c]))
            p = nz[0]
            for i in nz[1:]:
                q = work[i][c] // work[p][c]
                work[i] = [x - q * y for x, y in zip(work[i], work[p])]
            nz = [i for i in nz if work[i][c] != 0]
        p = nz[0]
        work[r], work[p] = work[p], work[r]
        if work[r][c] < 0:
            work[r] = [-x for x in work[r]]
        pivots.append(c)
        r += 1
    return work[:r], pivots


def row_hnf(rows, width):
    """Canonical Hermite basis of the Z-span of the given rows.

    Pivots are positive, entries above each pivot are reduced into
    [0, pivot). Two generating sets span the same lattice iff their
    row_hnf outputs are equal.
    """
    work, pivots = _echelon(rows, width)
    # reduce left to right so later passes cannot disturb finished columns
    for i in range(len(work)):
        c = pivots[i]
        for j in range(i):
            q = work[j][c] // work[i][c]
            if q:
                work[j] = [x - q * y for x, y in zip(work[j], work[i])]
    return tuple(tuple(r) for r in work)


def rank(rows, width):
    return len(_echelon(rows, width)[0])


def _transform_echelon(rows, width):
    """Integer echelon of [rows^T | I], as (rows, pivot_columns).

    The rows stack to [T . rows^T | T]: the identity block records the
    unimodular transform T.
    """
    m = len(rows)
    aug = [[rows[i][j] for i in range(m)] + [1 if k == j else 0 for k in range(width)]
           for j in range(width)]
    return _echelon(aug, m + width)


def int_kernel(rows, width):
    """Basis (canonical HNF) of {x in Z^width : M x = 0}."""
    m = len(rows)
    ech, _ = _transform_echelon(rows, width)
    ker = [r[m:] for r in ech if all(x == 0 for x in r[:m])]
    return row_hnf(ker, width)


def saturate(rows, width):
    """Canonical basis of the saturation (Q-span intersected with Z^width)."""
    if not any(any(row) for row in rows):
        return ()
    ann = int_kernel(rows, width)
    return int_kernel(ann, width)


def invert_unimodular(t):
    """Exact inverse of a unimodular integer matrix.

    The Hermite form of [t | I] is [I | t^-1] exactly when t is
    unimodular, since that form is unique and t^-1 [t | I] has it.
    """
    n = len(t)
    h = row_hnf([tuple(row) + e for row, e in zip(t, identity(n))], 2 * n)
    if tuple(r[:n] for r in h) != identity(n):
        raise ValueError("matrix is not unimodular")
    return tuple(r[n:] for r in h)


def adapted_rows(basis, width):
    """Rows sending Z^width coordinates to coordinates in an adapted basis.

    The adapted basis is the saturated basis followed by the complement
    that complete_to_unimodular returns. The transform echelon gives
    T . basis^T = [E; 0], E upper unitriangular, and the complement is
    read off T^-1 so that T . [basis; complement]^T = diag(E, I); the rows
    are therefore diag(E^-1, I) . T, the first ones by integer
    back-substitution.
    """
    a = len(basis)
    ech, pivots = _transform_echelon(basis, width)
    if len(ech) != width:
        raise RuntimeError("echelon dropped a row of the identity block")
    # pivots 0..a-1 with unit diagonal <=> |det E| = 1 (pivots are positive)
    if pivots[:a] != list(range(a)) or any(ech[i][i] != 1 for i in range(a)):
        raise ValueError("basis is not saturated")
    rows = [r[a:] for r in ech]
    for i in range(a - 1, -1, -1):
        for j in range(i + 1, a):
            f = ech[i][j]
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[j])]
    return tuple(tuple(r) for r in rows)


def complete_to_unimodular(basis, width):
    """Rows completing a saturated lattice basis to a basis of Z^width.

    The stacked matrix [basis; result] is unimodular, so Z^width is the
    direct sum of the input lattice and the span of the returned rows.
    """
    a = len(basis)
    if a == 0:
        return identity(width)
    return transpose(invert_unimodular(adapted_rows(basis, width)))[a:]


def coords_in_basis(v, hnf_rows):
    """Integer coordinates of v in the lattice given by HNF rows, or None.

    None means v is not in the lattice; this is the membership test.
    """
    v = list(v)
    coords = []
    for row in hnf_rows:
        c = next(i for i, x in enumerate(row) if x != 0)
        if v[c] % row[c] != 0:
            return None
        q = v[c] // row[c]
        if q:
            v = [x - q * y for x, y in zip(v, row)]
        coords.append(q)
    return tuple(coords) if not any(v) else None
