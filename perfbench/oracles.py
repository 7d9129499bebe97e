"""Independent checks for benchmark results.

Nothing here imports fticalc: every oracle recomputes the value it checks
by a different method (an interval DP for boundary degree, exact
interpolation for Alexander polynomials, modular determinants, a
column-update transvection multiplier), or checks a property the result
must have. Each check returns None when the result is right and a short
reason when it is wrong, so the runner can count failures without
raising.
"""

from fractions import Fraction
from itertools import combinations

PRIMES = (2147483647, 2305843009213693951)


# -- chord diagrams -----------------------------------------------------------

def bd_single_circle(seq):
    """Largest set of pairwise non-interleaved chords on one circle.

    Cutting the circle anywhere turns chords into intervals; a set is
    non-crossing when its intervals are nested or disjoint, so an O(N^2)
    interval DP (maximum planar subset) gives the exact value.
    """
    n = len(seq)
    partner = [0] * n
    first = {}
    for p, tok in enumerate(seq):
        if tok in first:
            q = first[tok]
            partner[p], partner[q] = q, p
        else:
            first[tok] = p
    # best[i][j]: largest non-crossing set of chords inside positions i..j
    best = [[0] * (n + 1) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        row = best[i]
        nxt = best[i + 1]
        p = partner[i]
        for j in range(i + 1, n):
            v = nxt[j]
            if i < p <= j:
                w = 1 + (best[i + 1][p - 1] if p - 1 > i else 0)
                if p + 1 <= j:
                    w += best[p + 1][j]
                if w > v:
                    v = w
            row[j] = v
    return best[0][n - 1] if n else 0


def _crossing_pairs(circles):
    per = {}
    for c, seq in enumerate(circles):
        for p, tok in enumerate(seq):
            per.setdefault(tok, {}).setdefault(c, []).append(p)
    ids = sorted(per)
    cross = set()
    for a, b in combinations(ids, 2):
        for c in per[a].keys() & per[b].keys():
            pa, pb = per[a][c], per[b][c]
            if len(pa) == 2 and len(pb) == 2:
                lo, hi = sorted(pa)
                if (lo < pb[0] < hi) != (lo < pb[1] < hi):
                    cross.add((a, b))
                    break
    return ids, cross


def bd_bruteforce(circles):
    """Boundary degree of a small multi-circle diagram by subset search."""
    ids, cross = _crossing_pairs(circles)
    for size in range(len(ids), 0, -1):
        for sub in combinations(ids, size):
            if all((a, b) not in cross for a, b in combinations(sub, 2)):
                return size
    return 0


def bd_any(circles):
    if len(circles) == 1:
        return bd_single_circle(circles[0])
    return bd_bruteforce(circles)


def check_reduction(terms, m, coeff_sum):
    """Postcondition of tower and multi-circle reduction.

    terms: iterable of (circles, marks); every term needs boundary degree
    >= m or >= m marks, and the coefficients must still sum to 1.
    """
    if coeff_sum != 1:
        return "coefficient sum %s != 1" % coeff_sum
    for circles, marks in terms:
        if marks < m and bd_any(circles) < m:
            return "term %r has boundary degree < %d and %d marks" % (circles, m, marks)
    return None


# -- exact integer and rational algebra ---------------------------------------

def det_mod(m, p):
    """Determinant of an integer matrix modulo a prime."""
    a = [[x % p for x in row] for row in m]
    n = len(a)
    d = 1
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            d = -d
        d = d * a[c][c] % p
        inv = pow(a[c][c], p - 2, p)
        for r in range(c + 1, n):
            f = a[r][c] * inv % p
            if f:
                ar, ac = a[r], a[c]
                for k in range(c, n):
                    ar[k] = (ar[k] - f * ac[k]) % p
    return d % p


def unit_det_sign(m):
    """+1 or -1 when det(m) is a unit, judged modulo two large primes; else None."""
    signs = set()
    for p in PRIMES:
        d = det_mod(m, p)
        if d == 1:
            signs.add(1)
        elif d == p - 1:
            signs.add(-1)
        else:
            return None
    return signs.pop() if len(signs) == 1 else None


def det_fraction(m):
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    d = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            d = -d
        d *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return d


def alexander_coeffs(a):
    """Normalized Alexander polynomial of a knot block as {exponent: coeff}.

    Evaluates det(tA - A^T) exactly at 2g+1 integer points and solves for
    the coefficients by Lagrange interpolation, then shifts by t^-g and
    fixes the sign so that Delta(1) = 1.
    """
    n = len(a)
    g = n // 2
    pts = list(range(1, n + 2))
    vals = [
        det_fraction([[t * a[i][j] - a[j][i] for j in range(n)] for i in range(n)])
        for t in pts
    ]
    coeffs = [Fraction(0)] * (n + 1)
    for k, (xk, yk) in enumerate(zip(pts, vals)):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, xj in enumerate(pts):
            if j == k:
                continue
            basis = [Fraction(0)] + basis
            for d in range(len(basis) - 1):
                basis[d] -= xj * basis[d + 1]
            denom *= xk - xj
        for d in range(n + 1):
            coeffs[d] += yk * basis[d] / denom
    sign = 1 if vals[0] == 1 else -1
    return {d - g: int(sign * c) for d, c in enumerate(coeffs) if c}


def second_derivative_at_one(coeffs):
    """Differentiate twice coefficient-wise, then evaluate at t = 1."""
    d1 = {k - 1: k * c for k, c in coeffs.items() if k != 0}
    d2 = {k - 1: k * c for k, c in d1.items() if k != 0}
    return sum(d2.values())


def check_alexander(a, coeffs, phi_value):
    """Symmetry, normalization, interpolation agreement and phi."""
    if any(coeffs.get(k) != coeffs.get(-k) for k in coeffs):
        return "Delta(t) != Delta(1/t)"
    if sum(coeffs.values()) != 1:
        return "Delta(1) != 1"
    if coeffs != alexander_coeffs(a):
        return "Delta differs from the interpolated determinant"
    if phi_value != second_derivative_at_one(coeffs):
        return "phi != second derivative of Delta at 1"
    return None


def laurent_text(coeffs):
    """The CLI's rendering of a Laurent polynomial (highest degree first)."""
    if not coeffs:
        return "0"
    parts = []
    for k in sorted(coeffs, reverse=True):
        c = coeffs[k]
        mono = "t" if k == 1 else "t^%d" % k
        if k == 0:
            body = str(abs(c))
        else:
            body = mono if abs(c) == 1 else "%d*%s" % (abs(c), mono)
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


# -- symplectic lattice ---------------------------------------------------------

def pairing(u, v):
    g = len(u) // 2
    return sum(u[i] * v[g + i] - u[g + i] * v[i] for i in range(g))


def upper_unitriangular(c):
    g = len(c)
    rows = [tuple([1 if k == i else 0 for k in range(g)]) + tuple(c[i]) for i in range(g)]
    rows += [tuple([0] * g + [1 if k == i else 0 for k in range(g)]) for i in range(g)]
    return tuple(rows)


def transvection_product(g, data):
    """Product of x -> x + s<v,x>v, by sparse column updates."""
    n = 2 * g
    m = [[1 if i == k else 0 for k in range(n)] for i in range(n)]
    for v, sign in data:
        # column c of the factor is e_c + sign * <v, e_c> v
        w = [pairing(v, tuple(1 if k == c else 0 for k in range(n))) for c in range(n)]
        mv = [sum(m[i][r] * v[r] for r in range(n) if v[r]) for i in range(n)]
        for c in range(n):
            if w[c]:
                s = sign * w[c]
                for i in range(n):
                    m[i][c] += s * mv[i]
    return tuple(tuple(row) for row in m)


def is_lagrangian(basis, g):
    if len(basis) != g:
        return False
    return all(pairing(u, v) == 0 for u, v in combinations(basis, 2))


# -- exterior algebra -------------------------------------------------------------

def wedge3_minors(u, v, w):
    """Coordinates of u ^ v ^ w on the basis e_i ^ e_j ^ e_k, i < j < k."""
    out = {}
    for i, j, k in combinations(range(len(u)), 3):
        c = (u[i] * (v[j] * w[k] - v[k] * w[j])
             - u[j] * (v[i] * w[k] - v[k] * w[i])
             + u[k] * (v[i] * w[j] - v[j] * w[i]))
        if c:
            out[(i, j, k)] = Fraction(c)
    return out


def multivector_text(terms, grade):
    """The CLI's rendering of a sparse exterior element."""
    if not terms:
        return "0"
    parts = []
    for key in sorted(terms):
        if grade == "tensor12":
            body = "%d@%d^%d" % (key[0] + 1, key[1] + 1, key[2] + 1)
        else:
            body = "^".join(str(i + 1) for i in key)
        parts.append("%s*%s" % (terms[key], body))
    return " + ".join(parts)


# -- free groups --------------------------------------------------------------------

def lie_bracket_words(letters):
    """The degree-d part of the Magnus image of a left-normed commutator.

    For [[x_a, x_b], ...] this is the left-normed Lie bracket of the X's,
    expanded as {word: coeff}; it is nonzero exactly when the I-adic
    degree of the commutator equals its depth.
    """
    poly = {(letters[0],): 1}
    for idx in letters[1:]:
        nxt = {}
        for w, c in poly.items():
            nxt[w + (idx,)] = nxt.get(w + (idx,), 0) + c
            nxt[(idx,) + w] = nxt.get((idx,) + w, 0) - c
        poly = {w: c for w, c in nxt.items() if c}
    return poly


def bracket_text(label, r):
    """CLI output of `blink bracket` for an r-pair blink: 2^r signed terms."""
    terms = []
    for mask in range(1 << r):
        chosen = [p for p in range(r) if mask >> p & 1]
        tags = ",".join(sorted("p%d" % p for p in chosen))
        terms.append((chosen, "term.%s{%s}=%d" % (label, tags, -1 if len(chosen) % 2 else 1)))
    terms.sort(key=lambda t: t[0])
    return "terms=%d\n" % (1 << r) + "".join(line + "\n" for _, line in terms)
