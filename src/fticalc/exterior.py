"""Exact multilinear algebra over the symplectic lattice.

Three graded pieces are supported: wedge2 (Lambda^2 H), wedge3
(Lambda^3 H) and tensor12 (H tensor Lambda^2 H), with int coefficients
unless a division makes them Fractions (subspace membership is a
Q-linear question; iterated-commutator values carry factors like 6).

Elements are sparse maps from canonically ordered index tuples to
nonzero coefficients; indices are 0-based coordinates of the ambient
space, which is Z^(2g) for surface homology or Z^g after a quotient by
a Lagrangian. Values are immutable and operations pure.

Text form: terms "coeff*i^j", "coeff*i^j^k" or "coeff*a@i^j" (tensor
slot before '@'), joined by ' + ', with 1-based indices and integer or
rational coefficients; "0" is the zero element. Round-trips exactly.

Every matrix action is summed by one accumulator, _sum_products: act and
the difference actions of johnson hand it each term's products as a head
vector and a tail of factors. A product is linear in its head, so the
accumulator sums the heads of each distinct tail and expands every tail
once, over its joint support, into one integer dict.
"""

from fractions import Fraction
from itertools import combinations
from math import lcm

from . import _intlinalg as la
from . import _lincomb as lc

GRADES = ("wedge2", "wedge3", "tensor12")


def _key_sort(grade, key, c):
    """The term c*key as (canonical key, signed coefficient), or None if it
    vanishes."""
    if grade == "wedge2":
        i, j = key
        if i == j:
            return None
        return ((i, j), c) if i < j else ((j, i), -c)
    if grade == "wedge3":
        i, j, k = key
        if len({i, j, k}) < 3:
            return None
        order = tuple(sorted((i, j, k)))
        perm = [order.index(x) for x in (i, j, k)]
        return (order, c if perm in ([0, 1, 2], [1, 2, 0], [2, 0, 1]) else -c)
    if grade == "tensor12":
        a, i, j = key
        if i == j:
            return None
        return ((a, i, j), c) if i < j else ((a, j, i), -c)
    raise ValueError("unknown grade %r" % (grade,))


class MultiVector:
    """A sparse exact element of Lambda^2, Lambda^3 or H tensor Lambda^2."""

    __slots__ = ("dim", "grade", "terms")

    def __init__(self, dim, grade, terms):
        if grade not in GRADES:
            raise ValueError("unknown grade %r" % (grade,))
        self.dim = int(dim)
        self.grade = grade
        terms = [(tuple(k), c) for k, c in lc.pairs(terms) if c]
        if any(not 0 <= x < self.dim for k, _ in terms for x in k):
            raise ValueError("index out of range for dimension %d" % self.dim)
        signed = [_key_sort(grade, k, c) for k, c in terms]
        self.terms = tuple(sorted(lc.collect(t for t in signed if t).items()))

    @classmethod
    def zero(cls, dim, grade):
        return cls(dim, grade, {})

    def is_zero(self):
        return not self.terms

    def _like(self, terms):
        return lc.new(MultiVector, dim=self.dim, grade=self.grade,
                      terms=tuple(sorted(terms.items())))

    def __add__(self, other):
        self._check(other)
        return self._like(lc.add(self.terms, other.terms))

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, scalar):
        return self._like(lc.scale(scalar, self.terms))

    def __neg__(self):
        return (-1) * self

    def __eq__(self, other):
        return (
            isinstance(other, MultiVector)
            and other.dim == self.dim
            and other.grade == self.grade
            and other.terms == self.terms
        )

    def __hash__(self):
        return hash((self.dim, self.grade, self.terms))

    def __repr__(self):
        return "MultiVector(%d, %r, %s)" % (self.dim, self.grade, self.to_text())

    def _check(self, other):
        if not isinstance(other, MultiVector):
            raise TypeError("expected a MultiVector")
        if other.dim != self.dim or other.grade != self.grade:
            raise ValueError("grade or ambient dimension mismatch")

    def to_text(self):
        if not self.terms:
            return "0"
        parts = []
        for key, coeff in self.terms:
            if self.grade == "tensor12":
                body = "%d@%d^%d" % (key[0] + 1, key[1] + 1, key[2] + 1)
            else:
                body = "^".join(str(i + 1) for i in key)
            parts.append("%s*%s" % (coeff, body))
        return " + ".join(parts)

    @classmethod
    def from_text(cls, text, dim, grade=None):
        text = text.strip()
        if text == "0":
            if grade is None:
                raise ValueError("the zero element needs an explicit grade")
            return cls.zero(dim, grade)
        terms = []
        for part in text.split("+"):
            part = part.strip()
            if not part:
                raise ValueError("empty term")
            coeff_text, _, body = part.partition("*")
            if not body:
                raise ValueError("term %r lacks '*'" % part)
            coeff = Fraction(coeff_text.strip())
            if coeff.denominator == 1:
                coeff = coeff.numerator
            body = body.strip()
            if "@" in body:
                slot, _, wedge_part = body.partition("@")
                idx = (int(slot),) + tuple(int(x) for x in wedge_part.split("^"))
                if len(idx) != 3:
                    raise ValueError("tensor term %r must be a@i^j" % part)
                this_grade = "tensor12"
            else:
                idx = tuple(int(x) for x in body.split("^"))
                this_grade = {2: "wedge2", 3: "wedge3"}.get(len(idx))
                if this_grade is None:
                    raise ValueError("term %r has unsupported arity" % part)
            if grade is None:
                grade = this_grade
            elif grade != this_grade:
                raise ValueError("mixed grades in %r" % text)
            terms.append((tuple(i - 1 for i in idx), coeff))
        return cls(dim, grade, terms)


def _wedge_terms(factors):
    """Nonzero coordinates of the wedge of 2 or 3 vectors, keyed canonically.

    Only index tuples inside the joint support of the factors can be nonzero.
    """
    support = sorted({i for v in factors for i, x in enumerate(v) if x})
    terms = {}
    if len(factors) == 2:
        u, v = factors
        for i, j in combinations(support, 2):
            c = u[i] * v[j] - u[j] * v[i]
            if c:
                terms[(i, j)] = c
        return terms
    u, v, w = factors
    for i, j, k in combinations(support, 3):
        c = (
            u[i] * (v[j] * w[k] - v[k] * w[j])
            - u[j] * (v[i] * w[k] - v[k] * w[i])
            + u[k] * (v[i] * w[j] - v[j] * w[i])
        )
        if c:
            terms[(i, j, k)] = c
    return terms


def wedge(factors):
    """Alternating product of 2 or 3 coordinate vectors."""
    factors = [tuple(v) for v in factors]
    if len(factors) not in (2, 3):
        raise ValueError("wedge takes 2 or 3 factors")
    dim = len(factors[0])
    if any(len(v) != dim for v in factors):
        raise ValueError("factor length mismatch")
    grade = "wedge2" if len(factors) == 2 else "wedge3"
    return MultiVector(dim, grade, _wedge_terms(factors))


def tensor_wedge(a, bc):
    """a tensor (b wedge c) for a coordinate vector a and a wedge2 element."""
    a = tuple(a)
    dim = len(a)
    if bc.grade != "wedge2" or bc.dim != dim:
        raise ValueError("expected a vector and a wedge2 element of matching dimension")
    return MultiVector(dim, "tensor12", (
        ((s, i, j), x * c) for s, x in enumerate(a) if x for (i, j), c in bc.terms
    ))


def embed_wedge3(w):
    """The canonical injection of Lambda^3 H into H tensor Lambda^2 H.

    On decomposables: x^y^z -> x@(y^z) + y@(z^x) + z@(x^y), extended
    linearly over the basis.
    """
    if w.grade != "wedge3":
        raise ValueError("embed_wedge3 expects a wedge3 element")
    return MultiVector(w.dim, "tensor12", (
        (key, c)
        for (i, j, k), c in w.terms
        for key in ((i, j, k), (j, k, i), (k, i, j))
    ))


def _matrix_rows(m):
    if hasattr(m, "entries"):
        return m.entries
    return tuple(tuple(row) for row in m)


def _column(rows, j):
    return tuple(row[j] for row in rows)


def _over_z(terms):
    """The least common denominator of the coefficients, and the terms times it."""
    scale = lcm(*(c.denominator for _, c in terms))
    return scale, [(k, c.numerator * (scale // c.denominator)) for k, c in terms]


def _sum_products(x, r, products):
    """The sum over the terms c*key of x of c times each product in products(key).

    products(key) yields (head, tail) pairs of coordinate vectors of length
    r: the product is head wedged with the one or two tail factors for
    wedge2/wedge3, and head tensored with the wedge of the two tail factors
    for tensor12. A product is linear in its head, so one pass sums c*head
    into one integer vector per distinct tail, and each tail is expanded
    once: wedged with its summed head, or, for tensor12, wedged alone and
    tensored with the summed head into one length-r row per wedge index.
    """
    # accumulate over Z with the common denominator of x taken out; the
    # keys come out canonical, so the result skips MultiVector's key rule
    scale, scaled = _over_z(x.terms)
    heads = {}
    for key, c in scaled:
        for head, tail in products(key):
            h = heads.get(tail)
            if h is None:
                heads[tail] = h = [0] * r
            for s, y in enumerate(head):
                if y:
                    h[s] += c * y
    acc = {}
    for tail, h in heads.items():
        if x.grade == "tensor12":
            head = [(s, y) for s, y in enumerate(h) if y]
            if not head:
                continue
            for ij, w in _wedge_terms(tail).items():
                row = acc.get(ij)
                if row is None:
                    acc[ij] = row = [0] * r
                for s, y in head:
                    row[s] += y * w
        elif any(h):
            for k, w in _wedge_terms((h,) + tail).items():
                acc[k] = acc.get(k, 0) + w
    if x.grade == "tensor12":
        acc = {(s,) + ij: v for ij, row in acc.items() for s, v in enumerate(row)}
    terms = sorted((k, v if scale == 1 else Fraction(v, scale)) for k, v in acc.items() if v)
    return lc.new(MultiVector, dim=r, grade=x.grade, terms=tuple(terms))


def act(m, x):
    """Functorial action of an r x dim matrix on each tensor or wedge slot.

    Column j of m is the image of basis vector j, so the result lives over
    Z^r: a square matrix acts on H, and quotient_matrix(L) maps to H/L.
    """
    rows = _matrix_rows(m)
    if any(len(r) != x.dim for r in rows):
        raise ValueError("matrix dimension does not match the element")
    cols = [_column(rows, j) for j in range(x.dim)]
    return _sum_products(x, len(rows),
                         lambda key: ((cols[key[0]], tuple(cols[k] for k in key[1:])),))


def adapted_matrix(l):
    """Rows sending H coordinates to coordinates in an L-adapted basis.

    The basis is L.basis followed by a unimodular complement, so the first
    rank(L) coordinates are the L-indices. The rows are diag(E^-1, I) . T,
    read off the echelon T . L.basis^T = [E; 0] without an inversion.
    """
    return la.adapted_rows(l.basis, l.lat.dim)


def quotient_matrix(l):
    """Rows sending H coordinates to coordinates in H/L.

    The quotient is identified with Z^g via the images of a canonical
    complement basis of the Lagrangian L.
    """
    if not l.is_lagrangian():
        raise ValueError("quotient is only taken by a Lagrangian")
    return adapted_matrix(l)[l.rank:]


def quotient_mod_L(x, l):
    """Image of x under the map induced by H -> H/L.

    The result lives over Z^g in the induced basis; x is in the kernel of
    the quotient map exactly when the result is zero.
    """
    if x.dim != l.lat.dim:
        raise ValueError("element and Lagrangian have different ambient lattices")
    return act(quotient_matrix(l), x)


def _integer_rows(vectors, index):
    """Coefficient rows over the given key index, each scaled to integers."""
    rows = [[0] * len(index) for _ in vectors]
    for row, v in zip(rows, vectors):
        for k, c in _over_z(v.terms)[1]:
            row[index[k]] = c
    return rows


def in_span(x, generators):
    """Whether x is a rational linear combination of the generators."""
    generators = tuple(generators)
    for gvec in generators:
        x._check(gvec)
    if x.is_zero():
        return True
    keys = sorted({k for v in generators + (x,) for k, _ in v.terms})
    index = {k: n for n, k in enumerate(keys)}
    rows = _integer_rows(generators + (x,), index)
    return la.rank(rows[:-1], len(keys)) == la.rank(rows, len(keys))


def kernel_wedge2_generators(l):
    """Generators of K = ker(Lambda^2 H -> Lambda^2 (H/L)), i.e. L ^ H.

    For L = span(e) this is the usual list {e_i^e_j, e_i^f_j}.
    """
    lat = l.lat
    if not l.is_lagrangian():
        raise ValueError("K is defined for a Lagrangian")
    gens = []
    n = lat.dim
    for v in l.basis:
        for b in la.identity(n):
            w = wedge((v, b))
            if not w.is_zero():
                gens.append(w)
    return tuple(gens)
