"""Difference-action identities for maps fixing a Lagrangian pointwise.

An LbarElement packages a Lagrangian L together with a symplectic matrix
that restricts to the identity on L and moves every class only by an
element of L, so (matrix - I)^2 = 0. These are exactly the homological
shadows needed for the iterated-commutator computations on Lambda^3 H
and H tensor Lambda^2 H, and for the lower-central-series containment
checks: the target subspaces at levels 2..5 are

    2: (L x Lambda^2 H) + (H x K)
    3: (L x K) + (H x Lambda^2 L)
    4: L x Lambda^2 L
    5: 0

with K = ker(Lambda^2 H -> Lambda^2 (H/L)) = L ^ H. Applying the
difference action promotes membership by one level.

In a basis that starts with a basis of L (the L-indices), the level-n
target is spanned by the basis terms a@(i^j) with at least n - 1 L-indices
among a, i, j. So the level of x is read off its support in that basis.
"""

from itertools import combinations

from . import _intlinalg as la
from . import _lincomb as lc
from .exterior import (
    MultiVector,
    _sum_products,
    act,
    adapted_matrix,
    kernel_wedge2_generators,
    tensor_wedge,
    wedge,
)
from .symplectic import SpMatrix


class LbarElement:
    """A symplectic matrix equal to the identity on a Lagrangian L,
    with (matrix - I) H contained in L."""

    def __init__(self, lat, l, matrix):
        if not isinstance(matrix, SpMatrix) or matrix.lat != lat or l.lat != lat:
            raise ValueError("mismatched ambient lattice")
        if not l.is_lagrangian():
            raise ValueError("L must be a Lagrangian")
        for v in l.basis:
            if matrix.apply(v) != v:
                raise ValueError("matrix must fix L pointwise")
        # That puts (M - I) H in L: for x in L, <x, (M - I)y> = <Mx, My> -
        # <x, y> = 0 as M is symplectic and fixes x, and L^perp = L for a
        # saturated Lagrangian L.
        self.lat = lat
        self.l = l
        self.matrix = matrix

    @classmethod
    def from_symmetric(cls, lat, c):
        """[[I, C], [0, I]] for symmetric C, fixing L = span(e).

        The checks of __init__ hold by construction: the matrix fixes
        every e_i and span(e) is a Lagrangian, so the element is built
        without them; a non-symmetric C still raises in
        upper_unitriangular."""
        m = SpMatrix.upper_unitriangular(lat, c)
        return lc.new(cls, lat=lat, l=lat.standard_lplus(), matrix=m)

    def delta(self, v):
        """(matrix - I) applied to a coordinate vector."""
        return tuple(a - b for a, b in zip(self.matrix.apply(v), v))

    def __repr__(self):
        return "LbarElement(g=%d)" % self.lat.genus


def _delta(lam, x, grade):
    """(lambda - 1) x by the three-term expansion of each term of x.

    A term with key (k0, k1, k2) expands to the (head, tail) products
        (d0, c1 c2) + (e0, d1 c2) + (e0, e1 d2),
    where c = lambda e is a column of lambda, e a unit vector and d = c - e.
    Only the columns k in the keys of x are built, so a call costs
    O(|support| * dim), not O(dim^2).
    """
    if x.grade != grade:
        raise ValueError("expected a %s element" % grade)
    if x.dim != lam.lat.dim:
        raise ValueError("ambient dimension mismatch")
    rows, n = lam.matrix.entries, x.dim
    c, e, d = {}, {}, {}
    for k in {k for key, _ in x.terms for k in key}:
        c[k] = tuple(row[k] for row in rows)
        e[k] = (0,) * k + (1,) + (0,) * (n - k - 1)
        d[k] = c[k][:k] + (c[k][k] - 1,) + c[k][k + 1:]

    def expansion(key):
        k0, k1, k2 = key
        return ((d[k0], (c[k1], c[k2])), (e[k0], (d[k1], c[k2])), (e[k0], (e[k1], d[k2])))

    return _sum_products(x, n, expansion)


def lmo_delta(lam, x):
    """(lambda - 1) x on H tensor Lambda^2 H by the three-term expansion.

    For one term a@(a1^a2) the expansion is
        (lambda-1)a @ lambda(a1^a2) + a @ ((lambda-1)a1 ^ lambda a2)
        + a @ (a1 ^ (lambda-1)a2),
    extended linearly; this equals act(lambda, x) - x exactly.
    """
    return _delta(lam, x, "tensor12")


def lmo1_delta(lam, w):
    """(lambda - 1) w on Lambda^3 H by the three-term expansion.

    For one term a1^a2^a3:
        (lambda-1)a1 ^ lambda a2 ^ lambda a3 + a1 ^ (lambda-1)a2 ^ lambda a3
        + a1 ^ a2 ^ (lambda-1)a3,
    which equals act(lambda, w) - w exactly.
    """
    return _delta(lam, w, "wedge3")


def triple_commutator_tau(lam, w):
    """The difference action applied three times to a wedge3 element.

    On a decomposable a1^a2^a3 the value is exactly
    6 (lambda-1)a1 ^ (lambda-1)a2 ^ (lambda-1)a3, a consequence of
    (lambda-1) vanishing on L.
    """
    return lmo1_delta(lam, lmo1_delta(lam, lmo1_delta(lam, w)))


def level_generators(n, l):
    """Generating set of the level-n target subspace of H tensor Lambda^2 H."""
    if n not in (2, 3, 4, 5):
        raise ValueError("level must be one of 2, 3, 4, 5")
    if not l.is_lagrangian():
        raise ValueError("L must be a Lagrangian")
    if n == 5:
        return ()
    dim = l.lat.dim
    std = la.identity(dim)
    wedge2_all = [
        MultiVector(dim, "wedge2", {key: 1}) for key in combinations(range(dim), 2)
    ]
    wedge2_l = [
        wedge((u, v))
        for i, u in enumerate(l.basis)
        for v in l.basis[i + 1:]
    ]
    wedge2_l = [w for w in wedge2_l if not w.is_zero()]
    k_gens = kernel_wedge2_generators(l)
    gens = []
    if n == 2:
        gens += [tensor_wedge(v, w) for v in l.basis for w in wedge2_all]
        gens += [tensor_wedge(b, k) for b in std for k in k_gens]
    elif n == 3:
        gens += [tensor_wedge(v, k) for v in l.basis for k in k_gens]
        gens += [tensor_wedge(b, w) for b in std for w in wedge2_l]
    elif n == 4:
        gens += [tensor_wedge(v, w) for v in l.basis for w in wedge2_l]
    return tuple(g for g in gens if not g.is_zero())


def filtration_level(x, l):
    """The largest n in 2..5 with x in the level-n target subspace, or 1.

    Written in an L-adapted basis, x has level 1 + the fewest L-indices in
    any of its terms, and level 5 when it is zero.
    """
    if x.grade != "tensor12":
        raise ValueError("filtration_level expects a tensor12 element")
    if x.dim != l.lat.dim:
        raise ValueError("ambient dimension mismatch")
    if not l.is_lagrangian():
        raise ValueError("L must be a Lagrangian")
    y = act(adapted_matrix(l), x)
    if y.is_zero():
        return 5
    return 1 + min(sum(1 for t in key if t < l.rank) for key, _ in y.terms)


def filtration_containment(n, x, l):
    """Membership of x in the level-n target subspace (exact Q-linear test)."""
    if n not in (2, 3, 4, 5):
        raise ValueError("level must be one of 2, 3, 4, 5")
    return filtration_level(x, l) >= n
