"""The genus-g symplectic lattice, its Lagrangians and transvections.

H is Z^(2g) with basis e_1..e_g, f_1..f_g (f_i is the dual partner of
e_i, written e'_i in the surface-homology picture) and the intersection
pairing <e_i, f_i> = 1, all other basis pairings zero. Sublattices are
always stored saturated, i.e. as direct summands, in a canonical Hermite
basis; this matches the role Lagrangians play as kernels of maps to the
homology of a handlebody side.

Values are immutable and every operation is a pure function, so
everything here can be shared freely between threads.
"""

from . import _intlinalg as la
from . import _lincomb as lc
from ._records import read


class IncompatibleLagrangians(ValueError):
    """The (L, L+, L-) triple fails the splitting L = (L^L+) + (L^L-)."""


class SymplecticLattice:
    """Z^(2g) with the standard antisymmetric unimodular pairing."""

    def __init__(self, genus):
        self.genus = la.int_value(genus)
        if self.genus < 1:
            raise ValueError("genus must be a positive integer")

    @property
    def dim(self):
        return 2 * self.genus

    def __eq__(self, other):
        return isinstance(other, SymplecticLattice) and other.genus == self.genus

    def __hash__(self):
        return hash(("SymplecticLattice", self.genus))

    def __repr__(self):
        return "SymplecticLattice(genus=%d)" % self.genus

    def e(self, i):
        """Basis vector e_i, 1 <= i <= g."""
        if not 1 <= i <= self.genus:
            raise ValueError("e index out of range")
        return (0,) * (i - 1) + (1,) + (0,) * (self.dim - i)

    def f(self, i):
        """Dual basis vector f_i (= e'_i), with <e_i, f_i> = 1."""
        if not 1 <= i <= self.genus:
            raise ValueError("f index out of range")
        return (0,) * (self.genus + i - 1) + (1,) + (0,) * (self.genus - i)

    def pairing_matrix(self):
        g = self.genus
        rows = []
        for i in range(2 * g):
            row = [0] * 2 * g
            if i < g:
                row[g + i] = 1
            else:
                row[i - g] = -1
            rows.append(tuple(row))
        return tuple(rows)

    def pairing(self, u, v):
        """The intersection form <u, v> = u^T J v; antisymmetric bilinear."""
        if len(u) != self.dim or len(v) != self.dim:
            raise ValueError("vectors must have length 2g")
        g = self.genus
        return sum(u[i] * v[g + i] - u[g + i] * v[i] for i in range(g))

    def standard_lplus(self):
        """span(e_1..e_g), the Lagrangian killed on the positive side. The
        unit vectors are already its saturated Hermite basis."""
        basis = tuple(self.e(i) for i in range(1, self.genus + 1))
        return lc.new(Sublattice, lat=self, basis=basis)

    def standard_lminus(self):
        """span(f_1..f_g), built from its Hermite basis as standard_lplus is."""
        basis = tuple(self.f(i) for i in range(1, self.genus + 1))
        return lc.new(Sublattice, lat=self, basis=basis)

    def to_text(self):
        return "g=%d\n" % self.genus

    @classmethod
    def from_text(cls, text):
        head, _, _ = read(text.splitlines(), {"g=": "#"})
        return cls(*head["g="])


def _read_lattice_rows(text):
    """The lattice of the first line, 'g=<g>', and the integer rows after it."""
    lines = text.strip().splitlines()
    head, _, _ = read(lines[:1], {"g=": "#"})
    _, _, rows = read(lines[1:], {}, rows=True)
    return SymplecticLattice(*head["g="]), rows


class Sublattice:
    """A direct summand of H, stored as a canonical saturated basis.

    Arbitrary generating vectors are accepted; construction replaces them
    with the Hermite basis of the saturation of their span, so rank equals
    the number of stored rows and membership of integer vectors reduces to
    a rational-span question.
    """

    def __init__(self, lat, generators):
        self.lat = lat
        gens = tuple(map(la.int_row, generators))
        for v in gens:
            if len(v) != lat.dim:
                raise ValueError("generator length must be 2g")
        self.basis = la.saturate(gens, lat.dim)

    @property
    def rank(self):
        return len(self.basis)

    def contains(self, v):
        if len(v) != self.lat.dim:
            raise ValueError("vector length must be 2g")
        return la.coords_in_basis(v, self.basis) is not None

    def intersection(self, other):
        self._check_ambient(other)
        ann1 = la.int_kernel(self.basis, self.lat.dim)
        ann2 = la.int_kernel(other.basis, self.lat.dim)
        return Sublattice(self.lat, la.int_kernel(ann1 + ann2, self.lat.dim))

    def is_lagrangian(self):
        """Rank g direct summand on which the pairing vanishes."""
        if self.rank != self.lat.genus:
            return False
        return all(
            self.lat.pairing(u, v) == 0
            for i, u in enumerate(self.basis)
            for v in self.basis[i + 1:]
        )

    def _check_ambient(self, other):
        if other.lat != self.lat:
            raise ValueError("sublattices of different ambient lattices")

    def __eq__(self, other):
        return (
            isinstance(other, Sublattice)
            and other.lat == self.lat
            and other.basis == self.basis
        )

    def __hash__(self):
        return hash((self.lat, self.basis))

    def __repr__(self):
        return "Sublattice(g=%d, basis=%r)" % (self.lat.genus, list(self.basis))

    def to_text(self):
        lines = ["g=%d" % self.lat.genus]
        lines += [" ".join(str(x) for x in row) for row in self.basis]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        return cls(*_read_lattice_rows(text))


class SpMatrix:
    """An integer matrix preserving the pairing: M^T J M = J exactly.

    The constructor checks it; the builders below hold it by construction."""

    def __init__(self, lat, entries):
        self.lat = lat
        self.entries = tuple(map(la.int_row, entries))
        n = lat.dim
        if len(self.entries) != n or any(len(r) != n for r in self.entries):
            raise ValueError("matrix must be 2g x 2g")
        if not self.is_symplectic():
            raise ValueError("matrix does not preserve the pairing")

    def is_symplectic(self):
        j = self.lat.pairing_matrix()
        m = self.entries
        return la.mat_mul(la.mat_mul(la.transpose(m), j), m) == j

    def apply(self, v):
        if len(v) != self.lat.dim:
            raise ValueError("vector length must be 2g")
        return la.mat_vec(self.entries, v)

    def inverse(self):
        # M^T J M = J gives M^(-1) = J^(-1) M^T J, which stays integral.
        j = self.lat.pairing_matrix()
        jinv = tuple(tuple(-x for x in row) for row in j)  # J^2 = -I
        inv = la.mat_mul(la.mat_mul(jinv, la.transpose(self.entries)), j)
        return lc.new(SpMatrix, lat=self.lat, entries=inv)

    def __matmul__(self, other):
        return compose(self, other)

    def __eq__(self, other):
        return (
            isinstance(other, SpMatrix)
            and other.lat == self.lat
            and other.entries == self.entries
        )

    def __hash__(self):
        return hash((self.lat, self.entries))

    def __repr__(self):
        return "SpMatrix(g=%d, %r)" % (self.lat.genus, [list(r) for r in self.entries])

    @classmethod
    def identity(cls, lat):
        return lc.new(cls, lat=lat, entries=la.identity(lat.dim))

    @classmethod
    def upper_unitriangular(cls, lat, c):
        """[[I, C], [0, I]] for a symmetric g x g block C."""
        g = lat.genus
        c = tuple(map(la.int_row, c))
        if len(c) != g or not la.is_symmetric(c):
            raise ValueError("C must be a symmetric g x g matrix")
        unit = la.identity(g)
        rows = tuple(u + r for u, r in zip(unit, c))
        return lc.new(cls, lat=lat, entries=rows + tuple((0,) * g + u for u in unit))

    def block_c(self):
        """The C block if the matrix has the form [[I, C], [0, I]], else None."""
        g = self.lat.genus
        m = self.entries
        ident = la.identity(g)
        tl = tuple(r[:g] for r in m[:g])
        bl = tuple(r[:g] for r in m[g:])
        br = tuple(r[g:] for r in m[g:])
        if tl != ident or br != ident or any(any(x for x in r) for r in bl):
            return None
        return tuple(r[g:] for r in m[:g])

    def to_text(self):
        lines = ["g=%d" % self.lat.genus]
        lines += [" ".join(str(x) for x in row) for row in self.entries]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        return cls(*_read_lattice_rows(text))


def compose(a, b):
    """Matrix product; for [[I,C],[0,I]] factors the C blocks add."""
    if a.lat != b.lat:
        raise ValueError("matrices over different lattices")
    return lc.new(SpMatrix, lat=a.lat, entries=la.mat_mul(a.entries, b.entries))


def transvection(lat, v, k):
    """The symplectic map x -> x + k * <v, x> * v, for a nonzero integer k.

    Since <v, v> = 0 this is exactly the k-th power of the twist with
    k = 1, so one matrix stands for |k| twists in one direction. For v
    in span(e) with coordinates lambda_i the matrix is [[I, C], [0, I]]
    with C = k * lambda lambda^T, so a twist on e_i with k = +1 sends
    f_i to f_i + e_i. The sign of k encodes the two possible twist
    directions; no canonical choice is made.
    """
    v = la.int_row(v)
    if len(v) != lat.dim:
        raise ValueError("vector length must be 2g")
    if all(x == 0 for x in v):
        raise ValueError("transvection vector must be nonzero")
    if k != int(k) or k == 0:
        raise ValueError("power must be a nonzero integer")
    k = int(k)
    j = lat.pairing_matrix()
    vj = la.mat_vec(la.transpose(j), v)  # row vector v^T J
    n = lat.dim
    rows = tuple(
        tuple((1 if i == c else 0) + k * v[i] * vj[c] for c in range(n))
        for i in range(n)
    )
    return lc.new(SpMatrix, lat=lat, entries=rows)


def realize_symmetric(lat, c):
    """Transvection data whose ordered product is [[I, C], [0, I]].

    Only vectors among e_i and e_i +- e_j are used. Off-diagonal entries
    are realized by |c_ij| twists on e_i + e_j, after which the diagonal
    residue is fixed by twists on the e_i themselves.
    """
    g = lat.genus
    c = tuple(map(la.int_row, c))
    if len(c) != g or not la.is_symmetric(c):
        raise ValueError("C must be a symmetric g x g matrix")
    out = []
    diag = [c[i][i] for i in range(g)]
    for i in range(g):
        for jj in range(i + 1, g):
            v = c[i][jj]
            if v == 0:
                continue
            s = 1 if v > 0 else -1
            vec = la.vec_add(lat.e(i + 1), lat.e(jj + 1))
            out.extend([(vec, s)] * abs(v))
            diag[i] -= v
            diag[jj] -= v
    for i in range(g):
        d = diag[i]
        if d == 0:
            continue
        s = 1 if d > 0 else -1
        out.extend([(lat.e(i + 1), s)] * abs(d))
    return out


def is_compatible(l, lplus, lminus):
    """Whether L equals (L ^ L+) + (L ^ L-) as sublattices of H.

    All three inputs must be Lagrangians and (L+, L-) must split H as a
    direct sum; violations raise rather than returning False.
    """
    for s in (l, lplus, lminus):
        if not s.is_lagrangian():
            raise ValueError("inputs must be Lagrangian sublattices")
    lat = l.lat
    lplus._check_ambient(lminus)
    # the plain Z-module sum, not saturated: it is all of H iff L+ + L- = H
    if la.row_hnf(lplus.basis + lminus.basis, lplus.lat.dim) != la.identity(lat.dim):
        raise ValueError("L+ and L- must be complementary Lagrangians")
    a = l.intersection(lplus)
    b = l.intersection(lminus)
    return la.row_hnf(a.basis + b.basis, lat.dim) == l.basis


def complementary_lagrangian(l, lplus, lminus):
    """A Lagrangian L' with H = L (+) L', compatible with (L+, L-).

    Built by choosing a complement L'+ of L ^ L+ inside L+ and then taking
    L'- inside L- to be the pairing annihilator of L'+.
    """
    if not is_compatible(l, lplus, lminus):
        raise IncompatibleLagrangians("L is not compatible with (L+, L-)")
    lat = l.lat
    a_plus = l.intersection(lplus)
    # complement of A+ inside L+, computed in L+ coordinates
    coords = []
    for v in a_plus.basis:
        cv = la.coords_in_basis(v, lplus.basis)
        if cv is None:
            raise RuntimeError("L ^ L+ does not have integer coordinates in L+")
        coords.append(cv)
    comp_coords = la.complete_to_unimodular(
        la.row_hnf(tuple(coords), lplus.rank), lplus.rank
    )
    lp_gens = la.mat_mul(comp_coords, lplus.basis)
    # L'- = vectors of L- pairing to zero with every generator of L'+
    pair_rows = tuple(
        tuple(lat.pairing(w, u) for u in lp_gens) for w in lminus.basis
    )
    ker = la.int_kernel(la.transpose(pair_rows), lminus.rank)
    lm_gens = la.mat_mul(ker, lminus.basis)
    lp = Sublattice(lat, lp_gens + lm_gens)
    if not lp.is_lagrangian():
        raise RuntimeError("the constructed complement is not a Lagrangian")
    if la.row_hnf(l.basis + lp.basis, lat.dim) != la.identity(lat.dim):
        raise RuntimeError("the constructed Lagrangian is not a complement of L")
    return lp


def lagrangian_split_linking(lat, classes, lplus=None, lminus=None):
    """Pairings <lambda_i^-, lambda_j^+> for classes split along (L+, L-).

    Each class is a pair (plus part, minus part) with the plus part in L+,
    the minus part in L-, and the whole collection lying in one common
    Lagrangian (checked as joint isotropy). Under those preconditions the
    returned matrix is identically zero: the off-diagonal linking numbers
    of curves pushed off a compatible splitting all vanish.
    """
    if lplus is None:
        lplus = lat.standard_lplus()
    if lminus is None:
        lminus = lat.standard_lminus()
    parts = []
    for p, m in classes:
        p, m = la.int_row(p), la.int_row(m)
        if not lplus.contains(p):
            raise ValueError("plus part not in L+")
        if not lminus.contains(m):
            raise ValueError("minus part not in L-")
        parts.append((p, m))
    flat = [v for pm in parts for v in pm]
    for i, u in enumerate(flat):
        for v in flat[i + 1:]:
            if lat.pairing(u, v) != 0:
                raise ValueError("classes do not lie in a common Lagrangian")
    return tuple(
        tuple(lat.pairing(parts[i][1], parts[j][0]) for j in range(len(parts)))
        for i in range(len(parts))
    )
