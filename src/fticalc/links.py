"""Blinks, framed links, surgery brackets and Seifert-matrix invariants.

A blink is a link whose 2r components are partitioned into r ordered
pairs, each pair cobounding a surface; only the matrix-level shadow is
kept here: pairwise linking numbers, the unit framing sign epsilon per
pair, and the induced 2r x 2r linking matrix whose pair blocks are
[[l+eps, l], [l, l-eps]]. Cross-pair linking entries must agree across
the two components of a pair (both bound the same surface), which is
exactly what makes the linking matrix unimodular for every choice of
integers.

Surgery brackets are alternating sums over sublinks or subblinks,
represented as exact formal sums of opaque descriptors
(label, frozenset of surged items); the engine never evaluates the
diffeomorphism type of a term. Components are tagged ("comp", i) and
pairs ("pair", p) so links and blinks can be expanded jointly. Terms of
an expansion are disjoint by descriptor, so the subset lattice can be
expanded in independent chunks and merged by plain addition.

File formats (line order free; _records.read sets the line rules):

    blink:    pairs=<r>            pair p is components (2p, 2p+1)
              lk i j v             linking of components i, j
              eps p s              framing sign of pair p
    link:     components=<n>
              lk i j v
              frame i v
    seifert:  sizes=<s1> <s2> ...  block sizes
              frames=<f1> ...      optional, one per block
              <matrix rows, sum(sizes) integers each>
"""

import itertools
from fractions import Fraction

from . import _intlinalg as la
from . import _lincomb as lc
from ._records import read, set_once


class BlinkPresentation:
    """Pairing, linking and framing data of an r-pair blink.

    Components are numbered 0..2r-1 and pair p consists of components
    2p and 2p+1. Epsilon entries may be None (no unit Seifert-framing
    chosen yet); operations that need them raise.
    """

    def __init__(self, pairs, lk, eps):
        self.pairs = int(pairs)
        n = 2 * self.pairs
        self.lk = tuple(tuple(int(x) for x in row) for row in lk)
        if len(self.lk) != n or any(len(r) != n for r in self.lk):
            raise ValueError("lk must be 2r x 2r")
        if self.lk != la.transpose(self.lk):
            raise ValueError("lk must be symmetric")
        self.eps = tuple(eps)
        if len(self.eps) != self.pairs:
            raise ValueError("need one epsilon slot per pair")
        for s in self.eps:
            if s not in (1, -1, None):
                raise ValueError("epsilon must be +-1 or None")

    @classmethod
    def from_pair_data(cls, internal, eps, cross=None):
        """Build consistent lk data from per-pair and per-pair-pair numbers.

        internal[p] is the linking of pair p's two components; cross is a
        symmetric r x r matrix (or dict keyed by (p, q)) of the common
        linking number between components of distinct pairs.
        """
        r = len(internal)
        n = 2 * r
        lk = [[0] * n for _ in range(n)]
        for p, l in enumerate(internal):
            lk[2 * p][2 * p + 1] = lk[2 * p + 1][2 * p] = int(l)
        if cross is not None:
            for p in range(r):
                for q in range(r):
                    if p == q:
                        continue
                    if isinstance(cross, dict):
                        v = cross.get((p, q), cross.get((q, p), 0))
                    else:
                        v = cross[p][q]
                    for a in (2 * p, 2 * p + 1):
                        for b in (2 * q, 2 * q + 1):
                            lk[a][b] = int(v)
        return cls(r, lk, eps)

    def __eq__(self, other):
        return (
            isinstance(other, BlinkPresentation)
            and (other.pairs, other.lk, other.eps) == (self.pairs, self.lk, self.eps)
        )

    def __repr__(self):
        return "BlinkPresentation(pairs=%d)" % self.pairs

    def to_text(self):
        lines = ["pairs=%d" % self.pairs]
        n = 2 * self.pairs
        for i in range(n):
            for j in range(i + 1, n):
                if self.lk[i][j]:
                    lines.append("lk %d %d %d" % (i, j, self.lk[i][j]))
        for p, s in enumerate(self.eps):
            if s is not None:
                lines.append("eps %d %d" % (p, s))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        head, recs, _ = read(text.splitlines(), {"pairs=": "#"},
                             records={"lk": "# # #", "eps": "# #"})
        (r,) = head["pairs="]
        n = 2 * r
        lk_entries = {}
        for i, j, v in recs["lk"]:
            if i == j or not (0 <= i < n and 0 <= j < n):
                raise ValueError("lk indices out of range")
            set_once(lk_entries, (min(i, j), max(i, j)), v, "lk")
        eps_entries = {}
        for p, s in recs["eps"]:
            if not 0 <= p < r:
                raise ValueError("eps pair out of range")
            set_once(eps_entries, p, s, "eps")
        lk = [[0] * n for _ in range(n)]
        for (i, j), v in lk_entries.items():
            lk[i][j] = lk[j][i] = v
        eps = [eps_entries.get(p) for p in range(r)]
        return cls(r, lk, eps)


class FramedLink:
    """n components with a symmetric linking matrix, framings on the
    diagonal. The boundary flag asserts the (geometric, non-derivable)
    property that the components bound disjoint Seifert surfaces."""

    def __init__(self, components, lk, boundary=False):
        self.components = int(components)
        self.lk = tuple(tuple(int(x) for x in row) for row in lk)
        n = self.components
        if len(self.lk) != n or any(len(r) != n for r in self.lk):
            raise ValueError("lk must be n x n")
        if self.lk != la.transpose(self.lk):
            raise ValueError("lk must be symmetric")
        self.boundary = bool(boundary)

    def is_algebraically_split(self):
        n = self.components
        return all(self.lk[i][j] == 0 for i in range(n) for j in range(n) if i != j)

    def is_unit_framed(self):
        return all(self.lk[i][i] in (1, -1) for i in range(self.components))

    def framing(self, i):
        return self.lk[i][i]

    def __repr__(self):
        return "FramedLink(components=%d)" % self.components

    def to_text(self):
        lines = ["components=%d" % self.components]
        n = self.components
        for i in range(n):
            for j in range(i + 1, n):
                if self.lk[i][j]:
                    lines.append("lk %d %d %d" % (i, j, self.lk[i][j]))
        for i in range(n):
            if self.lk[i][i]:
                lines.append("frame %d %d" % (i, self.lk[i][i]))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        head, recs, _ = read(text.splitlines(), {"components=": "#"},
                             records={"lk": "# # #", "frame": "# #"})
        (n,) = head["components="]
        entries = {}
        for i, j, v in recs["lk"]:
            if i == j:
                raise ValueError("lk %d %d: a framing goes on a 'frame' line" % (i, j))
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError("lk indices out of range")
            set_once(entries, (min(i, j), max(i, j)), v, "lk")
        for i, v in recs["frame"]:
            if not 0 <= i < n:
                raise ValueError("frame index out of range")
            set_once(entries, (i, i), v, "frame")
        lk = [[0] * n for _ in range(n)]
        for (i, j), v in entries.items():
            lk[i][j] = lk[j][i] = v
        return cls(n, lk)


def blink_linking_matrix(b):
    """The 2r x 2r linking matrix with pair blocks [[l+e, l], [l, l-e]].

    Raises on inconsistent pair data: a missing epsilon, or cross-pair
    entries that differ across the two components of a pair (both bound
    the same Seifert surface, so their linking with anything outside the
    pair agrees).
    """
    r = b.pairs
    n = 2 * r
    for p in range(r):
        if b.eps[p] is None:
            raise ValueError("pair %d has no epsilon" % p)
        x, y = 2 * p, 2 * p + 1
        for z in range(n):
            if z in (x, y):
                continue
            if b.lk[x][z] != b.lk[y][z]:
                raise ValueError(
                    "inconsistent pair data: components %d, %d link %d differently"
                    % (x, y, z)
                )
    rows = [list(row) for row in b.lk]
    for p in range(r):
        x, y = 2 * p, 2 * p + 1
        l = b.lk[x][y]
        e = b.eps[p]
        rows[x][x] = l + e
        rows[x][y] = rows[y][x] = l
        rows[y][y] = l - e
    return tuple(tuple(row) for row in rows)


def is_unimodular(m):
    """Exact determinant test |det M| = 1."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    return abs(la.det(m)) == 1


class FormalSum:
    """Exact combination of opaque surgery descriptors.

    A descriptor is (manifold label, frozenset of surged items); items
    are ("comp", i) or ("pair", p) tags. Surgering accumulates into the
    frozenset, so the same manifold reached along different surgery
    orders gets the same descriptor. Coefficients are ints unless a
    division makes them Fractions.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        self.terms = lc.collect(terms)

    def __add__(self, other):
        return lc.new(FormalSum, terms=lc.add(self.terms, other.terms))

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, scalar):
        return lc.new(FormalSum, terms=lc.scale(scalar, self.terms))

    def __neg__(self):
        return (-1) * self

    def __eq__(self, other):
        return isinstance(other, FormalSum) and other.terms == self.terms

    def __len__(self):
        return len(self.terms)

    def coefficient_sum(self):
        return sum(self.terms.values())

    def sorted_terms(self):
        def key(item):
            desc, _ = item
            label, surged = desc
            return (label, sorted(surged))
        return sorted(self.terms.items(), key=key)

    def __repr__(self):
        parts = [
            "%s*%s" % (c, _render_descriptor(d)) for d, c in self.sorted_terms()
        ]
        return "FormalSum(%s)" % " + ".join(parts) if parts else "FormalSum(0)"


def _render_descriptor(desc):
    label, surged = desc
    tags = sorted("%s%d" % ("c" if kind == "comp" else "p", i) for kind, i in surged)
    return "%s{%s}" % (label, ",".join(tags))


def _normalize_base(base):
    if isinstance(base, str):
        return (base, frozenset())
    label, surged = base
    return (str(label), frozenset(surged))


def _expand(base, comp_items, pair_items):
    label, surged = base
    items = [("comp", i) for i in comp_items] + [("pair", p) for p in pair_items]
    return FormalSum(
        ((label, surged | frozenset(chosen)), (-1) ** size)
        for size in range(len(items) + 1)
        for chosen in itertools.combinations(items, size)
    )


def bracket_expand(base, obj):
    """The surgery bracket as a formal sum over sublinks or subblinks.

    For an n-component admissible link: 2^n terms with sign (-1)^|L'|.
    For an r-pair blink: 2^r terms with sign (-1)^(number of pairs used).
    The coefficient sum is zero whenever n, r >= 1.
    """
    base = _normalize_base(base)
    if isinstance(obj, FramedLink):
        if not obj.is_algebraically_split():
            raise ValueError("link is not algebraically split")
        if not obj.is_unit_framed():
            raise ValueError("link is not unit framed")
        return _expand(base, range(obj.components), ())
    if isinstance(obj, BlinkPresentation):
        if any(s is None for s in obj.eps):
            raise ValueError("blink has pairs without a unit Seifert-framing")
        return _expand(base, (), range(obj.pairs))
    raise TypeError("expected a FramedLink or BlinkPresentation")


def fundamental_relation(base, blink, link, l):
    """Both sides of the bracket recursion that removes one piece l.

    l is ("comp", i) for a component of the link or ("pair", p) for a
    pair of the blink. Returns (lhs, rhs) where lhs is the bracket of the
    full union and rhs is the bracket of the union without l minus the
    same bracket over the l-surgered base; the two formal sums are equal
    term by term.
    """
    base = _normalize_base(base)
    if any(s is None for s in blink.eps):
        raise ValueError("blink has pairs without a unit Seifert-framing")
    if not (link.is_algebraically_split() and link.is_unit_framed()):
        raise ValueError("link part must be AS-admissible")
    kind, idx = l
    comps = list(range(link.components))
    pairs = list(range(blink.pairs))
    if kind == "comp":
        if idx not in comps:
            raise ValueError("component %r not present" % (idx,))
        comps.remove(idx)
    elif kind == "pair":
        if idx not in pairs:
            raise ValueError("pair %r not present" % (idx,))
        pairs.remove(idx)
    else:
        raise ValueError("l must be ('comp', i) or ('pair', p)")
    lhs = _expand(base, range(link.components), range(blink.pairs))
    label, surged = base
    surged_base = (label, surged | frozenset([(kind, idx)]))
    rhs = _expand(base, comps, pairs) - _expand(surged_base, comps, pairs)
    return lhs, rhs


def seifert_framing_to_framing(n, m, l12):
    """An (n, m) Seifert-framing of a 1-pair blink as an ordinary framing."""
    return (n + l12, m + l12)


def boundary_to_blink(link):
    """Convert a unit-framed boundary link into a blink.

    Each component K_i with framing eps_i becomes the pair (K_i, hole_i)
    with pair-internal linking 0 and epsilon = eps_i; the hole components
    (boundaries of the punched Seifert surfaces) link nothing. The blink
    linking matrix has the same determinant magnitude as the input's.
    """
    if not link.boundary:
        raise ValueError("link is not flagged as a boundary link")
    if not link.is_unit_framed():
        raise ValueError("boundary-to-blink needs unit framings")
    if not link.is_algebraically_split():
        raise ValueError("a boundary link is algebraically split")
    n = link.components
    eps = [link.framing(i) for i in range(n)]
    # component order: K_0, hole_0, K_1, hole_1, ...
    return BlinkPresentation.from_pair_data([0] * n, eps)


class SeifertMatrix:
    """Block integer matrix of Seifert pairings sigma_ij.

    Block i has size 2 * genus(V_i); a knot block is a single block A
    with A - A^T unimodular skew.
    """

    def __init__(self, sizes, entries):
        self.sizes = tuple(int(s) for s in sizes)
        if any(s < 0 for s in self.sizes):
            raise ValueError("block sizes must be nonnegative")
        total = sum(self.sizes)
        self.entries = tuple(tuple(int(x) for x in row) for row in entries)
        if len(self.entries) != total or any(len(r) != total for r in self.entries):
            raise ValueError("matrix size must equal the sum of block sizes")

    @classmethod
    def knot(cls, entries):
        entries = tuple(tuple(row) for row in entries)
        return cls((len(entries),), entries)

    @property
    def total(self):
        return sum(self.sizes)

    def block(self, i, j):
        starts = [0]
        for s in self.sizes:
            starts.append(starts[-1] + s)
        return tuple(
            row[starts[j]:starts[j + 1]]
            for row in self.entries[starts[i]:starts[i + 1]]
        )

    def is_knot_block(self):
        return len(self.sizes) == 1

    def __eq__(self, other):
        return (
            isinstance(other, SeifertMatrix)
            and (other.sizes, other.entries) == (self.sizes, self.entries)
        )

    def __repr__(self):
        return "SeifertMatrix(sizes=%r)" % (self.sizes,)

    def to_text(self, frames=None):
        lines = ["sizes=%s" % " ".join(str(s) for s in self.sizes)]
        if frames is not None:
            lines.append("frames=%s" % " ".join(str(f) for f in frames))
        lines += [" ".join(str(x) for x in row) for row in self.entries]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        head, _, rows = read(text.splitlines(), {"sizes=": "*"},
                             optional={"frames=": "*"}, rows=True)
        sizes, frames = head["sizes="], head.get("frames=")
        if frames is not None and len(frames) != len(sizes):
            raise ValueError("need one 'frames=' value per block")
        return cls(sizes, rows), frames


class LaurentPoly:
    """Integer Laurent polynomial in one variable t."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        self.coeffs = lc.collect((int(k), c) for k, c in lc.pairs(coeffs))

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and other.coeffs == self.coeffs

    def __hash__(self):
        return hash(tuple(sorted(self.coeffs.items())))

    def __add__(self, other):
        return lc.new(LaurentPoly, coeffs=lc.add(self.coeffs, other.coeffs))

    def __sub__(self, other):
        return self + (-1) * other

    def __mul__(self, other):
        if isinstance(other, int):
            return lc.new(LaurentPoly, coeffs=lc.scale(other, self.coeffs))
        return lc.new(LaurentPoly, coeffs=lc.collect(
            (k1 + k2, c1 * c2)
            for k1, c1 in self.coeffs.items()
            for k2, c2 in other.coeffs.items()
        ))

    __rmul__ = __mul__

    def shift(self, k):
        """Multiply by t^k."""
        return LaurentPoly({e + k: c for e, c in self.coeffs.items()})

    def __call__(self, value):
        return sum(Fraction(c) * Fraction(value) ** k for k, c in self.coeffs.items())

    def reciprocal(self):
        """The substitution t -> 1/t."""
        return LaurentPoly({-k: c for k, c in self.coeffs.items()})

    def second_derivative_at_one(self):
        return sum(c * k * (k - 1) for k, c in self.coeffs.items())

    def to_text(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in sorted(self.coeffs, reverse=True):
            c = self.coeffs[k]
            mono = "1" if k == 0 else ("t" if k == 1 else "t^%d" % k)
            if k == 0:
                body = str(abs(c))
            else:
                body = mono if abs(c) == 1 else "%d*%s" % (abs(c), mono)
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self):
        return "LaurentPoly(%s)" % self.to_text()


def _interpolate(values):
    """Coefficients, lowest first, of the polynomial of degree < len(values)
    taking values[t] at t = 0, 1, ... (Newton divided differences)."""
    c = [Fraction(v) for v in values]
    n = len(c)
    for k in range(1, n):
        for i in range(n - 1, k - 1, -1):
            c[i] = (c[i] - c[i - 1]) / k
    # Horner on the Newton form c[0] + (t - 0)(c[1] + (t - 1)(c[2] + ...))
    poly = [Fraction(0)] * n
    for k in range(n - 1, -1, -1):
        poly = [a - k * b for a, b in zip([Fraction(0)] + poly[:-1], poly)]
        poly[0] += c[k]
    return poly


def alexander(a):
    """Normalized Alexander polynomial of a knot block.

    Delta(t) = det(t^(1/2) A - t^(-1/2) A^T), symmetric in t <-> 1/t and
    normalized so Delta(1) = 1. Raises for a degenerate block, i.e. when
    A - A^T is not unimodular. det(t A - A^T) has degree <= n, so it is
    interpolated from its integer values at t = 0..n.
    """
    if not a.is_knot_block():
        raise ValueError("alexander is defined for a single knot block")
    m = a.entries
    n = len(m)
    skew = tuple(
        tuple(m[i][j] - m[j][i] for j in range(n)) for i in range(n)
    )
    if abs(la.det(skew)) != 1:
        raise ValueError("degenerate block: A - A^T is not unimodular")
    values = [
        la.det(tuple(tuple(t * m[i][j] - m[j][i] for j in range(n)) for i in range(n)))
        for t in range(n + 1)
    ]
    coeffs = _interpolate(values)
    raw = LaurentPoly({k - n // 2: int(c) for k, c in enumerate(coeffs)})
    at_one = raw(1)
    if at_one == -1:
        raw = -1 * raw
    elif at_one != 1:
        raise ValueError("degenerate block: Delta(1) is not a unit")
    return raw


def phi(a):
    """Second derivative at 1 of the normalized Alexander polynomial."""
    return Fraction(alexander(a).second_derivative_at_one())


def casson(framings, blocks):
    """Casson invariant of unit-framed surgery on a boundary link:
    the framing-weighted sum of the per-component phi values."""
    framings = list(framings)
    blocks = list(blocks)
    if len(framings) != len(blocks):
        raise ValueError("framings and blocks must have the same length")
    return sum((Fraction(f) * phi(b) for f, b in zip(framings, blocks)), Fraction(0))


def _unimodular_candidates(size, bound):
    """All integer matrices of the given size, entries in [-bound, bound],
    with determinant +-1. Desk-scale exhaustive enumeration."""
    rows = itertools.product(range(-bound, bound + 1), repeat=size)
    return [m for m in itertools.product(rows, repeat=size) if abs(la.det(m)) == 1]


def seifert_congruent(a, b, bound):
    """Bounded search for a block-respecting unimodular P with P^T A P = B.

    True means such a P with entries in [-bound, bound] was found; False
    means none exists within the bound, not a disproof of congruence.
    """
    if a.sizes != b.sizes:
        raise ValueError("blocks have different shapes")
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    per_block = []
    for i, s in enumerate(a.sizes):
        cands = [
            p for p in _unimodular_candidates(s, bound)
            if la.mat_mul(la.mat_mul(la.transpose(p), a.block(i, i)), p) == b.block(i, i)
        ]
        if not cands:
            return False
        per_block.append(cands)

    k = len(a.sizes)

    def rec(chosen):
        i = len(chosen)
        if i == k:
            return True
        for p in per_block[i]:
            ok = True
            for j in range(i):
                pj = chosen[j]
                if la.mat_mul(la.mat_mul(la.transpose(pj), a.block(j, i)), p) != b.block(j, i):
                    ok = False
                    break
            if ok and rec(chosen + [p]):
                return True
        return False

    return rec([])
