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

File formats (line order free; _records.read sets the line rules). The
blink and link formats share one lk codec: an 'lk i j v' line names two
distinct components in range, a repeat must agree, and to_text writes the
nonzero entries above the diagonal.

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
from operator import mul

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
        self.pairs = la.int_value(pairs)
        self.lk = tuple(map(la.int_row, lk))
        if len(self.lk) != 2 * self.pairs or not la.is_symmetric(self.lk):
            raise ValueError("lk must be a symmetric 2r x 2r matrix")
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
        linking number between components of distinct pairs; its diagonal
        is not read.
        """
        r = len(internal)
        if cross is None:
            cross = [[0] * r] * r
        elif isinstance(cross, dict):
            cross = [[cross.get((p, q), cross.get((q, p), 0)) for q in range(r)]
                     for p in range(r)]
        lk = []
        for p, l in enumerate(internal):
            # both components of pair p link components 2q and 2q + 1 alike
            c = cross[p]
            row = [v for q in range(r) for v in ((c[q],) * 2 if q != p else (0, 0))]
            x, y = 2 * p, 2 * p + 1
            row[y] = l
            lk.append(row)
            row = row.copy()
            row[x], row[y] = l, 0
            lk.append(row)
        return cls(r, lk, eps)

    def __eq__(self, other):
        return (
            isinstance(other, BlinkPresentation)
            and (other.pairs, other.lk, other.eps) == (self.pairs, self.lk, self.eps)
        )

    def __repr__(self):
        return "BlinkPresentation(pairs=%d)" % self.pairs

    def to_text(self):
        lines = ["pairs=%d" % self.pairs] + _lk_lines(self.lk)
        for p, s in enumerate(self.eps):
            if s is not None:
                lines.append("eps %d %d" % (p, s))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        head, recs, _ = read(text.splitlines(), {"pairs=": "#"},
                             records={"lk": "# # #", "eps": "# #"})
        (r,) = head["pairs="]
        if r < 0:
            raise ValueError("pairs=%d: negative pair count" % r)
        lk_entries = _read_lk(recs["lk"], 2 * r)
        eps_entries = {}
        for p, s in recs["eps"]:
            if not 0 <= p < r:
                raise ValueError("eps pair out of range")
            set_once(eps_entries, p, s, "eps")
        # _dense first: a huge pairs= overflows there before range(r) runs
        return cls(r, _dense(2 * r, lk_entries), [eps_entries.get(p) for p in range(r)])


class FramedLink:
    """n components with a symmetric linking matrix, framings on the
    diagonal. The boundary flag asserts the (geometric, non-derivable)
    property that the components bound disjoint Seifert surfaces."""

    def __init__(self, components, lk, boundary=False):
        self.components = la.int_value(components)
        self.lk = tuple(map(la.int_row, lk))
        if len(self.lk) != self.components or not la.is_symmetric(self.lk):
            raise ValueError("lk must be a symmetric n x n matrix")
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
        lines = ["components=%d" % self.components] + _lk_lines(self.lk)
        for i in range(self.components):
            if self.lk[i][i]:
                lines.append("frame %d %d" % (i, self.lk[i][i]))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        head, recs, _ = read(text.splitlines(), {"components=": "#"},
                             records={"lk": "# # #", "frame": "# #"})
        (n,) = head["components="]
        if n < 0:
            raise ValueError("components=%d: negative component count" % n)
        entries = _read_lk(recs["lk"], n)
        for i, v in recs["frame"]:
            if not 0 <= i < n:
                raise ValueError("frame index out of range")
            set_once(entries, (i, i), v, "frame")
        return cls(n, _dense(n, entries))


def _read_lk(recs, n):
    """The 'lk i j v' records of an n-component file as {(i, j): v}, i < j."""
    entries = {}
    for i, j, v in recs:
        if i == j:
            raise ValueError("lk %d %d: a component does not link itself" % (i, j))
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError("lk indices out of range")
        set_once(entries, (min(i, j), max(i, j)), v, "lk")
    return entries


def _dense(n, entries):
    """The symmetric n x n matrix with entries[(i, j)] at (i, j) and (j, i),
    zero elsewhere."""
    lk = [[0] * n for _ in range(n)]
    for (i, j), v in entries.items():
        lk[i][j] = lk[j][i] = v
    return lk


def _lk_lines(lk):
    """The 'lk i j v' lines of the nonzero entries above the diagonal."""
    n = len(lk)
    return ["lk %d %d %d" % (i, j, lk[i][j])
            for i in range(n) for j in range(i + 1, n) if lk[i][j]]


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
        lx, ly = b.lk[x], b.lk[y]
        if lx[:x] == ly[:x] and lx[x + 2:] == ly[x + 2:]:
            continue
        for z in range(n):
            if z not in (x, y) and lx[z] != ly[z]:
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


class FormalSum(lc.Combination):
    """Exact combination of opaque surgery descriptors.

    A descriptor is (manifold label, frozenset of surged items); items
    are ("comp", i) or ("pair", p) tags. Surgering accumulates into the
    frozenset, so the same manifold reached along different surgery
    orders gets the same descriptor. Coefficients are ints unless a
    division makes them Fractions.
    """

    __slots__ = ()

    def __init__(self, terms=()):
        self.terms = lc.collect(terms)

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
    """The alternating subset sum, doubled per item; every key is distinct."""
    label, surged = base
    items = [("comp", i) for i in comp_items] + [("pair", p) for p in pair_items]
    if not surged.isdisjoint(items):
        return FormalSum()  # each term cancels against its twin with the item
    sets, signs = [surged], [1]
    for item in items:
        one = frozenset((item,))
        sets += [s | one for s in sets]
        signs += [-c for c in signs]
    return lc.new(FormalSum, terms=dict(zip([(label, s) for s in sets], signs)))


def bracket_expand(base, obj):
    """The surgery bracket as a formal sum over sublinks or subblinks.

    For an n-component admissible link: 2^n terms with sign (-1)^|L'|.
    For an r-pair blink: 2^r terms with sign (-1)^(number of pairs used).
    The coefficient sum is zero whenever n, r >= 1. If the base's surged
    set already holds one of the components or pairs, the subsets with
    and without it name the same descriptor with opposite signs, so the
    bracket is FormalSum(0).
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
        self.sizes = tuple(map(la.int_value, sizes))
        if any(s < 0 for s in self.sizes):
            raise ValueError("block sizes must be nonnegative")
        total = sum(self.sizes)
        self.entries = tuple(map(la.int_row, entries))
        if len(self.entries) != total or any(len(r) != total for r in self.entries):
            raise ValueError("matrix size must equal the sum of block sizes")

    @classmethod
    def knot(cls, entries):
        entries = tuple(tuple(row) for row in entries)
        return cls((len(entries),), entries)

    def block(self, i, j):
        starts = [0]
        for s in self.sizes:
            starts.append(starts[-1] + s)
        return tuple(
            row[starts[j]:starts[j + 1]]
            for row in self.entries[starts[i]:starts[i + 1]]
        )

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


class LaurentPoly(lc.Combination):
    """Integer Laurent polynomial in one variable t; terms maps exponent to coefficient."""

    __slots__ = ()
    coeffs = property(lambda self: self.terms)  # read-only alias of terms

    def __init__(self, coeffs=()):
        self.terms = lc.collect((la.int_value(k), c) for k, c in lc.pairs(coeffs))

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))

    def __mul__(self, other):
        """The product with a LaurentPoly; p * s for a scalar s is s * p."""
        if self._check(other) is NotImplemented:
            return self.__rmul__(other)
        return self._like(lc.collect(
            (k1 + k2, c1 * c2)
            for k1, c1 in self.terms.items()
            for k2, c2 in other.terms.items()
        ))

    def shift(self, k):
        """Multiply by t^k."""
        return LaurentPoly({e + k: c for e, c in self.terms.items()})

    def __call__(self, value):
        return sum(Fraction(c) * Fraction(value) ** k for k, c in self.terms.items())

    def reciprocal(self):
        """The substitution t -> 1/t."""
        return LaurentPoly({-k: c for k, c in self.terms.items()})

    def second_derivative_at_one(self):
        return sum(c * k * (k - 1) for k, c in self.terms.items())

    def to_text(self):
        if not self.terms:
            return "0"
        parts = []
        for k in sorted(self.terms, reverse=True):
            c = self.terms[k]
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
    """Coefficients, lowest first, of the integer polynomial of degree
    < len(values) taking values[t] at t = 0, 1, ... (Newton divided
    differences; at integer nodes each one is an integer, so // is exact)."""
    c = list(values)
    n = len(c)
    for k in range(1, n):
        for i in range(n - 1, k - 1, -1):
            c[i] = (c[i] - c[i - 1]) // k
    # Horner on the Newton form c[0] + (t - 0)(c[1] + (t - 1)(c[2] + ...))
    poly = [0] * n
    for k in range(n - 1, -1, -1):
        poly = [a - k * b for a, b in zip([0] + poly[:-1], poly)]
        poly[0] += c[k]
    return poly


def alexander(a):
    """Normalized Alexander polynomial of a knot block.

    Delta(t) = det(t^(1/2) A - t^(-1/2) A^T), symmetric in t <-> 1/t and
    normalized so Delta(1) = 1. Raises for a degenerate block, i.e. when
    A - A^T is not unimodular. det(t A - A^T) has degree <= n, so it is
    interpolated from its integer values at t = 0..max(n, 1); the value at
    t = 1 is det(A - A^T), which is also Delta(1) before normalizing.
    """
    if len(a.sizes) != 1:
        raise ValueError("alexander is defined for a single knot block")
    m = a.entries
    n = len(m)
    values = [
        la.det(tuple(tuple(t * m[i][j] - m[j][i] for j in range(n)) for i in range(n)))
        for t in range(max(n, 1) + 1)
    ]
    if abs(values[1]) != 1:
        raise ValueError("degenerate block: A - A^T is not unimodular")
    return LaurentPoly({k - n // 2: values[1] * c for k, c in enumerate(_interpolate(values))})


def phi(a):
    """Second derivative at 1 of the normalized Alexander polynomial."""
    return alexander(a).second_derivative_at_one()


def casson(framings, blocks):
    """Casson invariant of unit-framed surgery on a boundary link:
    the framing-weighted sum of the per-component phi values."""
    framings = list(framings)
    blocks = list(blocks)
    if len(framings) != len(blocks):
        raise ValueError("framings and blocks must have the same length")
    return sum(f * phi(b) for f, b in zip(framings, blocks))


def seifert_congruent(a, b, bound):
    """Bounded search for a block-respecting unimodular P with P^T A P = B.

    True means such a P with entries in [-bound, bound] was found; False
    means none exists within the bound, not a disproof of congruence.
    P is filled in one column at a time, each column inside its own block.
    Once column k is fixed, the entries (j, k) and (k, j) of P^T A P for
    every j <= k are compared with B, and a block is rejected at its last
    column unless its determinant is +-1.
    """
    if a.sizes != b.sizes:
        raise ValueError("blocks have different shapes")
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    m, mt, want = a.entries, la.transpose(a.entries), b.entries
    starts = itertools.accumulate(a.sizes, initial=0)
    spans = [(lo, lo + s) for lo, s in zip(starts, a.sizes) for _ in range(s)]
    cols = []  # per column q of P fixed so far: its block entries, A q, A^T q
    untried = []  # per column 0..len(cols): the block entries not yet tried

    def dot(u, x):
        return sum(map(mul, u, x))

    while len(cols) < len(spans):
        k = len(cols)
        lo, hi = spans[k]
        if len(untried) == k:
            untried.append(itertools.product(range(-bound, bound + 1), repeat=hi - lo))
        x = next(untried[k], None)
        if x is None:
            untried.pop()
            if not cols:
                return False
            cols.pop()
            continue
        ap, atp = (tuple(dot(row[lo:hi], x) for row in t) for t in (m, mt))
        cols.append((x, ap, atp))
        # entries (j, k) and (k, j) of P^T A P are (A^T q_j).q_k and (A q_j).q_k
        if not (all(dot(atq[lo:hi], x) == want[j][k] and dot(aq[lo:hi], x) == want[k][j]
                    for j, (_, aq, atq) in enumerate(cols))
                and (k + 1 < hi or abs(la.det([c[0] for c in cols[lo:]])) == 1)):
            cols.pop()
    return True
