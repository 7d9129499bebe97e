"""Multi-circle chord diagrams, the 4-term rewriting moves and tower
reduction.

A diagram is its circles, each a cyclic sequence of chord endpoints, and
its marks, a count of accumulated blink error markers; it stores nothing
else. Chords are type I (two endpoints, on one circle or one on each of
two) or type II (four endpoints, two on each of two distinct circles).
_positions states these rules and checks them: it builds the map chord ->
circle -> slots, and every reader of positions builds it there. Two chords
intersect when some circle carries two endpoints of each in interleaved
(1212) cyclic order; the boundary degree is the size of a largest
pairwise-nonintersecting chord set: an O(N * bd) interval DP per circle,
which a retirement test stops at its level (a closed form at caps 1 and
2), if no chord meets two circles, else a branch-and-bound search on the
crossing graph, the OR of one prefix-XOR sweep per circle with rows
indexed by chord id. The search takes the chords that cross every other
live chord in one step: the least of them is a leaf, and the rest are
dropped together, which keeps the set it returns.

The 4-term move rewrites a diagram whose designated moving endpoint sits
next to an endpoint of a fixed chord into the three diagrams obtained by
placing that endpoint on the other side of the near fixed endpoint and
on both sides of the far one, with signs +1, +1, -1. The side pairing is
the unique one for which the relation is an identity already on
two-chord diagrams. Versions 2 and 3 (fixed chord of type II, two or
three circles involved) additionally emit a +/- pair of error terms,
each with one extra blink marker and the moving chord removed; the
second of the pair keeps an inert extra circle recording its leftover
closed component. At most two markers are added per application.

Reduction brings a diagram, modulo these moves, to a sum in which every
term has boundary degree >= m (or >= m markers). One engine keeps a
frontier of exact states (circles, marks, plan) with summed coefficients,
so paths that meet in a state share one expansion. It has two move
strategies. On one circle, level by level: take a (level-1)-tower, pick
by pigeonhole an arc pair between tower endpoints joined by >= level
chords (the specials), sort the specials until pairwise disjoint. The
tower is the set the branch-and-bound search returns on the circle's
sweep, taken once per plan, so the term lists do not depend on the degree
test. The plan names the alpha arc by the tower endpoint that opens it,
so each move reads that arc alone, as one slice of the turned circle. On
several circles: uncross chords circle by circle, at the first crossing
pair of a sweep. A state is its raw circles; it carries no position map.
One move kernel, _move, serves four_term and the engine: it finds the
near fixed endpoint and the mover's side once, writes the three main
terms and, unless the move is a clean version 1 (both chords on the
moving circle alone), the error pair. One retirement test serves the
multi-circle entry check and every term entering a level after the
first; a one-circle diagram's entry check reads its degree, and its
rewriting starts at the level above it. A one-circle term that chord b
alone moved out of an unretired parent retires iff b and the chords that
do not cross it reach the level: bd(child - b) = bd(parent - b) < level.

The canonical form is the lexicographically least relabelling over
circle orders, rotations and reflections. Every candidate has one row
per circle, so it is built row by row, keeping at each depth only the
partial states (circles used, labels given) whose newest row is least.
Three rules cut the rows tried from a state without losing the least:
- Empty circles go first, once: the row () is a prefix of every row.
- Forced circle: if an unused circle holds a labelled token, the next
  row starts on the least such label, since a fresh token would get a
  larger number. A chord labelled there also meets a used circle, so
  that token sits on one unused circle, at one or two slots; only the
  turns that start at them, either way, are tried.
- Fresh start: otherwise every token of every unused circle is fresh,
  and a row counts up to its first repeat, so the turns whose first
  repeat comes soonest are least: those that start on a chord of least
  arc and run along it. A token whose chord ends on another circle never
  repeats in the row, so on a circle where no token repeats every turn
  reads the same and all of them are tried.
canonicalize builds, and so checks, the position map of its input, so
the engine hands its raw states to DiagramSum unchecked. The winning rows
are already labelled by first appearance and carry the chords of a
checked diagram, so the result is built without a second relabelling or
check.

Diagram text format:

    circles <k>
    I c1:p1 c2:p2
    II c1:p1,p2 c2:p3,p4
    marks <n>

with 0-based circle and slot indices; the slots on a circle with n
endpoints are exactly 0..n-1, each used once. One chord line per chord,
in label order. _records.read sets the line rules.

Diagrams are immutable and every operation is pure; DiagramSum merging
is plain coefficient addition, so reduction branches can be evaluated
independently and merged in any order with identical results.
"""

from bisect import bisect_right
from itertools import combinations, compress, count
from math import comb, inf
from operator import ne

from . import _intlinalg as la
from . import _lincomb as lc
from ._records import read


class ChordDiagram:
    """A diagram is its circles of chord endpoints and its count of blink
    error markers; nothing derived is stored.

    Chord labels are normalized to 0..n-1 in order of first appearance
    along the circles, so structural equality is label-independent. The
    constructor checks the endpoint rules through _positions.
    """

    __slots__ = ("circles", "marks")

    def __init__(self, circles, marks=0):
        raw = [list(c) for c in circles]
        relabel = {}
        for seq in raw:
            for tok in seq:
                if tok not in relabel:
                    relabel[tok] = len(relabel)
        self.circles = tuple(
            tuple(relabel[tok] for tok in seq) for seq in raw
        )
        self.marks = la.int_value(marks)
        if self.marks < 0:
            raise ValueError("marks must be nonnegative")
        _positions(self.circles)

    @property
    def chord_count(self):
        return len(set().union(*self.circles))

    def chord_ids(self):
        return range(self.chord_count)

    def endpoints(self, cid):
        """All (circle, slot) positions of a chord."""
        pos = _positions(self.circles)
        if cid not in pos:
            raise ValueError("unknown chord id %r" % (cid,))
        return tuple((c, p) for c, ps in pos[cid].items() for p in ps)

    def chord_type(self, cid):
        return "I" if len(self.endpoints(cid)) == 2 else "II"

    def __eq__(self, other):
        return (
            isinstance(other, ChordDiagram)
            and other.circles == self.circles
            and other.marks == self.marks
        )

    def __hash__(self):
        return hash((self.circles, self.marks))

    def __repr__(self):
        return "ChordDiagram(%r, marks=%d)" % (list(self.circles), self.marks)

    def to_text(self):
        lines = ["circles %d" % len(self.circles)]
        for per in _positions(self.circles).values():  # label order: first appearance
            pts = [(c, p) for c, ps in per.items() for p in ps]
            if len(pts) == 2:
                lines.append("I %d:%d %d:%d" % (pts[0] + pts[1]))
            else:
                (c0, ps0), (c1, ps1) = per.items()
                lines.append(
                    "II %d:%s %d:%s"
                    % (c0, ",".join(map(str, ps0)), c1, ",".join(map(str, ps1)))
                )
        if self.marks:
            lines.append("marks %d" % self.marks)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        head, recs, _ = read(text.splitlines(), {"circles": "#"}, optional={"marks": "#"},
                             records={"I": "#:# #:#", "II": "#:#,# #:#,#"})
        (ncircles,) = head["circles"]
        if ncircles < 0:
            raise ValueError("negative circle count")
        chords = [((a, p), (b, q)) for a, p, b, q in recs["I"]]
        chords += [((a, p), (a, q), (b, r), (b, s)) for a, p, q, b, r, s in recs["II"]]
        slots = {}  # circle -> {slot: chord index}
        for cid, points in enumerate(chords):
            for c, p in points:
                if not 0 <= c < ncircles:
                    raise ValueError("circle index out of range")
                if slots.setdefault(c, {}).setdefault(p, cid) != cid:
                    raise ValueError("slot %d:%d used twice" % (c, p))
        circles = [()] * ncircles
        for c, seq in slots.items():
            if any(not 0 <= p < len(seq) for p in seq):
                raise ValueError("the slots on circle %d are not 0..%d" % (c, len(seq) - 1))
            circles[c] = [seq[p] for p in range(len(seq))]
        (marks,) = head.get("marks", (0,))
        return cls(circles, marks)


def _positions(circles):
    """The position map: chord id -> {circle: [slots in increasing order]},
    with circles in increasing order. Raises ValueError unless every chord
    has two endpoints (type I) or two on each of two distinct circles (type II)."""
    pos = {}
    for c, seq in enumerate(circles):
        for p, tok in enumerate(seq):
            pos.setdefault(tok, {}).setdefault(c, []).append(p)
    for cid, per in pos.items():
        if len(per) == 1 and len(next(iter(per.values()))) == 2:
            continue  # a type I chord on one circle
        counts = [len(ps) for ps in per.values()]
        total = sum(counts)
        if total == 4 and len(per) != 2:
            raise ValueError("type II chord %r must meet exactly two distinct circles" % cid)
        if total == 4 and counts != [2, 2]:
            raise ValueError("type II chord %r needs two endpoints per circle" % cid)
        if total not in (2, 4):
            raise ValueError("chord %r has %d endpoints" % (cid, total))
    return pos


def chords_intersect(d, c1, c2):
    """Whether two chords interleave (1212) on some shared circle: a bit of
    that circle's crossing row."""
    if c1 == c2:
        raise ValueError("chords must be distinct")
    n = d.chord_count
    if not (0 <= c1 < n and 0 <= c2 < n):
        raise ValueError("unknown chord id")
    return any(_circle_masks(seq, n)[0][c1] >> c2 & 1 for seq in d.circles)


def _circle_masks(seq, n):
    """Crossing rows of one circle by chord id < n (bit j for chord j), and
    each chord's slots there. Chord j crosses chord i at slots p < q iff j
    has one endpoint in (p, q) and one here outside it, so with odd[k] the
    XOR of the bits before slot k, row i is odd[q] ^ odd[p + 1] less the
    bits of odd[-1], the chords with one endpoint here: O(N) operations."""
    odd, slots = [0], [[] for _ in range(n)]
    for p, tok in enumerate(seq):
        odd.append(odd[-1] ^ 1 << tok)
        slots[tok].append(p)
    both = ~odd[-1]
    return [(odd[ps[1]] ^ odd[ps[0] + 1]) & both if len(ps) == 2 else 0
            for ps in slots], slots


def _mis(masks, live, stop_at=None):
    """Maximum independent set of the chords in the bitmask live: (size,
    chosen bitmask). Exact, unless stop_at is given, in which case the
    search returns early once a set of that size is found (sufficient for
    threshold checks). Used when a chord meets two circles, and for towers.

    Each node branches on the live chord with the most live crossings, the
    least id of those, first taking it and then leaving it out. When such a
    chord crosses every other live chord (every chord of a clique does), the
    node records the leaf of the least such chord and searches once on the
    live set less all of them. That returns the set the plain branching
    returns: those chords keep the top degree as each is left out, so it
    takes them next in id order, and their leaves of the same size set no
    new best. The bound or stop_at that would end that chain early ends the
    one search on the smaller set too."""
    n = len(masks)
    best_size = 0
    best_set = 0

    def rec(cand, size, chosen):
        nonlocal best_size, best_set
        if stop_at is not None and best_size >= stop_at:
            return
        width = cand.bit_count()
        if size + width <= best_size:
            return
        if cand == 0:
            if size > best_size:
                best_size, best_set = size, chosen
            return
        live = [i for i in range(n) if cand >> i & 1]
        degree = [(masks[i] & cand).bit_count() for i in live]
        top = max(degree)
        v = live[degree.index(top)]
        if top == width - 1:  # v crosses every other live chord
            if size + 1 > best_size:
                best_size, best_set = size + 1, chosen | 1 << v
            rec(cand & ~sum(1 << i for i, d in zip(live, degree) if d == top), size, chosen)
            return
        rec(cand & ~(masks[v] | (1 << v)), size + 1, chosen | (1 << v))
        if top:
            rec(cand & ~(1 << v), size, chosen)

    rec(live, 0, 0)
    return best_size, best_set


def _bd_circle(seq, cap=None):
    """Largest noncrossing chord set of one circle of type I chords (Supowit
    1987), or cap if that is smaller. t[i][v-1] is the least j such that
    slots [i, j) hold v noncrossing chords, so t[i] is nondecreasing. With
    k > i the partner of i, it is t[i+1] except that the a chords inside
    (i, k) and (i, k) itself end at k+1, and each further chord ends at the
    sooner of t[i+1] and t[k+1]. Cut to cap entries: O(N * min(bd, cap)).

    A cap <= 2 has a closed form instead. With k = N/2 chords, bd >= 1 iff
    k >= 1, and bd >= 2 iff k >= 2 and the circle is not a star (k pairwise
    crossing chords). A chord of a star has one endpoint of every other
    chord on each side, so it splits the other 2k - 2 endpoints k-1 / k-1
    and its partner slot is k away; conversely chords at slots (p, p + k)
    and (p', p' + k) with p < p' < k interleave. So seq is a star iff
    seq[:k] == seq[k:], one comparison for a list or a tuple."""
    n = len(seq)
    if cap is not None and cap <= 2:
        k = n // 2
        if cap < 2 or k < 2:
            return min(k, cap)
        return 1 if seq[:k] == seq[k:] else 2
    partner, first = [0] * n, {}
    for p, tok in enumerate(seq):
        q = first.setdefault(tok, p)
        partner[p], partner[q] = q, p
    t = [()] * (n + 1)
    for i in range(n - 1, -1, -1):
        k, row = partner[i], t[i + 1]
        if k > i:
            a = bisect_right(row, k)
            near, far = row[a + 1:], t[k + 1]
            if len(near) < len(far):
                near, far = far, near
            row = (row[:a] + (k + 1,) + tuple(map(min, near, far)) + near[len(far):])[:cap]
        t[i] = row
    return len(t[0])


def _bd_raw(circles, stop_at=None):
    """Boundary degree of raw circles, or a value >= stop_at once it
    reaches stop_at. Chords on different circles never interleave, so if
    no chord meets two circles it is a sum per circle; else the search runs
    over the ids present on the ORed sweeps of the circles with a crossing."""
    if len(circles) == 1:
        return _bd_circle(circles[0], stop_at)
    ids = set().union(*circles)
    if sum(map(len, map(set, circles))) == len(ids):
        return sum(_bd_circle(seq, stop_at) for seq in circles)
    masks = [0] * (max(ids) + 1)
    for seq in circles:
        if len(seq) >= 4:  # fewer endpoints hold no crossing
            masks = [a | b for a, b in zip(masks, _circle_masks(seq, len(masks))[0])]
    return _mis(masks, sum(1 << i for i in ids), stop_at)[0]


def boundary_degree(d):
    """Size of a maximum set of pairwise-nonintersecting chords."""
    return _bd_raw(d.circles)


def _turns_at(seq, forward, backward):
    """The turns of one circle that start at a slot in forward and run
    forward, or start at a slot in backward and run backward."""
    n, twice = len(seq), seq + seq
    back, out = twice[::-1], set()
    for r in forward:
        out.add(twice[r:r + n])
    for r in backward:
        out.add(back[n - 1 - r:2 * n - 1 - r])
    return out


def _first_turns(seq):
    """The turns of a nonempty circle whose first repeated token comes
    soonest: those starting on an endpoint of a chord of least arc, along
    that arc. With no token twice on the circle (only chords that end on
    other circles), every turn reads fresh to the end: all of them."""
    n, first, ahead = len(seq), {}, [0] * len(seq)
    for p, tok in enumerate(seq):
        q = first.setdefault(tok, p)
        ahead[q], ahead[p] = p - q, n - p + q
    least = min(ahead)
    if least == n:
        return _turns_at(seq, range(n), range(n))
    return _turns_at(seq, [r for r in range(n) if ahead[r] == least],
                     [r for r in range(n) if n - ahead[r] == least])


def _next_turns(circles, pos, fresh, used, label):
    """(circle, turns) pairs that can give the least next row from a
    canonicalize state: the turns from the slots of the least labelled
    token on an unused circle, else the first turns of every unused circle."""
    for tok in label:
        for i, ps in pos[tok].items():
            if not used >> i & 1:
                return ((i, _turns_at(circles[i], ps, ps)),)
    return [(i, turns) for i, turns in fresh.items() if not used >> i & 1]


def canonicalize(d):
    """Deterministic canonical form: lexicographically minimal labeling
    over circle permutations, rotations and reflections.

    Rows are chosen one at a time from partial states (circles used,
    labels given), keeping the states whose newest row is least; each
    rule below keeps that least row. Empty circles come first. If an
    unused circle holds a labelled token, the row must start on the least
    such label (a fresh token would number higher), at one of its slots
    on that circle, running either way. Otherwise every unused token is
    fresh, so the rows that repeat a token soonest win: the first turns
    of every unused circle, or all its turns if no token repeats on it.
    d may be any labelling, such as a raw engine state: building its
    position map checks it."""
    circles, pos = d.circles, _positions(d.circles)
    empty = [i for i, seq in enumerate(circles) if not seq]
    rows = [()] * len(empty)
    fresh = {i: _first_turns(seq) for i, seq in enumerate(circles) if seq}
    # partial states: (circles used as a bitmask, tokens in label order) -> labels
    states = {(sum(1 << i for i in empty), ()): {}}
    for _ in fresh:
        best, kept = None, {}
        for (used, _order), label in states.items():
            for i, turns in _next_turns(circles, pos, fresh, used, label):
                for seq in turns:
                    relabel = label.copy()
                    row = tuple([relabel.setdefault(tok, len(relabel)) for tok in seq])
                    if best is None or row < best:
                        best, kept = row, {}
                    if row == best:
                        kept[used | 1 << i, tuple(relabel)] = relabel
        rows.append(best)
        states = kept
    rows = tuple(rows)
    return lc.new(ChordDiagram, circles=rows, marks=d.marks)


class DiagramSum:
    """Exact combination of canonicalized chord diagrams.

    Accepts a mapping or an iterable of (diagram, coefficient) pairs;
    repeated diagrams have their coefficients summed. Coefficients are
    ints unless a division makes them Fractions.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        self.terms = lc.collect((canonicalize(d), c) for d, c in lc.pairs(terms) if c)

    def __add__(self, other):
        return lc.new(DiagramSum, terms=lc.add(self.terms, other.terms))

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, scalar):
        return lc.new(DiagramSum, terms=lc.scale(scalar, self.terms))

    def __eq__(self, other):
        return isinstance(other, DiagramSum) and other.terms == self.terms

    def __len__(self):
        return len(self.terms)

    def items(self):
        return sorted(self.terms.items(), key=lambda t: (t[0].circles, t[0].marks))

    def coefficient_sum(self):
        return sum(self.terms.values())

    def __repr__(self):
        return "DiagramSum(%d terms)" % len(self.terms)


def pigeonhole_ok(m, c):
    """Whether c*m^3 chords force an arc pair carrying m chords:
    c*m^3 - (m-1) > C(2(m-1), 2) * (m-1) + 1."""
    if m < 1 or c < 1:
        raise ValueError("m and c must be positive")
    return c * m ** 3 - (m - 1) > comb(2 * (m - 1), 2) * (m - 1) + 1


# -- 4-term move mechanics on raw circle lists ------------------------------

def _move(circles, circ, m_pos, fixed):
    """One 4-term move of the endpoint at circles[circ][m_pos] across the
    fixed chord's two endpoints there, as (circles, added marks, sign) triples.

    The near fixed endpoint is the one next to the mover, the lower slot if
    both are. The mover flips to the other side of it (+1), lands on its
    new side of the far endpoint (+1), and on its old side of the far
    endpoint (-1). If the fixed chord or the mover appears on another
    circle (the move is not a clean version 1), the error pair follows:
    the moving chord removed, one marker, +1, and the same with an inert
    extra circle, -1.
    """
    seq = circles[circ]
    n = len(seq)
    lo = seq.index(fixed)
    fpos = (lo, seq.index(fixed, lo + 1))
    for near, far in (fpos, fpos[::-1]):
        after = (near + 1) % n == m_pos
        if after or (m_pos + 1) % n == near:
            break
    else:
        raise ValueError("moving endpoint is not adjacent to the fixed chord")
    mover, rest = seq[m_pos], seq[:m_pos] + seq[m_pos + 1:]
    head, tail = circles[:circ], circles[circ + 1:]
    out = []
    for dst, side, sign in ((near, not after, 1), (far, not after, 1), (far, after, -1)):
        at = dst - (dst > m_pos) + side
        out.append((head + (rest[:at] + (mover,) + rest[at:],) + tail, 0, sign))
    others = head + tail
    if others and any(fixed in s or mover in s for s in others):
        stripped = tuple(tuple(tok for tok in s if tok != mover) for s in circles)
        out += [(stripped, 1, 1), (stripped + ((),), 1, -1)]
    return out


def four_term(d, fixed, moving, version):
    """One 4-term rewriting move, returned as the right-hand side sum.

    d plays the role of the first term of the relation; the result is
    the equivalent combination of the other three placements (signs
    +1, +1, -1), plus for versions 2 and 3 the pair of blink-marked
    error terms with signs +1, -1.
    """
    if version not in (1, 2, 3):
        raise ValueError("version must be 1, 2 or 3")
    circ, slot = moving
    if not (0 <= circ < len(d.circles) and 0 <= slot < len(d.circles[circ])):
        raise ValueError("moving endpoint out of range")
    mover, pos = d.circles[circ][slot], _positions(d.circles)
    if not 0 <= fixed < len(pos):
        raise ValueError("unknown chord id %r" % (fixed,))
    if mover == fixed:
        raise ValueError("moving endpoint belongs to the fixed chord")
    fixed_circles, mover_circles = set(pos[fixed]), set(pos[mover])
    fixed_type = "I" if sum(map(len, pos[fixed].values())) == 2 else "II"
    mover_type = "I" if sum(map(len, pos[mover].values())) == 2 else "II"
    if version == 1:
        ok = (fixed_type == "I" and fixed_circles == {circ}
              and mover_type == "I" and mover_circles == {circ})
    elif version == 2:
        ok = (fixed_type == "II" and circ in fixed_circles
              and mover_type == "I" and mover_circles == {circ})
    else:
        ok = (fixed_type == "II" and circ in fixed_circles
              and mover_type == "II" and circ in mover_circles
              and mover_circles != fixed_circles)
    if not ok:
        raise ValueError("configuration does not match version %d" % version)
    return DiagramSum(
        (lc.new(ChordDiagram, circles=new_circles, marks=d.marks + added), sign)
        for new_circles, added, sign in _move(d.circles, circ, slot, fixed)
    )


# -- single-circle tower reduction ------------------------------------------

def _arc(seq, s_ids, opener):
    """The tokens of the arc that the tower endpoint at slot opener opens,
    in arc order, up to the next tower endpoint: one slice of the circle
    turned to start just after opener, cut at the first tower token."""
    turned = seq[opener + 1:] + seq[:opener + 1]
    return turned[:min(map(turned.index, s_ids))]


def _next_move(circles, plan, level):
    """The next sorting move on circle 0: (0, moving position, fixed chord
    id, plan). A state entering a level has no plan yet; it gets one here
    (tower, alpha arc, specials, their target order), and every term a move
    produces inherits it. Tower endpoints never move, so the plan names the
    alpha arc by the one that opens it, (token, 0 or 1 for its first or
    second slot), and a move reads that arc alone: one _arc slice, from
    which the specials are filtered in arc order, and the slot of a token
    is its index in the slice past the opener."""
    seq = circles[0]
    n = len(seq)
    if plan is None:
        masks, slots = _circle_masks(seq, n // 2)
        size, chosen = _mis(masks, (1 << len(masks)) - 1)
        if size != level - 1:
            raise RuntimeError("lift entered with wrong boundary degree")
        s_ids = frozenset(i for i in range(len(masks)) if chosen >> i & 1)
        bpos = sorted(p for i in s_ids for p in slots[i])
        arcs = [_arc(seq, s_ids, p) for p in bpos]
        sets = [set(arc) for arc in arcs]
        if any(len(s) < len(arc) for s, arc in zip(sets, arcs)):
            raise RuntimeError("same-arc chord contradicts the degree bound")
        # the chords joining each arc pair, the pairs in increasing order
        classes = {(a, b): sets[a] & sets[b] for a, b in combinations(range(len(arcs)), 2)}
        key = max(classes, key=lambda k: len(classes[k]))
        if len(classes[key]) < level:
            raise RuntimeError("pigeonhole bound violated")
        alpha_arc, beta_arc = key
        specials = frozenset(classes[key])
        target = tuple(reversed(list(filter(specials.__contains__, arcs[beta_arc]))))
        tok = seq[bpos[alpha_arc]]
        plan = (s_ids, (tok, slots[tok].index(bpos[alpha_arc])), specials, target)
    s_ids, (tok, k), specials, target = plan
    opener = seq.index(tok)
    if k:
        opener = seq.index(tok, opener + 1)
    arc = _arc(seq, s_ids, opener)
    order = list(filter(specials.__contains__, arc))
    if len(order) != len(target):
        raise RuntimeError("a special chord left its class")
    idx = next(compress(count(), map(ne, order, target)), None)  # the first misplaced special
    if idx is None:
        raise RuntimeError("sorted specials must yield the degree bound")
    want = target[idx]
    p = (opener + 1 + arc.index(want)) % n
    prev = (p - 1) % n
    if seq[prev] in s_ids:
        raise RuntimeError("sorting walked out of the arc")
    if seq[prev] in specials:
        return (0, p, seq[prev], plan)  # swap two specials: move `want` leftwards
    return (0, prev, want, plan)  # bump the blocking nonspecial rightwards past `want`


def _retired(circles, marks, m, level):
    """Whether a term leaves the rewriting: >= m marks or degree >= level."""
    return marks >= m or _bd_raw(circles, stop_at=level) >= level


def _child_retired(seq, b, marks, m, level):
    """_retired for a one-circle term that chord b alone moved out of a
    parent of degree < level. A noncrossing set without b lies in
    child - b = parent - b, so bd(child - b) = bd(parent - b) < level, and
    the child retires iff b with the chords that do not cross it (both
    ends on one side of b) reach level. At levels 2 and 3 _bd_circle
    answers in closed form (see its docstring)."""
    lo = seq.index(b)
    hi = seq.index(b, lo + 1)
    gone = set(seq[lo + 1:hi]).intersection(seq[hi + 1:] + seq[:lo])
    gone.add(b)
    kept = [tok for tok in seq if tok not in gone]
    return marks >= m or 1 + _bd_circle(kept, level - 1) >= level


def _reduce(d, m, levels, next_move, max_steps):
    """Rewrite d, for each level in turn, until every term is _retired at
    that level; the result is the DiagramSum of the last level's terms.
    d must not retire at the first level: each caller tests it on entry.

    The frontier is keyed on the exact state (circles, marks, plan), so
    the paths that reach a state before it is taken have their
    coefficients summed and share one retirement or expansion; a state
    whose coefficient cancels to 0 is dropped. next_move(circles, plan,
    level) is a pure function of the state and returns (circle, moving
    position, fixed chord id, plan) or None when no move applies, so by
    linearity neither the merging nor the order changes the sum.
    max_steps bounds the number of expansions.

    States carry their raw circles only. The terms of a level are tested
    as they enter the next one; a state made by a move records the moved
    chord and is tested when taken, by the cheaper _child_retired test on
    one circle. The retired states go to DiagramSum as they are, and
    canonicalize checks them.
    """
    # state -> [coefficient, the moved chord of a child, or None on entry]
    frontier, done, steps = {(d.circles, d.marks, None): [1, None]}, {}, 0
    for level in levels:
        entering, done = done, {}
        for (circles, marks), co in entering.items():
            if co and _retired(circles, marks, m, level):
                done[circles, marks] = co
            elif co:
                frontier[circles, marks, None] = [co, None]
        while frontier:
            key = next(iter(frontier))
            coeff, mover = frontier.pop(key)
            if not coeff:
                continue
            circles, marks, plan = key
            if mover is not None and (
                    _child_retired(circles[0], mover, marks, m, level) if len(circles) == 1
                    else _retired(circles, marks, m, level)):
                done[circles, marks] = done.get((circles, marks), 0) + coeff
                continue
            steps += 1
            if steps > max_steps:
                raise RuntimeError(
                    "reduction exceeded the step budget; instance is beyond the "
                    "implemented desk-scale strategy"
                )
            move = next_move(circles, plan, level)
            if move is None:
                # all chords pairwise noncrossing yet fewer than `level` of them;
                # unreachable when the chord-count precondition holds
                raise RuntimeError(
                    "stuck term with %d noncrossing chords and %d marks; "
                    "instance violates the chord-count precondition"
                    % (len(set().union(*circles)), marks)
                )
            circ, m_pos, fixed, plan = move
            mover = circles[circ][m_pos]
            for new_circles, added, sign in _move(circles, circ, m_pos, fixed):
                frontier.setdefault((new_circles, marks + added, plan), [0, mover])[0] += sign * coeff
    return DiagramSum((lc.new(ChordDiagram, circles=c, marks=mk), co)
                      for (c, mk), co in done.items())


def tower_reduce(d, m, c=2):
    """Rewrite a single-circle diagram into an m-boundary combination.

    The result is equal to d modulo the implemented 4-term moves and
    every term has boundary degree >= m or >= m blink markers. The chord
    count must be at least c*m^3 with pigeonhole_ok(m, c), except when
    the diagram already satisfies the degree or marker bound.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    if len(d.circles) != 1:
        raise ValueError("tower_reduce expects a single-circle diagram")
    bd = _bd_circle(d.circles[0], m)  # exact below m
    if d.marks >= m or bd >= m:
        return DiagramSum({d: 1})
    if not pigeonhole_ok(m, c):
        raise ValueError("constant c=%d fails the pigeonhole bound for m=%d" % (c, m))
    if d.chord_count < c * m ** 3:
        raise ValueError(
            "need at least c*m^3 = %d chords, have %d" % (c * m ** 3, d.chord_count)
        )
    # d retires at every level up to its degree, so the rewriting starts above it
    return _reduce(d, m, range(bd + 1, m + 1), _next_move, inf)


# -- multi-circle reduction --------------------------------------------------

class ReductionLimits:
    """Constants of the multi-circle reduction.

    The proofs determine the chord-count threshold h(m) = c * m^13 only
    up to the constant c. max_steps bounds the number of states the
    rewriting expands (paths that meet in a state count once), so the
    search is a semidecision at desk scale.
    """

    def __init__(self, c=2, max_steps=200000):
        self.c = c
        self.max_steps = max_steps

    def h(self, m):
        return self.c * m ** 13


def _find_multi_move(circles, plan, level):
    """A legal uncrossing move at the first crossing pair a < b, in id
    order, of the first circle with one: (circle, moving pos, fixed id,
    None) or None. Uncrossing keeps no plan; plan and level are not read."""
    for x, seq in enumerate(circles):
        if len(seq) < 4:
            continue
        rows, slots = _circle_masks(seq, max(seq) + 1)
        a = next((i for i, row in enumerate(rows) if row), None)
        if a is None:
            continue
        b = (rows[a] & -rows[a]).bit_length() - 1  # the least id crossing a is > a
        # b has exactly one endpoint inside a's interval: walk it out
        (p, _), (q0, q1) = slots[a], slots[b]
        q = q0 if q0 > p else q1
        nxt = (q + 1) % len(seq)
        blocker = seq[nxt]
        if blocker == a:
            return (x, q, a, None)
        if len(slots[blocker]) == 2:
            return (x, q, blocker, None)
        # blocker cannot anchor a move; bump it across b instead
        return (x, nxt, b, None)
    return None


def multi_tower_reduce(d, m, limits=None):
    """Reduce a multi-circle diagram to terms with boundary degree >= m
    or >= m blink markers.

    limits (default ReductionLimits()) holds the constant c and the step
    budget. Single-circle diagrams delegate to tower_reduce with
    c = limits.c. Otherwise crossings are eliminated circle by circle; moves involving
    type II chords emit the marked error pair, and error branches retire
    once their marker count reaches m. The chord count precondition h(m) = c*m^13 applies
    to the rewriting path only; already-reduced diagrams return as a
    singleton regardless.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    if limits is None:
        limits = ReductionLimits()
    if len(d.circles) == 1:
        return tower_reduce(d, m, c=limits.c)
    if _retired(d.circles, d.marks, m, m):
        return DiagramSum({d: 1})
    if d.chord_count < limits.h(m):
        raise ValueError(
            "need at least h(m) = %d chords, have %d" % (limits.h(m), d.chord_count)
        )
    return _reduce(d, m, (m,), _find_multi_move, limits.max_steps)
