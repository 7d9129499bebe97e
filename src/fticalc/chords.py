"""Multi-circle chord diagrams, the 4-term rewriting moves and tower
reduction.

A diagram is a set of circles, each carrying a cyclic sequence of chord
endpoints, plus a count of accumulated blink error markers. Chords are
type I (two endpoints) or type II (four endpoints, two on each of two
distinct circles). Two chords intersect when some circle carries two
endpoints of each in interleaved (1212) cyclic order; the boundary
degree is the size of a largest pairwise-nonintersecting chord set: an
O(N^2) interval DP per circle when every chord is type I, otherwise a
branch-and-bound search on the crossing graph.

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
tower is the set the branch-and-bound search returns, taken once per
plan, so the term lists do not depend on the degree test. On
several circles: uncross chords circle by circle. One move kernel serves
four_term and the engine: the three main terms and, unless the move is a
clean version 1 (both chords on the moving circle alone), the error pair.

The canonical form is the lexicographically least relabelling over
circle orders, rotations and reflections. Every candidate has one row
per circle, so it is built row by row, keeping at each depth only the
partial states (circles used, labels given) whose newest row is least.

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

from math import comb, inf

from . import _lincomb as lc
from ._records import read


class ChordDiagram:
    """Circles of chord endpoints plus a blink error marker count.

    Chord labels are normalized to 0..n-1 in order of first appearance
    along the circles, so structural equality is label-independent.
    """

    __slots__ = ("circles", "marks", "_pos")

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
        self.marks = int(marks)
        if self.marks < 0:
            raise ValueError("marks must be nonnegative")
        self._pos = _positions(self.circles)
        _validate_positions(self._pos)

    @property
    def chord_count(self):
        return len(self._pos)

    def chord_ids(self):
        return range(self.chord_count)

    def endpoints(self, cid):
        """All (circle, slot) positions of a chord."""
        if cid not in self._pos:
            raise ValueError("unknown chord id %r" % (cid,))
        return tuple((c, p) for c, ps in self._pos[cid].items() for p in ps)

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
        for cid in sorted(self._pos):
            pts = self.endpoints(cid)
            if len(pts) == 2:
                lines.append("I %d:%d %d:%d" % (pts[0] + pts[1]))
            else:
                (c0, ps0), (c1, ps1) = self._pos[cid].items()
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
    with circles in increasing order."""
    pos = {}
    for c, seq in enumerate(circles):
        for p, tok in enumerate(seq):
            pos.setdefault(tok, {}).setdefault(c, []).append(p)
    return pos


def _validate_positions(pos):
    for cid, per in pos.items():
        counts = [len(ps) for ps in per.values()]
        total = sum(counts)
        if total == 2:
            continue
        if total == 4:
            if len(per) != 2:
                raise ValueError(
                    "type II chord %r must meet exactly two distinct circles" % cid
                )
            if counts != [2, 2]:
                raise ValueError(
                    "type II chord %r needs two endpoints per circle" % cid
                )
            continue
        raise ValueError("chord %r has %d endpoints" % (cid, total))


def _interleave(pa, pb):
    """Whether two chords, given as {circle: slots}, interleave (1212) on
    some circle that carries two endpoints of each."""
    for c in pa.keys() & pb.keys():
        if len(pa[c]) == 2 and len(pb[c]) == 2:
            p1, p2 = pa[c]
            q1, q2 = pb[c]
            if (p1 < q1 < p2) != (p1 < q2 < p2):
                return True
    return False


def chords_intersect(d, c1, c2):
    """Whether two chords interleave (1212) on some shared circle."""
    if c1 == c2:
        raise ValueError("chords must be distinct")
    n = d.chord_count
    if not (0 <= c1 < n and 0 <= c2 < n):
        raise ValueError("unknown chord id")
    return _interleave(d._pos[c1], d._pos[c2])


def _adjacency_masks(pos):
    """Crossing graph as bitmasks; bit i stands for the i-th smallest id."""
    per = [pos[cid] for cid in sorted(pos)]
    n = len(per)
    masks = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if _interleave(per[i], per[j]):
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return masks


def _mis(masks, stop_at=None):
    """Maximum independent set: (size, chosen bitmask). Exact, unless
    stop_at is given, in which case the search returns early once a set
    of that size is found (sufficient for threshold checks). Used for
    diagrams with a type II chord and for the tower of each plan."""
    n = len(masks)
    best_size = 0
    best_set = 0

    def rec(cand, size, chosen):
        nonlocal best_size, best_set
        if stop_at is not None and best_size >= stop_at:
            return
        if size + bin(cand).count("1") <= best_size:
            return
        if cand == 0:
            if size > best_size:
                best_size, best_set = size, chosen
            return
        live = [i for i in range(n) if cand >> i & 1]
        v = max(live, key=lambda i: bin(masks[i] & cand).count("1"))
        rec(cand & ~(masks[v] | (1 << v)), size + 1, chosen | (1 << v))
        if masks[v] & cand:
            rec(cand & ~(1 << v), size, chosen)

    rec((1 << n) - 1, 0, 0)
    return best_size, best_set


def _bd_circle(seq):
    """Largest noncrossing chord set of one circle of type I chords (Supowit
    1987). rows[i][j] is the best on slots [i, j); with k the partner of i,
    it is rows[i+1][j], or 1 + rows[i+1][k] + rows[k+1][j] if i < k < j."""
    n = len(seq)
    partner, first = [0] * n, {}
    for p, tok in enumerate(seq):
        q = first.setdefault(tok, p)
        partner[p], partner[q] = q, p
    rows = [None] * n + [[0] * (n + 1)]
    for i in range(n - 1, -1, -1):
        row = rows[i + 1][:]
        k = partner[i]
        if k > i:
            inner, far = row[k] + 1, rows[k + 1]
            row[k + 1:] = [a if a > inner + b else inner + b
                           for a, b in zip(row[k + 1:], far[k + 1:])]
        rows[i] = row
    return rows[0][n]


def _bd_raw(circles, pos, stop_at=None):
    """Boundary degree of raw circles; type I chords on different circles
    never interleave, so without type II chords it is a sum per circle."""
    if all(len(per) == 1 for per in pos.values()):
        return sum(_bd_circle(seq) for seq in circles)
    return _mis(_adjacency_masks(pos), stop_at=stop_at)[0]


def boundary_degree(d):
    """Size of a maximum set of pairwise-nonintersecting chords."""
    return _bd_raw(d.circles, d._pos)


def _turns(seq):
    """Every rotation and reflection of one circle."""
    if not seq:
        return {()}
    out = set()
    for base in (tuple(seq), tuple(reversed(seq))):
        for r in range(len(base)):
            out.add(base[r:] + base[:r])
    return out


def canonicalize(d):
    """Deterministic canonical form: lexicographically minimal labeling
    over circle permutations, rotations and reflections."""
    turns = [_turns(seq) for seq in d.circles]
    # partial states: (circles used as a bitmask, tokens in label order)
    states = {(0, ())}
    rows = []
    for _ in turns:
        best, kept = None, set()
        for used, order in states:
            label = {tok: n for n, tok in enumerate(order)}
            for i, variants in enumerate(turns):
                if used >> i & 1:
                    continue
                for seq in variants:
                    relabel = label.copy()
                    row = tuple([relabel.setdefault(tok, len(relabel)) for tok in seq])
                    if best is None or row < best:
                        best, kept = row, set()
                    if row == best:
                        kept.add((used | 1 << i, tuple(relabel)))
        rows.append(best)
        states = kept
    return ChordDiagram(rows, d.marks)


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

def _relocate(seq, src, dst, after):
    """Move the token at src next to the token currently at dst."""
    seq = list(seq)
    tok = seq.pop(src)
    if dst > src:
        dst -= 1
    seq.insert(dst + 1 if after else dst, tok)
    return tuple(seq)


def _hop_main_terms(circles, circ, m_pos, fa_pos, fb_pos):
    """The three main 4-term diagrams: (circles, sign) triples.

    The moving token flips to the other side of the near fixed endpoint
    (+1), lands on its new side of the far endpoint (+1), and on its old
    side of the far endpoint (-1).
    """
    seq = circles[circ]
    n = len(seq)
    if (fa_pos + 1) % n == m_pos:
        was_after = True
    elif (m_pos + 1) % n == fa_pos:
        was_after = False
    else:
        raise ValueError("moving endpoint is not adjacent to the fixed endpoint")
    out = []
    for new_seq, sign in (
        (_relocate(seq, m_pos, fa_pos, after=not was_after), 1),
        (_relocate(seq, m_pos, fb_pos, after=not was_after), 1),
        (_relocate(seq, m_pos, fb_pos, after=was_after), -1),
    ):
        new_circles = list(circles)
        new_circles[circ] = new_seq
        out.append((tuple(new_circles), sign))
    return out


def _remove_chord(circles, cid):
    return tuple(
        tuple(tok for tok in seq if tok != cid) for seq in circles
    )


def _move(circles, pos, circ, m_pos, fixed):
    """One 4-term move of the endpoint at circles[circ][m_pos] across the
    fixed chord, as (circles, added marks, sign) triples.

    pos is the position map of circles. The three main terms come first;
    unless both chords lie on the moving circle alone (a clean version
    1), the error pair follows: the moving chord removed, one marker, +1,
    and the same with an inert extra circle, -1.
    """
    fpos = pos[fixed][circ]
    n = len(circles[circ])
    fa = next((p for p in fpos if (p + 1) % n == m_pos or (m_pos + 1) % n == p), None)
    if fa is None:
        raise ValueError("moving endpoint is not adjacent to the fixed chord")
    fb = fpos[0] if fa == fpos[1] else fpos[1]
    out = [(new, 0, sign) for new, sign in _hop_main_terms(circles, circ, m_pos, fa, fb)]
    mover = circles[circ][m_pos]
    if len(pos[fixed]) > 1 or len(pos[mover]) > 1:
        stripped = _remove_chord(circles, mover)
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
    mover = d.circles[circ][slot]
    if not 0 <= fixed < d.chord_count:
        raise ValueError("unknown chord id %r" % (fixed,))
    if mover == fixed:
        raise ValueError("moving endpoint belongs to the fixed chord")
    fixed_circles = set(d._pos[fixed])
    mover_circles = set(d._pos[mover])
    fixed_type = d.chord_type(fixed)
    mover_type = d.chord_type(mover)
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
        (ChordDiagram(new_circles, d.marks + added), sign)
        for new_circles, added, sign in _move(d.circles, d._pos, circ, slot, fixed)
    )


# -- single-circle tower reduction ------------------------------------------

def _arc_structure(seq, s_ids):
    """Arc decomposition of a circle at the tower endpoints.

    Arcs are numbered by the tower endpoint that opens them, in list
    order; the last arc wraps around. Tower tokens never move within a
    level, so arc numbers stay meaningful across rewrites of a plan.
    Returns (arc_of_pos, arcs) with arcs[k] the interior positions in
    arc order.
    """
    n = len(seq)
    bpos = [i for i, tok in enumerate(seq) if tok in s_ids]
    arcs = {}
    arc_of = {}
    for bi, left in enumerate(bpos):
        right = bpos[(bi + 1) % len(bpos)]
        interior = []
        p = (left + 1) % n
        while p != right:
            interior.append(p)
            p = (p + 1) % n
        arcs[bi] = interior
        for p in interior:
            arc_of[p] = bi
    return arc_of, arcs


def _next_move(circles, pos, plan, level):
    """The next sorting move on circle 0: (0, moving position, fixed chord
    id, plan). A state entering a level has no plan yet; it gets one here
    (tower, special arc, specials, their target order), and every term a
    move produces inherits it."""
    seq = circles[0]
    if plan is None:
        size, chosen = _mis(_adjacency_masks(pos))
        if size != level - 1:
            raise RuntimeError("lift entered with wrong boundary degree")
        ids = sorted(pos)
        s_ids = frozenset(ids[i] for i in range(len(ids)) if chosen >> i & 1)
        arc_of, arcs = _arc_structure(seq, s_ids)
        classes = {}
        for cid in ids:
            if cid in s_ids:
                continue
            p1, p2 = pos[cid][0]
            pair = tuple(sorted((arc_of[p1], arc_of[p2])))
            if pair[0] == pair[1]:
                raise RuntimeError("same-arc chord contradicts the degree bound")
            classes.setdefault(pair, []).append(cid)
        key = max(sorted(classes), key=lambda k: len(classes[k]))
        if len(classes[key]) < level:
            raise RuntimeError("pigeonhole bound violated")
        alpha_arc, beta_arc = key
        specials = frozenset(classes[key])
        target = tuple(reversed([seq[p] for p in arcs[beta_arc] if seq[p] in specials]))
        plan = (s_ids, alpha_arc, specials, target)
    s_ids, alpha_arc, specials, target = plan
    alpha_positions = _arc_structure(seq, s_ids)[1][alpha_arc]
    order = [seq[p] for p in alpha_positions if seq[p] in specials]
    if len(order) != len(target):
        raise RuntimeError("a special chord left its class")
    idx = next((i for i in range(len(order)) if order[i] != target[i]), None)
    if idx is None:
        raise RuntimeError("sorted specials must yield the degree bound")
    want = target[idx]
    p = next(q for q in alpha_positions if seq[q] == want)
    prev = (p - 1) % len(seq)
    if seq[prev] in s_ids:
        raise RuntimeError("sorting walked out of the arc")
    if seq[prev] in specials:
        return (0, p, seq[prev], plan)  # swap two specials: move `want` leftwards
    return (0, prev, want, plan)  # bump the blocking nonspecial rightwards past `want`


def _reduce(terms, m, level, next_move, max_steps):
    """Rewrite terms {(circles, marks): coeff} until every term has
    boundary degree >= level or >= m marks; the result has the same form.

    The frontier is keyed on the exact state (circles, marks, plan), so
    the paths that reach a state before it is taken have their
    coefficients summed and share one retirement or expansion; a state
    whose coefficient cancels to 0 is dropped. next_move(circles,
    pos, plan, level) is a pure function of the state and returns
    (circle, moving position, fixed chord id, plan) or None when no move
    applies, so by linearity neither the merging nor the order changes
    the sum. max_steps bounds the number of expansions.
    """
    frontier = {(circles, marks, None): co for (circles, marks), co in terms.items()}
    done = {}
    steps = 0
    while frontier:
        key = next(iter(frontier))
        coeff = frontier.pop(key)
        if not coeff:
            continue
        circles, marks, plan = key
        pos = _positions(circles)
        if marks >= m or _bd_raw(circles, pos, stop_at=level) >= level:
            done[circles, marks] = done.get((circles, marks), 0) + coeff
            continue
        steps += 1
        if steps > max_steps:
            raise RuntimeError(
                "reduction exceeded the step budget; instance is beyond the "
                "implemented desk-scale strategy"
            )
        move = next_move(circles, pos, plan, level)
        if move is None:
            # all chords pairwise noncrossing yet fewer than `level` of them;
            # unreachable when the chord-count precondition holds
            raise RuntimeError(
                "stuck term with %d noncrossing chords and %d marks; "
                "instance violates the chord-count precondition"
                % (len(pos), marks)
            )
        circ, m_pos, fixed, plan = move
        for new_circles, added, sign in _move(circles, pos, circ, m_pos, fixed):
            child = (new_circles, marks + added, plan)
            frontier[child] = frontier.get(child, 0) + sign * coeff
    return done


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
    if d.marks >= m or (d.chord_count and m == 1) or _bd_raw(d.circles, d._pos, stop_at=m) >= m:
        return DiagramSum({d: 1})
    if not pigeonhole_ok(m, c):
        raise ValueError("constant c=%d fails the pigeonhole bound for m=%d" % (c, m))
    if d.chord_count < c * m ** 3:
        raise ValueError(
            "need at least c*m^3 = %d chords, have %d" % (c * m ** 3, d.chord_count)
        )
    terms = {(d.circles, d.marks): 1}
    for level in range(2, m + 1):
        terms = _reduce(terms, m, level, _next_move, inf)
    return DiagramSum((ChordDiagram(c, mk), co) for (c, mk), co in terms.items())


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


def _find_multi_move(circles, pos, plan, level):
    """A legal uncrossing move: (circle, moving pos, fixed id, None) or
    None. Uncrossing keeps no plan, so plan and level are not read."""
    ids = sorted(pos)
    for x, seq in enumerate(circles):
        on_x = [cid for cid in ids if len(pos[cid].get(x, ())) == 2]
        for ai in range(len(on_x)):
            for bi in range(ai + 1, len(on_x)):
                a, b = on_x[ai], on_x[bi]
                pa, pb = pos[a][x], pos[b][x]
                if (pa[0] < pb[0] < pa[1]) == (pa[0] < pb[1] < pa[1]):
                    continue
                # b has exactly one endpoint inside a's interval: walk it out
                q = pb[0] if pa[0] < pb[0] < pa[1] else pb[1]
                nxt = (q + 1) % len(seq)
                blocker = seq[nxt]
                if blocker == a:
                    return (x, q, a, None)
                if len(pos[blocker].get(x, ())) == 2:
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
    if d.marks >= m or (d.chord_count and m == 1) or _bd_raw(d.circles, d._pos, stop_at=m) >= m:
        return DiagramSum({d: 1})
    if len(d.circles) == 1:
        return tower_reduce(d, m, c=limits.c)
    if d.chord_count < limits.h(m):
        raise ValueError(
            "need at least h(m) = %d chords, have %d" % (limits.h(m), d.chord_count)
        )
    terms = _reduce({(d.circles, d.marks): 1}, m, m, _find_multi_move, limits.max_steps)
    return DiagramSum((ChordDiagram(c, mk), co) for (c, mk), co in terms.items())
