import hashlib
import random
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations, product
from math import inf

import pytest

from fticalc import _lincomb as lc
from fticalc.chords import (
    ChordDiagram,
    DiagramSum,
    ReductionLimits,
    _bd_circle,
    _bd_raw,
    _child_retired,
    _circle_masks,
    _mis,
    _move,
    _next_move,
    _positions,
    _reduce,
    _retired,
    boundary_degree,
    canonicalize,
    chords_intersect,
    four_term,
    multi_tower_reduce,
    pigeonhole_ok,
    tower_reduce,
)

# figure fixture: three chords 1 2 1 3 2 3; chords 0-1 and 1-2 cross, 0-2 do not
FIG = ChordDiagram([(0, 1, 0, 2, 1, 2)])

# sha256 of test_multi_tower_reduce_golden's outputs
GOLDEN_MULTI_REDUCE = "bde9856da6d63d7bc9c57cdcc6f6a46f6a302cc405c097f8516780ab93bbb599"


def random_single_circle(rng, nchords):
    toks = [i for i in range(nchords) for _ in range(2)]
    rng.shuffle(toks)
    return ChordDiagram([tuple(toks)])


def oracle_mis(d):
    """Brute force maximum independent set over all chord subsets."""
    ids = list(d.chord_ids())
    n = len(ids)
    cross = {}
    for i, j in combinations(range(n), 2):
        cross[(i, j)] = chords_intersect(d, ids[i], ids[j])
    best = 0
    for mask in range(1 << n):
        members = [i for i in range(n) if mask >> i & 1]
        if len(members) <= best:
            continue
        if all(not cross[(a, b)] for a, b in combinations(members, 2)):
            best = len(members)
    return best


def crossing_rows(seq, n):
    """The 1212 test on one circle, pair by pair: bit j of row i is set iff
    chords i and j both have two endpoints here and exactly one endpoint of
    j lies between those of i. Also each chord id's slots here."""
    at = {}
    for p, tok in enumerate(seq):
        at.setdefault(tok, []).append(p)
    rows = [0] * n
    both = [(tok, ps) for tok, ps in at.items() if len(ps) == 2]
    for (i, (p, q)), (j, (r, s)) in permutations(both, 2):
        if (p < r < q) != (p < s < q):
            rows[i] |= 1 << j
    return rows, [at.get(i, []) for i in range(n)]


def test_intersect_examples():
    d = ChordDiagram([(0, 1, 0, 1)])
    assert chords_intersect(d, 0, 1)
    d = ChordDiagram([(0, 0, 1, 1)])
    assert not chords_intersect(d, 0, 1)
    assert not chords_intersect(FIG, 0, 2)
    assert chords_intersect(FIG, 0, 1) and chords_intersect(FIG, 1, 2)
    with pytest.raises(ValueError):
        chords_intersect(FIG, 0, 0)
    with pytest.raises(ValueError):
        chords_intersect(FIG, 0, 9)


def test_intersect_symmetric():
    rng = random.Random(103)
    for _ in range(20):
        d = random_single_circle(rng, 6)
        for a, b in combinations(range(6), 2):
            assert chords_intersect(d, a, b) == chords_intersect(d, b, a)


def test_boundary_degree_examples():
    assert boundary_degree(ChordDiagram([])) == 0
    assert boundary_degree(FIG) == 2
    nested = ChordDiagram([(0, 1, 2, 3, 3, 2, 1, 0)])
    assert boundary_degree(nested) == 4


def test_boundary_degree_matches_oracle():
    rng = random.Random(107)
    for _ in range(60):
        d = random_single_circle(rng, rng.randint(0, 9))
        assert boundary_degree(d) == oracle_mis(d)
    for n in (13, 14):
        for _ in range(3):
            d = random_single_circle(rng, n)
            assert boundary_degree(d) == oracle_mis(d)
    # multi-circle with a type II chord
    d = ChordDiagram([(0, 1, 0, 1), (1, 1, 2, 2)])
    assert boundary_degree(d) == oracle_mis(d)
    # the interval DP against the exact search on the crossing graph
    for _ in range(200):
        d = random_single_circle(rng, rng.randint(15, 40))
        n = d.chord_count
        assert boundary_degree(d) == _mis(crossing_rows(d.circles[0], n)[0], (1 << n) - 1)[0]
    # type I chords only, spread over 2-3 circles
    for _ in range(40):
        circles = [[] for _ in range(rng.randint(2, 3))]
        for cid in range(rng.randint(0, 12)):
            circles[rng.randrange(len(circles))] += [cid, cid]
        for seq in circles:
            rng.shuffle(seq)
        d = ChordDiagram(circles)
        assert boundary_degree(d) == oracle_mis(d)
    # known answers at 500 chords
    nested = ChordDiagram([tuple(range(500)) + tuple(reversed(range(500)))])
    assert boundary_degree(nested) == 500
    star = ChordDiagram([tuple(range(500)) * 2])
    assert boundary_degree(star) == 1
    for k in (2, 5, 10):
        size = 500 // k
        seq = sum((tuple(range(s, s + size)) * 2 for s in range(0, 500, size)), ())
        assert boundary_degree(ChordDiagram([seq])) == k
    d = random_single_circle(rng, 300)
    assert boundary_degree(d) == interval_oracle(d.circles[0])


def perturbed_star(rng, n):
    """A star of n chords with a few adjacent endpoints swapped, rotated."""
    seq = list(range(n)) * 2
    for _ in range(rng.randint(1, 4)):
        p = rng.randrange(2 * n - 1)
        seq[p], seq[p + 1] = seq[p + 1], seq[p]
    r = rng.randrange(2 * n)
    return tuple(seq[r:] + seq[:r])


def test_bd_circle_stops_at_cap():
    rng = random.Random(109)
    cases = [random_single_circle(rng, rng.randint(0, 40)).circles[0] for _ in range(60)]
    cases += [perturbed_star(rng, rng.randint(2, 40)) for _ in range(30)]
    for seq in cases:
        exact = interval_oracle(seq)
        assert _bd_circle(seq) == exact
        for cap in range(5):
            assert _bd_circle(seq, cap) == min(exact, cap)
    nested = tuple(range(500)) + tuple(reversed(range(500)))
    star = tuple(range(500)) * 2
    blocks = sum((tuple(range(s, s + 50)) * 2 for s in range(0, 500, 50)), ())
    for seq, exact in ((nested, 500), (star, 1), (blocks, 10)):
        for cap in (0, 1, 2, 3, 4, None):
            assert _bd_circle(seq, cap) == (exact if cap is None else min(exact, cap))
    # type I chords on 2-3 circles: the capped sum decides ">= stop_at" exactly
    for _ in range(60):
        circles = [[] for _ in range(rng.randint(2, 3))]
        for cid in range(rng.randint(0, 12)):
            circles[rng.randrange(len(circles))] += [cid, cid]
        for seq in circles:
            rng.shuffle(seq)
        d = ChordDiagram(circles)
        exact = oracle_mis(d)
        for stop_at in range(5):
            got = _bd_raw(d.circles, stop_at)
            assert got == exact if exact < stop_at else stop_at <= got <= exact


def interval_oracle(seq):
    """Largest noncrossing chord set on one circle, recursing on the last
    slot of a closed interval [i, j]: it is unused, or its chord (k, j)
    with i <= k is taken and splits the interval."""
    partner = {}
    for p, tok in enumerate(seq):
        partner.setdefault(tok, []).append(p)
    other = {p: sum(partner[tok]) - p for p, tok in enumerate(seq)}

    @cache
    def best(i, j):
        if j <= i:
            return 0
        k = other[j]
        skip = best(i, j - 1)
        if i <= k < j:
            return max(skip, 1 + best(i, k - 1) + best(k + 1, j - 1))
        return skip

    n = len(seq)
    for length in range(n):  # shortest intervals first keeps the recursion shallow
        for i in range(n - length):
            best(i, i + length)
    return best(0, n - 1)


def test_canonicalize_properties():
    a = ChordDiagram([(0, 1, 0, 2, 1, 2)])
    rotated = ChordDiagram([(2, 0, 1, 0, 2, 1)])
    reflected = ChordDiagram([tuple(reversed((0, 1, 0, 2, 1, 2)))])
    assert canonicalize(a) == canonicalize(rotated) == canonicalize(reflected)
    assert canonicalize(canonicalize(a)) == canonicalize(a)
    # all one- and two-chord single-circle diagrams fall into the known classes
    from itertools import permutations as perms

    classes = {canonicalize(ChordDiagram([seq])) for seq in set(perms((0, 0, 1, 1)))}
    assert len(classes) == 2
    classes1 = {canonicalize(ChordDiagram([seq])) for seq in set(perms((0, 0)))}
    assert len(classes1) == 1
    # marks distinguish diagrams
    assert canonicalize(ChordDiagram([(0, 0)], marks=1)) != canonicalize(
        ChordDiagram([(0, 0)])
    )


def oracle_canonical(d):
    """Every circle order x every rotation/reflection of each circle,
    relabelled by first appearance; the least of them. Equal circles and
    equal turns are tried once, which leaves the minimum as it is."""
    def turns(seq):
        if not seq:
            return {()}
        return {b[r:] + b[:r] for b in (seq, seq[::-1]) for r in range(len(seq))}

    best = None
    for order in set(permutations(d.circles)):
        for choice in product(*(turns(seq) for seq in order)):
            label = {}
            cand = tuple(
                tuple(label.setdefault(t, len(label)) for t in seq) for seq in choice
            )
            if best is None or cand < best:
                best = cand
    return best


def random_diagram(rng):
    """1-5 circles, up to two of them empty, up to three type II chords,
    up to two type I chords with one endpoint on each of two circles,
    other type I chords, marks."""
    k = rng.randint(1, 5)
    empty = rng.sample(range(k), rng.randint(0, min(2, k - 1)))
    live = [c for c in range(k) if c not in empty]
    circles = [[] for _ in range(k)]
    ntype2 = rng.randint(0, 3) if len(live) >= 2 else 0
    nspan = rng.randint(0, 2) if len(live) >= 2 else 0
    for cid in range(rng.randint(0 if ntype2 or nspan else 1, max(0, 5 - 2 * ntype2 - nspan))):
        circles[rng.choice(live)] += [cid, cid]
    for cid in range(10, 10 + ntype2):
        for c in rng.sample(live, 2):
            circles[c] += [cid, cid]
    for cid in range(20, 20 + nspan):
        for c in rng.sample(live, 2):
            circles[c].append(cid)
    for seq in circles:
        rng.shuffle(seq)
    return ChordDiagram(circles, marks=rng.randint(0, 2))


def isomorphic_copy(rng, d):
    """d with its circles shuffled, its chords relabelled and each circle
    rotated or reflected."""
    names = rng.sample(range(100, 100 + 3 * d.chord_count), d.chord_count)
    circles = []
    for seq in d.circles:
        seq = [names[tok] for tok in seq]
        if rng.random() < 0.5:
            seq.reverse()
        r = rng.randrange(len(seq)) if seq else 0
        circles.append(seq[r:] + seq[:r])
    rng.shuffle(circles)
    return ChordDiagram(circles, marks=d.marks)


def test_canonicalize_matches_brute_force():
    rng = random.Random(113)
    diagrams = [random_diagram(rng) for _ in range(300)]
    assert max(len(d.circles) for d in diagrams) == 5
    maps = [_positions(d.circles) for d in diagrams]
    assert any(sum(len(per) > 1 for per in pos.values()) == 3 for pos in maps)
    assert any(sum(len(ps) == 1 for per in pos.values() for ps in per.values()) == 4
               for pos in maps)
    # a nonempty circle on which no token repeats
    assert any(seq and len(set(seq)) == len(seq) for d in diagrams for seq in d.circles)
    for d in diagrams:
        canon = canonicalize(d)
        assert canon.circles == oracle_canonical(d)
        assert canon.marks == d.marks


def test_canonicalize_circles_without_a_repeated_token():
    # every chord on the first circle ends on the second, so no turn of the
    # first repeats a token and all of them are tried, reflections included
    d = ChordDiagram([(0, 1, 2), (0, 1, 2, 3, 4, 5, 3, 6, 5, 7, 4, 6, 7)])
    assert canonicalize(d).circles == oracle_canonical(d)
    assert canonicalize(d).circles[1] == (0, 1, 2, 3, 4, 5, 3, 6, 4, 7, 6, 5, 7)
    flipped = ChordDiagram([(2, 1, 0), d.circles[1]])
    assert canonicalize(flipped) == canonicalize(d)
    # the same shape at random: each chord on the second circle spans at
    # least as many slots as the first circle has, so the first goes first
    def least_arc(seq):
        slots = {}
        for p, tok in enumerate(seq):
            slots.setdefault(tok, []).append(p)
        return min(min(q - p, len(seq) - q + p) for p, q in
                   (ps for ps in slots.values() if len(ps) == 2))

    rng = random.Random(151)
    for _ in range(40):
        n = rng.randint(2, 4)
        a, b = list(range(n)), list(range(n))
        for cid in range(n, n + rng.randint(2, 5)):
            b += [cid, cid]
        rng.shuffle(a)
        while least_arc(b) < n:
            rng.shuffle(b)
        d = ChordDiagram([a, b, []][:rng.randint(2, 3)])
        assert canonicalize(d).circles == oracle_canonical(d)


def test_canonicalize_reduction_outputs_match_brute_force():
    # the terms multi_tower_reduce emits: one circle of type II chords, a
    # (k, k) circle for each of them and the empty circles that moves leave
    rng = random.Random(139)
    base = (0, 1, 2, 3, 0, 1, 2, 3)
    terms = []
    for _ in range(6):
        seq = base[::-1] if rng.random() < 0.5 else base
        r = rng.randrange(len(seq))
        d = ChordDiagram([seq[r:] + seq[:r]] + [(i, i) for i in range(4)])
        terms += multi_tower_reduce(d, 2, ReductionLimits(c=0)).terms
    assert {len(t.circles) for t in terms} == {5, 6, 7}
    assert {1, 2, 3} <= {t.circles.count(()) for t in terms}
    assert all(sum(len(seq) == 2 for seq in t.circles) >= 2 for t in terms)
    for t in terms:
        copy = isomorphic_copy(rng, t)
        assert canonicalize(copy).circles == oracle_canonical(copy)


def test_canonicalize_is_invariant():
    rng = random.Random(149)
    for _ in range(500):
        d = random_diagram(rng)
        assert canonicalize(isomorphic_copy(rng, d)) == canonicalize(d)


def test_canonicalize_first_turns_match_brute_force():
    # a circle that shares no chord with another is placed only by the
    # turns that start on a chord of least arc; ties included
    rng = random.Random(127)
    singles = []
    for _ in range(6):
        n = rng.randint(20, 60)
        singles.append(tuple(range(n)) * 2)
        singles.append(perturbed_star(rng, n))
        singles.append(random_single_circle(rng, n).circles[0])
        seq = list(random_single_circle(rng, n - 4).circles[0])
        for cid in range(n - 4, n):  # isolated chords tie for the least arc
            p = rng.randrange(len(seq) + 1)
            seq[p:p] = [cid, cid]
        singles.append(tuple(seq))
    for seq in singles:
        assert canonicalize(ChordDiagram([seq])).circles == oracle_canonical(ChordDiagram([seq]))
    for _ in range(20):
        circles = [[], []]
        for cid in range(rng.randint(2, 14)):
            circles[rng.randrange(2)] += [cid, cid]
        for seq in circles:
            rng.shuffle(seq)
        d = ChordDiagram(circles, marks=rng.randint(0, 1))
        assert canonicalize(d).circles == oracle_canonical(d)


def test_canonicalize_builds_a_valid_diagram():
    # canonicalize skips ChordDiagram.__init__, and the engine hands it raw
    # states: its result must be the one the constructor builds from the
    # same rows, and a malformed input must still raise
    rng = random.Random(131)
    diagrams = [ChordDiagram([perturbed_star(rng, rng.randint(3, 30))]) for _ in range(20)]
    diagrams += [ChordDiagram([tuple(range(n)) * 2], marks=n % 3) for n in range(6)]
    randoms = [random_diagram(rng) for _ in range(200)]
    diagrams += randoms
    assert any(len(per) > 1 for d in diagrams for per in _positions(d.circles).values())
    terms = [canonicalize(d) for d in diagrams]
    terms += tower_reduce(ChordDiagram([perturbed_star(rng, 54)]), 3).terms
    for n in (16, 20, 24):
        terms += tower_reduce(ChordDiagram([perturbed_star(rng, n)]), 2).terms
    multi, versions = 0, []
    for d in randoms:
        if len(d.circles) > 1 and multi < 40:
            try:
                terms += multi_tower_reduce(d, 2, ReductionLimits(c=0, max_steps=200)).terms
                multi += 1
            except RuntimeError:
                pass
        for circ, slot, fixed in move_options(d.circles)[:3]:
            for version in (1, 2, 3):
                try:
                    terms += four_term(d, fixed, (circ, slot), version).terms
                    versions.append(version)
                except ValueError:
                    pass
    assert multi == 40 and min(map(versions.count, (1, 2, 3))) > 20
    assert any(t.marks > 0 for t in terms)
    for t in terms:
        built = ChordDiagram(t.circles, t.marks)
        assert (t.circles, t.marks) == (built.circles, built.marks)
    with pytest.raises(ValueError):
        canonicalize(lc.new(ChordDiagram, circles=((0, 1, 0),), marks=0))


def test_pigeonhole_examples():
    assert pigeonhole_ok(1, 2)
    assert pigeonhole_ok(10, 2)
    assert pigeonhole_ok(2, 1)
    assert not pigeonhole_ok(10, 1)
    with pytest.raises(ValueError):
        pigeonhole_ok(0, 2)


def test_four_term_v1_shape_and_signs():
    # configuration rich enough that the three placements stay distinct
    base = ChordDiagram([(0, 1, 2, 0, 3, 1, 2, 3)])
    s = four_term(base, 0, (0, 4), 1)
    assert len(s) == 3
    assert sorted(s.terms.values()) == [Fraction(-1), Fraction(1), Fraction(1)]
    assert s.coefficient_sum() == 1


def test_four_term_two_chord_collapse():
    # with only two chords the relation collapses to the original class
    d = ChordDiagram([(0, 1, 0, 1)])
    s = four_term(d, 0, (0, 1), 1)
    assert s == DiagramSum({d: 1})


def test_four_term_hop_inverts():
    # applying the move and then hopping back telescopes exactly
    base = ChordDiagram([(0, 1, 2, 0, 3, 1, 2, 3)])
    hopped = ChordDiagram(_move(base.circles, 0, 4, 0)[0][0])
    s1 = four_term(base, 0, (0, 4), 1)
    s2 = four_term(hopped, 0, (0, 3), 1)
    assert s1 + s2 == DiagramSum({base: 1}) + DiagramSum({hopped: 1})


def test_move_near_endpoint_is_the_lower_slot():
    # the mover (chord 1, slot 1) touches both endpoints of chord 0 (slots
    # 0 and 2); slot 0 is the near endpoint and the mover sits after it
    circles = ((0, 1, 0, 2, 1, 2),)
    assert _move(circles, 0, 1, 0) == [
        (((1, 0, 0, 2, 1, 2),), 0, 1),
        (((0, 1, 0, 2, 1, 2),), 0, 1),
        (((0, 0, 1, 2, 1, 2),), 0, -1),
    ]


def test_move_version_two_error_pair():
    # chord 0 (type I) moves across chord 1 (type II, slots 1 and 4); the
    # mover sits before its near endpoint, slot 1
    circles = ((0, 1, 2, 0, 1, 2), (1, 1))
    assert _move(circles, 0, 0, 1) == [
        (((1, 0, 2, 0, 1, 2), (1, 1)), 0, 1),
        (((1, 2, 0, 1, 0, 2), (1, 1)), 0, 1),
        (((1, 2, 0, 0, 1, 2), (1, 1)), 0, -1),
        (((1, 2, 1, 2), (1, 1)), 1, 1),
        (((1, 2, 1, 2), (1, 1), ()), 1, -1),
    ]


def test_four_term_v2_marks():
    d = ChordDiagram([(0, 1, 0, 1, 2, 2), (1, 1)])
    s = four_term(d, 1, (0, 0), 2)
    marked = [(t, c) for t, c in s.terms.items() if t.marks == d.marks + 1]
    plain = [(t, c) for t, c in s.terms.items() if t.marks == d.marks]
    assert len(marked) == 2
    assert sorted(c for _, c in marked) == [Fraction(-1), Fraction(1)]
    assert sum(c for _, c in plain) == 1
    # at most two markers added per application
    assert all(t.marks <= d.marks + 1 for t, _ in s.terms.items())
    # the marked terms have the moving chord removed
    assert all(t.chord_count == d.chord_count - 1 for t, _ in marked)


def test_four_term_v2_five_distinct_terms():
    # configuration where the three placements and the error pair all
    # stay distinct: three mutually interleaved chords, one of type II
    d = ChordDiagram([(0, 1, 2, 0, 1, 2), (1, 1)])
    assert d.chord_type(1) == "II"
    s = four_term(d, 1, (0, 0), 2)
    assert len(s) == 5
    assert sorted(s.terms.values()) == [
        Fraction(-1), Fraction(-1), Fraction(1), Fraction(1), Fraction(1),
    ]
    assert sorted(t.marks for t in s.terms) == [0, 0, 0, 1, 1]


def test_four_term_v3():
    d = ChordDiagram([(0, 1, 0, 1, 2, 2), (0, 0), (2, 2)])
    assert d.chord_type(0) == "II" and d.chord_type(2) == "II"
    s = four_term(d, 0, (0, 5), 3)
    assert len(s) == 5
    marked = [t for t in s.terms if t.marks == 1]
    assert len(marked) == 2


def test_four_term_version_mismatch():
    d = ChordDiagram([(0, 1, 0, 1, 2, 2), (1, 1)])
    with pytest.raises(ValueError):
        four_term(d, 1, (0, 0), 1)  # fixed chord is type II
    with pytest.raises(ValueError):
        four_term(d, 0, (0, 1), 2)  # fixed chord is type I
    with pytest.raises(ValueError):
        four_term(d, 0, (0, 4), 1)  # not adjacent
    with pytest.raises(ValueError):
        four_term(d, 0, (0, 0), 1)  # moving endpoint belongs to fixed


def one_circle_classes(n):
    """canonicalize classes of the one-circle diagrams with n chords, from
    every perfect matching of the 2n slots."""
    out = set()

    def match(seq, label):
        if None not in seq:
            out.add(canonicalize(ChordDiagram([tuple(seq)])))
            return
        a = seq.index(None)
        for b in range(a + 1, len(seq)):
            if seq[b] is None:
                seq[a] = seq[b] = label
                match(seq, label + 1)
                seq[a] = seq[b] = None

    match([None] * (2 * n), 0)
    return out


def rank_mod(rows, prime):
    """Rank of sparse integer rows {column: value} modulo a prime."""
    pivots = {}
    for row in rows:
        row = {c: v % prime for c, v in row.items() if v % prime}
        while row:
            col = min(row)
            if col not in pivots:
                inv = pow(row[col], -1, prime)
                pivots[col] = {c: v * inv % prime for c, v in row.items()}
                break
            f = row[col]
            for c, v in pivots[col].items():
                nv = (row.get(c, 0) - f * v) % prime
                if nv:
                    row[c] = nv
                else:
                    row.pop(c, None)
    return len(pivots)


def test_four_term_quotient_dimensions():
    # framed A_n: one-circle diagrams with n chords modulo every version 1
    # move (Bar-Natan, Topology 1995). One representative per class gives
    # every relation, since a move commutes with relabelling, rotation and
    # reflection; the classes also identify reflections, which act
    # trivially on A_n for these n.
    for n, dim in enumerate((1, 1, 2, 3, 6, 10, 19)):
        basis = {d: i for i, d in enumerate(sorted(one_circle_classes(n),
                                                   key=lambda d: d.circles))}
        rows = []
        for d in basis:
            seq = d.circles[0]
            for fixed in d.chord_ids():
                ends = [p for p, tok in enumerate(seq) if tok == fixed]
                near = {(q + s) % len(seq) for q in ends for s in (-1, 1)}
                for p in sorted(near):
                    if seq[p] == fixed:
                        continue
                    row = {basis[d]: 1}
                    for term, coeff in four_term(d, fixed, (0, p), 1).terms.items():
                        assert coeff.denominator == 1
                        col = basis[term]
                        row[col] = row.get(col, 0) - coeff.numerator
                    rows.append(row)
        for prime in (1000003, 998244353):
            assert len(basis) - rank_mod(rows, prime) == dim


def test_tower_reduce_trivial_cases():
    star = ChordDiagram([tuple(range(4)) + tuple(range(4))])
    assert tower_reduce(star, 1) == DiagramSum({star: 1})
    nested = ChordDiagram([(0, 1, 1, 0)])
    assert tower_reduce(nested, 2) == DiagramSum({nested: 1})
    marked = ChordDiagram([(0, 0)], marks=3)
    assert tower_reduce(marked, 3) == DiagramSum({marked: 1})


def test_tower_reduce_preconditions():
    star = ChordDiagram([tuple(range(4)) + tuple(range(4))])
    with pytest.raises(ValueError):
        tower_reduce(star, 2, c=2)  # needs 16 chords
    with pytest.raises(ValueError):
        tower_reduce(star, 10, c=1)  # pigeonhole fails for c=1, m=10
    multi = ChordDiagram([(0, 0), (1, 1)])
    with pytest.raises(ValueError):
        tower_reduce(multi, 1)


def test_tower_reduce_star_m2():
    star = ChordDiagram([tuple(range(8)) + tuple(range(8))])
    assert boundary_degree(star) == 1
    s = tower_reduce(star, 2, c=1)
    assert len(s) >= 1
    for term in s.terms:
        assert boundary_degree(term) >= 2 or term.marks >= 2
    assert s.coefficient_sum() == 1

    # independent oracle: some sequence of single 4-term moves reaches a
    # 2-boundary diagram from the star
    seen = {canonicalize(star)}
    frontier = [star]
    found = False
    for _ in range(3):
        nxt = []
        for d in frontier:
            seq = d.circles[0]
            n = len(seq)
            for fixed in d.chord_ids():
                fpos = [p for p, t in enumerate(seq) if t == fixed]
                for p, tok in enumerate(seq):
                    if tok == fixed:
                        continue
                    if not any((q + 1) % n == p or (p + 1) % n == q for q in fpos):
                        continue
                    for term in four_term(d, fixed, (0, p), 1).terms:
                        if term not in seen:
                            seen.add(term)
                            nxt.append(term)
                        if boundary_degree(term) >= 2:
                            found = True
            if found:
                break
        frontier = nxt
        if found:
            break
    assert found


def test_tower_reduce_random_m2():
    rng = random.Random(109)
    for _ in range(15):
        d = random_single_circle(rng, 16)
        s = tower_reduce(d, 2)
        for term in s.terms:
            assert boundary_degree(term) >= 2 or term.marks >= 2


def test_tower_reduce_m3():
    star = ChordDiagram([tuple(range(54)) + tuple(range(54))])
    s = tower_reduce(star, 3)
    # the rewriting preserves the total coefficient exactly
    assert s.coefficient_sum() == 1
    for term in s.terms:
        assert boundary_degree(term) >= 3 or term.marks >= 3


def test_tower_reduce_m4_star128():
    star = ChordDiagram([tuple(range(128)) * 2])
    s = tower_reduce(star, 4)
    assert len(s) == 41
    assert s.coefficient_sum() == 1
    assert all(boundary_degree(term) >= 4 for term in s.terms)


def move_options(circles):
    """Every (circle, moving slot, fixed chord) that _move accepts: a chord
    with two endpoints on the circle and an endpoint of another chord next
    to one of them."""
    out = []
    for c, seq in enumerate(circles):
        n = len(seq)
        for fixed in sorted(set(seq)):
            ends = [p for p in range(n) if seq[p] == fixed]
            if len(ends) == 2:
                out += [(c, (p + step) % n, fixed) for p in ends for step in (-1, 1)
                        if seq[(p + step) % n] != fixed]
    return out


def multi_circle_states(rng, count):
    """count seeded multi-circle random diagrams, each followed by the
    terms of one random move on it, as raw circles."""
    states = []
    while count:
        d = random_diagram(rng)
        options = move_options(d.circles)
        if len(d.circles) > 1 and options:
            count -= 1
            states.append(d.circles)
            states += [child for child, _, _ in _move(d.circles, *rng.choice(options))]
    return states


def test_circle_masks_match_pairwise_interleave():
    rng = random.Random(116)
    cases = [(), (0, 0)] + [random_single_circle(rng, rng.randint(1, 40)).circles[0]
                            for _ in range(300)]
    cases += [perturbed_star(rng, rng.randint(2, 60)) for _ in range(40)]
    for seq in cases:
        assert _circle_masks(seq, len(seq) // 2) == crossing_rows(seq, len(seq) // 2)
    # every circle of multi-circle states: chords with one endpoint on a
    # circle, type II chords, and the id gaps an error term leaves
    one_end = crossing = gaps = type2 = 0
    for circles in multi_circle_states(rng, 200):
        ids = {tok for seq in circles for tok in seq}
        n = max(ids, default=-1) + 1
        for seq in circles:
            rows, slots = crossing_rows(seq, n)
            assert _circle_masks(seq, n) == (rows, slots)
            one_end += any(len(ps) == 1 for ps in slots)
            crossing += any(rows)
        gaps += len(ids) < n
        type2 += any(sum(seq.count(t) == 2 for seq in circles) == 2 for t in ids)
    assert min(one_end, crossing, gaps, type2) > 50


def test_bd_raw_on_multi_circle_states():
    """_bd_raw on raw states, ids with gaps included, against the brute
    force on the relabelled diagram."""
    assert _bd_raw(((), (0, 0), (0, 0, 2, 2), (), ())) == 2
    rng = random.Random(157)
    for circles in multi_circle_states(rng, 200):
        exact = oracle_mis(ChordDiagram(circles))
        assert _bd_raw(circles) == exact
        for stop_at in range(1, 4):
            got = _bd_raw(circles, stop_at)
            assert got == exact if exact < stop_at else stop_at <= got <= exact


def test_multi_tower_reduce_golden():
    """The sorted term list, or the error message, of multi_tower_reduce at
    m = 1, 2, 3 on 400 seeded multi-circle diagrams, hashed: it pins every
    move, retirement test and message of the multi-circle engine."""
    rng = random.Random(163)
    digest, outcomes, count = hashlib.sha256(), set(), 0
    while count < 400:
        d = random_diagram(rng)
        if len(d.circles) == 1:
            continue
        count += 1
        for m in (1, 2, 3):
            try:
                s = multi_tower_reduce(d, m, ReductionLimits(c=0, max_steps=200))
                out = repr([(t.circles, t.marks, co) for t, co in s.items()])
                outcomes.add("reduced")
            except RuntimeError as exc:
                out = str(exc)
                outcomes.add(out.split(";")[0].split(" with ")[0])
            digest.update(b"%d %s\n" % (m, out.encode()))
    assert outcomes == {"reduced", "reduction exceeded the step budget", "stuck term"}
    assert digest.hexdigest() == GOLDEN_MULTI_REDUCE


def test_child_retired_matches_retired():
    """The one-mover rule equals the full test on every child of random
    moves out of unretired parents."""
    rng = random.Random(116)
    tested = []
    for _ in range(2000):
        seq = random_single_circle(rng, rng.randint(3, 12)).circles[0]
        n = len(seq)
        level, m = rng.randint(2, 4), rng.randint(1, 5)
        marks = rng.randint(0, m - 1)
        if _retired((seq,), marks, m, level):
            continue
        for _ in range(4):
            fixed = rng.choice(seq)
            slots = [p for p in range(n) if seq[p] == fixed]
            slot = rng.choice([(p + step) % n for p in slots for step in (-1, 1)
                               if seq[(p + step) % n] != fixed])
            for child, added, _sign in _move((seq,), 0, slot, fixed):
                assert added == 0
                full = _retired(child, marks, m, level)
                assert _child_retired(child[0], seq[slot], marks, m, level) == full
                tested.append((full, level))
    # a child at level 2 always retires: its parent is a star, and the mover
    # leaves the fixed chord or every other chord
    assert set(tested) == {(True, 2)} | {(r, level) for r in (False, True) for level in (3, 4)}
    assert len(tested) > 3000


def pairwise_plan(seq, level):
    """The tower plan as built from pairwise crossings and every arc:
    (tower, slot of the alpha arc's opening endpoint, specials, target)."""
    n = len(seq)
    size, chosen = _mis(crossing_rows(seq, n // 2)[0], (1 << n // 2) - 1)
    assert size == level - 1
    tower = frozenset(i for i in range(n // 2) if chosen >> i & 1)
    bpos = [p for p in range(n) if seq[p] in tower]
    arcs = []
    for bi, left in enumerate(bpos):
        right = bpos[(bi + 1) % len(bpos)]
        arcs.append([p % n for p in range(left + 1, right + (n if right < left else 0))])
    arc_of = {p: k for k, arc in enumerate(arcs) for p in arc}
    classes = {}
    for cid in sorted(set(seq) - tower):
        ends = [p for p in range(n) if seq[p] == cid]
        classes.setdefault(tuple(sorted(arc_of[p] for p in ends)), []).append(cid)
    alpha, beta = max(sorted(classes), key=lambda k: len(classes[k]))
    specials = frozenset(classes[alpha, beta])
    target = tuple(reversed([seq[p] for p in arcs[beta] if seq[p] in specials]))
    return tower, bpos[alpha], specials, target


def opener_plan(seq, plan):
    """A plan with its alpha arc named by the slot of the opening endpoint."""
    s_ids, (tok, k), specials, target = plan
    return s_ids, [p for p in range(len(seq)) if seq[p] == tok][k], specials, target


def test_tower_plans_match_pairwise_build():
    """Every plan equals the one built from pairwise crossings and the full
    arcs: on each level of reductions of the benchmark's band of perturbed
    stars (54-59 chords, three nearby swaps, turned and reflected) and of
    the 54-chord star, and on two perturbed stars side by side, where the
    alpha arc may open at a token's second slot."""
    rng = random.Random(116)
    plans = []

    def checked(circles, plan, level):
        move = _next_move(circles, plan, level)
        if plan is None:
            assert opener_plan(circles[0], move[3]) == pairwise_plan(circles[0], level)
            plans.append(level)
        return move

    for n, swaps in [(n, (n - 10, n - 8, n - 6)) for n in range(54, 60)] + [(54, ())]:
        seq = list(range(n)) * 2
        for p in swaps:
            seq[p], seq[p + 1] = seq[p + 1], seq[p]
        r = rng.randrange(2 * n)
        seq = seq[r:] + seq[:r]
        if rng.random() < 0.5:
            seq.reverse()
        d = ChordDiagram([seq])
        assert _reduce(d, 3, range(2, 4), checked, inf) == tower_reduce(d, 3)
    assert set(plans) == {2, 3}
    second = 0
    for _ in range(600):
        a, b = rng.randint(1, 12), rng.randint(1, 12)
        seq = list(perturbed_star(rng, a)) + [tok + a for tok in perturbed_star(rng, b)]
        r = rng.randrange(len(seq))
        seq = ChordDiagram([seq[r:] + seq[:r]]).circles[0]
        level = _bd_circle(seq) + 1
        try:
            plan = _next_move((seq,), None, level)[3]
        except (RuntimeError, ValueError):  # no pigeonhole arc pair, or no chord off the tower
            continue
        assert opener_plan(seq, plan) == pairwise_plan(seq, level)
        second += plan[1][1]
    assert second > 20


def test_diagram_sum_pair_iterable_merges():
    d = ChordDiagram([(0, 1, 0, 1)])
    rotated = ChordDiagram([(1, 0, 1, 0)])
    s = DiagramSum([(d, Fraction(1)), (rotated, Fraction(2)), (d, Fraction(-3))])
    assert s.coefficient_sum() == 0
    assert len(s) == 0


def test_multi_tower_reduce_cases():
    # m = 1
    d = ChordDiagram([(0, 1, 0, 1), (2, 2)])
    assert multi_tower_reduce(d, 1) == DiagramSum({d: 1})
    # fabricated instance: an immediate tower, each chord on its own circle
    case1 = ChordDiagram([(0, 0, 1, 1), (0, 0), (1, 1)])
    s = multi_tower_reduce(case1, 2)
    assert s == DiagramSum({case1: 1})
    assert all(boundary_degree(t) >= 2 for t in s.terms)
    # single circle delegates to tower_reduce
    star = ChordDiagram([tuple(range(8)) + tuple(range(8))])
    limits = ReductionLimits(c=1)
    assert multi_tower_reduce(star, 2, limits=limits) == tower_reduce(star, 2, c=1)
    # precondition on the rewriting path
    small = ChordDiagram([(0, 1, 0, 1), (0, 0), (1, 1)])
    with pytest.raises(ValueError):
        multi_tower_reduce(small, 2)


def test_multi_tower_reduce_general_loop():
    # four pairwise-crossing type II chords, each tied to its own circle;
    # thresholds overridden to desk scale to exercise the rewriting loop
    big = ChordDiagram([(0, 1, 2, 3, 0, 1, 2, 3)] + [(i, i) for i in range(4)])
    assert boundary_degree(big) == 1
    limits = ReductionLimits(c=1)
    limits.h = lambda m: 4
    s = multi_tower_reduce(big, 2, limits=limits)
    assert s.coefficient_sum() == 1
    for term in s.terms:
        assert boundary_degree(term) >= 2 or term.marks >= 2
    # error branches add at most 2 marks per move and appear here
    assert any(t.marks > 0 for t in s.terms)
    # the step budget counts distinct expanded states: this one takes three
    with pytest.raises(RuntimeError, match="step budget"):
        multi_tower_reduce(big, 2, limits=ReductionLimits(c=0, max_steps=2))
    bounded = multi_tower_reduce(big, 2, limits=ReductionLimits(c=0, max_steps=3))
    assert len(bounded) == 10
    assert bounded == multi_tower_reduce(big, 2, limits=ReductionLimits(c=0))


def test_text_round_trip():
    assert ChordDiagram.from_text(FIG.to_text()) == FIG
    d = ChordDiagram([(0, 1, 0, 1), (1, 1)], marks=2)
    assert ChordDiagram.from_text(d.to_text()) == d
    empty_circle = ChordDiagram([(0, 0), ()])
    assert ChordDiagram.from_text(empty_circle.to_text()) == empty_circle
    with pytest.raises(ValueError):
        ChordDiagram.from_text("circles 1\nI 0:0 0:0\n")
    with pytest.raises(ValueError):
        ChordDiagram.from_text("I 0:0 0:1\n")


def test_diagram_validation():
    with pytest.raises(ValueError):
        ChordDiagram([(0,)])  # single endpoint
    with pytest.raises(ValueError):
        ChordDiagram([(0, 0, 0, 0)])  # four endpoints on one circle
    with pytest.raises(ValueError):
        ChordDiagram([(0, 0, 0), (0,)])  # 2 + 1 split
    with pytest.raises(ValueError):
        ChordDiagram([(0, 0)], marks=-1)
    for text in (
        "circles 1\nI 0:0 0:3\nI 0:-3 0:2\n",  # negative slot
        "circles 1\ncircles 1\nI 0:0 0:1\n",  # repeated header
        "circles 1\nmarks 1\nI 0:0 0:1\nmarks 2\n",
        "circles -1\n",
        "circles 1\nI 0:0 0:5000000\n",  # rejected before any slot list is built
        "circles 1\nI 0:0,1\n",  # a type I line has two c:p fields
        "circles 1\nII 0:0,1 0:2,3,4\n",
        "circles 1\nIx 0:0 0:1\n",
    ):
        with pytest.raises(ValueError):
            ChordDiagram.from_text(text)
