import itertools
import random

import pytest

from fticalc.groupring import (
    GroupWord,
    TruncatedSeries,
    binomial_identity_check,
    iadic_degree,
    lcs_commutator,
    magnus,
    parse_word,
)


def rand_word(rng, ngens, length):
    return GroupWord(
        ngens, [(rng.randrange(ngens), rng.choice((1, -1))) for _ in range(length)]
    )


def test_free_reduction():
    w = GroupWord(2, [(0, 1), (1, 1), (1, -1), (0, -1), (0, 1)])
    assert w.letters == ((0, 1),)
    assert (w * w.inverse()).letters == ()


def test_parse_word():
    assert parse_word("x1 x2^-1").letters == ((0, 1), (1, -1))
    assert parse_word("[x1,x2]") == parse_word("x1^-1 x2^-1 x1 x2")
    inner = parse_word("x2", 2).commutator(parse_word("x1", 2))
    assert parse_word("[x1,[x2,x1]]").letters == (
        parse_word("x1", 2).commutator(inner).letters
    )
    assert parse_word("x1^3", 1).letters == ((0, 1),) * 3
    with pytest.raises(ValueError):
        parse_word("[x1 x2")
    with pytest.raises(ValueError):
        parse_word("y3")


def test_magnus_examples():
    s = magnus(parse_word("x1", 2), 3)
    assert s.terms == {(): 1, (0,): 1}
    s = magnus(parse_word("x1^-1", 2), 3)
    assert s.terms == {(): 1, (0,): -1, (0, 0): 1, (0, 0, 0): -1}
    s = magnus(parse_word("[x1,x2]"), 2)
    # oracle: multiply the four truncated factors by hand at N=2:
    # (1-a+a^2)(1-b+b^2)(1+a)(1+b) = 1 + ab - ba + O(3)
    assert s.terms == {(): 1, (0, 1): 1, (1, 0): -1}


def block_cutting_coefficient(word, monomial):
    """Coefficient of a monomial in the Magnus image, counted directly.

    It is the signed number of ways to cut the monomial into consecutive
    blocks, one per letter in order: x_i takes () or (i,), and x_i^-1 takes
    (i,) * k for any k >= 0 with sign (-1)^k.
    """
    # ways[j]: signed count for the letters so far consuming monomial[:j]
    ways = [1] + [0] * len(monomial)
    for idx, exp in word.letters:
        longest = 1 if exp == 1 else len(monomial)
        new = list(ways)
        for j in range(1, len(monomial) + 1):
            k = 1
            while k <= min(j, longest) and monomial[j - k] == idx:
                new[j] += (1 if exp == 1 else (-1) ** k) * ways[j - k]
                k += 1
        ways = new
    return ways[-1]


def test_magnus_matches_block_cutting_oracle():
    rng = random.Random(71)
    cases = []
    for _ in range(40):
        ngens = rng.randint(1, 3)
        cases.append((rand_word(rng, ngens, rng.randint(0, 10)), rng.randint(1, 6)))
    for depth in (4, 5):
        for _ in range(3):
            letters = [rng.randrange(3) for _ in range(depth)]
            cases.append((lcs_commutator(depth, letters, ngens=3), 6))
    for w, n in cases:
        terms = magnus(w, n).terms
        for d in range(n + 1):
            for mono in itertools.product(range(w.ngens), repeat=d):
                assert terms.get(mono, 0) == block_cutting_coefficient(w, mono), (
                    w, n, mono)


def test_power_equals_iterated_product():
    rng = random.Random(73)
    for _ in range(30):
        w = rand_word(rng, 3, rng.randint(0, 6))
        for m in range(-4, 5):
            base = w if m >= 0 else w.inverse()
            product = GroupWord.identity(3)
            for _ in range(abs(m)):
                product = product * base
            assert w ** m == product


def test_magnus_homomorphism():
    rng = random.Random(59)
    for _ in range(30):
        u = rand_word(rng, 3, rng.randint(0, 6))
        v = rand_word(rng, 3, rng.randint(0, 6))
        n = rng.randint(2, 5)
        assert magnus(u * v, n) == magnus(u, n) * magnus(v, n)


def test_magnus_degree_guard():
    with pytest.raises(ValueError):
        magnus(parse_word("x1"), 9)
    with pytest.raises(ValueError):
        magnus(parse_word("x1"), 0)


def test_iadic_degree_examples():
    assert iadic_degree(magnus(parse_word("x1"), 5)) == 1
    assert iadic_degree(magnus(parse_word("[x1,x2]"), 5)) == 2
    assert iadic_degree(magnus(parse_word("[[x1,x2],x2]"), 5)) == 3
    assert iadic_degree(magnus(GroupWord.identity(2), 5)) is None
    bad = TruncatedSeries(2, 3, {(): 2})
    with pytest.raises(ValueError):
        iadic_degree(bad)


def test_lcs_commutator_examples():
    assert lcs_commutator(1, (0,)) == parse_word("x1", 1)
    assert lcs_commutator(2, (0, 1)) == parse_word("x1^-1 x2^-1 x1 x2")
    assert lcs_commutator(3, (0, 1, 1)) == parse_word("[[x1,x2],x2]")
    with pytest.raises(ValueError):
        lcs_commutator(0, ())


def test_lcs_depth_bounds_iadic_degree():
    # depth d commutators land in I-adic degree >= d, at N = depth + 2
    for depth in (1, 2, 3):
        for letters in itertools.product(range(3), repeat=depth):
            w = lcs_commutator(depth, letters, ngens=3)
            deg = iadic_degree(magnus(w, depth + 2))
            assert deg is None or deg >= depth
    # exhaustive depth 4 over two letters at the full N = depth + 2
    for letters in itertools.product(range(2), repeat=4):
        w = lcs_commutator(4, letters, ngens=2)
        deg = iadic_degree(magnus(w, 6))
        assert deg is None or deg >= 4
    rng = random.Random(61)
    for depth in (4, 5):
        for _ in range(4):
            letters = [rng.randrange(3) for _ in range(depth)]
            w = lcs_commutator(depth, letters, ngens=6)
            deg = iadic_degree(magnus(w, depth + 2))
            assert deg is None or deg >= depth
    # one all-distinct depth-5 case over 6 generators
    w = lcs_commutator(5, (0, 1, 2, 3, 4), ngens=6)
    deg = iadic_degree(magnus(w, 7))
    assert deg == 5


def test_rational_closure_shadow():
    for text in ("[x1,x2]", "x1", "[[x1,x2],x3]"):
        w = parse_word(text, 3)
        base = iadic_degree(magnus(w, 6))
        for m in (2, 3):
            assert iadic_degree(magnus(w ** m, 6)) == base


def test_binomial_identity_examples():
    assert binomial_identity_check(parse_word("x1"), 2, 4)
    assert binomial_identity_check(parse_word("[x1,x2]"), 3, 6)
    assert binomial_identity_check(parse_word("x1 x2"), 5, 5)


def test_binomial_identity_random():
    rng = random.Random(67)
    for _ in range(100):
        w = rand_word(rng, 3, rng.randint(1, 5))
        m = rng.randint(1, 5)
        n = rng.randint(2, 6)
        assert binomial_identity_check(w, m, n)


def test_series_text_deterministic():
    s = magnus(parse_word("[x1,x2]"), 3)
    assert s.to_text() == magnus(parse_word("[x1,x2]"), 3).to_text()
    assert "X1 X2" in s.to_text()
    assert TruncatedSeries(2, 3).to_text() == "0"
