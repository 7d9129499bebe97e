"""Free-group words and their truncated Magnus expansion.

Words in a free group on 2g generators x1..x_{2g} are held freely
reduced. The Magnus map sends x_i to 1 + X_i (inverses to the truncated
geometric series) inside the ring of noncommutative power series
truncated at a caller-chosen degree N; the minimal degree of s - 1 then
witnesses I-adic depth, and nested commutators of depth d always land in
degree >= d. magnus builds the image letter by letter with the classical
per-degree recurrence (Magnus-Karrass-Solitar, Combinatorial Group
Theory, 5.5): right-multiplying by 1 + X_i or its inverse updates each
degree from its neighbour below, one append per stored term.

Word syntax accepted by parse_word:

    word    := atom*
    atom    := gen | bracket, optionally followed by ^<int>
    gen     := x<index>           (1-based)
    bracket := [word, word]       ([u, v] = u^-1 v^-1 u v)

e.g. "x1 x2^-1 [x1,[x2,x1]]". Series print in graded lexicographic
order so output diffs are stable.

The truncation degree is guarded at N <= 8 (term counts grow like
(2g)^N; with 2g <= 6 that is the desk-scale limit).
"""

from . import _intlinalg as la
from . import _lincomb as lc

MAX_DEGREE = 8


class GroupWord:
    """A freely reduced word; letters are (generator index, +-1) pairs."""

    __slots__ = ("ngens", "letters")

    def __init__(self, ngens, letters):
        self.ngens = la.int_value(ngens)
        reduced = []
        for idx, exp in letters:
            idx = la.int_value(idx)
            if not 0 <= idx < self.ngens:
                raise ValueError("generator index out of range")
            if exp not in (1, -1):
                raise ValueError("letter exponents must be +-1")
            if reduced and reduced[-1] == (idx, -exp):
                reduced.pop()
            else:
                reduced.append((idx, exp))
        self.letters = tuple(reduced)

    @classmethod
    def identity(cls, ngens):
        return cls(ngens, ())

    @classmethod
    def generator(cls, ngens, idx):
        return cls(ngens, ((idx, 1),))

    def __mul__(self, other):
        if other.ngens != self.ngens:
            raise ValueError("words over different free groups")
        return GroupWord(self.ngens, self.letters + other.letters)

    def inverse(self):
        return GroupWord(self.ngens, tuple((i, -e) for i, e in reversed(self.letters)))

    def __pow__(self, m):
        m = la.int_value(m)
        base = self.inverse() if m < 0 else self
        return GroupWord(self.ngens, base.letters * abs(m))

    def commutator(self, other):
        """[self, other] = self^-1 other^-1 self other."""
        return self.inverse() * other.inverse() * self * other

    def __eq__(self, other):
        return (
            isinstance(other, GroupWord)
            and other.ngens == self.ngens
            and other.letters == self.letters
        )

    def __hash__(self):
        return hash((self.ngens, self.letters))

    def __len__(self):
        return len(self.letters)

    def to_text(self):
        if not self.letters:
            return "1"
        parts = []
        for idx, exp in self.letters:
            parts.append("x%d" % (idx + 1) if exp == 1 else "x%d^-1" % (idx + 1))
        return " ".join(parts)

    def __repr__(self):
        return "GroupWord(%d, %s)" % (self.ngens, self.to_text())


def lcs_commutator(depth, letters, ngens=None):
    """Left-normed commutator [[...[x_{l1}, x_{l2}], ...], x_{l_depth}].

    Guaranteed to lie in the depth-th lower central series subgroup of
    the free group. Letters are 0-based generator indices.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    letters = tuple(map(la.int_value, letters))
    if len(letters) != depth:
        raise ValueError("need exactly one letter per depth level")
    if ngens is None:
        ngens = max(letters) + 1
    w = GroupWord.generator(ngens, letters[0])
    for idx in letters[1:]:
        w = w.commutator(GroupWord.generator(ngens, idx))
    return w


def parse_word(text, ngens=None):
    """Parse the documented word syntax into a GroupWord."""
    tokens = _tokenize(text)
    word, pos = _parse_sequence(tokens, 0, stop=None)
    if pos != len(tokens):
        raise ValueError("unexpected %r" % (tokens[pos],))
    max_idx = max((i for i, _ in word), default=-1)
    if ngens is None:
        ngens = max_idx + 1 if max_idx >= 0 else 1
    return GroupWord(ngens, word)


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "[],^":
            tokens.append(ch)
            i += 1
        elif ch == "x":
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise ValueError("generator needs an index at %r" % text[i:])
            tokens.append(("gen", int(text[i + 1:j]) - 1))
            i = j
        elif ch == "-" or ch.isdigit():
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j])))
            i = j
        else:
            raise ValueError("unexpected character %r" % ch)
    return tokens


def _parse_sequence(tokens, pos, stop):
    letters = []
    while pos < len(tokens) and tokens[pos] != stop:
        atom, pos = _parse_atom(tokens, pos)
        if pos < len(tokens) and tokens[pos] == "^":
            pos += 1
            if pos >= len(tokens) or not (
                isinstance(tokens[pos], tuple) and tokens[pos][0] == "int"
            ):
                raise ValueError("'^' must be followed by an integer")
            exp = tokens[pos][1]
            pos += 1
        else:
            exp = 1
        if exp < 0:
            atom = [(i, -e) for i, e in reversed(atom)]
            exp = -exp
        letters.extend(atom * exp)
    return letters, pos


def _parse_atom(tokens, pos):
    tok = tokens[pos]
    if isinstance(tok, tuple) and tok[0] == "gen":
        if tok[1] < 0:
            raise ValueError("generator indices are 1-based")
        return [(tok[1], 1)], pos + 1
    if tok == "[":
        left, pos = _parse_sequence(tokens, pos + 1, stop=",")
        if pos >= len(tokens) or tokens[pos] != ",":
            raise ValueError("bracket needs two comma-separated words")
        right, pos = _parse_sequence(tokens, pos + 1, stop="]")
        if pos >= len(tokens) or tokens[pos] != "]":
            raise ValueError("unterminated bracket")
        inv = lambda w: [(i, -e) for i, e in reversed(w)]
        return inv(left) + inv(right) + left + right, pos + 1
    raise ValueError("unexpected token %r" % (tok,))


class TruncatedSeries(lc.Combination):
    """Noncommutative power series in X1..X_nvars truncated at degree N.

    Terms map words (tuples of 0-based variable indices) to exact
    coefficients; zero coefficients are never stored.
    """

    __slots__ = ("nvars", "degree")
    _fields = ("nvars", "degree")

    def __init__(self, nvars, degree, terms=()):
        self.nvars = la.int_value(nvars)
        self.degree = degree = la.int_value(degree)
        if degree < 1:
            raise ValueError("truncation degree must be >= 1")
        if degree > MAX_DEGREE:
            raise ValueError("truncation degree is guarded at N <= %d" % MAX_DEGREE)
        # the key rule: words beyond the truncation degree are dropped unread
        terms = [(tuple(w), c) for w, c in lc.pairs(terms) if len(w) <= degree]
        if any(not 0 <= v < self.nvars for w, _ in terms for v in w):
            raise ValueError("variable index out of range")
        self.terms = lc.collect(terms)

    @classmethod
    def one(cls, nvars, degree):
        return cls(nvars, degree, {(): 1})

    def __mul__(self, other):
        if self._check(other) is NotImplemented:
            return NotImplemented
        return self._like(lc.collect(
            (w1 + w2, c1 * c2)
            for w1, c1 in self.terms.items()
            for w2, c2 in other.terms.items()
            if len(w1) + len(w2) <= self.degree
        ))

    def to_text(self):
        if not self.terms:
            return "0"
        def render(w, c):
            if not w:
                return str(c)
            body = " ".join("X%d" % (v + 1) for v in w)
            return body if c == 1 else ("-%s" % body if c == -1 else "%s %s" % (c, body))
        keys = sorted(self.terms, key=lambda w: (len(w), w))
        return " + ".join(render(w, self.terms[w]) for w in keys)

    def __repr__(self):
        return "TruncatedSeries(N=%d, %s)" % (self.degree, self.to_text())


def magnus(w, n):
    """Magnus image of a word: x_i -> 1 + X_i, truncated at degree n.

    Multiplicative by construction: magnus(uv) = magnus(u) magnus(v) in
    the truncated ring.
    """
    if n < 1:
        raise ValueError("truncation degree must be >= 1")
    if n > MAX_DEGREE:
        raise ValueError("truncation degree is guarded at N <= %d" % MAX_DEGREE)
    levels = [{(): 1}] + [{} for _ in range(n)]
    for idx, exp in w.letters:
        # x_i: new_{d+1} = old_{d+1} + old_d X_i, by descending d so each
        # read sees the old value. x_i^-1: new (1 + X_i) = old, so
        # new_{d+1} = old_{d+1} - new_d X_i, by ascending d.
        order = range(n - 1, -1, -1) if exp == 1 else range(n)
        for d in order:
            up = levels[d + 1]
            for word, c in levels[d].items():
                key = word + (idx,)
                v = up.get(key, 0) + exp * c
                if v:
                    up[key] = v
                else:
                    del up[key]
    terms = {word: c for level in levels for word, c in level.items()}
    return lc.new(TruncatedSeries, nvars=w.ngens, degree=n, terms=terms)


def iadic_degree(s):
    """Minimal degree of a nonzero term of s - 1 (group-like s) or of s.

    Returns None when no such term exists within the truncation, meaning
    the degree is at least N + 1.
    """
    if s.terms.get((), 0) not in (0, 1):
        raise ValueError("constant term must be 0 or 1")
    degs = [len(w) for w in s.terms if w]
    if not degs:
        return None
    return min(degs)


def binomial_identity_check(w, m, n):
    """Verify w^m - 1 = sum_i C(m, i) (w - 1)^i in the truncated ring.

    This is an algebraic identity, so the return value is always True;
    it is exposed as a self-test of the truncated arithmetic.
    """
    if m < 1:
        raise ValueError("exponent must be a positive integer")
    one = TruncatedSeries.one(w.ngens, n)
    lhs = magnus(w ** m, n) - one
    delta = magnus(w, n) - one
    rhs = TruncatedSeries(w.ngens, n)
    binom = 1
    power = one
    for i in range(1, m + 1):
        binom = binom * (m - i + 1) // i
        power = power * delta
        rhs = rhs + binom * power
    return lhs == rhs
