"""Sparse exact combinations {key: coefficient} and their one operator set.

FormalSum, DiagramSum, MultiVector, TruncatedSeries and LaurentPoly are
Combinations. Each owns only its key rule (its __init__), the _fields
that two operands must share, and its own product, text form and hash;
Combination owns +, -, scalar *, unary -, ==, len and coefficient_sum.
An operand of another type gives NotImplemented, so Python raises
TypeError, and one with other _fields raises ValueError. A collected
combination has canonical keys and no zero coefficient. An int
coefficient stays an int and any other value is stored as a Fraction, so
no float enters and a Fraction appears only where a division made one.
"""

from fractions import Fraction


def pairs(terms):
    """The (key, coefficient) pairs of a mapping or of an iterable of pairs."""
    return terms.items() if isinstance(terms, dict) else terms


def collect(items):
    """Sum the coefficients of repeated (already canonical) keys; drop zeros."""
    acc = {}
    get = acc.get
    for key, c in pairs(items):
        if c.__class__ is not int:
            c = Fraction(c)
        acc[key] = get(key, 0) + c
    return {k: c for k, c in acc.items() if c}


def new(cls, **fields):
    """An instance of cls from fields already in normal form, skipping __init__."""
    out = object.__new__(cls)
    for name, value in fields.items():
        setattr(out, name, value)
    return out


class Combination:
    """Collected terms (a dict, unless a subclass's _like stores them
    otherwise) and the shared operators."""

    __slots__ = ("terms",)
    _fields = ()

    def _like(self, terms):
        return new(self.__class__, terms=terms, **{f: getattr(self, f) for f in self._fields})

    def _check(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        if any(getattr(other, f) != getattr(self, f) for f in self._fields):
            raise ValueError("%s operands differ in %s"
                             % (self.__class__.__name__, " or ".join(self._fields)))

    def __add__(self, other):
        if self._check(other) is NotImplemented:
            return NotImplemented
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        acc = dict(a)
        for k, c in pairs(b):
            c += acc.get(k, 0)
            if c:
                acc[k] = c
            else:
                del acc[k]
        return self._like(acc)

    def __sub__(self, other):
        if self._check(other) is NotImplemented:
            return NotImplemented
        return self + (-1) * other

    def __rmul__(self, scalar):
        if scalar.__class__ is not int:
            scalar = Fraction(scalar)
        return self._like({k: scalar * c for k, c in pairs(self.terms)} if scalar else {})

    def __neg__(self):
        return (-1) * self

    def __eq__(self, other):
        return (
            other.__class__ is self.__class__
            and all(getattr(other, f) == getattr(self, f) for f in self._fields)
            and other.terms == self.terms
        )

    def __len__(self):
        return len(self.terms)

    def coefficient_sum(self):
        return sum(c for _, c in pairs(self.terms))
