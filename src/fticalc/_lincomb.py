"""Linear operations on sparse exact combinations {key: coefficient}.

FormalSum, DiagramSum, MultiVector, TruncatedSeries and LaurentPoly each
own only their key rule and build on these functions. A collected
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


def add(a, b):
    """The sum, as a dict, of two collected combinations."""
    if len(a) < len(b):
        a, b = b, a
    acc = dict(a)
    for k, c in pairs(b):
        c += acc.get(k, 0)
        if c:
            acc[k] = c
        else:
            del acc[k]
    return acc


def scale(s, a):
    """s times a collected combination, as a dict; s = 0 gives {}."""
    if s.__class__ is not int:
        s = Fraction(s)
    if not s:
        return {}
    return {k: s * c for k, c in pairs(a)}


def new(cls, **fields):
    """An instance of cls over collected terms, without re-running its key rule."""
    out = object.__new__(cls)
    for name, value in fields.items():
        setattr(out, name, value)
    return out
