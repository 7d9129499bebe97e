"""The five exact-sum types share one operator set (fticalc._lincomb)."""

from fractions import Fraction

import pytest

from fticalc.chords import ChordDiagram, DiagramSum
from fticalc.exterior import MultiVector
from fticalc.groupring import TruncatedSeries
from fticalc.links import FormalSum, LaurentPoly

# one nonzero sample of each type, and same-type operands with other _fields
SAMPLES = {
    "DiagramSum": (DiagramSum({ChordDiagram([(0, 1, 0, 1)]): 1}), ()),
    "FormalSum": (FormalSum({("S3", frozenset()): 1}), ()),
    "MultiVector": (
        MultiVector(4, "wedge2", {(0, 1): 2}),
        ((MultiVector(6, "wedge2", {(0, 1): 2}), "MultiVector operands differ in dim or grade"),
         (MultiVector(4, "wedge3", {(0, 1, 2): 2}), "differ in dim or grade")),
    ),
    "TruncatedSeries": (
        TruncatedSeries(2, 3, {(): 1, (0, 1): -1}),
        ((TruncatedSeries(3, 3, {(): 1}), "TruncatedSeries operands differ in nvars or degree"),
         (TruncatedSeries(2, 4, {(): 1}), "differ in nvars or degree")),
    ),
    "LaurentPoly": (LaurentPoly({0: 1, 2: -3}), ()),
}


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_operands_of_another_type_or_ring_raise(name):
    x, others = SAMPLES[name]
    foreign = [y for n, (y, _) in SAMPLES.items() if n != name] + [1, Fraction(1, 2), "x"]
    for y in foreign:
        assert x != y
        for op in (lambda: x + y, lambda: x - y, lambda: y + x):
            with pytest.raises(TypeError):
                op()
    for y, message in others:
        assert x != y
        for op in (lambda: x + y, lambda: x - y):
            with pytest.raises(ValueError, match=message):
                op()
        if name == "TruncatedSeries":
            with pytest.raises(ValueError, match=message):
                x * y
    # the shared operators on one ring
    assert x + x == 2 * x and x - x == 0 * x and -x == (-1) * x
    assert len(x - x) == 0 and len(x) == len(2 * x) > 0
    assert (x + x).coefficient_sum() == 2 * x.coefficient_sum()
    assert (Fraction(1, 2) * x + Fraction(1, 2) * x) == x


def test_laurent_scalar_on_either_side():
    p = LaurentPoly({0: 1, 2: -3})
    assert p * 3 == 3 * p == LaurentPoly({0: 3, 2: -9})
    assert p.coeffs is p.terms
    assert p * LaurentPoly({-2: 1}) == LaurentPoly({-2: 1, 0: -3})
