"""The one line reader behind every text format.

Each line is stripped and blank lines are skipped. Any other line is
either a keyword followed by integers in that keyword's fixed shape, or,
in formats that have rows, a bare row of integers. A keyword ending in
'=' is glued to its first value ('pairs=3'); any other keyword is
followed by whitespace ('circles 3'). Keywords match exactly, so 'lkx'
is not 'lk'. A shape is a whitespace-separated list of fields such as
'#' or '#:#,#', each '#' one integer; the shape '*' takes any number of
'#' fields. A header keyword appears once (at most once if optional);
a record keyword may repeat. Anything else raises ValueError. The reader
only collects integers, so a huge declared count or index allocates
nothing here.
"""

import re

_SEP = re.compile(r"([:,])")


def _values(fields, shape):
    """The integers of fields laid out as shape, or ValueError."""
    want = ["#"] * len(fields) if shape == "*" else shape.split()
    if len(fields) != len(want):
        raise ValueError("expected the shape %r" % shape)
    out = []
    for field, pattern in zip(fields, want):
        parts = _SEP.split(field)
        if parts[1::2] != _SEP.split(pattern)[1::2]:
            raise ValueError("expected the shape %r" % shape)
        out.extend(int(x) for x in parts[0::2])
    return tuple(out)


def read(lines, headers, optional=None, records=None, rows=False):
    """Parse lines into (head, recs, rows).

    headers and optional map each header keyword to its shape; head maps
    each header present to its integer tuple, and a missing one from
    headers raises. records maps each record keyword to its shape; recs
    maps it to the integer tuples of its lines, in order. With rows,
    bare integer lines are returned as tuples, in order.
    """
    optional = optional or {}
    records = records or {}
    shapes = {**headers, **optional, **records}
    head = {}
    recs = {kw: [] for kw in records}
    body = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        first, *fields = line.split()
        kw, eq, glued = first.partition("=")
        kw += eq
        try:
            if kw in shapes:
                values = _values(([glued] if glued else []) + fields, shapes[kw])
            elif rows and not eq:
                body.append(tuple(int(x) for x in line.split()))
                continue
            else:
                raise ValueError("no keyword of this format")
        except ValueError as exc:
            raise ValueError("bad line %r: %s" % (line, exc)) from None
        if kw in records:
            recs[kw].append(values)
        elif kw in head:
            raise ValueError("repeated %r line" % kw)
        else:
            head[kw] = values
    for kw in headers:
        if kw not in head:
            raise ValueError("missing %r line" % kw)
    return head, recs, body


def set_once(entries, key, value, what):
    """entries[key] = value, refusing a second, different value."""
    if entries.get(key, value) != value:
        raise ValueError("conflicting %s entries for %s" % (what, key))
    entries[key] = value
