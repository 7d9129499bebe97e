"""Seeded rounds for the cli-oneshot workload.

Every job is one fresh `python -m fticalc ...` process on a fixture file
written by the benchmark. Goldens are computed here, without fticalc:
exact stdout for every subcommand except `cd reduce`, whose terms are
parsed and postcondition-checked. Every job must exit 0, 1 or 2 with no
traceback on stderr; error-path jobs must exit with their documented
status and print nothing on stdout.
"""

import os
from fractions import Fraction

import oracles
import workloads as W

ROUND = {
    "cd_reduce_multi": 4,
    "blink_det": 2,
    "blink_bracket": 1,
    "link_casson": 1,
    "seifert_alexander": 2,
    "cd_degree": 2,
    "cd_reduce_star": 1,
    "johnson_triple": 2,
    "magnus_degree": 2,
    "sp_realize": 1,
    "error_exit2": 1,
    "error_exit1": 1,
}

# Inputs the CLI contract says must end with exit 2 (parse error) or 1
# (domain error), each without a traceback.
PARSE_ERRORS = (
    ("blink", "det", "pairs=x\n"),
    ("cd", "degree", "circles 1\nI 0:0 0:0\n"),
    ("seifert", "alexander", "1 2\n3 4\n"),
    ("blink", "bracket", "pairs=1\nfoo 1\n"),
)
DOMAIN_ERRORS = (
    ("blink", "det", "pairs=1\nlk 0 1 2\n"),
    ("seifert", "alexander", "sizes=2\n1 0\n0 1\n"),
    ("cd", "reduce", "circles 1\n" + "".join("I 0:%d 0:%d\n" % (i, i + 8) for i in range(8))),
)

class CliJob:
    __slots__ = ("cls", "argv", "check")

    def __init__(self, cls, argv, check):
        self.cls = cls
        self.argv = argv
        self.check = check


def contract_check(expect_status, golden=None, stdout_check=None):
    """A check over (status, stdout, stderr) of one process."""
    def check(out):
        status, stdout, stderr = out
        if status not in (0, 1, 2):
            return "exit status %d is outside {0, 1, 2}" % status
        if "Traceback" in stderr:
            return "traceback on stderr"
        if status != expect_status:
            return "exit status %d, expected %d" % (status, expect_status)
        if expect_status:
            prefix = "parse error:" if expect_status == 2 else "error:"
            if stdout or not stderr.startswith(prefix):
                return "error path printed %r / %r" % (stdout[:40], stderr[:40])
            return None
        if golden is not None and stdout != golden:
            return "stdout differs from the golden output"
        return stdout_check(stdout) if stdout_check else None
    return check


def diagram_text(circles):
    lines = ["circles %d" % len(circles)]
    occ = {}
    for c, seq in enumerate(circles):
        for p, tok in enumerate(seq):
            occ.setdefault(tok, []).append((c, p))
    for tok in sorted(occ):
        pts = occ[tok]
        if len(pts) == 2:
            lines.append("I %d:%d %d:%d" % (pts[0] + pts[1]))
        else:
            per = {}
            for c, p in pts:
                per.setdefault(c, []).append(p)
            lines.append("II " + " ".join("%d:%s" % (c, ",".join(map(str, ps)))
                                          for c, ps in sorted(per.items())))
    return "\n".join(lines) + "\n"


def parse_diagram_line(text):
    """Circles and marks from a `term.i.diagram=` value (';'-joined lines)."""
    ncircles, marks, chords = 0, 0, []
    for line in text.split(";"):
        parts = line.split()
        if parts[0] == "circles":
            ncircles = int(parts[1])
        elif parts[0] == "marks":
            marks = int(parts[1])
        else:
            chords.append([(int(c), int(p)) for spec in parts[1:]
                           for c, _, ps in [spec.partition(":")] for p in ps.split(",")])
    slots = [{} for _ in range(ncircles)]
    for cid, pts in enumerate(chords):
        for c, p in pts:
            slots[c][p] = cid
    return tuple(tuple(s[p] for p in sorted(s)) for s in slots), marks


def reduce_check(m):
    def check(stdout):
        try:
            return parsed_check(stdout)
        except (KeyError, ValueError, IndexError) as exc:
            return "unparseable cd reduce output (%s)" % exc

    def parsed_check(stdout):
        fields = dict(line.split("=", 1) for line in stdout.splitlines())
        n = int(fields["terms"])
        terms, total = [], Fraction(0)
        for i in range(n):
            circles, marks = parse_diagram_line(fields["term.%d.diagram" % i])
            if marks != int(fields["term.%d.marks" % i]):
                return "term %d marks line disagrees with its diagram" % i
            if int(fields["term.%d.boundary_degree" % i]) != oracles.bd_any(circles):
                return "term %d reports a wrong boundary degree" % i
            terms.append((circles, marks))
            total += Fraction(fields["term.%d.coeff" % i])
        return oracles.check_reduction(terms, m, total)
    return check


def realize_text(g, c):
    """`sp realize` output per the documented construction: |c_ij| twists
    on e_i + e_j, then the diagonal residue as twists on e_i."""
    def e(i):
        return tuple(1 if k == i else 0 for k in range(2 * g))
    data = []
    diag = [c[i][i] for i in range(g)]
    for i in range(g):
        for j in range(i + 1, g):
            v = c[i][j]
            if v:
                vec = tuple(x + y for x, y in zip(e(i), e(j)))
                data += [(vec, 1 if v > 0 else -1)] * abs(v)
                diag[i] -= v
                diag[j] -= v
    for i in range(g):
        if diag[i]:
            data += [(e(i), 1 if diag[i] > 0 else -1)] * abs(diag[i])
    ok = oracles.transvection_product(g, data) == oracles.upper_unitriangular(c)
    lines = ["transvections=%d" % len(data)]
    lines += ["t.%d=%+d:%s" % (i, s, " ".join(map(str, v))) for i, (v, s) in enumerate(data)]
    lines.append("verified=%s" % ("true" if ok else "false"))
    return "\n".join(lines) + "\n"


def matrix_arg(c):
    return ";".join(" ".join(map(str, row)) for row in c)


def seifert_text(blocks, frames=None):
    sizes = [len(b) for b in blocks]
    total = sum(sizes)
    rows = []
    off = 0
    for b in blocks:
        for row in b:
            rows.append([0] * off + list(row) + [0] * (total - off - len(b)))
        off += len(b)
    lines = ["sizes=" + " ".join(map(str, sizes))]
    if frames is not None:
        lines.append("frames=" + " ".join(map(str, frames)))
    lines += [" ".join(map(str, r)) for r in rows]
    return "\n".join(lines) + "\n"


def blink_text(internal, eps, cross):
    m = W.blink_matrix(internal, eps, cross)
    r = len(internal)
    lines = ["pairs=%d" % r]
    for i in range(2 * r):
        for j in range(i + 1, 2 * r):
            if m[i][j]:
                lines.append("lk %d %d %d" % (i, j, m[i][j]))
    lines += ["eps %d %d" % (p, s) for p, s in enumerate(eps)]
    return "\n".join(lines) + "\n"


def cli_round(rng, workdir, tag):
    """One round of CLI jobs; fixture files go to workdir/<tag>-<i>.txt."""
    specs = []  # (cls, argv with None for the file, file text, check)

    def add(cls, argv, text, check):
        specs.append((cls, argv, text, check))

    for _ in range(4):
        circ = (W.rotate_reflect(rng, W.STAR4_CROSSING[0]),) + W.STAR4_CROSSING[1:]
        add("cd_reduce_multi", ["cd", "reduce", None, "--m", "2", "--c", "0"], diagram_text(circ),
            contract_check(0, stdout_check=reduce_check(2)))
    for r in (6, 16):
        data = W.random_blink(rng, r)
        sign = oracles.unit_det_sign(W.blink_matrix(*data))
        add("blink_det", ["blink", "det", None], blink_text(*data),
            contract_check(0, "det=%d\nunimodular=true\n" % sign))
    r = 8
    data = ([rng.randint(-5, 5) for _ in range(r)], [rng.choice((1, -1)) for _ in range(r)],
            [[0] * r for _ in range(r)])
    add("blink_bracket", ["blink", "bracket", None], blink_text(*data),
        contract_check(0, oracles.bracket_text("M", r)))
    blocks = [W.random_knot_block(rng, genus) for genus in (1, 2, 2)]
    frames = [rng.choice((1, -1)) for _ in blocks]
    value = sum(f * oracles.second_derivative_at_one(oracles.alexander_coeffs(b))
                for f, b in zip(frames, blocks))
    add("link_casson", ["link", "casson", None], seifert_text(blocks, frames),
        contract_check(0, "casson=%s\n" % Fraction(value)))
    for genus in (2, 3):
        block = W.random_knot_block(rng, genus)
        coeffs = oracles.alexander_coeffs(block)
        golden = "alexander=%s\nphi=%s\n" % (oracles.laurent_text(coeffs),
                                             Fraction(oracles.second_derivative_at_one(coeffs)))
        add("seifert_alexander", ["seifert", "alexander", None], seifert_text([block]),
            contract_check(0, golden))
    for n in (32, 48):
        circles = W.random_circle(rng, n)
        add("cd_degree", ["cd", "degree", None], diagram_text(circles),
            contract_check(0, "boundary_degree=%d\n" % oracles.bd_single_circle(circles[0])))
    add("cd_reduce_star", ["cd", "reduce", None, "--m", "2"],
        diagram_text(W.star(rng, 20)), contract_check(0, stdout_check=reduce_check(2)))
    for g in (3, 5):
        c = W.random_symmetric(rng, g, -2, 2)
        cols = [tuple(c[k][i] for k in range(g)) + (0,) * g for i in range(3)]
        tau = {k: 6 * v for k, v in oracles.wedge3_minors(*cols).items()}
        add("johnson_triple", ["johnson", "triple", "--g", str(g), "--C", matrix_arg(c)], None,
            contract_check(0, "tau3=%s\n" % oracles.multivector_text(tau, "wedge3")))
    for depth in (4, 5):
        while True:
            letters = [rng.randrange(6) for _ in range(depth)]
            if letters[0] != letters[1] and oracles.lie_bracket_words(letters):
                break
        word = "x%d" % (letters[0] + 1)
        for idx in letters[1:]:
            word = "[%s,x%d]" % (word, idx + 1)
        add("magnus_degree", ["magnus", "degree", word, "--N", "6"],
            None, contract_check(0, "degree=%d\n" % depth))
    for g in (3,):
        c = W.random_symmetric(rng, g, -2, 2)
        add("sp_realize", ["sp", "realize", "--C", matrix_arg(c)], None,
            contract_check(0, realize_text(g, c)))
    for group, action, text in rng.sample(PARSE_ERRORS, 1):
        add("error_exit2", [group, action, None], text, contract_check(2))
    for group, action, text in rng.sample(DOMAIN_ERRORS, 1):
        argv = [group, action, None] + (["--m", "2"] if action == "reduce" else [])
        add("error_exit1", argv, text, contract_check(1))

    jobs = []
    for i, (cls, argv, text, check) in enumerate(specs):
        if text is not None:
            path = os.path.join(workdir, "%s-%d.txt" % (tag, i))
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            argv = [path if a is None else a for a in argv]
        jobs.append(CliJob(cls, argv, check))
    rng.shuffle(jobs)
    return jobs


def reduce_contract_check(m):
    """Any status in {0, 1, 2} without a traceback; a result must be valid."""
    def check(out):
        status, stdout, stderr = out
        if status not in (0, 1, 2) or "Traceback" in stderr:
            return "exit status %d with a traceback or outside {0, 1, 2}" % status
        return contract_check(status, stdout_check=reduce_check(m))(out)
    return check


# ROADMAP item 5 reproducers: contract breaks present when the benchmark was
# written. They run once per cli-oneshot run, outside the timed loop, and
# are reported on their own line (see DESIGN.md).
KNOWN_DEFECTS = (
    ("blink det accepts eps for a pair that does not exist (expect exit 2)",
     ["blink", "det", None], "pairs=1\neps 0 1\neps 7 1\n", contract_check(2)),
    ("cd reduce --m 3 --c 0 on the 4-crossing type II diagram ends in a traceback",
     ["cd", "reduce", None, "--m", "3", "--c", "0"], diagram_text(W.STAR4_CROSSING),
     reduce_contract_check(3)),
)


def defect_probes(workdir):
    """(description, argv, check) for the known-defect reproducers."""
    out = []
    for i, (what, argv, text, check) in enumerate(KNOWN_DEFECTS):
        path = os.path.join(workdir, "defect-%d.txt" % i)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out.append((what, [path if a is None else a for a in argv], check))
    return out
