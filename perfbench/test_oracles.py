"""Self-test of the benchmark's checks: every check accepts the real
result of its job and rejects a corrupted copy of it.

    python3 -m pytest -q perfbench/test_oracles.py

Run from the root of a checkout (fticalc is imported from ./src).
"""

import os
import random
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import cli_jobs  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


class FakeDiagram:
    def __init__(self, circles, marks=0):
        self.circles, self.marks = circles, marks
        self.chord_count = len({t for seq in circles for t in seq})


class FakeSum:
    def __init__(self, terms):
        self.terms = dict(terms)

    def __len__(self):
        return len(self.terms)

    def coefficient_sum(self):
        return sum(self.terms.values(), Fraction(0))


def bump_first(terms):
    """The same sum with the first coefficient raised by one."""
    items = list(terms.items())
    d, c = items[0]
    return FakeSum([(d, c + 1)] + items[1:])


def as_fakes(dsum):
    return FakeSum((FakeDiagram(d.circles, d.marks), c) for d, c in dsum.terms.items())


STAR = FakeDiagram(((0, 1, 2, 0, 1, 2),))

CORRUPT = {
    "tower_m3_perturbed_star": [lambda o: bump_first(o.terms),
                                lambda o: FakeSum([(STAR, Fraction(1))])],
    "multi_tower_c0": [lambda o: bump_first(o.terms), lambda o: FakeSum([(STAR, Fraction(1))])],
    "tower_m2": [lambda o: bump_first(o.terms), lambda o: FakeSum([(STAR, Fraction(1))])],
    "boundary_degree": [lambda o: o + 1],
    "four_term": [lambda o: bump_first(as_fakes(o).terms)],
    "canonicalize_merge": [lambda o: ([STAR] + o[0][1:], o[1]),
                           lambda o: (o[0], bump_first(o[1].terms))],
    "alexander_g4": [lambda o: {**o, 0: o.get(0, 0) + 2}, lambda o: {**o, 1: o.get(1, 0) + 1}],
    "phi_g4": [lambda o: o + 1],
    "alexander_phi_g1_3": [lambda o: (o[0], o[1] + 1),
                           lambda o: ({**o[0], 0: o[0].get(0, 0) + 2}, o[1])],
    "bracket_expand": [lambda o: bump_first(o.terms),
                       lambda o: FakeSum(list(o.terms.items())[1:])],
    "blink_det": [lambda o: -o, lambda o: 2 * o],
    "casson": [lambda o: o + 1],
    "fundamental_relation": [lambda o: (o[0], bump_first(o[1].terms))],
    "seifert_congruent": [lambda o: False],
    "realize_compose": [lambda o: (o[0], ((o[1][0][0] + 1,) + o[1][0][1:],) + o[1][1:]),
                        lambda o: (o[0][1:], o[1]) if o[0] else (o[0] + [o[0][0]], o[1])],
    "complementary_lagrangian": [lambda o: (o[0], o[0])],
    "containment_cold_L": [lambda o: [(False,) + o[0][1:]] + o[1:],
                           lambda o: o[:1] + [(o[1][0], False, o[1][2])], lambda o: o[:1]],
    "containment_warm_L": [lambda o: [(False,) + o[0][1:]], lambda o: [(o[0][0], False, o[0][2])]],
    "act_vs_lmo_delta": [lambda o: (o[0], o[1], o[2] + (((0, 0, 1), Fraction(1)),))],
    "triple_commutator_tau": [lambda o: o + (((0, 1, 2), Fraction(1)),) if not o else
                              ((o[0][0], o[0][1] + 1),) + o[1:]],
    "quotient_mod_L": [lambda o: ([((0, 1), Fraction(1))] + o[0][1:], o[1]), lambda o: (o[0], ())],
    "magnus_iadic": [lambda o: o + 1],
    "binomial_identity": [lambda o: False],
}


def _check_jobs(jobs):
    seen = {}
    for job in jobs:
        out = job.run()
        assert job.check(out) is None, (job.cls, job.check(out))
        for corrupt in CORRUPT[job.cls]:
            assert job.check(corrupt(out)) is not None, job.cls
        seen[job.cls] = seen.get(job.cls, 0) + 1
    return seen


def test_library_checks_reject_corrupted_results():
    fx = run.load_fticalc()
    for name, (setup_fn, _, round_fn) in workloads.WORKLOADS.items():
        rng = random.Random(7)
        state = setup_fn(fx, rng)
        assert _check_jobs(round_fn(fx, rng, state)) == workloads.ROUNDS[name]


def _cli_corruptions(cls, out):
    status, stdout, stderr = out
    bad = [(3, stdout, stderr), (status, stdout, stderr + "Traceback (most recent call last)")]
    if status == 0:
        bad += [(1, stdout, stderr), (status, stdout.replace("=", "=1", 1), stderr)]
        if cls.startswith("cd_reduce"):
            bad.append((status, stdout.replace("term.0.coeff=", "term.0.coeff=2*"), stderr))
    else:
        bad += [(0, stdout, stderr), (status, "x\n", stderr)]
    return bad


def test_cli_checks_reject_corrupted_results(tmp_path):
    env = run.child_env()
    seen = {}
    for job in cli_jobs.cli_round(random.Random(7), str(tmp_path), "t"):
        _, out = run.timed_process([sys.executable, "-m", "fticalc"] + job.argv, env)
        assert job.check(out) is None, (job.cls, out)
        for bad in _cli_corruptions(job.cls, out):
            assert job.check(bad) is not None, (job.cls, bad)
        seen[job.cls] = seen.get(job.cls, 0) + 1
    assert seen == cli_jobs.ROUND


def test_known_defect_probes_judge_the_contract(tmp_path):
    probes = cli_jobs.defect_probes(str(tmp_path))
    (_, _, eps_check), (_, _, reduce_check) = probes
    assert eps_check((0, "det=-1\nunimodular=true\n", "")) is not None
    assert eps_check((2, "", "parse error: eps pair out of range")) is None
    assert reduce_check((1, "", "Traceback (most recent call last):\nRuntimeError")) is not None
    assert reduce_check((1, "", "error: step budget exceeded")) is None


def test_bd_oracle_matches_bruteforce():
    rng = random.Random(3)
    for n in range(0, 9):
        circles = workloads.random_circle(rng, n)
        assert oracles.bd_single_circle(circles[0]) == oracles.bd_bruteforce(circles)


def test_alexander_oracle_known_values():
    assert oracles.alexander_coeffs(((-1, 1), (0, -1))) == {1: 1, 0: -1, -1: 1}
    assert oracles.alexander_coeffs(((1, 1), (0, -1))) == {1: -1, 0: 3, -1: -1}
    assert oracles.laurent_text({1: -1, 0: 3, -1: -1}) == "-t + 3 - t^-1"
