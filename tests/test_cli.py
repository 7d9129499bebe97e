import hashlib
import io
import os
import resource
import subprocess
import sys

import pytest

import fticalc
from fticalc.cli import main

BLINK_1PAIR = "pairs=1\nlk 0 1 3\neps 0 1\n"
FIG_CD = "circles 1\nI 0:0 0:2\nI 0:1 0:4\nI 0:3 0:5\n"
TREFOIL_SF = "sizes=2\n-1 1\n0 -1\n"
TWO_BLOCKS_SF = (
    "sizes=2 2\nframes=1 1\n"
    "-1 1 0 0\n0 -1 0 0\n0 0 1 1\n0 0 0 -1\n"
)


def crossing_text(rotation):
    """Four pairwise-crossing type II chords, each tied to its own circle,
    with circle 0 rotated by `rotation` slots."""
    return "circles 5\n" + "".join(
        "II 0:%d,%d %d:0,1\n" % (*sorted(((i + rotation) % 8, (i + 4 + rotation) % 8)), i + 1)
        for i in range(4)
    )


def star_text(n, swaps=()):
    """n pairwise-crossing chords; each slot in swaps trades places with
    the next one."""
    seq = list(range(n)) * 2
    for p in swaps:
        seq[p], seq[p + 1] = seq[p + 1], seq[p]
    slots = {}
    for p, tok in enumerate(seq):
        slots.setdefault(tok, []).append(p)
    return "circles 1\n" + "".join("I 0:%d 0:%d\n" % tuple(slots[i]) for i in range(n))


# `cd reduce` stdout, recorded before the two reduction loops became one
# engine; any change of the chosen moves or towers shows up here.
CROSSING_M2_STDOUT = """\
terms=10
term.0.coeff=1
term.0.diagram=circles 7;II 4:0,1 5:0,2;II 5:1,3 6:0,1;marks 2
term.0.boundary_degree=1
term.0.marks=2
term.1.coeff=-2
term.1.diagram=circles 6;II 3:0,1 4:0,2;II 4:1,3 5:0,1;marks 2
term.1.boundary_degree=1
term.1.marks=2
term.2.coeff=1
term.2.diagram=circles 6;II 2:0,1 3:0,1;II 3:2,4 4:0,1;II 3:3,5 5:0,1;marks 1
term.2.boundary_degree=2
term.2.marks=1
term.3.coeff=1
term.3.diagram=circles 5;II 2:0,1 3:0,2;II 3:1,3 4:0,1;marks 2
term.3.boundary_degree=1
term.3.marks=2
term.4.coeff=-2
term.4.diagram=circles 6;II 2:0,1 3:0,2;II 3:1,4 4:0,1;II 3:3,5 5:0,1;marks 1
term.4.boundary_degree=2
term.4.marks=1
term.5.coeff=-1
term.5.diagram=circles 5;II 1:0,1 2:0,1;II 2:2,4 3:0,1;II 2:3,5 4:0,1;marks 1
term.5.boundary_degree=2
term.5.marks=1
term.6.coeff=2
term.6.diagram=circles 5;II 1:0,1 2:0,2;II 2:1,4 3:0,1;II 2:3,5 4:0,1;marks 1
term.6.boundary_degree=2
term.6.marks=1
term.7.coeff=-1
term.7.diagram=circles 5;II 0:0,1 1:0,1;II 1:2,5 2:0,1;II 1:3,6 3:0,1;II 1:4,7 4:0,1
term.7.boundary_degree=2
term.7.marks=0
term.8.coeff=1
term.8.diagram=circles 5;II 0:0,1 1:0,2;II 1:1,5 2:0,1;II 1:3,6 3:0,1;II 1:4,7 4:0,1
term.8.boundary_degree=2
term.8.marks=0
term.9.coeff=1
term.9.diagram=circles 5;II 0:0,1 1:0,3;II 1:1,5 2:0,1;II 1:2,6 3:0,1;II 1:4,7 4:0,1
term.9.boundary_degree=2
term.9.marks=0
"""

STAR16_M2_STDOUT = """\
terms=3
term.0.coeff=-1
term.0.diagram=circles 1;I 0:0 0:1;I 0:2 0:17;I 0:3 0:18;I 0:4 0:19;I 0:5 0:20;I 0:6 0:21;\
I 0:7 0:22;I 0:8 0:23;I 0:9 0:24;I 0:10 0:25;I 0:11 0:26;I 0:12 0:27;I 0:13 0:28;I 0:14 0:29;\
I 0:15 0:30;I 0:16 0:31
term.0.boundary_degree=2
term.0.marks=0
term.1.coeff=1
term.1.diagram=circles 1;I 0:0 0:2;I 0:1 0:17;I 0:3 0:18;I 0:4 0:19;I 0:5 0:20;I 0:6 0:21;\
I 0:7 0:22;I 0:8 0:23;I 0:9 0:24;I 0:10 0:25;I 0:11 0:26;I 0:12 0:27;I 0:13 0:28;I 0:14 0:29;\
I 0:15 0:30;I 0:16 0:31
term.1.boundary_degree=2
term.1.marks=0
term.2.coeff=1
term.2.diagram=circles 1;I 0:0 0:15;I 0:1 0:17;I 0:2 0:18;I 0:3 0:19;I 0:4 0:20;I 0:5 0:21;\
I 0:6 0:22;I 0:7 0:23;I 0:8 0:24;I 0:9 0:25;I 0:10 0:26;I 0:11 0:27;I 0:12 0:28;I 0:13 0:29;\
I 0:14 0:30;I 0:16 0:31
term.2.boundary_degree=2
term.2.marks=0
"""

# sha256 of the stdout of `cd reduce --m 3` on the 54-chord star (9 terms)
# and on the same star with three adjacent-endpoint swaps (3 terms). The
# stars' symmetry hides which maximum set a tower is taken from; the
# perturbed one shows it.
STAR54_M3_SHA256 = "af10caec30bc77a99db83baa65179cbb4004a866d21b87771a570f25b31718de"
PERTURBED54_M3_SHA256 = "8302b02fb96d150ae4ecfa43e46821d01fa43af4661c82fe69fa216648bb8792"
# sha256 of the stdout of `cd reduce --m 4` on the 128-chord star (41 terms),
# recorded while every degree query still ran the crossing-graph search
STAR128_M4_SHA256 = "f3099bbce03f4e92113c9e1ec762e2e8935ba1a3413d11dbaca2dcfbbc5a1443"
# sha256 of the stdout of `cd reduce --m 3` on the n-chord star with the
# swaps (n - 10, n - 8, n - 6), for the benchmark's sizes n = 54..59,
# recorded while every plan read all arcs and every term got the full
# retirement test
PERTURBED_BAND_M3_SHA256 = {
    54: "8302b02fb96d150ae4ecfa43e46821d01fa43af4661c82fe69fa216648bb8792",
    55: "089b058081258961840fab2425c12ae66a79d6ed82f9154df02c8ee1b03c8ae9",
    56: "5397cd514e51225e9574a06a89b5939801cbd29f7ee056e8364938ed39162c3c",
    57: "d51429c16fe50154094520128870ace76500552c469c048b93c7c10c79d6b52b",
    58: "6ca1fd09f713dd3f9a2c2bffa51814695ad0ede9c352af02020bbea24fb3dd6a",
    59: "41f76de208b3e9961ef61363e0af9af8218f92e72e6b1715fc4f07005cdb4415",
}


def run(capsys, argv, stdin=None):
    if stdin is not None:
        old = sys.stdin
        sys.stdin = io.StringIO(stdin)
        try:
            status = main(argv)
        finally:
            sys.stdin = old
    else:
        status = main(argv)
    out = capsys.readouterr()
    return status, out.out, out.err


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_blink_det(tmp_path, capsys):
    path = write(tmp_path, "b.blink", BLINK_1PAIR)
    status, out, _ = run(capsys, ["blink", "det", path])
    assert status == 0
    assert out == "det=-1\nunimodular=true\n"


def test_blink_det_stdin(capsys):
    status, out, _ = run(capsys, ["blink", "det", "-"], stdin=BLINK_1PAIR)
    assert status == 0
    assert "det=-1" in out


def test_blink_bracket_deterministic(tmp_path, capsys):
    path = write(tmp_path, "b.blink", "pairs=2\neps 0 1\neps 1 -1\n")
    status, out1, _ = run(capsys, ["blink", "bracket", path])
    assert status == 0
    status, out2, _ = run(capsys, ["blink", "bracket", path])
    assert out1 == out2
    assert out1.startswith("terms=4\n")


def test_link_casson(tmp_path, capsys):
    path = write(tmp_path, "l.sf", TWO_BLOCKS_SF)
    status, out, _ = run(capsys, ["link", "casson", path])
    assert status == 0
    assert out == "casson=0\n"


def test_seifert_alexander(tmp_path, capsys):
    path = write(tmp_path, "t.sf", TREFOIL_SF)
    status, out, _ = run(capsys, ["seifert", "alexander", path])
    assert status == 0
    assert out == "alexander=t - 1 + t^-1\nphi=2\n"


def test_cd_degree(tmp_path, capsys):
    path = write(tmp_path, "f.cd", FIG_CD)
    status, out, _ = run(capsys, ["cd", "degree", path])
    assert status == 0
    assert out == "boundary_degree=2\n"


def test_cd_reduce(tmp_path, capsys):
    star = "circles 1\n" + "".join(
        "I 0:%d 0:%d\n" % (i, i + 8) for i in range(8)
    )
    path = write(tmp_path, "star.cd", star)
    status, out, _ = run(capsys, ["cd", "reduce", path, "--m", "2", "--c", "1"])
    assert status == 0
    assert out.startswith("terms=")
    assert "term.0.coeff=" in out
    status, out2, _ = run(capsys, ["cd", "reduce", path, "--m", "2", "--c", "1"])
    assert out == out2


def test_cd_reduce_golden(tmp_path, capsys):
    for rotation in (0, 1):
        path = write(tmp_path, "x%d.cd" % rotation, crossing_text(rotation))
        status, out, _ = run(capsys, ["cd", "reduce", path, "--m", "2", "--c", "0"])
        assert (status, out) == (0, CROSSING_M2_STDOUT)
    path = write(tmp_path, "star16.cd", star_text(16))
    status, out, _ = run(capsys, ["cd", "reduce", path, "--m", "2"])
    assert (status, out) == (0, STAR16_M2_STDOUT)
    band = [(star_text(n, swaps=(n - 10, n - 8, n - 6)), "3", digest)
            for n, digest in PERTURBED_BAND_M3_SHA256.items()]
    for text, m, digest in [(star_text(54), "3", STAR54_M3_SHA256),
                            (star_text(54, swaps=(44, 46, 48)), "3", PERTURBED54_M3_SHA256),
                            (star_text(128), "4", STAR128_M4_SHA256)] + band:
        path = write(tmp_path, "star.cd", text)
        status, out, _ = run(capsys, ["cd", "reduce", path, "--m", m])
        assert status == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_johnson_triple(capsys):
    status, out, _ = run(capsys, ["johnson", "triple", "--g", "3"])
    assert status == 0
    assert out == "tau3=6*1^2^3\n"


def test_magnus_degree(capsys):
    status, out, _ = run(capsys, ["magnus", "degree", "[x1,x2]", "--N", "5"])
    assert status == 0
    assert out == "degree=2\n"
    status, out, _ = run(capsys, ["magnus", "degree", "x1 x1^-1", "--N", "4"])
    assert status == 0
    assert out == "degree=>=5\n"


def test_magnus_degree_golden(capsys):
    # stdout and exit status recorded while magnus multiplied one full
    # truncated series per letter
    for word, stdout in (("[x1,x2]^300", "degree=2\n"),
                         ("[[[[x1,x2],x3],x4],x5]", "degree=5\n"),
                         ("[x1,x2] [x2,x1]", "degree=>=9\n")):
        status, out, _ = run(capsys, ["magnus", "degree", word, "--N", "8"])
        assert (status, out) == (0, stdout)


def test_sp_realize(capsys):
    status, out, _ = run(capsys, ["sp", "realize", "--C", "0 1;1 0"])
    assert status == 0
    lines = out.strip().splitlines()
    assert lines[0] == "transvections=3"
    assert lines[-1] == "verified=true"


def test_domain_error_exit_1(tmp_path, capsys):
    path = write(tmp_path, "b.blink", "pairs=1\nlk 0 1 3\n")
    status, _, err = run(capsys, ["blink", "bracket", path])
    assert status == 1
    assert "error" in err
    # the reduction gets stuck: four crossing type II chords, c = 0
    path = write(tmp_path, "x.cd", crossing_text(0))
    status, out, err = run(capsys, ["cd", "reduce", path, "--m", "3", "--c", "0"])
    assert (status, out) == (1, "")
    assert err.startswith("error: stuck term")
    # the same diagram at m = 2 needs three expanded states
    status, out, err = run(capsys, ["cd", "reduce", path, "--m", "2", "--c", "0", "--bound", "2"])
    assert (status, out) == (1, "")
    assert err.startswith("error: reduction exceeded")
    # integers too large for a list size end in an error line, not a traceback
    huge = "99999999999999999999"
    for argv, text in (
        (["cd", "degree"], "circles %s\n" % huge),
        (["blink", "det"], "pairs=%s\n" % huge),
        (["sp", "realize", "--C", huge], None),
    ):
        if text is not None:
            argv = argv + [write(tmp_path, "huge.txt", text)]
        status, out, err = run(capsys, argv)
        assert (status, out) == (1, "")
        assert err.startswith("error:")


def test_out_of_memory_exit_1():
    # the g x g default C of `johnson triple` outgrows a 400 MiB address space
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fticalc.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "fticalc", "johnson", "triple", "--g", "20000"],
        capture_output=True, text=True, preexec_fn=limit, env=env, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: out of memory\n"


def test_closed_stdout_exit_1(tmp_path):
    # 2^14 bracket terms outgrow the pipe buffer, so a write fails once the
    # reader has closed its end
    path = write(tmp_path, "b.blink", "pairs=14\n" + "".join("eps %d 1\n" % p for p in range(14)))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fticalc.__file__)))
    proc = subprocess.Popen([sys.executable, "-m", "fticalc", "blink", "bracket", path],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"terms=16384\n"
    proc.stdout.close()
    assert proc.wait(timeout=120) == 1
    err = proc.stderr.read()
    proc.stderr.close()
    assert b"Traceback" not in err


def test_parse_error_exit_2(tmp_path, capsys):
    path = write(tmp_path, "bad.blink", "nonsense\n")
    status, _, err = run(capsys, ["blink", "det", path])
    assert status == 2
    status, _, err = run(capsys, ["magnus", "degree", "zz", "--N", "3"])
    assert (status, err) == (2, "parse error: bad word: unexpected character 'z'\n")
    status, _, err = run(capsys, ["sp", "realize", "--C", "1 2;3"])
    assert status == 2
    for argv, text in (
        (["cd", "degree"], "circles 1\nI 0:0 0:99999999999999999999\n"),
        (["link", "casson"], "sizes=2\nframes=1 1 1\n-1 1\n0 -1\n"),
        (["blink", "det"], "pairs=1\nlkx 0 1 2\neps 0 1\n"),
    ):
        status, out, err = run(capsys, argv + [write(tmp_path, "bad.txt", text)])
        assert (status, out) == (2, "")
        assert err.startswith("parse error:")


def test_negative_pairs_header_exit_2(tmp_path, capsys):
    for sub in ("det", "bracket"):
        path = write(tmp_path, "neg.blink", "pairs=-3\n")
        status, out, err = run(capsys, ["blink", sub, path])
        assert (status, out) == (2, "")
        assert err == "parse error: bad blink file: pairs=-3: negative pair count\n"


def test_out_of_range_eps_exit_2(tmp_path, capsys):
    path = write(tmp_path, "eps.blink", "pairs=1\neps 0 1\neps 7 1\n")
    status, out, err = run(capsys, ["blink", "det", path])
    assert (status, out) == (2, "")
    assert err.startswith("parse error:")


def test_unknown_subcommand_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
