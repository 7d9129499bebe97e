import io
import sys

import pytest

from fticalc.cli import main

BLINK_1PAIR = "pairs=1\nlk 0 1 3\neps 0 1\n"
FIG_CD = "circles 1\nI 0:0 0:2\nI 0:1 0:4\nI 0:3 0:5\n"
TREFOIL_SF = "sizes=2\n-1 1\n0 -1\n"
TWO_BLOCKS_SF = (
    "sizes=2 2\nframes=1 1\n"
    "-1 1 0 0\n0 -1 0 0\n0 0 1 1\n0 0 0 -1\n"
)


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
    path = write(tmp_path, "x.cd", "circles 5\n" + "".join(
        "II 0:%d,%d %d:0,1\n" % (i, i + 4, i + 1) for i in range(4)
    ))
    status, out, err = run(capsys, ["cd", "reduce", path, "--m", "3", "--c", "0"])
    assert (status, out) == (1, "")
    assert err.startswith("error: stuck term")
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


def test_parse_error_exit_2(tmp_path, capsys):
    path = write(tmp_path, "bad.blink", "nonsense\n")
    status, _, err = run(capsys, ["blink", "det", path])
    assert status == 2
    status, _, err = run(capsys, ["magnus", "degree", "zz", "--N", "3"])
    assert status == 2
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


def test_out_of_range_eps_exit_2(tmp_path, capsys):
    path = write(tmp_path, "eps.blink", "pairs=1\neps 0 1\neps 7 1\n")
    status, out, err = run(capsys, ["blink", "det", path])
    assert (status, out) == (2, "")
    assert err.startswith("parse error:")


def test_unknown_subcommand_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
