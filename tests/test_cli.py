import contextlib
import csv
import errno
import hashlib
import io
import itertools
import json
import math
import os
import shlex
import signal
import subprocess
import sys
import types

import cli_oracle
import families_oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surgeryforge import cli, families, pentangle
from surgeryforge.cli import COMMANDS, main
from surgeryforge.lens import LensSpace
from surgeryforge.rationals import INF, rat


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_simpleknot_chi(capsys):
    code, report = run_json(capsys, "simpleknot", "chi", "49", "19", "18")
    assert code == 0
    assert report["results"]["chi"] == -33
    assert report["results"]["genus"] == 17
    assert report["results"]["order"] == 49


def test_lens_homeo(capsys):
    code, report = run_json(capsys, "lens", "homeo", "18", "5", "18", "11",
                            "--oriented")
    assert code == 0
    assert report["results"]["homeomorphic"] is True
    code, report = run_json(capsys, "lens", "homeo", "18", "7", "18", "5")
    assert report["results"]["homeomorphic"] is True


def run_workers(monkeypatch, capsys, workers, *argv):
    """run with the pentangle sweep split over `workers` processes."""
    monkeypatch.setattr(pentangle, "_workers", lambda walk: workers)
    return run(capsys, *argv)


def test_pentangle_verify_exit_and_determinism(monkeypatch, capsys):
    code1, out1 = run(capsys, "pentangle", "verify", "--bound", "2")
    assert code1 == 0
    assert json.loads(out1)["counterexamples"] == []
    code2, out2 = run_workers(monkeypatch, capsys, 3,
                              "pentangle", "verify", "--bound", "2")
    assert code2 == 0
    assert out1 == out2  # byte-identical across worker counts
    code3, out3 = run(capsys, "pentangle", "verify", "--bound", "2")
    assert out1 == out3  # and across runs


def test_pentangle_verify_bound_14_pinned(monkeypatch, capsys):
    code1, out1 = run_workers(monkeypatch, capsys, 1,
                              "pentangle", "verify", "--bound", "14")
    code2, out2 = run_workers(monkeypatch, capsys, 2,
                              "pentangle", "verify", "--bound", "14")
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["results"] == {
        "bound": 14, "slope_count": 256, "tuples_checked": 256 ** 4,
        "necessary_all_three": 4_798_240, "simplified": 4_798_240}
    assert report["counterexamples"] == []


def test_cf_commands(capsys):
    code, report = run_json(capsys, "cf", "eval", "[3,2,2]")
    assert code == 0 and report["results"]["value"] == "7/3"
    code, report = run_json(capsys, "cf", "expand", "19/3")
    assert report["results"]["expansion"] == [7, 2, 2]
    code, report = run_json(capsys, "cf", "solve-tail", "(-1,1)", "3")
    assert report["results"]["tail"] == "2/5"


def test_normseq_commands(capsys):
    code, report = run_json(capsys, "normseq", "reduce", "(3,2^[-1],4)")
    assert report["results"]["reduced"] == "(5)"
    code, report = run_json(capsys, "normseq", "to-lens", "(4,3,2)")
    assert report["results"]["lens"] == "L(18,5)"
    code, report = run_json(capsys, "normseq", "dual", "(3)")
    assert report["results"]["dual"] == "(2,2)"
    code, report = run_json(capsys, "normseq", "exponents", "(5,2,2)")
    assert report["results"]["exponent_sums"] == [6]


@pytest.mark.parametrize("argv, parameters, results", [
    (("cf", "eval", "[ 3, 2 ,2]"), {"word": "[3,2,2]"}, {"value": "7/3"}),
    (("cf", "eval", "[1,6/4]"), {"word": "[1,3/2]"}, {"value": "1/3"}),
    (("cf", "eval", "[1,inf]"), {"word": "[1,inf]"}, {"value": "1"}),
    (("cf", "eval", "[]"), {"word": "[]"}, {"value": "inf"}),
    (("normseq", "reduce", "(-1,3)"), {"seq": "(-1,3)"},
     {"reduced": "(-1,3)", "kind": "raw", "lens": "L(4,1)"}),
    (("normseq", "reduce", "(1,3,4)"), {"seq": "(1,3,4)"},
     {"reduced": "(4,2)", "kind": "norm", "lens": "L(7,2)"}),
    (("normseq", "reduce", "(2^[-1])"), {"seq": "(2^[-1])"},
     {"reduced": "(0)", "kind": "weak", "lens": "S1xS2"}),
], ids=" ".join)
def test_word_and_sequence_echo_pinned(capsys, argv, parameters, results):
    # the echoed word or sequence is the normalised input, printed back
    code, report = run_json(capsys, *argv)
    assert code == 0
    assert report["parameters"] == parameters
    assert report["results"] == results


def test_tangle_command(capsys):
    code, report = run_json(capsys, "tangle", "two-bridge", "Q(-2,1/2,7/3)")
    assert report["results"]["two_bridge_necessary"] is True
    code, report = run_json(capsys, "tangle", "two-bridge", "Q(-9/2,4/5,3/7)")
    assert report["results"]["two_bridge_necessary"] is False


def test_families_eval(capsys):
    code, report = run_json(capsys, "families", "eval", "A", "3", "2")
    assert code == 0
    assert report["results"] == {"1": "L(18,11)", "2": "S3", "inf": "L(19,7)"}
    code, report = run_json(capsys, "families", "eval", "B", "4")
    assert report["results"]["2"] == "L(19,7)"


def test_families_optsurg(capsys):
    code, report = run_json(capsys, "families", "optsurg", "6", "1")
    assert report["results"][0]["lens"] == "L(5,1)"
    assert report["results"][1]["lens"] == "L(5,4)"


# Every argv refused with exit 2, and the one error line after "error: " it
# prints on stderr, with no traceback and no report
_REFUSED = [
    ("lens normalize 10 4", "L(10,4) is not a lens space label"),
    ("families eval A 1 5", "A: excluded parameters (m = 1)"),
    ("cf eval not-a-word",
     "not a continued fraction: 'not-a-word' (expected [a1,...,an], "
     "integers but for a last p/q or inf)"),
    ("families eval A 3", "family A takes 2 parameter(s), got 1"),
    ("families eval B 3 4", "family B takes 1 parameter(s), got 2"),
    # options follow the last command word, and alt-gofk has none
    ("families verify alt-gofk --bound 3", "unrecognized arguments: --bound"),
    ("families verify --bound 4 intersections",
     "unrecognized arguments: --bound"),
    # 2^[t] is defined for t >= -1 only
    ("normseq reduce (3,2^[-2],4)",
     "2^[-2] is undefined: blocks need t >= -1"),
    ("normseq to-lens (3,2^[-2],4)",
     "2^[-2] is undefined: blocks need t >= -1"),
    ("normseq exponents (3,2^[-2],4)",
     "2^[-2] is undefined: blocks need t >= -1"),
    # a Montesinos link Q(A,B,C) has three factors
    ("tangle two-bridge Q(1,inf)",
     "a Montesinos link Q(A,B,C) has three factors, got 2"),
    ("tangle two-bridge Q(1,2,3,4)",
     "a Montesinos link Q(A,B,C) has three factors, got 4"),
    # only catalog families 1-3 take a second index
    ("families optsurg 4 2 3", "only families 1-3 take a second index"),
    ("families optsurg 5 2 3", "only families 1-3 take a second index"),
    ("families optsurg 6 2 3", "only families 1-3 take a second index"),
    # a 2^[t] block too long to expand: t overflows an index, or asks for
    # more memory than any address space holds
    ("normseq reduce (3,2^[10000000000000000000],4)",
     "2^[10000000000000000000] is too long to expand"),
    ("normseq exponents (2^[1000000000000000])",
     "2^[1000000000000000] is too long to expand"),
    ("normseq dual (2^[1000000000000000])",
     "2^[1000000000000000] is too long to expand"),
    ("cf solve-tail (1,2^[1000000000000000]) 1",
     "2^[1000000000000000] is too long to expand"),
    # an option written --opt=value is unrecognized
    ("pentangle verify --bound=--", "unrecognized arguments: --bound=--"),
    ("simpleknot star 5 --eps=--", "unrecognized arguments: --eps=--"),
    ("pentangle montesinos 1 2 3 4 --x=--", "unrecognized arguments: --x=--"),
    ("--format=-- cf eval [1]", "unrecognized arguments: --format=--"),
    # the sweep sizes its own pool: --jobs is no option, global or not
    ("--jobs 4 pentangle verify --bound 5", "unrecognized arguments: --jobs"),
    ("pentangle verify --bound 2 --jobs 2", "unrecognized arguments: --jobs"),
    # bounds and orders below their ranges
    ("families census --seqmax -1", "seqmax must be >= 0"),
    ("families census --tmax -3", "tmax must be >= -1"),
    ("simpleknot star 0", "p must be >= 2, got 0"),
    ("simpleknot star 1", "p must be >= 2, got 1"),
    ("simpleknot star -5", "p must be >= 2, got -5"),
    ("simpleknot star 1 --eps +1", "p must be >= 2, got 1"),
    ("simpleknot genus-search L(7,3) -1", "genus must be >= 0, got -1"),
    # a "--" after the first is no argument, where Python 3.11's argparse
    # drops it from some arguments and keeps it in others, and read the
    # genus-search argv with genus an empty list, which the handler crashed
    # on
    ("families eval -- A 1 --", "unrecognized arguments: --"),
    ("simpleknot genus-search L(8,1) -- --", "unrecognized arguments: --"),
    ("cf eval -- --", "unrecognized arguments: --")]


@pytest.mark.parametrize("argv, line", _REFUSED, ids=[a for a, _ in _REFUSED])
def test_refused_argv_exits_2_with_one_error_line(capsys, argv, line):
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {line}\n"


@pytest.mark.parametrize("argv, bad", [
    (["lens", "from-surgery", "x"], "x"),
    (["cf", "eval", "[1,,2]"], "[1,,2]"),
    (["tangle", "two-bridge", "Q(1/2,x)"], "x"),
    (["normseq", "dual", "(3,x)"], "(3,x)"),
    (["normseq", "reduce", "(3,2^[x])"], "(3,2^[x])"),
    (["simpleknot", "genus-search", "L(x,1)", "1"], "L(x,1)"),
    (["simpleknot", "genus-search", "L(7)", "1"], "L(7)"),
    (["families", "eval", "A", "x", "2"], "x")])
def test_bad_field_error_names_the_field(capsys, argv, bad):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert repr(bad) in err and "int()" not in err and "unpack" not in err


def test_cf_solve_tail_expands_blocks(capsys):
    for blocked, plain in (("(1,2^[2],3)", "(1,2,2,3)"), ("(2^[3])", "(2,2,2)"),
                           ("(2^[0],4)", "(4)")):
        code, got = run(capsys, "cf", "solve-tail", blocked, "5")
        assert code == 0
        assert got == run(capsys, "cf", "solve-tail", plain, "5")[1]
    assert main(["cf", "solve-tail", "(2^[-1],3)", "1"]) == 2


def test_normseq_dual_expands_blocks(capsys):
    code, got = run(capsys, "normseq", "dual", "(2^[2])")
    assert code == 0
    assert got == run(capsys, "normseq", "dual", "(2,2)")[1]
    assert json.loads(got)["results"]["dual"] == "(3)"
    assert main(["normseq", "dual", "(3,2^[-1],4)"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 2^[-1] has no plain expansion\n"


_HUGE = "2^[99999999999999999999]"


@pytest.mark.parametrize("argv, block", [
    (["normseq", "dual", f"({_HUGE})"], _HUGE),
    (["cf", "solve-tail", f"({_HUGE})", "1"], _HUGE),
    (["normseq", "exponents", f"(3,{_HUGE})"], _HUGE),
    (["normseq", "reduce", "(2^[1000000000000])"], "2^[1000000000000]")])
def test_oversize_block_error_names_the_block(capsys, argv, block):
    # a block past the index range or the memory cannot be written out as
    # twos, and the one error line says which
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {block} is too long to expand\n"


@pytest.mark.parametrize("entry", ["99999999999999999999", "1000000000000"])
def test_oversize_entry_error_names_the_sequence(capsys, entry):
    # the dual of a plain entry v has v - 1 entries, past the index range or
    # the memory here, and the one error line names the sequence
    assert main(["normseq", "dual", f"({entry})"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: the dual of ({entry}) is too long to write out\n")


def test_alt_gofk_census_failure_row(capsys, monkeypatch):
    # a census counterexample reaches the pipeline's report as one row:
    # "census", then the extra entries, then the missing ones
    census = families.gofklens_census
    row = families.CensusEntry(68, 15, 23)
    monkeypatch.setattr(families, "gofklens_census",
                        lambda **bounds: (census(**bounds)[0],
                                          (("missing", row),)))
    code, out = run_json(capsys, "families", "verify", "alt-gofk")
    assert code == 1
    assert out["results"]["census_ok"] is False
    assert out["counterexamples"] == [["census", [], [str(row)]]]


def test_alt_gofk_final_row_names_lens_spaces(capsys, monkeypatch):
    # with no candidate knot at p = 19 the final stage keeps only p = 31;
    # its row names the lens space as the report prints it, not as a repr
    solutions = families.star_solutions
    monkeypatch.setattr(families, "star_solutions",
                        lambda p, eps: () if p == 19 else solutions(p, eps))
    argv = ("families", "verify", "alt-gofk")
    outs = {}
    for fmt in ("json", "text", "csv"):
        code, outs[fmt] = run(capsys, "--format", fmt, *argv)
        assert code == 1
        assert "LensSpace(" not in outs[fmt]
    assert json.loads(outs["json"])["counterexamples"] == [
        ["final", [[31, "L(32,7)"]]]]
    assert outs["text"].endswith("counterexamples: 1\n"
                                 '  ["final",[[31,"L(32,7)"]]]\n')


def _break_intersection_cases(monkeypatch, cases):
    """Push each named intersection case off its expected solutions by
    patching the helper or table that computes them."""
    cf_step, coincidences = families.cf_step, families._coincidences
    if "case_1a" in cases:
        # 3 - 1/m' read as the integer 5 at m' = 2
        monkeypatch.setattr(families, "cf_step",
                            lambda c, x: rat(5) if x == rat(2)
                            else cf_step(c, x))
    # case 1b solves 0 - 1/x = -2 - 1/y, case 2a 3 - 1/x = 2 - 1/y and
    # case 3a 2 - 1/x = 1 - 1/y
    shifted = {c1 for case, c1 in (("case_1b", 0), ("case_2a", 3),
                                   ("case_3a", 2))
               if case in cases}
    monkeypatch.setattr(families, "_coincidences",
                        lambda c1, xs, c2, ys: coincidences(c1, xs, c2, ys)
                        + (((0, 0),) if c1 in shifted else ()))
    if "case_2b" in cases:
        # a slot-1 label invalid only at A[2, 3]
        monkeypatch.setitem(families.FAMILIES, "A", families_oracle.a_family(
            (families_oracle.BAD_SLOT_1,) + families.FAMILIES["A"][3][1:]))


_BROKEN_INTERSECTION_ROWS = [
    ["case_1a", [[4, -1], [5, 2]]],
    ["case_1b", [[1, -1, -1], [0, 0, -1]]],
    ["case_2a", [[2, -2], [0, 0]]],
    ["case_2b", [[2, 3]]],
    ["case_3a", [[2, -2], [0, 0]]],
]


@pytest.mark.parametrize("row", _BROKEN_INTERSECTION_ROWS,
                         ids=lambda row: row[0])
def test_intersection_case_failure_row(capsys, monkeypatch, row):
    # a broken case is a counterexample: one report on stdout, exit 1,
    # nothing on stderr
    _break_intersection_cases(monkeypatch, {row[0]})
    code = main(["families", "verify", "intersections", "--bound", "4"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    assert captured.out.count("\n") == 1
    report = json.loads(captured.out)
    assert report["counterexamples"] == [row]
    assert report["results"]["case_3b_matches_3a"] is (row[0] != "case_3a")


def test_intersection_failure_rows_in_case_order(capsys, monkeypatch):
    _break_intersection_cases(monkeypatch,
                              {row[0] for row in _BROKEN_INTERSECTION_ROWS})
    code, report = run_json(capsys, "families", "verify", "intersections",
                            "--bound", "4")
    assert code == 1
    assert report["counterexamples"] == _BROKEN_INTERSECTION_ROWS


# command -> (the sweep on its module, one counterexample row the sweep is
# made to return, that row as the JSON report prints it)
_FAILING_SWEEPS = {
    ("pentangle", "verify", "--bound", "2"): (
        pentangle, "verify_simplification", (rat(1, 2), rat(3), rat(-1), INF),
        ["1/2", "3", "-1", "inf"]),
    ("families", "census", "--tmax", "2", "--seqmax", "3"): (
        families, "gofklens_census",
        ("missing", families.CensusEntry(68, 15, 23)),
        ["missing", "(p,q,k)=(68,15,23)"]),
    ("families", "verify", "intersections", "--bound", "4"): (
        families, "verify_three_filling_intersections", ("case_2b", ((2, 3),)),
        ["case_2b", [[2, 3]]]),
    ("families", "verify", "alt-gofk"): (
        families, "alt_gofk_pipeline", ("final", ((31, "L(32,7)"),)),
        ["final", [[31, "L(32,7)"]]]),
}


@pytest.mark.parametrize("argv", _FAILING_SWEEPS, ids=" ".join)
def test_failing_row_in_every_format(capsys, monkeypatch, argv):
    # a failing sweep prints its counterexample row in json, text and csv;
    # csv writes it after the unchanged results, under its own header
    module, name, row, printed = _FAILING_SWEEPS[argv]
    code, passing_csv = run(capsys, "--format", "csv", *argv)
    assert code == 0 and "counterexample" not in passing_csv
    sweep = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kwargs: (
        sweep(*args, **kwargs)[0], (row,)))
    outs = {}
    for fmt in ("json", "text", "csv"):
        code, outs[fmt] = run(capsys, "--format", fmt, *argv)
        assert code == 1, fmt
    assert json.loads(outs["json"])["counterexamples"] == [printed]
    cell = json.dumps(printed, separators=(",", ":"))
    assert outs["text"].endswith(f"counterexamples: 1\n  {cell}\n")
    assert outs["csv"].startswith(passing_csv)
    tail = list(csv.reader(io.StringIO(outs["csv"][len(passing_csv):])))
    assert tail == [["counterexample"], [cell]]


_README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_readme_command_examples(capsys):
    # every example of the README's command-line block runs and prints one
    # JSON report
    with open(_README) as f:
        readme = f.read()
    block = readme.split("## Command line", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    examples = [shlex.split(line, comments=True)
                for line in block.splitlines()
                if line.startswith("surgeryforge ")]
    assert len(examples) >= 18
    for argv in examples:
        code, out = run(capsys, *argv[1:])
        assert code == 0, argv
        assert out.count("\n") == 1, argv
        json.loads(out)


def test_readme_prose_is_wrapped():
    # prose lines keep the file's wrap; table rows and code blocks may not
    with open(_README) as f:
        lines = f.read().splitlines()
    fenced, long = False, []
    for number, line in enumerate(lines, 1):
        if line.startswith("```"):
            fenced = not fenced
        elif not fenced and not line.startswith("|") and len(line) > 79:
            long.append(number)
    assert long == []


ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
PACKAGE_DIR = os.path.join(ROOT, "src", "surgeryforge")
SRC_ENV = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))


def run_python(*argv):
    """Stdout of a fresh interpreter run with src on PYTHONPATH."""
    return subprocess.run([sys.executable, *argv], env=SRC_ENV,
                          capture_output=True, text=True, check=True).stdout


@pytest.mark.parametrize("op", ["reduce", "exponents"])
@pytest.mark.parametrize("seq", ["(1,2^[-1],2^[-1],1)",
                                 "(0,2^[-1],2^[-1],1,2,0)"])
def test_touching_blocks_exit_2(op, seq):
    # the 0/1 redexes sit behind two touching 2^[-1] blocks, which no rule
    # fuses; a fresh process with a timeout, so a rewrite loop fails here
    proc = subprocess.run(
        [sys.executable, "-m", "surgeryforge.cli", "normseq", op, seq],
        env=SRC_ENV, capture_output=True, text=True, timeout=30)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: adjacent shorthand blocks are not reducible\n"


def test_closed_pipe_ends_quietly():
    # a reader that closes after one byte of the 213 KB census report takes
    # no more: exit 0, the verdict, and nothing on stderr
    proc = subprocess.Popen(
        [sys.executable, "-m", "surgeryforge.cli", "families", "census",
         "--tmax", "300", "--seqmax", "300"],
        env=SRC_ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(1)) == 1
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (0, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", [["lens", "normalize", "7", "3"],
                                  ["--help"]])
def test_full_device_exits_2(argv):
    # a report or help text that cannot be written exits 2 with one line
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "surgeryforge.cli", *argv], env=SRC_ENV,
            stdout=full, stderr=subprocess.PIPE, text=True, timeout=30)
    assert proc.returncode == 2
    assert (proc.stderr.startswith("error: cannot write the report: ")
            and proc.stderr.count("\n") == 1), proc.stderr


_EBADF = "error: cannot write the report: Bad file descriptor\n"


@pytest.mark.parametrize("argv, closed, err", [
    (["lens", "normalize", "7", "3"], (1,), _EBADF), (["--help"], (1,), _EBADF),
    (["pentangle", "verify", "--bound", "x"], (1,),
     "error: argument --bound: invalid int value: 'x'\n"),
    (["lens", "normalize", "7", "3"], (1, 2), "")])
def test_closed_stdout_exits_2(argv, closed, err):
    # a process started with no file descriptor 1 (sh's >&-) has no
    # sys.stdout: a report or help text exits 2 with one line, as a usage
    # error does, and with fd 2 closed too it still exits 2
    proc = subprocess.run(
        [sys.executable, "-m", "surgeryforge.cli", *argv], env=SRC_ENV,
        stderr=subprocess.PIPE, text=True, timeout=30,
        preexec_fn=lambda: [os.close(fd) for fd in closed])
    assert (proc.returncode, proc.stderr) == (2, err)


def in_process(capsys, argv):
    """(exit code, stdout bytes, stderr) of main(argv) in this process, the
    code of -h taken from its SystemExit."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out.encode(), captured.err


def cli_process(argv, **popen):
    """A `python -m surgeryforge.cli argv` process with piped stdout and
    stderr, which stdout buffers."""
    env = dict(SRC_ENV)
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.Popen(
        [sys.executable, "-m", "surgeryforge.cli", *argv], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, **popen)


CENSUS_300 = ["families", "census", "--tmax", "300", "--seqmax", "300"]


@pytest.mark.parametrize("argv", [["--format", "json", *CENSUS_300],
                                  ["--format", "csv", *CENSUS_300],
                                  ["pentangle", "verify", "--bound", "x"],
                                  ["--help"]])
def test_process_exit_keeps_every_byte(capsys, argv):
    # the process ends by os._exit once its streams are flushed: the 213 KB
    # census reports, which take many buffer flushes, a usage error and the
    # help text reach their readers whole, with main's exit code
    proc = cli_process(argv)
    out, err = proc.communicate(timeout=60)
    assert (proc.returncode, out, err.decode()) == in_process(capsys, argv)


def test_pool_sweep_process_leaves_no_process(capsys):
    # os._exit skips multiprocessing's atexit hooks, so the sweep's fork
    # pool must be gone with the process: its group is empty once reaped
    argv = ["pentangle", "verify", "--bound", "83"]
    walk = pentangle._SweepTables(pentangle.stern_brocot_slopes(83)).walk
    if pentangle._workers(walk) == 1:
        pytest.skip("bound 83 sweeps in process on one CPU")
    proc = cli_process(argv, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=120)
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
    assert (proc.returncode, out, err.decode()) == in_process(capsys, argv)


def test_console_script_is_the_main_guard_entry():
    # an installed `surgeryforge` ends as python -m surgeryforge.cli does
    with open(os.path.join(ROOT, "pyproject.toml")) as f:
        scripts = f.read().split("\n[project.scripts]\n", 1)[1]
    with open(os.path.join(PACKAGE_DIR, "cli.py")) as f:
        guard = f.read().split('\nif __name__ == "__main__":\n', 1)[1]
    entry = guard.strip().removesuffix("()")
    assert entry.isidentifier() and callable(getattr(cli, entry))
    assert scripts.split("\n", 1)[0] == (
        f'surgeryforge = "surgeryforge.cli:{entry}"')


class _Unwritable:
    """A stdout, without a file descriptor, whose every write raises."""

    def __init__(self, error):
        self.error = error

    def write(self, text):
        raise self.error

    def flush(self):
        pass


@pytest.mark.parametrize("error, code", [
    (BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE)), 1),
    (OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)), 2),
    (OSError(errno.EBADF, os.strerror(errno.EBADF)), 2)])
def test_unwritable_report_keeps_its_verdict(capsys, monkeypatch, error,
                                             code):
    # with its reader gone a report with counterexamples still exits 1, as
    # help exits 0; any other write failure exits 2 with one error line,
    # EBADF where there is no stdout at all
    row = families.CensusEntry(68, 15, 23)
    report = {"entries": (), "witnesses": {}}, (("missing", row),)
    monkeypatch.setattr(families, "gofklens_census", lambda t, s: report)
    stdout = None if error.errno == errno.EBADF else _Unwritable(error)
    with contextlib.redirect_stdout(stdout):
        assert main(["families", "census", "--tmax", "6"]) == code
        with pytest.raises(SystemExit) as exit_:
            main(["families", "census", "-h"])
    assert exit_.value.code == (0 if code == 1 else 2)
    err = capsys.readouterr().err
    assert err == ("" if code == 1 else
                   f"error: cannot write the report: {error.strerror}\n" * 2)


def test_cli_import_leaves_multiprocessing_out():
    # multiprocessing is imported only by a pentangle sweep that forks a
    # pool, and a sweep at bound 10 runs in process
    out = run_python("-c", "import sys, surgeryforge.cli; "
                           "print('multiprocessing' in sys.modules)")
    assert out == "False\n"
    out = run_python("-c", "import contextlib, io, sys, surgeryforge.cli\n"
                           "with contextlib.redirect_stdout(io.StringIO()):\n"
                           "    code = surgeryforge.cli.main(sys.argv[1:])\n"
                           "print(code, 'multiprocessing' in sys.modules)",
                     "pentangle", "verify", "--bound", "10")
    assert out == "0 False\n"


# Imports the CLI, runs cli.main on argv and prints, as JSON, the package
# modules that are in sys.modules and those whose code ran, and the heavy
# stdlib modules that were loaded; json is imported only after the run.
_RAN_MODULES = """
import contextlib, io, os, sys
ran = set()
sys.setprofile(lambda frame, event, arg: ran.add(frame.f_code.co_filename))
import surgeryforge.cli as cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        cli.main(sys.argv[1:])
    except SystemExit:
        pass
sys.setprofile(None)
loaded = set(sys.modules)
import json
package = os.path.dirname(cli.__file__)
print(json.dumps({
    "loaded": sorted(name.split(".")[1] for name in loaded
                     if name.startswith("surgeryforge.")),
    "ran": sorted(os.path.basename(f)[:-3] for f in ran
                  if os.path.dirname(f) == package),
    "heavy": sorted({"dataclasses", "inspect", "argparse", "json", "gettext",
                     "locale"} & loaded)}))
"""
_LIBRARY = ("families", "normseq", "pentangle", "simpleknot", "tangle")


@pytest.mark.parametrize("argv, unused", [
    (["--help"], _LIBRARY),
    (["cf", "eval", "[3,2,2]"], _LIBRARY),
    (["lens", "homeo", "5", "2", "5", "3"], _LIBRARY),
    (["pentangle", "verify", "--bound", "2"],
     ("families", "normseq", "simpleknot")),
    (["families", "eval", "A", "2", "5"], ("pentangle",)),
    (["normseq", "reduce", "(2,3,4)"],
     ("families", "pentangle", "simpleknot", "tangle")),
    (["simpleknot", "star", "31"],
     ("families", "normseq", "pentangle", "tangle")),
    (["tangle", "two-bridge", "Q(1,2,3)"],
     ("families", "normseq", "pentangle", "simpleknot")),
    (["pentangle", "simplifies", "1", "2", "3", "4"],
     ("families", "normseq", "simpleknot")),
    (["pentangle", "simplifies", "--", "-1/2", "2", "3", "4"],
     ("families", "normseq", "simpleknot")),
    (["--format", "text", "cf", "eval", "[3,2,2]"], _LIBRARY),
    # usage errors
    (["cf", "bogus"], _LIBRARY),
    (["--format=text", "cf", "eval", "[1]"], _LIBRARY),
    (["pentangle", "verify", "--bound", "x"], _LIBRARY),
    (["cf", "-hh"], _LIBRARY)])
def test_command_runs_only_the_modules_it_uses(argv, unused):
    # every library module is imported, but a module's code runs only when
    # a command uses it; no argv, a usage error included, loads
    # dataclasses, inspect, argparse, json, gettext or locale, whose import
    # would cost more than most commands' own work
    out = json.loads(run_python("-c", _RAN_MODULES, *argv))
    assert set(out["loaded"]) >= set(_LIBRARY) | {"cli", "lens", "rationals"}
    assert "cli" in out["ran"]
    assert not set(unused) & set(out["ran"]), out["ran"]
    assert out["heavy"] == [], out["heavy"]


def test_lazy_module_is_the_imported_module():
    # a function set on a library module before its first use is the one
    # the handler calls
    out = run_python("-c", """
import surgeryforge.cli as cli
from surgeryforge import families
assert families is cli.families
families.gofklens_census = lambda tmax, seqmax: (
    {"entries": (), "witnesses": {}}, (("missing", "row"),))
print(cli.main(["families", "census"]))
""")
    report, code = out.splitlines()
    assert code == "1"
    assert json.loads(report)["counterexamples"] == [["missing", "row"]]


@pytest.mark.parametrize("argv", [["cf", "eval", "[3,2,2]"],
                                  ["families", "verify", "alt-gofk"]])
def test_tracer_wraps_every_module(tmp_path, argv):
    # perfbench/tracer.py counts calls to the functions of every package
    # module and leaves the CLI's stdout and exit code as they are
    trace = tmp_path / "trace.json"
    traced = subprocess.run(
        ["sh", "-c", 'exec "$@" 3>"$TRACE"', "sh", sys.executable,
         os.path.join(ROOT, "perfbench", "tracer.py"), *argv],
        env=dict(SRC_ENV, TRACE=str(trace)), capture_output=True, text=True)
    assert traced.returncode == 0
    assert traced.stdout == run_python("-m", "surgeryforge.cli", *argv)
    functions = json.loads(trace.read_text())["functions"]
    modules = {name[:-3] for name in os.listdir(PACKAGE_DIR)
               if name.endswith(".py") and name != "__init__.py"}
    assert {name.split(".")[0] for name in functions} == modules
    assert functions["cli.main"][0] == 1


def test_negative_fraction_positionals(capsys):
    code, plain = run(capsys, "pentangle", "simplifies", "-7/3", "1", "2", "3")
    assert code == 0
    code, dashed = run(capsys, "pentangle", "simplifies", "--", "-7/3", "1",
                       "2", "3")
    assert code == 0
    assert plain == dashed
    assert json.loads(plain)["parameters"]["filling"] == "P(-7/3,1,2,3)"


def _recorded_digests():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "digests.json")
    with open(path) as f:
        return json.load(f)


def test_reports_match_recorded_digests():
    # every report recorded in perfbench/digests.json, as "exit:sha256 of
    # stdout", is reproduced byte for byte
    digests = _recorded_digests()
    got = {}
    for key in digests:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(key.split())
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        got[key] = f"{code}:{digest}"
    assert got == digests


def test_recorded_commands_are_plain():
    # _read reads every command the benchmark records to its fields
    for key in _recorded_digests():
        assert cli._read(key.split()).command in COMMANDS, key


def _read_field(text, want):
    """A text or csv field read back: a string as it stands, any other
    value through json.loads."""
    return text if isinstance(want, str) else json.loads(text)


def _read_fields(pairs, want):
    return {key: _read_field(text, want[key]) for key, text in pairs}


def _assert_text_and_csv_read_back(capsys, argv):
    """argv's text and csv reports read back to its JSON report's
    parameters and results."""
    code, report = run_json(capsys, *argv)
    params, results = report["parameters"], report["results"]
    rows = results if isinstance(results, list) else [results]
    code, out = run(capsys, "--format", "text", *argv)
    head, *lines, tail = out.splitlines()
    assert (head, tail) == (f"# {report['command']}", "counterexamples: 0")
    assert _read_fields((line[2:].split(" = ", 1) for line in lines
                         if line.startswith("  ")), params) == params, argv
    lines = [line for line in lines if not line.startswith("  ")]
    if isinstance(results, list):
        assert list(map(json.loads, lines)) == results, argv
    else:
        assert _read_fields((line.split(": ", 1) for line in lines),
                            results) == results, argv
    code, out = run(capsys, "--format", "csv", *argv)
    header, *cells = csv.reader(io.StringIO(out))
    assert [_read_fields(zip(header, row), want)
            for row, want in zip(cells, rows)] == rows, argv
    assert len(cells) == len(rows), argv


def test_formats(capsys):
    code, out = run(capsys, "--format", "text", "simpleknot", "chi", "5",
                    "4", "2")
    assert code == 0 and "chi: -1" in out
    code, out = run(capsys, "--format", "csv", "families", "optsurg", "6", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "knot,lens"
    assert len(lines) == 3
    # a cell with a comma is quoted, and a nested field is a JSON cell
    assert run(capsys, "--format", "csv", "lens", "normalize", "7", "2") == (
        0, 'lens\n"L(7,2)"\n')
    # one csv row for a table-free report, the census and star at their
    # least bounds too
    for argv in (["families", "census", "--tmax", "2", "--seqmax", "3"],
                 ["families", "census", "--tmax", "-1", "--seqmax", "0"],
                 ["simpleknot", "star", "31"], ["simpleknot", "star", "2"]):
        code, out = run(capsys, "--format", "csv", *argv)
        assert code == 0
        header, row = csv.reader(io.StringIO(out))
        results = run_json(capsys, *argv)[1]["results"]
        assert dict(zip(header, map(json.loads, row))) == results
    # booleans, nulls, lists and tables print as JSON in text and csv, so
    # that every parameter, result and row reads back to the JSON report;
    # families eval keys its results by slope, not by string
    for argv in (["lens", "homeo", "7", "2", "7", "4"],
                 ["families", "optsurg", "1", "2"],
                 ["simpleknot", "star", "7", "--eps", "+1"],
                 ["pentangle", "simplifies", "1", "2", "3", "4"],
                 ["families", "verify", "alt-gofk"],
                 ["families", "fes-triple"],
                 ["families", "eval", "A", "3", "2"]):
        _assert_text_and_csv_read_back(capsys, argv)


def test_recorded_reports_read_back_in_text_and_csv(capsys):
    # every recorded report that exits 0 reads back from text and csv
    for key, digest in _recorded_digests().items():
        if digest.startswith("0:"):
            _assert_text_and_csv_read_back(capsys, key.split())


def test_no_timing_by_default(capsys):
    code, report = run_json(capsys, "simpleknot", "chi", "3", "1", "1")
    assert "elapsed_ms" not in report
    code, out = run(capsys, "--timing", "simpleknot", "chi", "3", "1", "1")
    assert "elapsed_ms" in json.loads(out)


def test_timing_in_every_format(capsys, monkeypatch):
    # --timing adds elapsed_ms in every format: text ends with it, and csv
    # ends with its header and value rows, after any counterexample rows;
    # the rest of the report keeps the bytes it has without --timing
    monkeypatch.setattr(cli, "time", types.SimpleNamespace(
        monotonic=itertools.count(step=0.25).__next__))
    row = families.CensusEntry(68, 15, 23)
    monkeypatch.setattr(families, "gofklens_census", lambda t, s: (
        {"entries": (), "witnesses": {}}, (("missing", row),)))
    for argv in (("lens", "normalize", "7", "2"), ("families", "census")):
        code, report = run_json(capsys, "--timing", *argv)
        assert report["elapsed_ms"] == 250
        for fmt, timing in (("text", "elapsed_ms: 250\n"),
                            ("csv", "elapsed_ms\n250\n")):
            plain = run(capsys, "--format", fmt, *argv)
            timed = run(capsys, "--format", fmt, "--timing", *argv)
            assert timed == (plain[0], plain[1] + timing), (argv, fmt)


def test_star_cli(capsys):
    code, report = run_json(capsys, "simpleknot", "star", "31")
    plus = report["results"]["eps=+1"]
    assert plus["raw"] == [{"k": 5, "q": 6}, {"k": 25, "q": 26}]
    minus = report["results"]["eps=-1"]
    assert minus["raw"] == [{"k": 13, "q": 17}, {"k": 19, "q": 11}]


def test_genus_search_cli(capsys):
    code, report = run_json(capsys, "simpleknot", "genus-search", "L(50,41)",
                            "17")
    assert code == 0 and report["results"]["knots"] == []
    code, report = run_json(capsys, "simpleknot", "genus-search", "L(5,4)", "1")
    assert "K(5,4,2)" in report["results"]["knots"]
    code, report = run_json(capsys, "simpleknot", "genus-search", "L(7,3)", "0")
    assert code == 0 and report["results"]["knots"] == ["K(7,3,1)", "K(7,3,3)"]


def _command_levels():
    """Each command prefix with the words below it, in table order; a
    command maps to None."""
    levels = {}
    for name in COMMANDS:
        words = tuple(name.split())
        for depth in range(len(words)):
            below = levels.setdefault(words[:depth], [])
            if words[depth] not in below:
                below.append(words[depth])
        levels[words] = None
    return levels


def _help_entries(out):
    """The first field of each argument line of a help text."""
    return [line.split()[0].rstrip(",") for line in out.splitlines()
            if line.startswith("  ") and not line[2].isspace()]


def _choices(err):
    """The words of the "(choose from w1, w2, ...)" list of an error."""
    start = err.rindex("(choose from ") + len("(choose from ")
    return err[start:err.rindex(")")].split(", ")


_LEVELS = _command_levels()


@pytest.mark.parametrize("prefix", _LEVELS,
                         ids=lambda prefix: " ".join(prefix) or "root")
def test_grammar_at_every_prefix(capsys, prefix):
    # -h lists a prefix's words or a command's arguments; an unknown word
    # is refused with every word of its level, also when a word of the
    # level follows it
    below = _LEVELS[prefix]
    with pytest.raises(SystemExit) as exit_:
        main([*prefix, "-h"])
    assert exit_.value.code == 0
    help_text = capsys.readouterr().out
    entries = _help_entries(help_text)
    if below is None:
        name = " ".join(prefix)
        assert sorted(entries) == sorted(
            ["-h"] + [flags[0] for flags, _ in COMMANDS[name][0]])
        return
    assert "{" + ",".join(below) + "}" in entries
    with pytest.raises(SystemExit):
        main([*prefix, "-h", below[-1]])
    assert capsys.readouterr().out == help_text
    for tail in ([], [below[-1]]):
        assert main([*prefix, "bogus", *tail]) == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'bogus'" in err and err.count("\n") == 1
        assert _choices(err) == below


@pytest.mark.parametrize("argv, plain", [
    (["cf", "-hh"], None),
    (["--form", "text", "-h"], None),
    (["lens", "homeo", "1", "-h"], ["lens", "homeo", "-h"])])
def test_help_flag_forms(capsys, argv, plain):
    # argparse prints help for all three; -hh and the prefix --form are not
    # the plain form, and exit 2 with one error line, while -h after an
    # argument prints the help of its level as the plain -h does
    if plain is None:
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (captured.err.startswith("error: ")
                and captured.err.count("\n") == 1)
        return
    helps = []
    for args in (argv, plain):
        with pytest.raises(SystemExit) as exit_:
            main(args)
        assert exit_.value.code == 0
        helps.append(capsys.readouterr().out)
    assert helps[0] == helps[1]


@pytest.mark.parametrize("arguments", [
    (cli._arg("params", nargs="+"), cli._arg("k")),
    (cli._arg("--x"), cli._arg("ell", nargs="?")),
    (cli._arg("--x", nargs="+"),)])
def test_variable_count_argument_is_last_and_alone(arguments):
    # _read gives arguments to positionals in order, which is how argparse
    # reads them only while a variable-count argument is the last argument
    # of a command without options
    with pytest.raises(TypeError):
        cli._command("bad entry", *arguments)


@pytest.mark.parametrize("keywords", [
    {"nargs": "*"}, {"type": float}, {"action": "count"}, {"metavar": "X"}])
def test_action_refuses_what_read_does_not_read(keywords):
    # a keyword or value that _read does not read as argparse does fails
    # when the table entry is built, at import
    for flags in (("value",), ("--value",)):
        with pytest.raises(TypeError):
            cli._Action(flags, keywords)


# Fields for the grammar fuzz: values of every kind the commands read, some
# malformed by construction (0/0, 2^[-1], 2^[x], L(4,2), a lone "(").
# Integers stay in -2..3, which caps every sweep and census bound at 3.
_FUZZ_INT = st.integers(-2, 3).map(str)
_FUZZ_SLOPE = (st.builds("{}/{}".format, st.integers(-3, 3),
                         st.integers(-1, 3)) | st.just("inf"))
_FUZZ_ITEM = _FUZZ_INT | st.sampled_from(("2^[-1]", "2^[0]", "2^[2]", "2^[x]",
                                          "2^[1000000000000000]",
                                          "2^[10000000000000000000]"))
_FUZZ_SEQ = st.lists(_FUZZ_ITEM, max_size=4).map(
    lambda xs: "(" + ",".join(xs) + ")")
_FUZZ_WORD = st.lists(_FUZZ_INT | _FUZZ_SLOPE, max_size=3).map(
    lambda xs: "[" + ",".join(xs) + "]")
_FUZZ_LENS = st.builds("L({},{})".format, st.integers(-1, 9),
                       st.integers(-3, 9))
_FUZZ_LINK = st.lists(_FUZZ_SLOPE, max_size=3).map(
    lambda xs: "Q(" + ",".join(xs) + ")")
_FUZZ_FIELD = st.one_of(
    _FUZZ_INT, _FUZZ_SLOPE, _FUZZ_SEQ, _FUZZ_WORD, _FUZZ_LENS, _FUZZ_LINK,
    st.sampled_from(("A", "B", "X0", "X1", "X2", "X3", "+1", "-1", "both",
                     "", "x", "1.5", "(", "[3,2", "L(7", "Q(")))
# The kind a field reads, by argument name, drawn half the time so that
# deep paths are reached; the other half draws a field of any kind.
_FUZZ_KINDS = {"seq": _FUZZ_SEQ, "prefix": _FUZZ_SEQ, "word": _FUZZ_WORD,
               "lens": _FUZZ_LENS, "link": _FUZZ_LINK, "value": _FUZZ_SLOPE,
               "slope": _FUZZ_SLOPE, "--x": _FUZZ_SLOPE}
_FUZZ_GLOBALS = st.sampled_from((
    [], [], [], ["--format", "text"], ["--format", "csv"], ["--timing"],
    ["--format", "xml"], ["--jobs", "2"]))
# Built once: a field per flag, and a count per positional's nargs
_FUZZ_FIELDS = {flags[0]: st.one_of(_FUZZ_KINDS.get(flags[0], _FUZZ_INT),
                                    _FUZZ_FIELD)
                for arguments, *_ in COMMANDS.values()
                for flags, _ in arguments}
_FUZZ_COUNTS = {None: st.integers(1, 1), "+": st.integers(1, 3),
                "?": st.integers(0, 1)}
_FUZZ_ARITY = st.sampled_from(("keep", "keep", "keep", "drop", "add"))
_VERIFICATION = ("pentangle verify", "families census", "families verify")


@st.composite
def _fuzz_argv(draw, name):
    """An argv for the command table entry name in the plain form's layout,
    with malformed fields (a slope such as -1/-1 is not even an argument of
    the plain form) and, at times, a field too few or too many."""
    argv = draw(_FUZZ_GLOBALS) + name.split()
    for flags, keywords in COMMANDS[name][0]:
        flag, field = flags[0], _FUZZ_FIELDS[flags[0]]
        if not flag.startswith("-"):
            count = draw(_FUZZ_COUNTS[keywords.get("nargs")])
            argv += [draw(field) for _ in range(count)]
        elif keywords.get("action") == "store_true":
            argv += [flag] if draw(st.booleans()) else []
        elif keywords.get("required") or draw(st.booleans()):
            argv += [flag, draw(field)]
    arity = draw(_FUZZ_ARITY)
    if arity == "drop":
        argv.pop()
    elif arity == "add":
        argv.append(draw(_FUZZ_FIELD))
    return argv


@pytest.mark.parametrize("name", sorted(COMMANDS))
@settings(max_examples=50)
@given(data=st.data())
def test_cli_grammar_fuzz(name, data):
    # every input gives a report (exit 0, or 1 for a verification that found
    # counterexamples) or one error line with exit 2, never a traceback
    argv = data.draw(_fuzz_argv(name), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    if code == 2:
        assert out.getvalue() == "", argv
        assert (err.getvalue().startswith("error: ")
                and err.getvalue().count("\n") == 1), argv
    if code == 1:
        assert name.startswith(_VERIFICATION), argv


def _parse_outcome(parse, argv):
    """What a parser makes of argv: its fields, its one error line, or the
    exit code and entries of the help it prints."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            fields = parse(list(argv))
        return "fields", vars(fields)
    except ValueError as exc:
        assert "\n" not in str(exc), argv
        return "error", f"error: {exc}"
    except SystemExit as exc:
        return "help", exc.code, _help_entries(out.getvalue())


@st.composite
def _parser_argv(draw, name):
    """A grammar fuzz argv for name, with options written as --opt=value
    or --opt=-- or shortened to a prefix, which argparse reads when it is
    unique, at times "--" after an option's value or at the end, and "--",
    -h, negative numbers and unknown options put in anywhere."""
    fuzz, argv = iter(draw(_fuzz_argv(name))), []
    for token in fuzz:
        if token.startswith("--") and draw(st.booleans()):
            token = token[:draw(st.integers(2, len(token)))]
            if draw(st.booleans()):
                token += "=" + draw(st.sampled_from((next(fuzz, ""), "--")))
        argv.append(token)
    flags = [i for i, token in enumerate(argv)
             if token.startswith("--") and "=" not in token]
    where = draw(st.sampled_from(("", "", "after a value", "at the end")))
    if where == "after a value" and flags:
        argv.insert(draw(st.sampled_from(flags)) + 2, "--")
    elif where == "at the end":
        argv.append("--")
    for _ in range(draw(st.integers(0, 2))):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(
            ("--", "-h", "--help", "-hh", "-hx", "-7/3", "-1.5", "-x",
             "-x y"))))
    return argv


@pytest.mark.parametrize("name", sorted(COMMANDS))
@settings(max_examples=100)
@given(data=st.data())
def test_parser_matches_argparse_oracle(name, data):
    # fields _read reads are those of the argparse parser, and help both
    # print has the same entries and exit 0; _read prints help where
    # argparse refuses an argv only when it holds -h or --help, and refuses
    # every other argv with one error line.  A plain argv it reads, refuses
    # or answers with help as argparse does.
    plain = data.draw(st.booleans(), label="plain")
    argv = data.draw(_fuzz_argv(name) if plain
                     else st.just([]) | _parser_argv(name), label="argv")
    oracle = _parse_outcome(cli_oracle.PARSER.parse_args, argv)
    got = _parse_outcome(cli._read, argv)
    if plain:
        assert got[0] == oracle[0], argv
    if got[0] == "help":
        assert got[1] == 0
        assert got == oracle or (oracle[0] == "error"
                                 and {"-h", "--help"} & set(argv)), argv
    elif got[0] == "fields":
        assert got == oracle, argv


_JSON_TEXT = st.text(st.characters() | st.sampled_from('"\\\n\x00\x7fé😀'),
                     max_size=6)
_LENS = st.tuples(st.integers(-30, 30), st.integers(-30, 30)).filter(
    lambda pq: math.gcd(*pq) == 1).map(lambda pq: LensSpace(*pq))
_SLOPES = st.tuples(st.integers(-30, 30), st.integers(0, 9)).filter(
    any).map(lambda ab: rat(*ab))
_KEYS = (_JSON_TEXT | st.integers() | _SLOPES | _LENS
         | st.builds(families.CensusEntry, *[st.integers(-9, 99)] * 3))
_REPORT_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | _JSON_TEXT | _SLOPES | _LENS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.lists(st.tuples(_KEYS, inner), max_size=4,
                              unique_by=lambda item: str(item[0])).map(dict)),
    max_leaves=12)


@settings(max_examples=300)
@given(_REPORT_VALUES)
def test_compact_matches_json_dumps(value):
    # the report writers print a handler value as they printed its
    # _jsonable copy, escapes included: _compact as json.dumps of the copy,
    # and _cell as the copy itself when a string, else as its compact JSON
    copy = cli_oracle._jsonable(value)
    dumped = json.dumps(copy, sort_keys=True, separators=(",", ":"))
    assert cli._compact(value) == dumped
    assert cli._cell(value) == (copy if isinstance(copy, str) else dumped)
