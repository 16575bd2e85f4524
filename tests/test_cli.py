import contextlib
import functools
import io
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from orthoapart import apartments, cli, serialize
from orthoapart.apartments import (
    MAX_TRANSFER_STATES,
    Labeling,
    pair_cells,
    slot_transfer,
    standard_apartment,
)
from orthoapart.compatibility import MAX_REFINE_WORK, Frame, check_refine_work
from orthoapart.cli import (
    cmd_counterexample,
    cmd_refine,
    cmd_scan_boundary,
    cmd_verify_lemma3,
    cmd_verify_lemma4,
    main,
)
from orthoapart.errors import OrthoapartError, ThresholdViolation
from orthoapart.rigidity import MAX_BLOCKS
from orthoapart.operators import ClassDescriptor
from fractions import Fraction

import util
from util import (
    compositions,
    member_pairs,
    oracle_scan_boundary,
    oracle_verify_lemma3,
    oracle_verify_lemma4,
)


def cls_of(n, dims):
    alphas = tuple(Fraction(i + 1) for i in range(len(dims)))
    return ClassDescriptor(n, alphas, dims)


def test_verify_lemma3_small():
    report = cmd_verify_lemma3(cls_of(6, (1, 1)))
    assert report["violations"] == []
    assert report["orthogonal_pairs"] == report["orthogonal_pairs_with_k_squared"] > 0


def test_verify_lemma3_refuses_tight_dimension():
    with pytest.raises(OrthoapartError):
        cmd_verify_lemma3(cls_of(4, (1, 1)))  # n = 2k


def test_verify_lemma4_small():
    report = cmd_verify_lemma4(cls_of(8, (1, 1)))
    assert report["violations"] == []
    assert report["pairs_checked"] == report["members"] * (report["members"] - 1) // 2


def test_verify_lemma4_threshold():
    with pytest.raises(ThresholdViolation):
        cmd_verify_lemma4(cls_of(11, (1, 2)))


def test_scan_boundary_reports_c_equality():
    report = cmd_scan_boundary((1, 2), (Fraction(1), Fraction(2)), (10, 10))
    (entry,) = report["entries"]
    assert entry["m_star"] == "1"
    assert entry["m_star_integral"]
    assert entry["c0"] == entry["c_at_m_star"] == "9"
    assert entry["c0_equals_c_m_star"]
    assert isinstance(entry["nonorthogonal_pairs_with_k_squared"], int)


def test_scan_boundary_non_integral_m():
    report = cmd_scan_boundary((1, 1), (Fraction(1), Fraction(2)), (7, 7))
    (entry,) = report["entries"]
    assert not entry["m_star_integral"]
    assert entry["c_at_m_star"] is None


def test_scan_boundary_malformed_n_range(capsys):
    for bad in ("5", "5:6:7", "a:b"):
        args = ["scan-boundary", "--alphas", "1,2", "--dims", "1,2", "--n-range", bad]
        assert main(args) == 2
        assert "lo:hi" in capsys.readouterr().err


def test_scan_boundary_huge_range_is_clipped(capsys):
    args = ["scan-boundary", "--alphas", "1,2", "--dims", "1,2", "--n-range"]
    start = time.perf_counter()
    assert main(args + ["0:10000000000"]) == 0
    assert time.perf_counter() - start < 1
    huge = capsys.readouterr()
    assert main(args + ["7:11"]) == 0
    assert capsys.readouterr() == huge


def test_scan_boundary_empty_range():
    with pytest.raises(OrthoapartError):
        cmd_scan_boundary((1, 2), (Fraction(1), Fraction(2)), (20, 25))


def test_counterexample_reports():
    orth = cmd_counterexample("orth", cls_of(4, (1, 1)))
    assert orth["preserves"]["orthogonal"]
    assert orth["witness"] is not None
    comm = cmd_counterexample("comm", cls_of(4, (1, 1)))
    assert comm["preserves"]["commute"]
    assert {comm["witness"]["lhs"], comm["witness"]["rhs"]} == {"1", "2"}
    # members 0 = (0,1,1,-,...) and 1 = (0,1,-,1,...); the swap sends 0 to (1,1,0,-,...)
    big = cmd_counterexample("orth", cls_of(12, (1, 2)))
    assert big["domain_size"] == 660
    assert big["preserves"] == {"orthogonal": True, "commute": True}
    assert big["witness"] == {"s": 0, "t": 1, "lhs": "5", "rhs": "6"}


def test_counterexample_materializes_no_operator(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("the certificate materialized an operator")

    monkeypatch.setattr(Labeling, "to_operator", boom)
    monkeypatch.setattr(Frame, "__init__", boom)
    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "orthoapart"]:
        for name in (
            "materialize", "commutes", "orthogonal",
            "split_into_lines", "span_sum", "projection_of", "orthogonal_columns",
            "gram_schmidt", "projection_matrix",
        ):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, boom)
    for name, dims in (("orth", (1, 2)), ("comm", (2, 2))):
        report = cmd_counterexample(name, cls_of(6, dims))
        assert report["preserves"] == {"orthogonal": True, "commute": True}
        assert report["witness"] is not None


@pytest.mark.parametrize("name, n, dims, blocks", [("orth", 9, "1,1,1,1,1,1,1,1", 362880),
                                                   ("orth", 10 ** 9, "1,1,1,1,1,1,1,1", 9 ** 8),
                                                   ("comm", 10, "4,4", 3150),
                                                   ("comm", 2 * 10 ** 6, "1000000,1000000", None),
                                                   ("comm", 10 ** 5, "50000,50000", None),
                                                   pytest.param("orth", 2000, ",".join(["1"] * 2000), None,
                                                                id="orth-2000-1x2000-None"),
                                                   # b's check is O(k), before the bound is read
                                                   pytest.param("orth", 20000, ",".join(["1"] * 20000), None,
                                                                id="orth-20000-1x20000-None")])
def test_counterexample_refuses_too_many_blocks(name, n, dims, blocks, capsys):
    # the witness walk may visit min(M, (m + 1)^k) blocks, checked before it
    # starts; comm 4,4 is accepted at n = 9 (630 members).  Past MAX_BLOCKS^3
    # the count is not computed, since M and (m + 1)^k may have millions of digits
    blocks = f"more than {MAX_BLOCKS ** 3}" if blocks is None else blocks
    alphas = ",".join(str(i + 1) for i in range(dims.count(",") + 1))
    start = time.perf_counter()
    assert main(["counterexample", name, "--n", str(n), "--alphas", alphas, "--dims", dims]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"the witness walk may visit {blocks} blocks" in captured.err
    assert f"over the limit {MAX_BLOCKS}" in captured.err
    assert main(["counterexample", "comm", "--n", "9", "--alphas", "1,2", "--dims", "4,4"]) == 0


@pytest.mark.parametrize("n", [1000, 10 ** 9])
def test_counterexample_at_large_n(n, capsys):
    start = time.perf_counter()
    assert main(["counterexample", "orth", "--n", str(n), "--alphas", "1,2", "--dims", "1,1"]) == 0
    assert time.perf_counter() - start < 1
    report = json.loads(capsys.readouterr().out)
    assert report["domain_size"] == n * (n - 1)
    assert report["witness"] == {"s": 0, "t": 1, "lhs": "1", "rhs": "2"}


def test_counterexample_slowest_accepted_swap(capsys):
    # dims 1999,1 at n = 2000 has M = 2000 blocks, at MAX_BLOCKS, and no
    # witness, so the walk visits every block of 2000 lines
    start = time.perf_counter()
    assert main(["counterexample", "orth", "--n", "2000", "--alphas", "1,2", "--dims", "1999,1"]) == 0
    assert time.perf_counter() - start < 2
    report = json.loads(capsys.readouterr().out)
    assert report["domain_size"] == 2000
    assert report["witness"] is None


def test_cli_end_to_end(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        [
            "verify-lemma3",
            "--n",
            "6",
            "--alphas",
            "1,2",
            "--dims",
            "1,1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["command"] == "verify-lemma3"
    assert report["violations"] == []
    assert "OK" in capsys.readouterr().out


def test_cli_deterministic_reports(tmp_path):
    args = ["verify-lemma4", "--n", "8", "--alphas", "1,2", "--dims", "1,1"]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_config_error_exit_code(capsys):
    assert main(["verify-lemma4", "--n", "11", "--alphas", "1,2", "--dims", "1,2"]) == 2
    assert main(["verify-lemma3", "--n", "6", "--alphas", "1,1", "--dims", "1,1"]) == 2
    # bad dims are named as such, before any scan range is clipped
    for argv, message in (
        (["scan-boundary", "--n-range", "1:10", "--alphas", "1,2", "--dims", "1,-2"],
         "eigenspace dimensions must be positive"),
        (["scan-boundary", "--n-range", "1:10", "--alphas", "1,2", "--dims", ","], "--dims"),
        (["verify-lemma3", "--n", "6", "--alphas", "1,2", "--dims", ","], "--dims"),
        (["verify-lemma3", "--n", "6", "--alphas", ",", "--dims", "1,1"], "--alphas"),
        # the swaps' preconditions on the class
        (["counterexample", "comm", "--n", "4", "--alphas", "1,2", "--dims", "1,2"],
         "two eigenvalues of equal dimension"),
        (["counterexample", "comm", "--n", "4", "--alphas", "1,2,3", "--dims", "1,1,1"],
         "two eigenvalues of equal dimension"),
        (["counterexample", "orth", "--n", "4", "--alphas", "1", "--dims", "2"],
         "single-eigenvalue class"),
    ):
        capsys.readouterr()
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err, (argv, captured.err)


# a valid argv of each subcommand, and the options it does not read
VALID_ARGV = {
    "verify-lemma3": ["--n", "6", "--alphas", "1,2", "--dims", "1,1"],
    "verify-lemma4": ["--n", "8", "--alphas", "1,2", "--dims", "1,1"],
    "scan-boundary": ["--alphas", "1,2", "--dims", "1,2", "--n-range", "7:8"],
    "counterexample": ["orth", "--n", "4", "--alphas", "1,2", "--dims", "1,1"],
    "refine": ["family.json"],
    "inexact": ["members.json"],
}
UNREAD = [("verify-lemma3", "--seed"), ("verify-lemma4", "--seed"), ("scan-boundary", "--seed"),
          ("counterexample", "--seed"), ("refine", "--seed"), ("inexact", "--seed"),
          ("scan-boundary", "--frame"), ("counterexample", "--frame"), ("refine", "--frame"),
          ("scan-boundary", "--n"), ("inexact", "--n"),
          ("refine", "--alphas"), ("refine", "--dims"), ("inexact", "--alphas"), ("inexact", "--dims")]


@pytest.mark.parametrize("command, option", UNREAD)
def test_unread_options_are_rejected(command, option, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command] + VALID_ARGV[command] + [option, "1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert option in captured.err


@pytest.mark.parametrize("command, option", [
    (command, name) for command, (names, _) in cli.COMMANDS.items()
    for name in names + ("--out",) if name.startswith("--")])
def test_option_given_double_dash_is_an_input_error(command, option, tmp_path, monkeypatch, capsys):
    """argparse before 3.13 reads --name=-- as the list [], which main
    refuses; 3.13 reads the text --, which only --out takes, as a file name."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "family.json").write_text(json.dumps([[["1", "0"]]]))
    (tmp_path / "members.json").write_text(json.dumps(
        {"class": {"n": 4, "alphas": ["1"], "dims": [1]}, "members": [[0, None, None, None]]}))
    try:
        code = main([command] + VALID_ARGV[command] + [f"{option}=--"])
    except SystemExit as exc:
        code = exc.code
    if option == "--out" and sys.version_info >= (3, 13):
        assert code == 0 and (tmp_path / "--").is_file()
    else:
        assert code == 2 and "error: " in capsys.readouterr().err


def test_cli_refine_and_incompatible(tmp_path, capsys):
    family = [
        [["1", "0", "0", "0"], ["0", "1", "0", "0"]],
        [["0", "1", "0", "0"], ["0", "0", "1", "0"]],
    ]
    path = tmp_path / "family.json"
    path.write_text(json.dumps(family))
    out = tmp_path / "frame.json"
    assert main(["refine", str(path), "--out", str(out)]) == 0
    frame = json.loads(out.read_text())["frame"]
    assert frame["n"] == 4
    assert len(frame["lines"]) == 4

    bad = [[["1", "0"]], [["1", "1"]]]
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad))
    capsys.readouterr()  # drop output of the successful run
    assert main(["refine", str(bad_path)]) == 1
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["error"] == "incompatible_family"
    assert payload["pair"] == [0, 1]


def test_cli_refine_mixed_ambient_dimensions(tmp_path, capsys):
    family = [[["1", "0", "0"]], [["0", "1", "0", "0"]]]
    path = tmp_path / "family.json"
    path.write_text(json.dumps(family))
    assert main(["refine", str(path)]) == 2
    captured = capsys.readouterr()
    assert "ambient dimension" in captured.err
    assert captured.out == ""


def test_cli_inexact(tmp_path):
    data = {
        "class": {"n": 6, "alphas": ["1", "2"], "dims": [1, 1]},
        "members": [[0, 1, None, None, None, None], [None, 0, 1, None, None, None]],
    }
    path = tmp_path / "members.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "decision.json"
    assert main(["inexact", str(path), "--out", str(out)]) == 0
    decision = json.loads(out.read_text())
    assert decision["inexact"] is True
    assert decision["witness"] is not None


def test_inexact_builds_no_frame(tmp_path, capsys):
    path = tmp_path / "members.json"
    path.write_text(json.dumps({"class": {"n": 400, "alphas": [], "dims": []}, "members": []}))
    start = time.perf_counter()
    assert main(["inexact", str(path)]) == 0
    assert time.perf_counter() - start < 1
    decision = json.loads(capsys.readouterr().out)
    assert decision["inexact"] is True
    assert decision["witness"] == [0, 1]


def test_inexact_without_members_is_bounded(tmp_path, capsys):
    path = tmp_path / "members.json"
    path.write_text(json.dumps({"class": {"n": 10 ** 9, "alphas": [], "dims": []}, "members": []}))
    start = time.perf_counter()
    assert main(["inexact", str(path)]) == 0
    assert time.perf_counter() - start < 1
    decision = json.loads(capsys.readouterr().out)
    assert decision["inexact"] is True
    assert decision["witness"] == [0, 1]


def test_cmd_refine_empty_family_needs_n(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("[]")
    assert main(["refine", str(path)]) == 2
    out = tmp_path / "frame.json"
    assert main(["refine", str(path), "--n", "3", "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["frame"]["lines"]) == 3


@pytest.mark.parametrize("family", [[], [[["1", "0"]]]])
def test_refine_refuses_a_negative_n(family, tmp_path, capsys):
    # refused before any frame is built, empty family or not
    path = tmp_path / "family.json"
    path.write_text(json.dumps(family))
    for argv in (["--n", "-1"], ["--n=-1"]):
        assert main(["refine", str(path)] + argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the ambient dimension --n must be nonnegative, got -1\n"


@pytest.mark.parametrize("family, argv, n, f", [
    ([[["1"] * 1000]], [], 1000, 1),
    ([], ["--n", "1000"], 1000, 0),
    ([[]], ["--n", "1000"], 1000, 1),
    ([[["1"]], [["1"] * 1000]], [], 1000, 2),  # refused before member 1 is built
    ([[["1"] * 465]], [], 465, 1),
])
def test_refine_refuses_work_over_the_bound(family, argv, n, f, tmp_path, capsys):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(family))
    start = time.perf_counter()
    assert main(["refine", str(path)] + argv) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"f={f} members in dimension n={n} needs about (f + min(n, 2^f))*n^3 refine " \
           f"steps, over the limit {MAX_REFINE_WORK}" in captured.err


def test_refine_bound_admits_n_120_with_16_members():
    """Each member at most doubles the blocks, so few members in a large space pass."""
    for n, f in ((120, 16), (120, 53), (132, 1), (464, 1), (669, 0), (200, 5)):
        check_refine_work(n, f)
    for n, f in ((120, 54), (465, 1), (670, 0), (200, 6), (10, 10**9)):
        with pytest.raises(OrthoapartError, match="over the limit"):
            check_refine_work(n, f)


GOLDEN = os.path.join(os.path.dirname(__file__), "data", "refine_golden.json")


def test_refine_reports_match_parent_golden(tmp_path, capsys):
    """Refine reports recorded from the Fraction-entry matrix kernel: real
    rotated frames, complex families, zero, full and empty members, and
    incompatible or mismatched families.  Each family is refined to stdout
    and with --out, and the exit code, both streams and the report file
    must match byte for byte."""
    with open(GOLDEN) as fh:
        cases = json.load(fh)
    family, out = tmp_path / "family.json", tmp_path / "report.json"
    for case in cases:
        family.write_text(json.dumps(case["family"]))
        code = main(["refine", str(family)] + case["args"])
        captured = capsys.readouterr()
        got = {"exit": code, "stdout": captured.out, "stderr": captured.err}
        assert got == case["stdout"], case["name"]

        if out.exists():
            out.unlink()
        code = main(["refine", str(family), "--out", str(out)] + case["args"])
        captured = capsys.readouterr()
        got = {"exit": code, "stdout": captured.out.replace(str(out), "{out}"),
               "stderr": captured.err, "report": out.read_text() if out.exists() else None}
        assert got == case["out"], case["name"]


USAGE_GOLDEN = os.path.join(os.path.dirname(__file__), "data", "cli_usage_golden.json")


def test_cli_surface_matches_parent_golden(tmp_path):
    """Usage, help and argparse errors, and one valid run per subcommand,
    recorded from `python -m orthoapart.cli` before the parser was built per
    call.  Each case runs in a fresh process, so main(None) reads sys.argv,
    with the golden's input files in its working directory; the exit code,
    both streams and any --out report must match byte for byte.  Python
    3.13 wraps argparse usage lines differently: a case's "python3.13"
    fields hold the bytes recorded with Python 3.13.0."""
    with open(USAGE_GOLDEN) as fh:
        golden = json.load(fh)
    for name, body in golden["files"].items():
        (tmp_path / name).write_text(json.dumps(body))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src, COLUMNS="80")
    report = tmp_path / "report.json"
    for case in golden["cases"]:
        if report.exists():
            report.unlink()
        proc = subprocess.run([sys.executable, "-m", "orthoapart.cli", *case["args"]],
                              cwd=tmp_path, env=env, capture_output=True, text=True)
        got = {"exit": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr,
               "report": report.read_text() if report.exists() else None}
        want = {key: case[key] for key in got}
        if sys.version_info >= (3, 13):
            want.update(case.get("python3.13", {}))
        assert got == want, case["name"]


def test_cli_import_is_lean():
    """A fresh interpreter importing the CLI loads none of the introspection
    modules that dataclasses pulls in, and running a well-formed command
    loads no argparse (nor the gettext and locale it uses): main reads that
    command from the tables.  What site already loaded is not counted."""
    code = ("import json, sys; before = set(sys.modules); import orthoapart.cli; "
            "imported = set(sys.modules) - before; orthoapart.cli.main(sys.argv[1:]); "
            "print(json.dumps([sorted(imported), sorted(set(sys.modules) - before)]), file=sys.stderr)")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run([sys.executable, "-c", code, "verify-lemma3", *VALID_ARGV["verify-lemma3"]],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    imported, ran = (set(names) for names in json.loads(proc.stderr.splitlines()[-1]))
    assert "orthoapart.cli" in imported
    assert not imported & {"dataclasses", "inspect", "ast", "dis", "tokenize"}
    assert not ran & {"argparse", "gettext", "locale"}


# ---------------------------------------------------------------------------
# the table read against argparse

# a valid value of each argument
TABLE_VALUES = {"name": "orth", "family": "family.json", "members": "members.json", "--n": "6",
                "--alphas": "1,2", "--dims": "1,1", "--frame": "frame.json", "--n-range": "5:7",
                "--out": "report.json"}
ARGV_VALUES = ["", "-3", "-1,2", " 7", "1_0", "a b", "orth", "x", "--", "6", "5:7", "="]
ARGV_OPTIONS = [name for name in cli.ARGUMENTS if name.startswith("--")] + ["--alph", "--n-r"]


@functools.lru_cache(maxsize=None)
def _full_parser():
    return cli.build_parser()


def _argparse_reads(argv):
    """vars() of the full parser's namespace, or None where argparse exits."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return vars(_full_parser().parse_args(argv))
    except SystemExit:
        return None


@st.composite
def argvs(draw):
    """A first token, then either random tokens or a subcommand's own
    arguments in random order and form, some repeated."""
    option = st.sampled_from(ARGV_OPTIONS)
    value = st.sampled_from(ARGV_VALUES)
    if draw(st.booleans()):
        first = draw(st.sampled_from(list(cli.COMMANDS) + ["bogus", "-h"]))
        token = st.one_of(option, value, st.sampled_from(["--", "-h", "--help"]),
                          st.builds("{}={}".format, option, value))
        return [first] + draw(st.lists(token, max_size=8))
    command = draw(st.sampled_from(list(cli.COMMANDS)))
    names = draw(st.lists(st.sampled_from(cli.COMMANDS[command][0] + ("--out",)), max_size=7))
    rest = []
    for name in names:
        v = draw(st.one_of(st.just(TABLE_VALUES[name]), value))
        if not name.startswith("-"):
            rest.append(v)
        elif draw(st.booleans()):
            rest.append(f"{name}={v}")
        else:
            rest += [name, v]
    return [command] + rest


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(argvs())
def test_table_read_agrees_with_argparse(argv):
    read = cli._read_args(argv)
    assert read is None or vars(read) == _argparse_reads(argv), argv


def test_table_reads_every_well_formed_command():
    """So that a read declining everything cannot pass the test above:
    each subcommand with every subset of its options, in both forms, with
    its positionals first or last."""
    # only the "=" form takes a value starting with -, as the bench's --alphas do
    forms = (lambda name: [name, TABLE_VALUES[name]],
             lambda name: [f"{name}={'-1,2' if name == '--alphas' else TABLE_VALUES[name]}"])
    read = 0
    for command, (names, _) in cli.COMMANDS.items():
        names += ("--out",)
        positionals = [TABLE_VALUES[name] for name in names if not name.startswith("-")]
        required = [name for name in names if cli.ARGUMENTS[name].get("required")]
        optional = [name for name in names if name.startswith("-") and name not in required]
        for size in range(len(optional) + 1):
            for subset in itertools.combinations(optional, size):
                for form in forms:
                    options = [token for name in required + list(subset) for token in form(name)]
                    for argv in ([command, *positionals, *options], [command, *options, *positionals]):
                        table = cli._read_args(argv)
                        assert table is not None, argv
                        assert vars(table) == _argparse_reads(argv), argv
                        read += 1
    # two forms, two places for the positionals, 2^(optional options) subsets
    assert read == 2 * 2 * (32 + 32 + 8 + 16 + 4 + 4)


def test_readme_python_blocks_run(capsys):
    """The README's python blocks run as written, so the documented API
    cannot drift from the package."""
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme) as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.strip().isdigit()


# ---------------------------------------------------------------------------
# the one-row label scan against the exhaustive pair walk

def report_bytes(report):
    return json.dumps(report, indent=2, sort_keys=True)


def small_classes(max_pairs=2_000_000):
    """Every class with k <= 4 and 2k < n <= 4k + 2 of at most max_pairs
    member pairs."""
    for k in range(1, 5):
        for dims in compositions(k):
            for n in range(2 * k + 1, 4 * k + 3):
                members = math.perm(n, k) // math.prod(math.factorial(d) for d in dims)
                if math.comb(members, 2) <= max_pairs:
                    yield cls_of(n, dims)


def test_label_reports_match_pair_walk_oracle():
    lemma4_classes = 0
    for cls in small_classes():
        assert report_bytes(cmd_verify_lemma3(cls)) == report_bytes(oracle_verify_lemma3(cls)), cls
        if cls.n >= 4 * cls.rank:
            lemma4_classes += 1
            assert report_bytes(cmd_verify_lemma4(cls)) == report_bytes(oracle_verify_lemma4(cls)), cls
    assert lemma4_classes > 0


def test_scan_boundary_matches_pair_walk_oracle():
    ranges = [
        ((1,), (1, 5)),
        ((2,), (5, 7)),
        ((3,), (7, 11)),
        ((4,), (9, 15)),
        ((1, 2), (7, 11)),
        ((1, 2), (10, 10)),
        ((2, 2), (9, 11)),
        ((1, 1, 1), (7, 11)),
    ]
    found = set()
    for dims, n_range in ranges:
        alphas = tuple(Fraction(i + 1) for i in range(len(dims)))
        got = cmd_scan_boundary(dims, alphas, n_range)
        assert report_bytes(got) == report_bytes(oracle_scan_boundary(dims, alphas, n_range)), dims
        found.update(e["nonorthogonal_pairs_with_k_squared"] > 0 for e in got["entries"])
    assert found == {True, False}  # ranges with and without hits


def test_scan_boundary_matches_per_n_transfer():
    # every composition of k <= 5 over its whole range 2k < n < 4k, 15
    # entries with two or three hit cells: the count and the first pair
    # against the transfer run again at each n, whose first indices are
    # minimized directly
    several = 0
    for k in range(1, 6):
        for dims in compositions(k):
            alphas = tuple(Fraction(i + 1) for i in range(len(dims)))
            for entry in cmd_scan_boundary(dims, alphas, (1, 4 * k))["entries"]:
                cls = ClassDescriptor(entry["n"], alphas, dims)
                cells = util.oracle_pair_cells(cls).items()
                hits = sorted((f, w) for (m, count), (w, f) in cells if m != 0 and count == k * k)
                members = math.perm(cls.n, k) // math.prod(map(math.factorial, dims))
                assert entry["nonorthogonal_pairs_with_k_squared"] == sum(w for _, w in hits) * members // 2
                assert entry["first_such_pair"] == ([0, hits[0][0]] if hits else None), (dims, cls.n)
                several += len(hits) > 1
    assert several == 15


def test_label_commands_at_large_n(capsys):
    # the table count does not grow with n, so M = 124,992 and M ~ 8e16 are quick
    for argv in (["verify-lemma3", "--n", "64", "--alphas", "1,2", "--dims", "1,2"],
                 ["verify-lemma4", "--n", "1000", "--alphas", "1,2,3", "--dims", "1,2,3"]):
        start = time.perf_counter()
        assert main(argv) == 0
        assert time.perf_counter() - start < 1, argv
        report = json.loads(capsys.readouterr().out)
        assert report["violations"] == []
        n, dims = report["n"], report["class"]["dims"]
        members = math.perm(n, sum(dims)) // math.prod(math.factorial(d) for d in dims)
        assert report["members"] == members
        assert report["pairs_checked"] == math.comb(members, 2)
        if "counts_histogram" in report:
            cells = [f for hist in report["counts_histogram"].values() for _, f in hist]
            assert sum(cells) == report["pairs_checked"]


WIDE = ["--alphas", "1,2,3,4,5,6,7,8", "--dims", "1,1,1,1,1,1,1,1"]


def run_quickly(argv, capsys) -> dict:
    start = time.perf_counter()
    assert main(argv) == 0
    assert time.perf_counter() - start < 2, argv
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("command, n", [("verify-lemma3", 17), ("verify-lemma4", 32)])
def test_label_commands_on_wide_partitions(command, n, capsys):
    # eight one-dimensional slots give 1.44M joint tables, which took about a
    # minute to list; the transfer keeps at most 2^8 + 1 states per row
    report = run_quickly([command, "--n", str(n)] + WIDE, capsys)
    assert report["violations"] == []
    members = math.perm(n, 8)
    assert report["members"] == members
    assert report["pairs_checked"] == math.comb(members, 2)
    if "counts_histogram" in report:
        cells = [f for hist in report["counts_histogram"].values() for _, f in hist]
        assert sum(cells) == report["pairs_checked"]


def test_scan_boundary_on_wide_partitions(capsys):
    report = run_quickly(["scan-boundary", "--n-range", "17:20"] + WIDE, capsys)
    assert [e["n"] for e in report["entries"]] == [17, 18, 19, 20]
    for entry in report["entries"]:
        lemma3 = cmd_verify_lemma3(cls_of(entry["n"], (1,) * 8))
        hits = sum(f for m, hist in lemma3["counts_histogram"].items() if m != "0"
                   for count, f in hist if count == 64)
        assert entry["nonorthogonal_pairs_with_k_squared"] == hits
        assert (entry["first_such_pair"] is None) == (hits == 0)


SIXTEEN = ["--alphas", ",".join(str(a) for a in range(1, 17)), "--dims", ",".join(["1"] * 16)]


@pytest.mark.parametrize("argv", [["verify-lemma3", "--n", "33"], ["verify-lemma4", "--n", "64"],
                                  ["scan-boundary", "--n-range", "33:63"]])
def test_label_commands_refuse_too_many_transfer_states(argv, capsys):
    # sixteen one-dimensional slots need 2^16 states per row, over the limit;
    # the commands say so before the transfer starts
    start = time.perf_counter()
    assert main(argv + SIXTEEN) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"65536 transfer states (the product of d + 1), over the limit {MAX_TRANSFER_STATES}" \
        in captured.err


def test_scan_boundary_reads_one_transfer_for_the_range(capsys):
    # dims 7,7,7 have 512 transfer states and 41 values of n in 2k < n < 4k;
    # a transfer run again at each n took 22.8 s
    argv = ["scan-boundary", "--alphas", "1,2,3", "--dims", "7,7,7", "--n-range", "1:1000"]
    start = time.perf_counter()
    assert main(argv) == 0
    assert time.perf_counter() - start < 5
    report = json.loads(capsys.readouterr().out)
    assert [e["n"] for e in report["entries"]] == list(range(43, 84))


@pytest.mark.parametrize("argv", [["verify-lemma3", "--n", "9"], ["verify-lemma4", "--n", "16"],
                                  ["scan-boundary", "--n-range", "9:15"]])
def test_label_commands_run_one_transfer(argv, monkeypatch, capsys):
    calls = []

    def counted(dims):
        calls.append(dims)
        return slot_transfer(dims)

    monkeypatch.setattr(apartments, "slot_transfer", counted)
    monkeypatch.setattr(cli, "slot_transfer", counted)
    assert main(argv + ["--alphas", "1,2", "--dims", "2,2"]) == 0
    assert calls == [(2, 2)]
    assert json.loads(capsys.readouterr().out)["violations"] == []


def assert_listed_by_cell(cls, got, bad_pairs):
    """`got` has one entry per (overlap, count) cell of the oracle's bad
    pairs, in first-pair order, each with the cell's first pair and size.
    Returns the cells in that order."""
    groups = {}
    bad = {tuple(p) for p in bad_pairs}
    for s, t, m, count in member_pairs(cls):
        if (s, t) in bad:
            first, size = groups.get((m, count), ([s, t], 0))
            groups[m, count] = (first, size + 1)
    cells = sorted(groups, key=lambda cell: groups[cell][0])
    assert [e["pair"] for e in got] == [groups[cell][0] for cell in cells]
    assert [e["pairs"] for e in got] == [groups[cell][1] for cell in cells]
    assert sum(e["pairs"] for e in got) == len(bad_pairs)
    return cells


def test_lemma3_violations_listed_like_the_oracle(monkeypatch):
    # no class violates the bound; raised at m = 0, every orthogonal pair
    # does: one entry per bad (m, count) cell, keyed by its first pair
    def raised(k, m, n):
        return (k - m) ** 2 + m * (n - 2 * k + m) + (m == 0)

    monkeypatch.setattr(cli, "lemma3_bound", raised)
    monkeypatch.setattr(util, "lemma3_bound", raised)
    for cls in (cls_of(7, (1, 2)), cls_of(9, (1, 1, 1)), cls_of(8, (3,))):
        got, want = cmd_verify_lemma3(cls), oracle_verify_lemma3(cls)
        assert 0 < len(got["violations"]) < got["pairs_checked"]
        cells = assert_listed_by_cell(cls, got["violations"], [v["pair"] for v in want["violations"]])
        assert [(e["m"], e["count"], e["bound"]) for e in got["violations"]] == [
            (m, count, raised(cls.rank, m, cls.n)) for m, count in cells]
        got.pop("violations"), want.pop("violations")
        assert report_bytes(got) == report_bytes(want)


def test_every_cell_listed_in_first_pair_order(monkeypatch):
    # a bound over every count makes every pair a violation: one entry per
    # (m, count) cell, in the order of the cells' first pairs, which the
    # commands read off the cells' prefixes
    monkeypatch.setattr(cli, "lemma3_bound", lambda k, m, n: n * n)
    for cls in (cls_of(7, (1, 2)), cls_of(8, (3,)), cls_of(8, (1, 1, 1))):
        got = cmd_verify_lemma3(cls)["violations"]
        assert len(got) >= 3
        assert_listed_by_cell(cls, got, [(s, t) for s, t, _, _ in member_pairs(cls)])


def test_lemma4_disagreements_below_threshold_listed_like_the_oracle():
    # below n >= 4k count k^2 no longer decides orthogonality, e.g. dims 3 at n=8
    for cls in (cls_of(8, (3,)), cls_of(7, (1, 2)), cls_of(9, (2, 2))):
        oracle = oracle_verify_lemma4(cls)
        got = cli._lemma4_disagreements(cls, pair_cells(cls), oracle["members"])
        assert got
        want = oracle["violations"]
        assert_listed_by_cell(cls, got, [v["pair"] for v in want])
        verdicts = {tuple(v["pair"]): (v["by_count"], v["direct"]) for v in want}
        assert [(e["by_count"], e["direct"]) for e in got] == [verdicts[tuple(e["pair"])] for e in got]


def test_label_commands_frame_option(tmp_path, capsys):
    cls = cls_of(8, (1, 1))
    args = ["--n", "8", "--alphas", "1,2", "--dims", "1,1"]
    rotated = util.random_frame(8, random.Random(4))
    good = tmp_path / "rotated.json"
    good.write_text(json.dumps(serialize.frame_to_json(rotated)))
    small = tmp_path / "small.json"
    small.write_text(json.dumps(serialize.frame_to_json(standard_apartment(cls_of(7, (1, 1))).frame)))
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps({"n": 8}))
    for command in ("verify-lemma3", "verify-lemma4"):
        capsys.readouterr()
        assert main([command] + args) == 0
        plain = capsys.readouterr()
        assert main([command, "--frame", str(good)] + args) == 0
        framed = capsys.readouterr()
        assert (framed.out, framed.err) == (plain.out, plain.err)
        for bad in (small, broken):
            assert main([command, "--frame", str(bad)] + args) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "error:" in captured.err


# ---------------------------------------------------------------------------
# malformed input files

def test_member_file_shape_errors_exit_2(tmp_path, capsys):
    good_class = {"n": 6, "alphas": ["1", "2"], "dims": [1, 1]}
    cases = [
        ({"members": []}, "'class'"),
        ({"class": {"n": 4}, "members": []}, "'alphas'"),
        ({"class": good_class, "members": 5}, "members"),
        ({"class": good_class}, "'members'"),
        ({"class": {**good_class, "n": "6"}, "members": []}, "class.n"),
        ({"class": good_class, "members": [[0, 1, None, None, None]]}, "members[0]"),
        ({"class": good_class, "members": [[0, 1, None, None, None, "x"]]}, "members[0][5]"),
        ({"class": {**good_class, "alphas": ["1/0", "2"]}, "members": []}, "class.alphas[0]"),
        # an entry that is neither a slot of the class nor null
        ({"class": good_class, "members": [[0, 1, 7, None, None, None]]}, "frame line 2 has label 7"),
        ({"class": good_class, "members": [[0, 1, -1, None, None, None]]}, "frame line 2 has label -1"),
        ([], "member file"),
    ]
    path = tmp_path / "members.json"
    for data, field in cases:
        path.write_text(json.dumps(data))
        assert main(["inexact", str(path)]) == 2, data
        captured = capsys.readouterr()
        assert captured.out == ""
        assert field in captured.err, (data, captured.err)


def test_exponent_scalar_exits_2_quickly(tmp_path, capsys):
    path = tmp_path / "family.json"
    path.write_text(json.dumps([[["1e300000"]]]))
    start = time.perf_counter()
    assert main(["refine", str(path)]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exponent" in captured.err


def test_deeply_nested_json_exits_2(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    members = tmp_path / "members.json"
    members.write_text(json.dumps({"class": {"n": 7, "alphas": ["1"], "dims": [1]}, "members": []}))
    label_args = ["--n", "7", "--alphas", "1,2", "--dims", "1,2"]
    for argv in (
        ["refine", str(deep)],
        ["inexact", str(deep)],
        ["inexact", str(members), "--frame", str(deep)],
        ["verify-lemma3", "--frame", str(deep)] + label_args,
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "nested too deeply" in captured.err, argv


@pytest.mark.parametrize("command", [["verify-lemma3"], ["verify-lemma4"], ["counterexample", "orth"]])
def test_report_too_long_to_write_exits_2(command, tmp_path, capsys):
    # at n = 10^2200 a count has over 4,300 digits, which str() refuses while
    # the report is serialized: an input error, with no partial --out file
    out = tmp_path / "report.json"
    argv = command + ["--n", str(10 ** 2200), "--alphas", "1,2", "--dims", "1,1"]
    for extra in ([], ["--out", str(out)]):
        assert main(argv + extra) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "digits" in captured.err
    assert not out.exists()


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)

VALID_INPUTS = {
    "inexact": {
        "class": {"n": 6, "alphas": ["1", "-1/2"], "dims": [1, 2]},
        "members": [[0, 1, 1, None, None, None], [None, 0, None, 1, 1, None]],
    },
    "refine": [
        [["1", "0", "0"], ["0", "1", "0"]],
        [["0", "1", "0"], ["0", "0", "1/2"]],
    ],
}


def _paths(data, prefix=()):
    yield prefix
    children = data.items() if isinstance(data, dict) else enumerate(data) if isinstance(data, list) else ()
    for key, value in children:
        yield from _paths(value, prefix + (key,))


def _replaced(data, path, value):
    if not path:
        return value
    copy = dict(data) if isinstance(data, dict) else list(data)
    copy[path[0]] = _replaced(data[path[0]], path[1:], value)
    return copy


@st.composite
def cli_inputs(draw):
    """A subcommand and its input file: random JSON, or a valid input with
    one field replaced by random JSON."""
    command = draw(st.sampled_from(sorted(VALID_INPUTS)))
    if draw(st.booleans()):
        return command, draw(JSON)
    valid = VALID_INPUTS[command]
    path = draw(st.sampled_from(list(_paths(valid))))
    return command, _replaced(valid, path, draw(JSON))


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cli_inputs())
def test_fuzz_refine_and_inexact_keep_the_exit_contract(capsys, case):
    command, data = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w") as fh:
            json.dump(data, fh)
        code = main([command, path])
    captured = capsys.readouterr()
    assert code in (0, 1, 2)
    assert "Traceback" not in captured.err
