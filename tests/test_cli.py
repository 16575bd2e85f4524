import json

import pytest

from orthoapart.cli import (
    cmd_counterexample,
    cmd_refine,
    cmd_scan_boundary,
    cmd_verify_lemma3,
    cmd_verify_lemma4,
    main,
)
from orthoapart.errors import OrthoapartError, ThresholdViolation
from orthoapart.operators import ClassDescriptor
from fractions import Fraction


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
    args = ["verify-lemma4", "--n", "8", "--alphas", "1,2", "--dims", "1,1", "--seed", "5"]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_config_error_exit_code():
    assert main(["verify-lemma4", "--n", "11", "--alphas", "1,2", "--dims", "1,2"]) == 2
    assert main(["verify-lemma3", "--n", "6", "--alphas", "1,1", "--dims", "1,1"]) == 2


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


def test_cmd_refine_empty_family_needs_n(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("[]")
    assert main(["refine", str(path)]) == 2
    out = tmp_path / "frame.json"
    assert main(["refine", str(path), "--n", "3", "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["frame"]["lines"]) == 3
